"""Command-line entry point.

Results go to stdout (or --output); diagnostics and per-run statistics go
to stderr as `key=value` lines, so stdout stays machine-consumable.
Exit codes: 0 success, 1 infeasible/violation result, 2 input error,
3 internal error (a broken invariant: a bug in flowkit, not in the input).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import apps, decompose, lp, network, simplicial, solvers
from .values import format_value, parse_value

DIMACS_GRAMMAR = """\
network file (maximum-flow problem):
  c <comment>
  p max <n> <m>
  n <id> s
  n <id> t
  a <u> <v> <cap>          # <cap> is an integer or <p>/<q> rational
flow file:
  f <u> <v> <value>        # one line per positive-flow arc
  s <|f|>
"""

HNET_GRAMMAR = """\
complex file (one facet per line, indices follow line order):
  hnet dim <d>
  t <v0> ... <vd>          # source facet, orientation as written
  f <v0> ... <vd> <cap>    # capacitated facet
flow output:
  hf <facet-index> <value>
  s <f(T)>
"""

POSET_GRAMMAR = """\
poset file:
  el <name>
  bottom <name>
  top <name>
  cover <lo> <hi>
chain output: `chain <e1> ... <ek>` lines, then `s <count>`.
"""

MATCHING_GRAMMAR = """\
bipartite file (both sides indexed 1..n):
  p matching <n> <m>
  e <i> <j>
output: `match <v> <w>` lines, or `violation <v1> <v2> ...` (exit 1).
"""


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _diag(line):
    sys.stderr.write(line + "\n")


def _stats_line(algo, stats):
    parts = [f"algo={algo}"] + [f"{k}={format_value(v) if hasattr(v, 'denominator') else v}"
                                for k, v in sorted(stats.items())]
    return " ".join(parts)


def cmd_maxflow(args):
    net = network.read_dimacs(_read(args.network), allow_antiparallel=args.allow_antiparallel)
    if args.algo == "all":
        out = []
        for name in ("ek", "pr", "hoch"):
            result = solvers.ALGORITHMS[name](net)
            _diag(_stats_line(name, result.stats))
            out.append(f"s {format_value(result.value)}")
        _emit(args, "\n".join(out) + "\n")
        return 0
    result = solvers.ALGORITHMS[args.algo](net)
    _diag(_stats_line(args.algo, result.stats))
    _emit(args, network.write_flow(net, result.flow, result.value))
    return 0


def cmd_mincut(args):
    net = network.read_dimacs(_read(args.network), allow_antiparallel=args.allow_antiparallel)
    result = solvers.ALGORITHMS[args.algo](net)
    _diag(_stats_line(args.algo, result.stats))
    lines = [f"v {v}" for v in sorted(result.cut.source_side)]
    lines.append(f"s {format_value(result.value)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_decompose(args):
    net = network.read_dimacs(_read(args.network), allow_antiparallel=args.allow_antiparallel)
    flow = network.read_flow(net, _read(args.flow))
    components = decompose.decompose(net, flow)
    _diag(f"components={len(components)} arcs={net.m}")
    _emit(args, decompose.write_components(components))
    return 0


def cmd_lp_dual(args):
    net = network.read_dimacs(_read(args.network))
    primal = lp.build_primal(net)
    dual = lp.build_dual(primal)
    p_res = lp.simplex_solve(primal)
    d_res = lp.simplex_solve(dual)
    text = lp.write_lp(primal) + "\n" + lp.write_lp(dual)
    for label, res in (("primal_opt", p_res), ("dual_opt", d_res)):
        value = format_value(res.value) if res.status == "optimal" else res.status
        text += f"{label} {value}\n"
    _emit(args, text)
    return 0 if p_res.status == "optimal" and d_res.status == "optimal" else 1


def cmd_tu_check(args):
    matrix = lp.read_matrix(_read(args.matrix))
    result = lp.is_totally_unimodular(matrix, budget=args.budget)
    if result.is_tu:
        _emit(args, "tu true\n")
    else:
        rows = " ".join(str(i) for i in result.witness_rows)
        cols = " ".join(str(j) for j in result.witness_cols)
        _emit(args, f"tu false\nwitness rows {rows} cols {cols} det {result.witness_det}\n")
    return 0


def cmd_matching(args):
    graph = apps.read_bipartite(_read(args.graph))
    result = apps.perfect_matching(graph)
    if isinstance(result, apps.PerfectMatching):
        _emit(args, "".join(f"match {i} {j}\n" for (i, j) in result.pairs))
        return 0
    _emit(args, "violation " + " ".join(str(v) for v in sorted(result.subset)) + "\n")
    return 1


def cmd_chains(args):
    poset = apps.read_poset(_read(args.poset))
    chains = apps.max_disjoint_chains(poset)
    lines = ["chain " + " ".join(chain) for chain in chains]
    lines.append(f"s {len(chains)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_segment(args):
    try:
        penalty = parse_value(args.penalty)
    except ValueError as exc:
        _diag(f"error: --penalty: {exc}")
        return 2
    img = apps.image_from_pgm(_read(args.image), penalty)
    seg = apps.segment_image(img)
    _diag(f"score={format_value(seg.score)} cost={format_value(seg.cost)} "
          f"mass={format_value(seg.total_mass)}")
    _emit(args, apps.write_pbm(img.width, img.height, seg.foreground))
    return 0


def cmd_hflow(args):
    hnet = simplicial.read_hnet(_read(args.complex))
    if args.algo == "all":
        out = []
        for name in ("lp", "augment"):
            result = _run_hflow(hnet, name)
            if result.status != "optimal":
                _emit(args, f"status {result.status}\n")
                return 1
            _diag(f"algo={name} value={format_value(result.value)}")
            out.append(f"s {format_value(result.value)}")
        _emit(args, "\n".join(out) + "\n")
        return 0
    result = _run_hflow(hnet, args.algo)
    if result.status != "optimal":
        _emit(args, f"status {result.status}\n")
        return 1
    if result.trace is not None:
        _diag(f"augmentations={len(result.trace)}")
    _emit(args, simplicial.write_hflow(hnet, result.flow))
    return 0


def _run_hflow(hnet, algo):
    if algo == "lp":
        return simplicial.hmaxflow_lp(hnet)
    return simplicial.hmaxflow_augment(hnet)


def cmd_hcut(args):
    hnet = simplicial.read_hnet(_read(args.complex))
    faces = hnet.complex.faces()
    for i, face in enumerate(faces):
        _diag(f"face {i} " + " ".join(str(v) for v in face))
    if args.sprime is not None:
        try:
            indices = [int(tok) for tok in args.sprime.split(",")] if args.sprime else []
        except ValueError:
            _diag(f"error: --sprime expects comma-separated face indices, got {args.sprime!r}")
            return 2
        unknown = sorted(set(indices) - set(range(len(faces))))
        if unknown:
            _diag(f"error: --sprime names unknown face indices {unknown}")
            return 2
        s_side = frozenset(f for i, f in enumerate(faces) if i not in set(indices))
        cut = simplicial.make_hcut(hnet.complex, s_side)
        cap, point = simplicial.hcut_capacity(hnet, cut)
    else:
        cap, point = min((simplicial.hcut_capacity(hnet, candidate)
                          for candidate in simplicial.all_hcuts(hnet.complex, budget=args.budget)),
                         key=lambda pair: pair[0])
    lines = []
    for i, face in enumerate(faces):
        lines.append(f"lambda {i} {format_value(point.lam[face])}")
    for j in range(hnet.facet_count()):
        lines.append(f"eta {j} {format_value(point.eta[j])}")
    lines.append(f"cap {format_value(cap)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_conjecture_probe(args):
    if args.trials < 0:
        _diag(f"error: --trials must be non-negative, got {args.trials}")
        return 2
    report = simplicial.conjecture_probe(args.seed, args.trials, max_facets=args.max_facets)
    _diag(f"discrepancies={len(report.discrepancies())}")
    _emit(args, simplicial.write_probe_report(report))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and a parser built on every `main` call is cyclic garbage
    that stays in memory until a full garbage collection."""
    parser = argparse.ArgumentParser(
        prog="flowkit",
        description="Exact-rational maximum flow, LP duality, combinatorial "
                    "reductions, and flows on oriented simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, epilog=None):
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write results here instead of stdout")
        return p

    p = add("maxflow", cmd_maxflow, "maximum flow of a network file", DIMACS_GRAMMAR)
    p.add_argument("network")
    p.add_argument("--algo", choices=["ek", "pr", "hoch", "all"], default="ek")
    p.add_argument("--allow-antiparallel", action="store_true",
                   help="subdivide antiparallel arc pairs instead of rejecting them")

    p = add("mincut", cmd_mincut, "minimum cut from a maximal flow", DIMACS_GRAMMAR)
    p.add_argument("network")
    p.add_argument("--algo", choices=["ek", "pr", "hoch"], default="ek")
    p.add_argument("--allow-antiparallel", action="store_true")

    p = add("decompose", cmd_decompose,
            "split a flow into path and cycle components", DIMACS_GRAMMAR)
    p.add_argument("network")
    p.add_argument("flow")
    p.add_argument("--allow-antiparallel", action="store_true")

    p = add("lp-dual", cmd_lp_dual,
            "emit and solve the flow LP and its dual",
            "output: primal program, dual program (sense / objective / rows "
            "`A | b` / nonneg flags), then `primal_opt` and `dual_opt` lines.")
    p.add_argument("network")

    p = add("tu-check", cmd_tu_check,
            "total unimodularity by exhaustive subdeterminants",
            "input: whitespace-separated integer rows, one row per line.")
    p.add_argument("matrix")
    p.add_argument("--budget", type=int, default=200_000,
                   help="largest admissible number of square submatrices")

    p = add("matching", cmd_matching, "bipartite perfect matching", MATCHING_GRAMMAR)
    p.add_argument("graph")

    p = add("chains", cmd_chains, "maximum cover-disjoint maximal chains", POSET_GRAMMAR)
    p.add_argument("poset")

    p = add("segment", cmd_segment,
            "foreground/background segmentation of a P2 image",
            "input: plain PGM (P2); output: plain PBM (P1), 1 = foreground.\n"
            "Pixel probabilities default to g/maxval and 1 - g/maxval; the\n"
            "uniform penalty is a heuristic knob, not part of the model.")
    p.add_argument("image")
    p.add_argument("--penalty", default="1/10", help="uniform neighbor penalty (rational)")

    p = add("hflow", cmd_hflow, "maximum flow on an oriented complex", HNET_GRAMMAR)
    p.add_argument("complex")
    p.add_argument("--algo", choices=["lp", "augment", "all"], default="lp")

    p = add("hcut", cmd_hcut,
            "capacity and dual point of a face partition", HNET_GRAMMAR)
    p.add_argument("complex")
    p.add_argument("--sprime",
                   help="comma-separated face indices forming the far side; "
                        "omit to sweep every partition and report the cheapest")
    p.add_argument("--budget", type=int, default=4096)

    p = add("conjecture-probe", cmd_conjecture_probe,
            "compare the augmentation fixpoint with the LP optimum on random 2-complexes",
            "report: one `trial ...` line per instance; discrepancy instances\n"
            "are embedded as `inst <trial> <line>` records and re-runnable.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-facets", type=int, default=8)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except network.ParseError as exc:
        _diag(f"error: {exc}")
        return 2
    except FileNotFoundError as exc:
        _diag(f"error: {exc}")
        return 2
    except (network.NetworkError, lp.Malformed, lp.Infeasible, lp.BudgetExceeded,
            simplicial.ComplexError) as exc:
        _diag(f"error: {exc}")
        return 2
    except network.InvariantViolation as exc:
        _diag(f"error: internal: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
