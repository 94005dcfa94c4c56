"""End-to-end command-line checks over the documented formats."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import seeded_networks
from flowkit import lp, network, solvers
from flowkit.cli import main
from oracles import (
    flow_text_by_definition,
    lp_dual_by_fractions,
    random_network_spec,
    segmentation_by_definition,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
NET = "c tiny\np max 4 5\nn 1 s\nn 4 t\na 1 2 3\na 1 3 2\na 2 4 2\na 3 4 3\na 2 3 1\n"
TETRA = "hnet dim 2\nf 2 3 4 1\nf 1 2 4 1\nf 1 4 3 1\nt 1 3 2\n"


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.dimacs"
    path.write_text(NET)
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.hnet"
    path.write_text(TETRA)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_maxflow_single_algorithm(capsys, net_file):
    code, out, err = run(capsys, "maxflow", net_file)
    assert code == 0
    assert out.strip().splitlines()[-1] == "s 5"
    assert "algo=ek" in err


def test_maxflow_all_algorithms_agree(capsys, net_file):
    code, out, err = run(capsys, "maxflow", "--algo=all", net_file)
    assert code == 0
    assert out.splitlines() == ["s 5", "s 5", "s 5"]
    for tag in ("algo=ek", "algo=pr", "algo=hoch"):
        assert tag in err


def test_maxflow_empty_arcs(capsys, tmp_path):
    path = tmp_path / "empty.dimacs"
    path.write_text("p max 2 0\nn 1 s\nn 2 t\n")
    code, out, _ = run(capsys, "maxflow", str(path))
    assert code == 0 and out.strip() == "s 0"


def test_deterministic_output(capsys, net_file, tetra_file):
    first = run(capsys, "maxflow", "--algo=all", net_file)
    second = run(capsys, "maxflow", "--algo=all", net_file)
    assert first == second
    first = run(capsys, "conjecture-probe", "--seed", "5", "--trials", "8")
    second = run(capsys, "conjecture-probe", "--seed", "5", "--trials", "8")
    assert first == second


def test_mincut(capsys, net_file):
    code, out, _ = run(capsys, "mincut", net_file)
    assert code == 0
    assert out.splitlines()[-1] == "s 5"
    assert out.splitlines()[0] == "v 1"


def _default_mincut_is_ek_bytes_on_pr(capsys, path, *flags):
    """A default `mincut` prints the stdout of `--algo=ek` and reports
    push-relabel on stderr."""
    code, out, err = run(capsys, "mincut", *flags, str(path))
    ek = run(capsys, "mincut", "--algo=ek", *flags, str(path))
    assert (code, out) == ek[:2] and code == 0
    assert err.startswith("algo=pr ") and err.count("\n") == 1


def test_default_mincut_prints_the_ek_cut_on_every_sample(capsys):
    samples = sorted(SAMPLES.glob("*.dimacs"))
    assert samples
    for path in samples:
        _default_mincut_is_ek_bytes_on_pr(capsys, path)


def test_default_mincut_prints_the_ek_cut_on_seeded_networks(capsys, tmp_path):
    # integer, rational and 0/1 capacities, written out and read back
    path = tmp_path / "net.dimacs"
    kinds = set()
    for label, net in seeded_networks(240):
        if label.startswith("gadget"):
            continue
        kinds.add(label.split()[0])
        path.write_text(network.write_dimacs(net))
        _default_mincut_is_ek_bytes_on_pr(capsys, path)
    assert kinds == {"integer", "rational", "unit"}


def test_default_mincut_prints_the_ek_cut_with_antiparallel_pairs(capsys, tmp_path):
    # the file keeps its antiparallel pairs; --allow-antiparallel subdivides them
    path = tmp_path / "net.dimacs"
    pairs_seen = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        pairs = [(u, v) for u in range(1, n) for v in range(2, n + 1)
                 if u != v and rng.random() < 0.4]
        pairs_seen += sum((v, u) in pairs for (u, v) in pairs)
        caps = [Fraction(rng.randint(0, 30), rng.choice([1, 7, 11, 13])) for _ in pairs]
        path.write_text(f"p max {n} {len(pairs)}\nn 1 s\nn {n} t\n" + "".join(
            f"a {u} {v} {c}\n" for (u, v), c in zip(pairs, caps)))
        _default_mincut_is_ek_bytes_on_pr(capsys, path, "--allow-antiparallel")
    assert pairs_seen > 0


def test_maxflow_prints_what_write_flow_writes_for_the_flow(capsys, tmp_path):
    """The CLI writes the solver's certified ints; the text must be the flow
    file that the grammar gives for the flow as Fractions."""
    path = tmp_path / "net.dimacs"
    for label, net in seeded_networks(240):
        path.write_text(network.write_dimacs(net))
        for algo, solver in solvers.ALGORITHMS.items():
            result = solver(net)
            code, out, _ = run(capsys, "maxflow", f"--algo={algo}", str(path))
            assert code == 0 and out == flow_text_by_definition(net, result.scaled), (label, algo)


def test_mincut_and_segment_build_no_flow_assignment(capsys, net_file, tmp_path, monkeypatch):
    built = []
    init = network.FlowAssignment.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(network.FlowAssignment, "__init__", counted)
    image = tmp_path / "img.pgm"
    image.write_text("P2\n3 2\n10\n9 1 4\n8 2 7\n")
    poset = tmp_path / "poset.txt"
    poset.write_text("el a\nel b\nel c\nbottom a\ntop c\ncover a b\ncover b c\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("p matching 2 2\ne 1 1\ne 2 2\n")
    flow = tmp_path / "flow.txt"
    flow.write_text("f 1 2 2\nf 2 4 2\ns 2\n")
    for argv in (["mincut", "--algo=ek", net_file], ["mincut", "--algo=pr", net_file],
                 ["mincut", "--algo=hoch", net_file], ["segment", str(image)],
                 ["maxflow", "--algo=all", net_file], ["chains", str(poset)],
                 ["matching", str(pairs)], ["decompose", net_file, str(flow)],
                 ["lp-dual", net_file]):
        code, _, _ = run(capsys, *argv)
        assert code == 0 and built == [], argv
    # the count is not vacuous: a result's `flow` builds one when first read
    solvers.edmonds_karp(network.read_dimacs(NET)).flow
    assert len(built) == 1


def test_decompose_round_trip(capsys, net_file, tmp_path):
    code, out, _ = run(capsys, "maxflow", net_file)
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text(out)
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 0
    assert all(line.split()[0] in ("path", "cycle") for line in out.strip().splitlines())
    assert "components=" in err


@pytest.mark.parametrize("value_line", ["", "s 2\n"])
@pytest.mark.parametrize("text, violation", [
    ("f 1 2 2\nf 2 4 1\n", "Violation(kind='conservation', where=2, amount=Fraction(1, 1))"),
    ("f 1 2 2\nf 2 3 2\nf 3 4 2\n",
     "Violation(kind='capacity', where=(2, 3), amount=Fraction(1, 1))"),
    # the violation names the arc the file wrote, (1, 2), not its reverse
    ("f 1 2 -1\n", "Violation(kind='capacity', where=(1, 2), amount=Fraction(-1, 1)), "
                   "Violation(kind='conservation', where=2, amount=Fraction(-1, 1))"),
])
def test_decompose_rejects_an_invalid_flow(capsys, net_file, tmp_path, text, violation,
                                           value_line):
    # with or without an `s` line, the flow is checked once and refused
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text(text + value_line)
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 2 and out == ""
    assert err == f"error: invalid flow: [{violation}]\n"


def test_decompose_rejects_a_repeated_flow_line(capsys, net_file, tmp_path):
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text("f 1 2 2\nf 2 4 2\nf 1 2 2\n")
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 2 and out == ""
    assert err == "error: line 3: duplicate value for arc (1, 2)\n"


def test_decompose_rejects_a_repeated_value_line(capsys, net_file, tmp_path):
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text("f 1 2 2\nf 2 4 2\ns 3\ns 2\n")
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 2 and out == ""
    assert err == "error: line 4: duplicate flow value line\n"


def test_decompose_rejects_a_bad_value_line(capsys, net_file, tmp_path):
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text("f 1 2 2\nf 2 4 2\ns abc\n")
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 2 and out == ""
    assert err == "error: line 3: not a rational value: 'abc'\n"


def test_lp_dual(capsys, net_file, monkeypatch):
    solves = []
    core = lp._simplex

    def counted(*args, **kwargs):
        solves.append(len(args[0]))
        return core(*args, **kwargs)

    monkeypatch.setattr(lp, "_simplex", counted)
    code, out, _ = run(capsys, "lp-dual", net_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "max"
    assert "primal_opt 5" in lines and "dual_opt 5" in lines
    assert solves == [5]  # one solve, of the primal's five arc variables


def test_lp_dual_matches_its_fraction_program(capsys, tmp_path):
    # 210 networks, n = 2..10, each capacity an integer, a coprime ratio
    # (p/q in lowest terms, q > 1) or zero; the program of int cells must
    # print the bytes a program of Fraction cells prints
    rng = random.Random(24)
    path = tmp_path / "net.dimacs"
    sizes = set()
    for k in range(210):
        n, s, t, spec = random_network_spec(rng, max_n=10, density=0.4)
        sizes.add(n)
        caps = [rng.choice([0, rng.randint(1, 12), Fraction(rng.randint(1, 40), 41),
                            Fraction(rng.choice([1, 5, 7]), 6)]) for _ in spec]
        net = network.build_network(n, s, t, [(u, v, c) for (u, v, _), c in zip(spec, caps)])
        path.write_text(network.write_dimacs(net))
        code, out, err = run(capsys, "lp-dual", str(path))
        assert code == 0 and err == ""
        assert out == lp_dual_by_fractions(network.read_dimacs(path.read_text())), k
    assert sizes == set(range(2, 11))


def test_lp_dual_refuses_an_uncertified_dual(capsys, net_file, monkeypatch):
    solve = lp.simplex_solve

    def wrong(program):
        res = solve(program)
        return dataclasses.replace(res, dual=tuple(y + Fraction(1, 7) for y in res.dual))

    monkeypatch.setattr(lp, "simplex_solve", wrong)
    code, out, err = run(capsys, "lp-dual", net_file)
    assert code == 3 and out == ""
    assert err.startswith("error: internal: lp certificate invariant broken at certify")
    monkeypatch.setattr(lp, "simplex_solve", lambda program: lp.LPResult("infeasible", None, None))
    code, out, err = run(capsys, "lp-dual", net_file)
    assert code == 3 and out == ""
    assert err == ("error: internal: feasible zero flow invariant broken at lp-dual: "
                   "['infeasible']\n")


def test_tu_check(capsys, tmp_path):
    good = tmp_path / "id.txt"
    good.write_text("1 0\n0 1\n")
    code, out, _ = run(capsys, "tu-check", str(good))
    assert code == 0 and out == "tu true\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n-1 1\n")
    code, out, _ = run(capsys, "tu-check", str(bad))
    assert code == 0
    assert out.splitlines()[0] == "tu false"
    assert "det 2" in out


def test_matching_success_and_violation(capsys, tmp_path):
    ok = tmp_path / "ok.txt"
    ok.write_text("p matching 2 2\ne 1 1\ne 2 2\n")
    code, out, _ = run(capsys, "matching", str(ok))
    assert code == 0 and out == "match 1 1\nmatch 2 2\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("p matching 2 1\ne 1 1\n")
    code, out, _ = run(capsys, "matching", str(bad))
    assert code == 1 and out.startswith("violation ")


def test_matching_rejects_a_repeated_problem_line(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("p matching 2 2\ne 1 1\np matching 3 2\ne 2 2\n")
    code, out, err = run(capsys, "matching", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 3: duplicate problem line\n"


def test_matching_refuses_a_negative_vertex_count(capsys, tmp_path):
    # the p line is at fault, not the network built from it
    path = tmp_path / "graph.txt"
    path.write_text("c two sides of -2 vertices\np matching -2 0\n")
    code, out, err = run(capsys, "matching", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2: vertex count must be non-negative, got -2\n"


@pytest.mark.parametrize("text, err", [
    ("p matching 2 -1\n", "line 1: edge count must be non-negative, got -1"),
    ("c one edge short\np matching 2 2\ne 1 1\n", "line 2: problem line announced 2 edges, found 1"),
    ("p matching 2 1\ne 1 1\ne 2 2\n", "line 1: problem line announced 1 edges, found 2"),
], ids=["negative", "too-few", "too-many"])
def test_matching_names_the_p_line_of_a_wrong_edge_count(capsys, tmp_path, text, err):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, out, got = run(capsys, "matching", str(path))
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("text, err", [
    ("p matching 2 2\ne 1 1\ne 1 1\n", "line 3: duplicate edge (1, 1)"),
    ("p matching 3 2\ne 1 1\nc the left side has 3 vertices\ne 4 1\n",
     "line 4: edge (4, 1) out of range"),
    ("p matching 2 1\ne 2 0\n", "line 2: edge (2, 0) out of range"),
], ids=["duplicate", "left-out-of-range", "right-out-of-range"])
def test_matching_names_the_e_line_of_a_bad_edge(capsys, tmp_path, text, err):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, out, got = run(capsys, "matching", str(path))
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_chains(capsys, tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text("el b\nel x\nel y\nel t\nbottom b\ntop t\n"
                    "cover b x\ncover b y\ncover x t\ncover y t\n")
    code, out, _ = run(capsys, "chains", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "s 2" and len(lines) == 3


@pytest.mark.parametrize("kind, records, line", [
    ("top", "bottom a\ntop b\ntop c\n", 6),
    ("bottom", "bottom b\nbottom a\ntop c\n", 5),
], ids=["top", "bottom"])
def test_chains_rejects_a_repeated_bottom_or_top(capsys, tmp_path, kind, records, line):
    path = tmp_path / "poset.txt"
    path.write_text("el a\nel b\nel c\n" + records + "cover a b\ncover b c\n")
    code, out, err = run(capsys, "chains", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line {line}: duplicate {kind} line\n"


@pytest.mark.parametrize("records, err", [
    ("cover a x\n", "line 6: unknown element in pair (a, x)"),
    ("cover a a\n", "line 6: reflexive pair (a, a)"),
    ("el b\n", "line 6: duplicate element b"),
], ids=["unknown", "reflexive", "duplicate"])
def test_chains_names_the_line_of_a_bad_element_or_pair(capsys, tmp_path, records, err):
    path = tmp_path / "poset.txt"
    path.write_text("el a\nel b\nbottom a\ntop b\ncover a b\n" + records)
    code, out, got = run(capsys, "chains", str(path))
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("records, err", [
    ("bottom x\ntop b\n", "line 3: unknown bottom element x"),
    ("bottom a\ntop y\n", "line 4: unknown top element y"),
], ids=["bottom", "top"])
def test_chains_names_the_line_of_an_unknown_bottom_or_top(capsys, tmp_path, records, err):
    path = tmp_path / "poset.txt"
    path.write_text("el a\nel b\n" + records + "cover a b\n")
    code, out, got = run(capsys, "chains", str(path))
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("records, err", [
    ("bottom a\ntop c\ncover a c\n", "line 2: element b is not above the bottom a"),
    ("bottom a\ntop c\ncover a b\ncover a c\n", "line 2: element b is not below the top c"),
    ("bottom b\ntop b\ncover a b\ncover b c\n", "line 5: bottom and top are the same element b"),
], ids=["not above the bottom", "not below the top", "bottom is top"])
def test_chains_names_the_line_of_an_element_out_of_bounds(capsys, tmp_path, records, err):
    path = tmp_path / "poset.txt"
    path.write_text("el a\nel b\nel c\n" + records)
    code, out, got = run(capsys, "chains", str(path))
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_chains_names_a_cover_line_on_a_cycle(capsys, tmp_path):
    # a < b is no part of the cycle b < c < b, so line 6 is not named
    path = tmp_path / "poset.txt"
    path.write_text("el a\nel b\nel c\nbottom a\ntop c\ncover a b\ncover b c\ncover c b\n")
    code, out, got = run(capsys, "chains", str(path))
    assert (code, out, got) == (2, "", "error: line 7: relation contains a cycle through b\n")


def test_segment(capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n10\n9 1\n")
    code, out, err = run(capsys, "segment", str(path), "--penalty", "0")
    assert code == 0
    assert out == "P1\n2 1\n1 0\n"
    assert "score=" in err


def test_segment_matches_its_fraction_construction(capsys, tmp_path):
    # 210 images: every (maxval, penalty) pairing six times, 1 x 1 and 9 x 7
    # among the sizes; samples lean to 0 and maxval so that cuts vary
    rng = random.Random(23)
    path = tmp_path / "img.pgm"
    penalties = ["0", "1", "3", "1/10", "2/7", "13/11", "0/5"]
    for k in range(210):
        w, h = [(1, 1), (9, 7)][k] if k < 2 else (rng.randint(1, 9), rng.randint(1, 7))
        maxval, penalty = (1, 2, 7, 255, 65535)[k % 5], penalties[k % 7]
        rows = [" ".join(str(rng.choice([0, maxval, rng.randint(0, maxval)])) for _ in range(w))
                for _ in range(h)]
        text = f"P2\n{w} {h}\n{maxval}\n" + "\n".join(rows) + "\n"
        path.write_text(text)
        code, out, err = run(capsys, "segment", str(path), "--penalty", penalty)
        assert code == 0
        assert (out, err) == segmentation_by_definition(text, Fraction(penalty)), (w, h, text)


def test_segment_rejects_a_bad_penalty(capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n10\n9 1\n")
    code, out, err = run(capsys, "segment", str(path), "--penalty", "abc")
    assert code == 2 and out == ""
    assert err == "error: --penalty: not a rational value: 'abc'\n"


@pytest.mark.parametrize("image", ["1 1\n10\n9\n", "2 1\n10\n9 1\n"], ids=["1x1", "2x1"])
def test_segment_rejects_a_negative_penalty(capsys, tmp_path, image):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n" + image)
    code, out, err = run(capsys, "segment", str(path), "--penalty=-1")
    assert code == 2 and out == ""
    assert err == "error: negative penalty -1\n"


@pytest.mark.parametrize("size", ["-1 -1", "0 0", "0 1", "1 -1"])
def test_segment_rejects_an_image_size_below_one(capsys, tmp_path, size):
    path = tmp_path / "img.pgm"
    path.write_text(f"P2\n{size}\n255\n7\n")
    code, out, err = run(capsys, "segment", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: image size must be at least 1 x 1")


@pytest.mark.parametrize("maxval", ["0", "-3"])
def test_segment_refuses_a_maxval_below_one(capsys, tmp_path, maxval):
    # every sample lies in [0, maxval] for maxval 0, so the fault is maxval
    path = tmp_path / "img.pgm"
    path.write_text(f"P2\n2 1\n{maxval}\n0 0\n")
    code, out, err = run(capsys, "segment", str(path))
    assert code == 2 and out == ""
    assert err == f"error: maxval must be at least 1, got {maxval}\n"


def test_hflow(capsys, tetra_file):
    code, out, _ = run(capsys, "hflow", tetra_file)
    assert code == 0
    assert out.strip().splitlines()[-1] == "s 1"
    code, out, _ = run(capsys, "hflow", "--algo=all", tetra_file)
    assert code == 0 and out == "s 1\ns 1\n"


def test_hflow_rejects_a_repeated_header(capsys, tmp_path):
    path = tmp_path / "tetra.hnet"
    path.write_text(TETRA + "hnet dim 2\n")
    code, out, err = run(capsys, "hflow", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 6: duplicate `hnet dim` header\n"


def test_hcut_sweep_and_explicit(capsys, tetra_file):
    code, out, _ = run(capsys, "hcut", tetra_file)
    assert code == 0
    assert out.strip().splitlines()[-1] == "cap 1"
    code, out, _ = run(capsys, "hcut", tetra_file, "--sprime", "")
    assert code == 0
    assert out.strip().splitlines()[-1] == "cap inf"


def test_probe_report(capsys):
    code, out, err = run(capsys, "conjecture-probe", "--seed", "3", "--trials", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("probe seed 3 trials 6")
    assert lines[-1].startswith("end discrepancies")
    assert "discrepancies=" in err


def test_probe_rejects_too_few_facets(capsys):
    code, out, err = run(capsys, "conjecture-probe", "--trials", "1", "--max-facets", "3")
    assert code == 2 and out == ""
    assert err == "error: a random 2-complex needs max_facets of at least 4, got 3\n"


def test_probe_rejects_a_negative_trial_count(capsys):
    code, out, err = run(capsys, "conjecture-probe", "--trials", "-3")
    assert code == 2 and out == ""
    assert err == "error: --trials must be non-negative, got -3\n"


def test_tu_check_rejects_a_negative_budget(capsys, tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("1 0\n0 1\n")
    code, out, err = run(capsys, "tu-check", str(path), "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: --budget must be non-negative, got -1\n"


def test_hcut_rejects_a_negative_budget(capsys, tetra_file):
    code, out, err = run(capsys, "hcut", tetra_file, "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: --budget must be non-negative, got -1\n"


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_text("p max x y\n")
    code, _, err = run(capsys, "maxflow", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "maxflow", "no-such-file.dimacs")
    assert code == 2


def test_a_directory_as_input_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "mincut", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno")


def test_undecodable_input_is_an_input_error(capsys, net_file, tmp_path):
    path = tmp_path / "binary.dimacs"
    path.write_bytes(b"p max 2 1\nn 1 s\nn 2 t\na 1 2 \xff\n")
    code, out, err = run(capsys, "maxflow", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: not UTF-8 (invalid start byte at byte 28)\n"
    # of the two files `decompose` reads, the message names the bad one
    flow = tmp_path / "bad.flow"
    flow.write_bytes(b"f 1 2 \xff\ns 1\n")
    code, out, err = run(capsys, "decompose", net_file, str(flow))
    assert code == 2 and out == ""
    assert err == f"error: {flow}: not UTF-8 (invalid start byte at byte 6)\n"


def test_unwritable_output_is_an_input_error(capsys, net_file, tmp_path):
    code, out, err = run(capsys, "maxflow", net_file, "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: [Errno")


def test_output_flag(capsys, net_file, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "maxflow", net_file, "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().splitlines()[-1] == "s 5"


def test_hcut_rejects_unknown_face_indices(capsys, tetra_file):
    code, out, err = run(capsys, "hcut", tetra_file, "--sprime", "0,99")
    assert code == 2 and out == ""
    assert "error: --sprime names unknown face indices [99]" in err
    code, _, _ = run(capsys, "hcut", tetra_file, "--sprime", "-1")
    assert code == 2


def test_internal_failure_has_its_own_exit_code(capsys, monkeypatch, net_file):
    from flowkit import solvers

    def broken(net):
        raise solvers.InvariantViolation("flow", "augmentation 1", ["fake"])

    monkeypatch.setitem(solvers.ALGORITHMS, "ek", broken)
    code, out, err = run(capsys, "maxflow", net_file)
    assert code == 3 and out == ""
    assert err == "error: internal: flow invariant broken at augmentation 1: ['fake']\n"
