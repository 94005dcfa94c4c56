"""Tests of the benchmark itself: determinism of the corpus and of the
counters, the output checks' ability to fail, and the tracer's coverage.
None of them depends on how fast anything runs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 3


def one_per_kind(corp):
    """Every operation on the instances of the first operation of each
    distinct (command, flags)."""
    first = {}
    for op in corp.ops:
        first.setdefault((op.command, op.flags), op.instance)
    corp.ops = [op for op in corp.ops if op.instance in first.values()]
    return corp


@pytest.fixture(scope="module")
def cli():
    return run.load_flowkit()


@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """Key -> (op, instance, output text, exit code, certified optimum) for
    one operation of every kind in every workload."""
    out = {}
    for workload in corpus.WORKLOADS:
        corp = one_per_kind(corpus.build(workload, SEED))
        runner = run.Runner(cli, corp, tmp_path_factory.mktemp(workload) / "work")
        for k, op in enumerate(corp.ops):
            code, _, error = runner.call(k)
            assert error is None, error
            instance = corp.instances[op.instance]
            out[op.key.split("/")[0]] = (op, instance, runner.output(k).decode(), code,
                                         checks.certified_value(instance))
    return out


def test_same_seed_same_corpus_and_other_seed_other_corpus():
    for workload in corpus.WORKLOADS:
        a, b, c = (corpus.build(workload, s) for s in (SEED, SEED, SEED + 1))
        texts = [{name: inst.text() for name, inst in x.instances.items()} for x in (a, b, c)]
        assert texts[0] == texts[1]
        assert [op.key for op in a.ops] == [op.key for op in b.ops]
        assert texts[0] != texts[2]


def test_corpus_stays_inside_the_stated_families():
    corp = corpus.build("reductions", SEED)
    matchings = [i for i in corp.instances.values() if isinstance(i, corpus.Bipartite)]
    assert all(40 <= g.n <= 80 for g in matchings)
    maxflow = corpus.build("maxflow", SEED)
    nets = list(maxflow.instances.values())
    assert sum(any(c.denominator > 1 for (_, _, c) in n.arcs) for n in nets) == len(nets) // 2
    for net in nets:
        pairs = {(u, v) for (u, v, _) in net.arcs}
        assert not any((v, u) in pairs for (u, v) in pairs)


def test_reference_maxflow_is_exact_on_a_rational_network():
    arcs = [(1, 2, Fraction(3, 7)), (1, 3, Fraction(1, 11)), (2, 3, Fraction(5, 13)),
            (2, 4, Fraction(1, 7)), (3, 4, Fraction(2))]
    value, side = checks.reference_maxflow(4, 1, 4, arcs)
    assert value == Fraction(3, 7) + Fraction(1, 11)
    assert side == {1}


def test_every_output_kind_passes_its_check(outputs):
    assert set(outputs) == {"segment", "matching", "chains", "maxflow-ek", "maxflow-pr",
                            "maxflow-hoch", "mincut", "lp-dual", "hflow-all", "hflow-lp"}
    for op, instance, text, code, optimum in outputs.values():
        if optimum is None:  # a 2-complex has no graph value: use its own `s`
            optimum = Fraction(text.split()[-1])
        checks.check(op, instance, text, code, optimum)


def _replace_last_value(text, kind, delta=1):
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        fields = lines[i].split()
        if fields and fields[0] == kind:
            fields[-1] = corpus.fmt(Fraction(fields[-1]) + delta)
            lines[i] = " ".join(fields)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {kind} line")


def _drop_first(text, kind):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
    return "\n".join(lines[:i] + lines[i + 1:]) + "\n"


def _corruptions(key, instance, text, optimum):
    if key.startswith("maxflow"):
        yield _replace_last_value(text, "s")              # `s` line disagrees with the flow
        yield _drop_first(text, "f")                      # conservation breaks
        yield _replace_last_value(text, "f", 10 ** 6)     # capacity breaks
    elif key == "mincut":
        yield _replace_last_value(text, "s")
        yield text.replace(f"v {instance.s}\n", "")       # source left out of S
    elif key == "segment":
        header, body = text.split("\n", 2)[:2], text.split("\n", 2)[2]
        yield "\n".join(header) + "\n" + body.translate(str.maketrans("01", "10"))
    elif key == "chains":
        yield _drop_first(text, "chain")                  # fewer chains than `s`
        first = next(line for line in text.splitlines() if line.startswith("chain"))
        yield first + "\n" + text                         # a cover used twice
    elif key == "lp-dual":
        yield _replace_last_value(text, "dual_opt")
    elif key == "hflow-all":
        yield _replace_last_value(text, "s")
    elif key == "hflow-lp":
        yield _replace_last_value(text, "hf", Fraction(1, 2))   # boundary no longer vanishes
        yield _replace_last_value(_replace_last_value(text, "hf", 1), "s")


@pytest.mark.parametrize("key", ["maxflow-ek", "maxflow-pr", "maxflow-hoch", "mincut",
                                 "segment", "chains", "lp-dual", "hflow-all", "hflow-lp"])
def test_each_check_rejects_a_corrupted_output(outputs, key):
    op, instance, text, code, optimum = outputs[key]
    if optimum is None:
        optimum = Fraction(text.split()[-1])
    bad = list(_corruptions(key, instance, text, optimum))
    assert bad
    for corrupted in bad:
        assert corrupted != text
        with pytest.raises(checks.CheckError):
            checks.check(op, instance, corrupted, code, optimum)


def test_flow_check_needs_the_residual_certificate(outputs):
    # the zero flow is feasible and its `s` line is right; only the
    # reachable sink shows that it is not maximum
    op, net, _, _, _ = outputs["maxflow-ek"]
    with pytest.raises(checks.CheckError, match="reachable"):
        checks.check_flow(net, "s 0\n", Fraction(0))


def test_matching_check_rejects_bad_pairs_and_bad_witnesses():
    graph = corpus.Bipartite(3, [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])
    good = "match 1 1\nmatch 2 2\nmatch 3 3\n"
    checks.check_matching(graph, good, 0)
    for bad in ("match 1 2\nmatch 2 2\nmatch 3 3\n",     # right vertex 2 twice
                "match 1 1\nmatch 2 2\n",                 # not perfect
                "match 1 1\nmatch 2 3\nmatch 3 2\n"):     # (2, 3) is no edge
        with pytest.raises(checks.CheckError):
            checks.check_matching(graph, bad, 0)
    hall = corpus.Bipartite(3, [(1, 1), (2, 1), (3, 2), (3, 3)])
    checks.check_matching(hall, "violation 1 2\n", 1)
    with pytest.raises(checks.CheckError):
        checks.check_matching(hall, "violation 1 3\n", 1)   # |N(S)| = 3 >= 2
    with pytest.raises(checks.CheckError):
        checks.check_matching(hall, "violation 1 2\n", 2)


def test_repeated_operations_must_match_their_first_output():
    class Flaky:
        def __init__(self):
            self.corpus = corpus.Corpus("test", 0, ops=[corpus.Op("a", "maxflow", (), "x")])
            self.calls = 0

        def call(self, k):
            return 0, 0.001, None

        def output(self, k):
            self.calls += 1
            return b"s 1\n" if self.calls < 3 else b"s 2\n"

    records, _, first, unstable = run.measure(Flaky(), seconds=0)
    assert len(records) >= run.MIN_OPS
    assert first[0] == (0, b"s 1\n")
    assert unstable == {0}


def test_tracer_wraps_every_lookup_name_and_restores_them(cli):
    mods = {name: sys.modules[f"flowkit.{name}"] for name in spans.TRACED}
    bound = {("apps", "edmonds_karp"): ("solvers", "edmonds_karp"),
             ("apps", "min_cut_from_flow"): ("decompose", "min_cut_from_flow"),
             ("apps", "decompose"): ("decompose", "decompose"),
             ("apps", "build_network"): ("network", "build_network"),
             ("simplicial", "solve_standard"): ("lp", "solve_standard"),
             ("decompose", "validate"): ("network", "validate"),
             ("solvers", "validate"): ("network", "validate"),
             ("solvers", "build_network"): ("network", "build_network")}
    for mod, fns in spans.TRACED.items():
        for fn in fns:
            bound[(mod, fn)] = (mod, fn)
    originals = {where: getattr(mods[src[0]], src[1]) for where, src in bound.items()}
    table = dict(mods["solvers"].ALGORITHMS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, name), original in originals.items():
            wrapped = getattr(mods[mod], name)
            assert wrapped is not original and wrapped.__wrapped__ is original, (mod, name)
        for key, original in table.items():
            assert mods["solvers"].ALGORITHMS[key].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, name), original in originals.items():
        assert getattr(mods[mod], name) is original
    assert mods["solvers"].ALGORITHMS == table


def _traced_counters(cli, workload, workdir):
    corp = one_per_kind(corpus.build(workload, SEED))
    runner = run.Runner(cli, corp, workdir)
    records, counters, first, unstable = run.measure(runner, 0, spans.Tracer())
    assert not unstable and not run.verify(runner, first)
    return counters[0]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_counters_repeat_exactly_for_a_fixed_seed(cli, tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    a = _traced_counters(cli, workload, tmp_path / "a")
    b = _traced_counters(cli, workload, tmp_path / "b")
    assert a == b
    assert set(a) == set(spans.COUNTERS) | set(spans.MAXIMA)
    expected = {"reductions": ["solvers.ek.augmentations", "decompose.components",
                               "network.gadget_vertices", "solvers.flow_max_bits"],
                "maxflow": ["solvers.ek.augmentations", "solvers.pr.pushes",
                            "solvers.pr.relabels", "solvers.hoch.iterations",
                            "solvers.flow_max_bits"],
                "exact-lp": ["lp.solve_standard.calls", "lp.constraint_cells", "lp.max_bits",
                             "simplicial.augmentations"]}[workload]
    assert all(a[key] > 0 for key in expected), a


def test_full_run_prints_one_result_line(tmp_path):
    """The benchmark's own entry point on its fastest workload."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "reductions",
                           "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, the run exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "maxflow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
