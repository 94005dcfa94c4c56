"""Byte-identical outputs pinned against recorded values.

The solvers, flow recovery, decomposition and cut extraction all break
ties by lowest vertex index.  These records fix the flows, cuts,
components, operation counters and command-line bytes that this yields,
so a refactor cannot change any of them silently.  Regenerate
``golden.json`` with ``PYTHONPATH=src python tests/test_golden.py`` only
when a change of output is intended.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from conftest import make_random_network
from flowkit.cli import main
from flowkit.decompose import decompose, min_cut_from_flow, write_components
from flowkit.network import build_network, write_flow
from flowkit.solvers import ALGORITHMS
from flowkit.values import format_value

GOLDEN = Path(__file__).with_name("golden.json")
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
FLOW = "{flow}"  # placeholder for a flow file written by the `maxflow` case

CLI_CASES = {
    "maxflow-ek": ["maxflow", "--algo=ek", "net.dimacs"],
    "maxflow-pr": ["maxflow", "--algo=pr", "net.dimacs"],
    "maxflow-hoch": ["maxflow", "--algo=hoch", "net.dimacs"],
    "mincut-default": ["mincut", "net.dimacs"],
    "mincut-ek": ["mincut", "--algo=ek", "net.dimacs"],
    "mincut-pr": ["mincut", "--algo=pr", "net.dimacs"],
    "mincut-hoch": ["mincut", "--algo=hoch", "net.dimacs"],
    "decompose": ["decompose", "net.dimacs", FLOW],
    "segment": ["segment", "gradient.pgm"],
    "matching": ["matching", "matching.txt"],
    "chains": ["chains", "poset.txt"],
    "lp-dual": ["lp-dual", "net.dimacs"],
    "hflow-lp-tetra": ["hflow", "--algo=lp", "tetra.hnet"],
    "hflow-augment-tetra": ["hflow", "--algo=augment", "tetra.hnet"],
    "hflow-all-tetra": ["hflow", "--algo=all", "tetra.hnet"],
    "hflow-lp-double-tetra": ["hflow", "--algo=lp", "double-tetra.hnet"],
    "hflow-augment-double-tetra": ["hflow", "--algo=augment", "double-tetra.hnet"],
    "hflow-all-double-tetra": ["hflow", "--algo=all", "double-tetra.hnet"],
    "hflow-lp-torsion": ["hflow", "--algo=lp", "torsion.hnet"],
    "hflow-augment-torsion": ["hflow", "--algo=augment", "torsion.hnet"],
    "hflow-all-torsion": ["hflow", "--algo=all", "torsion.hnet"],
    "hcut-tetra": ["hcut", "tetra.hnet"],
    "hcut-double-tetra": ["hcut", "double-tetra.hnet"],
    "hcut-sprime-tetra": ["hcut", "--sprime", "0,2,5", "tetra.hnet"],
    "tu-check-odd-cycle": ["tu-check", "odd-cycle.txt"],
    "tu-check-net-incidence": ["tu-check", "net-incidence.txt"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_record(name, workdir):
    argv = [str(SAMPLES / a) if (SAMPLES / a).is_file() else a for a in CLI_CASES[name]]
    if FLOW in argv:
        flow_file = Path(workdir) / "flow.txt"
        run_cli(["maxflow", str(SAMPLES / "net.dimacs"), "-o", str(flow_file)])
        argv[argv.index(FLOW)] = str(flow_file)
    return run_cli(argv)


def _instances():
    """Fixed-seed random networks: small and medium, integer and rational."""
    rng = random.Random(20121406)
    for i in range(48):
        big = i >= 32
        net, arcs = make_random_network(rng, max_n=16 if big else 8, max_cap=40 if big else 10)
        if i % 2:
            arcs = [(u, v, c / rng.randint(1, 7)) for (u, v, c) in arcs]
            net = build_network(net.n, net.source, net.sink, arcs)
        yield net


def solver_records():
    """One text record per instance and solver: stats, flow, cut, components."""
    records = []
    for i, net in enumerate(_instances()):
        for name, solver in ALGORITHMS.items():
            result = solver(net)
            stats = " ".join(f"{k}={format_value(v) if hasattr(v, 'denominator') else v}"
                             for k, v in sorted(result.stats.items()))
            cut = min_cut_from_flow(net, result.scaled)
            assert result.cut == cut, (i, name)
            records.append(f"instance {i} algo={name} {stats}\n"
                           + write_flow(result.scaled, result.value)
                           + "cut " + " ".join(map(str, sorted(cut.source_side))) + "\n"
                           + write_components(decompose(net, result.scaled)))
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_pinned(golden, name, tmp_path):
    assert cli_record(name, tmp_path) == golden["cli"][name]


def test_default_mincut_record_is_the_ek_cut_from_push_relabel(golden):
    # the default solver changes the stats line only, never the cut
    cli = golden["cli"]
    assert cli["mincut-default"]["stdout"] == cli["mincut-ek"]["stdout"]
    assert cli["mincut-default"]["stderr"] == cli["mincut-pr"]["stderr"]


def test_solver_outputs_are_pinned(golden):
    records = solver_records()
    assert len(records) == len(golden["solvers"])
    for got, want in zip(records, golden["solvers"]):
        assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        cli = {name: cli_record(name, workdir) for name in sorted(CLI_CASES)}
    GOLDEN.write_text(json.dumps({"cli": cli, "solvers": solver_records()}, indent=1) + "\n",
                      encoding="utf-8")
