"""End-to-end command-line checks over the documented formats."""

import pytest

from flowkit.cli import main

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


def test_decompose_round_trip(capsys, net_file, tmp_path):
    code, out, _ = run(capsys, "maxflow", net_file)
    flow_path = tmp_path / "flow.txt"
    flow_path.write_text(out)
    code, out, err = run(capsys, "decompose", net_file, str(flow_path))
    assert code == 0
    assert all(line.split()[0] in ("path", "cycle") for line in out.strip().splitlines())
    assert "components=" in err


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


def test_lp_dual(capsys, net_file):
    code, out, _ = run(capsys, "lp-dual", net_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "max"
    assert "primal_opt 5" in lines and "dual_opt 5" in lines


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


def test_chains(capsys, tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text("el b\nel x\nel y\nel t\nbottom b\ntop t\n"
                    "cover b x\ncover b y\ncover x t\ncover y t\n")
    code, out, _ = run(capsys, "chains", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "s 2" and len(lines) == 3


def test_segment(capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n10\n9 1\n")
    code, out, err = run(capsys, "segment", str(path), "--penalty", "0")
    assert code == 0
    assert out == "P1\n2 1\n1 0\n"
    assert "score=" in err


def test_segment_rejects_a_bad_penalty(capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n10\n9 1\n")
    code, out, err = run(capsys, "segment", str(path), "--penalty", "abc")
    assert code == 2 and out == ""
    assert err == "error: --penalty: not a rational value: 'abc'\n"


@pytest.mark.parametrize("size", ["-1 -1", "0 0", "0 1", "1 -1"])
def test_segment_rejects_an_image_size_below_one(capsys, tmp_path, size):
    path = tmp_path / "img.pgm"
    path.write_text(f"P2\n{size}\n255\n7\n")
    code, out, err = run(capsys, "segment", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: image size must be at least 1 x 1")


def test_hflow(capsys, tetra_file):
    code, out, _ = run(capsys, "hflow", tetra_file)
    assert code == 0
    assert out.strip().splitlines()[-1] == "s 1"
    code, out, _ = run(capsys, "hflow", "--algo=all", tetra_file)
    assert code == 0 and out == "s 1\ns 1\n"


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
    assert err.startswith("error: a random 2-complex needs max_facets")


def test_probe_rejects_a_negative_trial_count(capsys):
    code, out, err = run(capsys, "conjecture-probe", "--trials", "-3")
    assert code == 2 and out == ""
    assert err == "error: --trials must be non-negative, got -3\n"


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_text("p max x y\n")
    code, _, err = run(capsys, "maxflow", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "maxflow", "no-such-file.dimacs")
    assert code == 2


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
