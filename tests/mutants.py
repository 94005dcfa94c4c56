"""Mutation checks: every mutant of `src/flowkit` must fail the tier-1 suite.

The script copies `src/` to a temporary directory.  For each mutant it
makes one textual replacement in the copy, runs the tier-1 suite against
it under a timeout, and restores the file.  A replacement whose original text is not found exactly once
counts as a failure of this script, so a mutant that no longer applies
cannot pass unnoticed.  The unmutated copy runs first and must pass, so a
mutant fails for its change, not for the copy.  Exits 1 if the copy fails
or any mutant passes, times out or does not apply.

    python tests/mutants.py

Its name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per suite run, far above what an unmutated run takes

# name -> (module under src/flowkit, original text, mutated text)
MUTANTS = {
    "unit pivot without the division by d": (
        "lp.py", "row[j] -= f * b // d", "row[j] -= f * b"),
    "unit pivot also when p != d": (
        "lp.py", "    if p == d:\n", "    if True:\n"),
    "general pivot skips the rows with f = 0": (
        "lp.py",
        "        if row is not prow:\n            f = row[col]\n",
        "        f = row[col]\n        if row is not prow and f:\n"),
    "the forward search admits a step with no residual room": (
        "network.py", "if parent[v] < 0 and x > 0:", "if parent[v] < 0 and x >= 0:"),
    "the forward search scans each row from its highest index": (
        "network.py", "        for v, x in r[u].items():\n",
        "        for v, x in reversed(r[u].items()):\n"),
    "the reverse labelling admits an arc with no residual room": (
        "network.py", "if d[u] < 0 and r[u][w] > 0:", "if d[u] < 0 and r[u][w] >= 0:"),
    "read_dimacs leaves a numerator unscaled by scale // q": (
        "network.py", "(u, v, p * (scale // q))", "(u, v, p)"),
    "the flow writer skips its gcd reduction": (
        "values.py", "g = math.gcd(x, scale)", "g = 1"),
    "face signs drop the (-1)^k of the alternating sum": (
        "simplicial.py", "-p if k % 2 else p", "p"),
    "hmaxflow_augment skips the rescale by the bottleneck's denominator": (
        "simplicial.py", "        if q > 1:", "        if False:"),
    "build_network accepts an UNBOUNDED capacity": (
        "network.py",
        "        if cap is UNBOUNDED:\n"
        "            raise NetworkError(f\"unbounded capacity on ({u}, {v})\", k)\n",
        ""),
    "read_flow returns its flow unchecked": (
        "network.py",
        "    bad = validate(net, flow, \"flow\")\n"
        "    if bad:\n"
        "        raise InvalidFlow(bad)\n",
        ""),
    "validate compares an arc's int with its capacity's without bringing the two scales together": (
        "network.py", "        elif x * base > c * scale:\n", "        elif x > c:\n"),
    "validate skips the preflow's excess check": (
        "network.py", '    elif role == "preflow":\n', "    elif False:\n"),
    "augment never lowers the residual of the arcs it pushes along": (
        "network.py", "            r[u][v] -= amount\n", ""),
    "image_from_pgm leaves the penalty unscaled by scale // q": (
        "apps.py", "[p * (scale // q)]", "[p]"),
    "Bland's ratio test breaks ties by the largest index": (
        "lp.py",
        "(cand[0] * step[1], cand[2]) < (step[0] * cand[1], step[2])",
        "(cand[0] * step[1], -cand[2]) < (step[0] * cand[1], -step[2])"),
    "phase-1 pricing weighs every artificial row by 1": (
        "lp.py", "[unit // art_scales[col] * x for x in row]", "row"),
    "phase-1 pricing leaves the artificial columns' costs in place": (
        "lp.py", "        phase1[first_art:total] = [0] * (total - first_art)\n", ""),
    "make_lp truncates a non-integral cell to int": (
        "lp.py", "    return x.numerator if x.denominator == 1 else x\n", "    return int(x)\n"),
    "certify skips the int cells of a row": (
        "lp.py",
        "            if a:\n                activity += a * xs[j]\n",
        "            if type(a) is not int:\n                activity += a * xs[j]\n"),
    "lowest_terms divides the ints by g and leaves the scale undivided": (
        "values.py", "), scale // g\n", "), scale\n"),
    "the residual rows leave each arc's tail out of its head's row": (
        "network.py", "            ends[v].append(u)\n", ""),
    "coboundary pairs each potential with the wrong face": (
        "simplicial.py", "values = [lam[face] for face in self._faces]",
        "values = [lam[face] for face in reversed(self._faces)]"),
    "push-relabel's relabel leaves out the + 1 above the lowest residual neighbour": (
        "solvers.py", "        d[v] = new = low + 1\n", "        d[v] = new = low\n"),
    "the greedy start takes a left vertex's highest free neighbour": (
        "apps.py", "    for (i, j) in g.edges:\n",
        "    for (i, j) in sorted(g.edges, key=lambda e: (e[0], -e[1])):\n"),
    "edmonds_karp ignores its starting flow": (
        "solvers.py", "res = ResidualGraph(net, flow)", "res = ResidualGraph(net)"),
    "a dead end is not marked dead": (
        "solvers.py", "                d[u] = -1           # dead for the rest of the phase\n", ""),
    "the column check lets a repeated arc through": (
        "network.py", "    if len(arc_set) < len(arcs):\n        return None\n", ""),
    "the column path drops the antiparallel refusal": (
        "network.py", "        if not allow_antiparallel:\n            return None\n", ""),
    "the layout check accepts a zero denominator": (
        "network.py", "(?:/0*[1-9][0-9]*)?", "(?:/[0-9]+)?"),
    "the walk tries a row's highest-index admissible arc first": (
        "solvers.py", "row, ru, below = adj[u], r[u], d[u] - 1",
        "row, ru, below = adj[u][::-1], r[u], d[u] - 1"),
}


def run_suite(src):
    """Run the tier-1 suite with `src` first on the path; returns
    ("passed" | "failed" | "timeout", pytest's last line, seconds)."""
    # no bytecode: a mutant and the restored module must never share a .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    where = subprocess.run([sys.executable, "-c", "import flowkit; print(flowkit.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    found = Path(where.stdout.strip()).resolve()
    if not found.is_relative_to(src.resolve()):
        raise SystemExit(f"the suite would import flowkit from {found}, not from {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    start = time.monotonic()
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite and anything it started
        proc.communicate()
        return "timeout", f"no result within {TIMEOUT_S} s", time.monotonic() - start
    lines = out.strip().splitlines() or [""]
    return ("passed" if proc.returncode == 0 else "failed"), lines[-1], time.monotonic() - start


def main():
    bad = []
    with tempfile.TemporaryDirectory(prefix="flowkit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        outcome, last, seconds = run_suite(src)
        print(f"unmutated copy: {outcome} ({last}) in {seconds:.1f} s", flush=True)
        if outcome != "passed":
            return 1
        for name, (module, original, mutated) in MUTANTS.items():
            path = src / "flowkit" / module
            text = (ROOT / "src" / "flowkit" / module).read_text()
            count = text.count(original)
            if count != 1:
                print(f"{name}: does not apply ({module} has its text {count} times)", flush=True)
                bad.append(name)
                continue
            path.write_text(text.replace(original, mutated))
            try:
                outcome, last, seconds = run_suite(src)
            finally:
                path.write_text(text)
            verdict = {"failed": "killed", "passed": "SURVIVED", "timeout": "TIMED OUT"}[outcome]
            print(f"{name}: {verdict} ({last}) in {seconds:.1f} s", flush=True)
            if outcome != "failed":
                bad.append(name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
