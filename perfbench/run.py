"""Seeded end-to-end benchmark of the flowkit command line.

    python3 perfbench/run.py --workload maxflow --seed 1 --seconds 30 --trace 0

The benchmark generates a corpus from the seed, then drives
``flowkit.cli.main(argv)`` in this process, one operation at a time (a
closed loop with one client and no think time), writing every result to
a file with ``-o``.  It runs whole passes over the corpus for about
``--seconds`` (at least two), then checks every output independently of
flowkit and prints the metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Times are normalised for machine speed: a fixed calibration loop runs
between operations, and every latency is scaled by how long that loop
took next to it, relative to ``CAL_REF_S``.  On a shared machine whose
speed drifts by a factor of two within a minute this turns a 20 % spread
between runs into a 3 % one, while any change to flowkit's own speed
shows in full.  Raw wall-clock figures are printed alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_OPS = 100
# median time of calibrate() on the machine the baseline was recorded on
CAL_REF_S = 0.0013

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

Record = namedtuple("Record", "op traced seconds weight error")


def calibrate():
    """Fixed interpreter work shaped like flowkit's: rational arithmetic,
    dict and set churn, sorting and a queue.  Collection is paused so a
    collection owed by the previous operation does not land in here."""
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 300):
        total += Fraction(i % 97, i % 13 + 1)
        seen[i] = sorted((i * 7919 % 101, j) for j in range(5))
    queue = list(range(200))
    while queue:
        queue.pop()
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def load_flowkit():
    """Import flowkit afresh from this checkout's ``src`` and nowhere else."""
    for name in [n for n in sys.modules if n == "flowkit" or n.startswith("flowkit.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("flowkit.cli")
    if Path(cli.__file__).resolve().parent != src / "flowkit":
        raise ImportError(f"flowkit was found at {cli.__file__}, not under {src}")
    return cli


class _Sink:
    """Discards what the CLI writes to stderr (its key=value diagnostics)."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class Runner:
    """Runs operations of one corpus through ``cli.main``."""

    def __init__(self, cli, corp, workdir):
        self.cli = cli
        self.corpus = corp
        inputs = workdir / "in"
        outputs = workdir / "out"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        for name, instance in corp.instances.items():
            (inputs / f"{name}{corp.suffix(name)}").write_text(instance.text(), encoding="utf-8")
        self.paths = [(str(inputs / f"{op.instance}{corp.suffix(op.instance)}"),
                       str(outputs / f"{k:04d}.out")) for k, op in enumerate(corp.ops)]

    def call(self, k):
        """Run operation k; returns (exit code or None, seconds, error)."""
        argv = self.corpus.ops[k].argv(*self.paths[k])
        Path(self.paths[k][1]).unlink(missing_ok=True)
        sink = _Sink()
        error = None
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that raises counts as failed
                code, error = None, repr(exc)
            elapsed = perf_counter() - start
        return code, elapsed, error

    def output(self, k):
        try:
            return Path(self.paths[k][1]).read_bytes()
        except FileNotFoundError:
            return None


def setup(workload, seed, workdir):
    """Import flowkit, generate and write the corpus, warm up.  Done
    ``SETUP_REPEATS`` times; returns the last runner and the normalised
    and raw set-up times."""
    normalised, raw = [], []
    runner = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        cal_before = calibrate()
        start = perf_counter()
        cli = load_flowkit()
        runner = Runner(cli, corpus.build(workload, seed), workdir / "corpus")
        warm = Runner(cli, corpus.warmup(workload), workdir / "warmup")
        for k in range(len(warm.corpus.ops)):
            warm.call(k)
        elapsed = perf_counter() - start
        raw.append(elapsed)
        normalised.append(elapsed * CAL_REF_S * 2 / (cal_before + calibrate()))
    return runner, normalised, raw


def measure(runner, seconds, tracer=None):
    """Whole passes over the corpus: at least two passes and ``MIN_OPS``
    operations, then one more pass whenever a pass as long as the last
    one would still end within ``seconds``.  With a tracer, odd passes
    are traced and even passes are not, so both see the same machine.

    Returns the records, per-pass counters of traced passes, the first
    output of every operation, and the operations whose later outputs
    differed from their first."""
    n_ops = len(runner.corpus.ops)
    records, counters = [], []
    first, unstable = {}, set()
    cal_prev = calibrate()
    start = perf_counter()
    passes, pass_seconds = 0, 0.0
    while (passes < 2 or len(records) < MIN_OPS
           or perf_counter() - start + pass_seconds <= seconds):
        pass_start = perf_counter()
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for k in range(n_ops):
            if tracer:
                tracer.record = len(records)
            code, elapsed, error = runner.call(k)
            cal_next = calibrate()
            weight = CAL_REF_S * 2 / (cal_prev + cal_next)
            cal_prev = cal_next
            records.append(Record(k, traced, elapsed, weight, error))
            out = runner.output(k)
            if k not in first:
                first[k] = (code, out)
            elif first[k] != (code, out):
                unstable.add(k)
        if traced:
            tracer.uninstall()
            counters.append(tracer.snapshot())
        passes += 1
        pass_seconds = perf_counter() - pass_start
    return records, counters, first, unstable


def verify(runner, first):
    """Check the first output of every operation; returns {op: reason}.
    Checks that compare against the `--algo=all` value of a 2-complex run
    after that operation has been checked."""
    corp = runner.corpus
    optimum = {}
    failures = {}
    order = sorted(range(len(corp.ops)), key=lambda k: corp.ops[k].flags != ("--algo=all",))
    for k in order:
        op = corp.ops[k]
        instance = corp.instances[op.instance]
        code, out = first[k]
        if op.instance not in optimum:
            optimum[op.instance] = checks.certified_value(instance)
        try:
            if out is None:
                raise checks.CheckError(f"no output (exit code {code})")
            value = checks.check(op, instance, out.decode("utf-8"), code, optimum[op.instance])
        except (checks.CheckError, ValueError, IndexError) as exc:
            failures[k] = f"{op.key}: {exc}"
            continue
        if optimum[op.instance] is None:
            optimum[op.instance] = value
    return failures


def end_to_end(lat, good, setup_times):
    """End-to-end metrics from per-operation latencies in seconds and the
    number of operations that passed."""
    return {
        "solves_per_s": good / sum(lat),
        "solve_p50_ms": 1000 * statistics.median(lat),
        "solve_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records, counters, tracer, passes):
    """Per-layer metrics of a traced run: each span's self time as a share
    of the traced latency, the counters of one pass, and the traced
    latency of one pass as the base of those shares.

    Shares rather than seconds: a layer a workload bypasses reads 0, and
    a share of 0 is a measurement where a time of exactly 0 on every run
    would look like none."""
    weight = [r.weight for r in records]
    traced = [r.seconds * r.weight for r in records if r.traced]
    plain = [r.seconds * r.weight for r in records if not r.traced]
    out = {f"{name}.self_frac": value / sum(traced)
           for name, value in tracer.self_times(weight).items()}
    out.update(counters[0])
    out["trace.pass_s"] = sum(traced) / passes
    out["trace.overhead_frac"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1
    return out


def load_metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_units, layer_units = load_metric_units()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, setup_norm, setup_raw = setup(args.workload, args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        records, counters, first, unstable = measure(runner, args.seconds, tracer)
        failures = verify(runner, first)
    except ImportError as exc:
        print(f"error: cannot import flowkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k in sorted(unstable):
        failures.setdefault(k, f"{runner.corpus.ops[k].key}: output differs between passes")
    for r in records:
        if r.error and r.op not in failures:
            failures[r.op] = f"{runner.corpus.ops[r.op].key}: raised {r.error}"
    failed = sum(1 for r in records if r.op in failures)
    for reason in sorted(failures.values()):
        print(f"FAILED {reason}", file=sys.stderr)

    n_ops = len(runner.corpus.ops)
    passes = len(records) // n_ops
    plain = [r for r in records if not r.traced]
    good = sum(1 for r in plain if r.op not in failures)
    metrics = end_to_end([r.seconds * r.weight for r in plain], good, setup_norm)
    wall = end_to_end([r.seconds for r in plain], good, setup_raw)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "operations": len(records), "untraced_operations": len(plain),
        "ops_per_pass": runner.corpus.commands(), "instances": len(runner.corpus.instances),
        "failed_frac": failed / len(records),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "machine": platform.machine(),
        "cal_ref_s": CAL_REF_S,
        "cal_speed": statistics.median(r.weight for r in records),
        "wall": {name: round(value, 6) for name, value in wall.items()},
    }
    for name, unit in e2e_units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}  (wall-clock {wall[name]:.6g})")
    print(f"metric failed_frac = {stamp['failed_frac']:.6g} 1  "
          f"({failed} of {len(records)} operations)")
    if tracer:
        layers = per_layer(records, counters, tracer, passes // 2)
        for name in layer_units:
            print(f"layer {name} = {layers[name]:.6g} {layer_units[name]}")
        if any(c != counters[0] for c in counters):
            failures["counters"] = "counters differ between traced passes"
            print("FAILED counters differ between traced passes", file=sys.stderr)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.tsv")
        chosen = {name: (layers[name], unit) for name, unit in layer_units.items()}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in e2e_units.items()}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
