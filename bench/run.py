"""skewlab benchmark.

Run one workload:

    python3 bench/run.py --workload campaign-small --seed 1 --seconds 30 --trace 0

or every workload in turn with ``--workload all``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. See bench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchrun"
WORKLOADS = ("campaign-small", "campaign-large", "campaign-parallel-csv", "analysis")
SETUP_PROBES = 7

# One BLAS thread in every process: campaign-parallel-csv runs two workers on
# two cores, and every workload is pinned alike so their figures compare.
# Set before numpy is first imported, here or in a worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _check_sources() -> None:
    if not (SRC / "skewlab" / "__init__.py").is_file():
        _fail(f"no skewlab sources under {SRC}")


def _import_program():
    """Import skewlab from this checkout's src/ and nowhere else."""
    _check_sources()
    sys.path.insert(0, str(SRC))
    import skewlab

    if Path(skewlab.__file__).resolve().parent != (SRC / "skewlab").resolve():
        _fail(f"imported skewlab from {skewlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # Linux reports kilobytes


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to ready, SETUP_PROBES times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # a blocking wait: subprocess.run with a timeout polls in steps of up
        # to 50 ms, which would quantise the figure
        returncode = subprocess.Popen(argv, stdout=subprocess.DEVNULL).wait()
        times.append(time.perf_counter() - t0)
        if returncode != 0:
            _fail(f"set-up probe exited {returncode}")
    return times


def _pass_cpus(workload) -> list[int]:
    """The CPUs a single-process workload's rounds are pinned to in turn.

    On a shared host each CPU's speed drifts by tens of percent over minutes,
    largely independently of the other CPUs, and the scheduler keeps a lone
    busy process on one CPU for a whole run. Pinning round k to CPU k mod n
    makes every run sample all of them alike. A workload with worker
    processes is left unpinned: its workers inherit the parent's CPU set.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    return cpus if workload.threads == 1 and len(cpus) > 1 else []


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else _setup_seconds(name, seed)
    wl_mod = _import_program()
    workload = wl_mod.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        return _measure(wl_mod, workload, seed, seconds, trace, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl_mod, workload, seed, seconds, trace, setup, workdir) -> dict:
    name = workload.name
    inputs = workload.build(seed)
    prepared = workload.prepare(inputs, workdir)
    warm_ops = wl_mod.Ops()
    workload.run_pass(workload.prepare(workload.warmup_inputs(inputs), workdir, "-warmup"),
                      warm_ops)

    ops = wl_mod.Ops()
    digests = []
    report_bytes = 0

    def one_pass():
        nonlocal report_bytes
        gc.collect()   # no collection of an earlier pass's garbage inside this one
        t0 = time.perf_counter()
        c0 = _cpu_seconds()
        outcome = workload.run_pass(prepared, ops)
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        digests.append(workload.digest(prepared, outcome))
        report_bytes = workload.report_bytes(prepared)
        return wall, cpu, outcome

    walls, cpus, traced_walls, layers = [], [], [], []
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    rss = None
    cpu_set = _pass_cpus(workload)
    start = time.perf_counter()
    for round_no in itertools.count():
        if cpu_set:
            os.sched_setaffinity(0, {cpu_set[round_no % len(cpu_set)]})
        wall, cpu, outcome = one_pass()
        walls.append(wall)
        cpus.append(cpu)
        if rss is None:
            # the peak so far is that of one pass: later passes can only
            # add heap growth, which would tie the figure to the pass count
            rss = _peak_rss_mb()
        round_s = wall
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t_wall, _cpu, outcome = one_pass()
            finally:
                tracer.uninstall()
            traced_walls.append(t_wall)
            layers.append((tracer.summary(), tracer.root_seconds(), t_wall))
            round_s += t_wall
        # whole passes only: stop before one that would end past the budget
        if time.perf_counter() - start + round_s > seconds:
            break
    if cpu_set:
        os.sched_setaffinity(0, cpu_set)

    problems = [] if warm_ops.failed == 0 else ["warm-up pass failed"]
    problems += workload.check(prepared, outcome)
    if len(set(digests)) != 1:
        problems.append(f"outputs differ between passes: {sorted(set(digests))}")
    print(f"workload {name}, seed {seed}: {len(walls) + len(traced_walls)} passes, "
          f"{ops.attempted} operations, {ops.failed} failed")
    print(f"digest {digests[0]} (reports without timing fields)")
    print("pass wall seconds: " + " ".join(f"{w:.3f}" for w in walls))
    if cpu_set:
        print(f"rounds pinned in turn to CPUs {cpu_set}")
    if traced_walls:
        print("traced pass wall seconds: " + " ".join(f"{w:.3f}" for w in traced_walls))
    for p in problems:
        print(f"CHECK FAILED {p}")

    if not trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
    else:
        metrics = _layer_metrics(workload, prepared, layers, walls, traced_walls,
                                 report_bytes, tracer)
        span_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_path)
        print(f"spans of the last traced pass written to {span_path}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def _layer_metrics(workload, prepared, layers, walls, traced_walls, report_bytes, tracer):
    import tracing

    metrics = {}
    for span in tracing.SPAN_NAMES:
        if span == "cli.report":
            metrics["cli.report_bytes"] = _metric(report_bytes, "bytes")
        calls = [summary[span][0] for summary, _, _ in layers]
        self_s = [summary[span][1] for summary, _, _ in layers]
        metrics[f"{span}.calls"] = _metric(statistics.median(calls), "count")
        metrics[f"{span}.self_s"] = _metric(statistics.median(self_s), "s")
        if span == "harness.run_campaign":
            evals = workload.evaluations(prepared)
            per_eval = statistics.median(self_s) / evals * 1e6 if evals else 0.0
            metrics["harness.us_per_eval"] = _metric(per_eval, "us")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced_walls) - statistics.median(walls), "s")

    if tracer.missing:
        print(f"note: names not found in the program, so not traced: {tracer.missing}")
    if workload.threads > 1:
        print("note: worker processes' spans are not visible; layer figures below "
              "harness.run_campaign cover the parent process only "
              "(planning and worst-case replay)")
    # Self times of all spans add up to the root spans; report how much of
    # the traced pass the root spans cover.
    summary, root_s, pass_s = layers[-1]
    total_self = sum(s for _c, s in summary.values())
    print(f"trace coverage: span self times sum to {total_self:.6f} s, root spans "
          f"{root_s:.6f} s, traced pass {pass_s:.6f} s ({root_s / pass_s:.1%} in spans)")
    return metrics


def run_all(seed: int, seconds: float, trace: int) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        _fail("seed must lie in [0, 2**32)")
    _check_sources()
    if args.setup_probe:
        if args.workload == "all":
            _fail("a set-up probe takes one workload")
        _import_program().WORKLOADS[args.workload].build(args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
