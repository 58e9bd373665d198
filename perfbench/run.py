"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload tune --seed 1 --seconds 9 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 9 --trace 0

One run sets up the workload, runs one discarded warm-up operation, then
repeats the operation in a closed loop (one client; the next operation
starts when the previous one returned) until ``--seconds`` have passed,
checking every output.  Every operation starts cold: the in-process
program cache is cleared first, which also drops the weak-keyed engine
memos; the clear is not timed.  Timings are reported at reference machine
speed (see calibration.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics (see
layers.py).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The process re-executes itself once in an isolated environment: the
``REPRO_*`` switches that change behaviour are unset, BLAS runs one thread,
``PYTHONHASHSEED`` is fixed and every file the run writes lives under
``.perfbench-work/`` in the checkout, removed at exit.  The run is pinned
to one CPU.  ``--workload all`` runs every workload in turn and prints one
table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")

#: Environment switches that would change what or how the program runs.
UNSET = ("REPRO_TRACE", "REPRO_PROFILE", "REPRO_VERIFY", "REPRO_ENGINE_FAST",
         "REPRO_CAMPAIGN_FAULTS", "REPRO_FULL_SCALE")
PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Extra fresh processes that time set-up, beside the run's own set-up.
SETUP_PROBES = 2


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def isolated() -> bool:
    env = os.environ
    return (
        not any(key in env for key in UNSET)
        and all(env.get(key) == value for key, value in PINNED.items())
        and os.path.dirname(env.get("REPRO_TUNE_CACHE", "")).startswith(WORK_ROOT)
    )


def reexec_isolated(argv) -> None:
    """Replace this process by the same command in the isolated environment."""
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env["REPRO_TUNE_CACHE"] = os.path.join(work, "tune-cache.json")
    env["TMPDIR"] = work
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)


def declared_units(kind: str) -> dict:
    """Metric name -> unit of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_setup(args, work: str, probe):
    """Set the workload up; return it and the set-up's Timing."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    _, timing = probe.time(workload.setup, args.seed, work)
    return workload, timing


def setup_probe(args, work: str):
    """(raw, scaled) set-up seconds of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    raw, scaled = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def environment_record(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_sha": sha,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def measure(args, work: str) -> dict:
    """Set up, run the closed loop, check outputs; return the result object.

    Every operation and set-up is scaled to reference speed by the speed
    samples taken while it ran (see calibration.py).
    """
    from calibration import SpeedProbe
    from workloads import Outcome

    # The whole run, its campaign worker and its set-up probes share one
    # CPU.  With two, the campaign's parent and worker overlap only when
    # the host grants the second vCPU, which made its time bimodal; the
    # speed samples also measure the CPU the operations run on.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    probe = SpeedProbe()
    workload, timing = timed_setup(args, work, probe)
    setups = [(timing.seconds, timing.scaled)]

    from layers import Recorder, memo_counts, per_layer_metrics
    from repro.obs.metrics import REGISTRY
    from repro.runtime.engine import engine_memo_stats

    recorder = Recorder() if args.trace else None
    flops = workload.flops() if args.trace else 0.0

    def run_op(index: int, tracing: bool):
        """Prepare (untimed), run (timed) and check (untimed) one operation.

        Returns the Timing, outcomes, workload layer numbers and registry
        delta.
        """
        workload.prepare()
        memo = engine_memo_stats()
        warm = [k for k, v in memo.items() if k.endswith("_programs") and v]
        before = REGISTRY.snapshot()
        if tracing:
            recorder.op_id = index
            recorder.install()
        result, timing = probe.time(workload.op)
        if tracing:
            recorder.remove()
        delta = REGISTRY.delta_since(before)
        compiles = int(delta.get("program_cache.misses", 0))
        workload.check(result, first=index < 0)
        if warm or (workload.cold_compiles is not None
                    and compiles != workload.cold_compiles):
            # A warm cache must not pass for a speed-up.
            if not result.outcomes:
                result.outcomes.append(Outcome(args.workload))
            cold = result.outcomes[0]
            cold.failed = cold.wrong = True
            cold.detail += f" not cold: {compiles} compiles, warm memos {warm}"
        return timing, result.outcomes, result.layer, delta

    # One discarded warm-up operation takes first-touch memory and lazy
    # initialisation out of the timings.  It gets the once-per-run checks;
    # a wrong output still makes the run incorrect, but it is not counted
    # as attempted.
    warmup = run_op(-1, False)[1]
    raw = []  # each operation's wall-clock seconds
    steal = []
    scaled = []  # each operation at reference speed
    speeds = []  # each operation's micro-kernel seconds
    extra = {}
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        tracing = recorder is not None and index % 2 == 1
        timing, op_outcomes, layer, delta = run_op(index, tracing)
        raw.append(timing.wall)
        steal.append(timing.steal)
        scaled.append(timing.scaled)
        speeds.append(timing.speed)
        outcomes.extend(op_outcomes)
        if tracing:
            sums = dict(memo_counts(delta), **layer)
            sums["algorithms.flops"] = flops
            for key, value in sums.items():
                extra[key] = extra.get(key, 0.0) + value
        index += 1
        if time.perf_counter() - start >= args.seconds and (
            recorder is None or index > 1
        ):
            break

    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    reference = workload.reference_seconds()
    setups.extend(setup_probe(args, work) for _ in range(SETUP_PROBES))
    calibration = statistics.median(speeds)
    # Untraced operations are the even ones of a traced run.
    plain = scaled[::2] if recorder else scaled

    print("env " + json.dumps(environment_record(len(allowed), allowed[0]),
                              sort_keys=True))
    failed = [o for o in outcomes if o.failed]
    seen = Counter((o.label, o.detail.strip())
                   for o in warmup + outcomes if o.failed)
    for (label, detail), count in sorted(seen.items()):
        print(f"FAILED {args.workload}/{label} (x{count}): {detail}")
    q1, med, q3 = quartiles(plain)
    print(f"{args.workload}: op_s median {med:.4f} s at reference speed "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(plain)})")
    print(f"{args.workload}: raw op seconds " + ", ".join(f"{t:.3f}" for t in raw))
    print(f"{args.workload}: steal seconds " + ", ".join(f"{t:.2f}" for t in steal))
    print(f"{args.workload}: raw setup seconds "
          + ", ".join(f"{raw:.3f}" for raw, _ in setups))
    print(f"{args.workload}: speed sample seconds median {calibration:.6f} "
          f"(min {min(speeds):.6f}, max {max(speeds):.6f}, n={len(speeds)} "
          "operations)")
    if reference:
        print(f"{args.workload}: scipy.linalg.svdvals reference {reference:.5f} s "
              f"(raw op time is {statistics.median(raw) / reference:.0f}x)")
    print(f"{args.workload}: failed_frac {len(failed)}/{len(outcomes)}")

    if recorder is None:
        metrics = {
            "op_s": med,
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_units("end_to_end")
    else:
        traced = raw[1::2]
        metrics = per_layer_metrics(recorder, len(traced), sum(traced), extra)
        metrics["reference.svdvals_s"] = reference
        metrics["calibration_s"] = calibration
        metrics["failed_frac"] = len(failed) / len(outcomes)
        metrics["trace_overhead_frac"] = (
            statistics.median(scaled[1::2]) / statistics.median(plain) - 1)
        units = declared_units("per_layer")
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(
            SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.dump(span_file)
        print(f"{args.workload}: {len(recorder.spans)} spans written to "
              f"{os.path.relpath(span_file, ROOT)}")
        for path in recorder.missing:
            print(f"{args.workload}: not traced (entry point not found): {path}")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    return {
        "correct": not any(o.wrong for o in warmup + outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, in its own process; one table at the end."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, res in results.items():
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:9s} correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']}  " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if not isolated():
        reexec_isolated(argv)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    work = os.path.dirname(os.environ["REPRO_TUNE_CACHE"])
    if args.setup_probe:
        from calibration import SpeedProbe

        timing = timed_setup(args, work, SpeedProbe())[1]
        print(timing.seconds, timing.scaled)
        return 0
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
