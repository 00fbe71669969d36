"""zerosetkit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload embed|zeroset|cut|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The run sets up the workload's inputs from the
seed (timed in fresh processes), runs an untimed warm-up on a tiny input, then
times whole passes over the inputs for about S seconds (at least one pass)
and checks every output.  With --trace 1 it then sets up again and runs one
more pass with every layer's public functions wrapped, prints the per-layer
metrics and the tracing overhead, and writes the spans to
.bench_trace/<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with its
unit and sample count, and the run's provenance.  `--workload all` runs each
workload in its own process and ends with one combined line.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy loads: one thread, so a run
# neither oversubscribes nor depends on how many cores the machine lends it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from stats import Ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
WORKLOAD_NAMES = ("embed", "zeroset", "cut")

# Each probe imports the package and prepares the inputs in a fresh process,
# then times the speed probe; it prints the raw setup time and its scale.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{workload!r}].prepare({seed!r})
raw = time.perf_counter() - t0
import speed
print(raw, speed.REF_PROBE_S / speed.calibrate())
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not a git
    repository; parent directories are never searched."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def _provenance(args) -> dict:
    import networkx
    import numpy
    import scipy

    sha, dirty = _git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }


def _setup_probe(workload: str, seed: int):
    """(raw seconds, speed scale) of one setup in a fresh process."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=170, check=True, cwd=ROOT)
    raw, scale = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scale)


def _timed_pass(workload, inputs, ledger):
    """(pass result, raw seconds, speed scale) of one pass."""
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        result = workload.run_pass(inputs, ledger)
        raw = time.perf_counter() - t0
    return result, raw, sampler.scale()


def _timed_passes(workload, inputs, ledger, seconds: float):
    """Whole passes until the next one would end after `seconds` (at least one)."""
    passes, raws, scales = [], [], []
    start = time.perf_counter()
    while True:
        result, raw, scale = _timed_pass(workload, inputs, ledger)
        passes.append(result)
        raws.append(raw)
        scales.append(scale)
        if time.perf_counter() - start + statistics.median(raws) > seconds:
            return passes, raws, scales


def _line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:>16.8g} {unit:<6} {note}"


def run_workload(args) -> int:
    sys.path[:0] = [str(SRC)]
    import workloads  # needs SRC on the path, so it loads only here

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed)
    setups = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl.warm_up()

    ledger = workloads.Ledger()
    passes, raws, scales = _timed_passes(wl, inputs, ledger, args.seconds)
    wl.after(inputs, passes, ledger)
    wall_s = statistics.median(r * s for r, s in zip(raws, scales))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = "s at reference speed"
    end_to_end = {
        "setup_s": (statistics.median(r * s for r, s in setups), "s",
                    f"n={len(setups)} setups, median, {ref}"),
        "wall_s": (wall_s, "s", f"n={len(raws)} passes, median, {ref}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    extra = {
        "setup_raw_s": (statistics.median(r for r, _s in setups), "s", "as timed, median"),
        "wall_raw_s": (statistics.median(raws), "s", "as timed, median"),
        "speed_scale": (statistics.median(scales), "ratio",
                        "reference probe time / probe time in the passes, median"),
    }
    for name, (value, unit, n) in wl.summarize(inputs, passes, scales).items():
        extra[name] = (value, unit, f"n={n}")

    per_layer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced_inputs = wl.prepare(args.seed)
            _result, traced_raw, traced_scale = _timed_pass(wl, traced_inputs, ledger)
        tracer.measure_peaks()
        overhead = Ratio(traced_raw * traced_scale, wall_s)
        per_layer = {}
        for name, (value, unit, note) in tracer.per_layer().items():
            if unit == "s":  # layer times read at reference speed, like wall_s
                value *= traced_scale
            per_layer[name] = (value, unit, note)
        per_layer["trace.overhead_ratio"] = (
            overhead.value, "ratio",
            f"traced pass {overhead.num:.4f} s / untraced {wall_s:.4f} s, {ref}")

    failed = Ratio(ledger.failed, ledger.attempted)
    extra["ops_failed_ratio"] = (failed.value, "ratio",
                                 f"{ledger.failed} failed / {ledger.attempted} attempted")
    provenance = _provenance(args)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("end to end")
    for name, (value, unit, note) in {**end_to_end, **extra}.items():
        print(_line(name, value, unit, note))
    if per_layer is not None:
        print("per layer (traced pass)")
        for name, (value, unit, note) in per_layer.items():
            print(_line(name, value, unit, note))
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"provenance": provenance,
                           "metrics": {k: v[0] for k, v in per_layer.items()}})
        print(f"spans written to {path.relative_to(ROOT)}")
    for message in ledger.messages:
        print(f"FAILED {message}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    chosen = per_layer if per_layer is not None else end_to_end
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in chosen.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "zerosetkit" / "__init__.py").is_file():
        print(f"error: no zerosetkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
