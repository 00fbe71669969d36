"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread (IQR as a share of the median).

    python3 perfbench/spread.py --workload embed --seeds 1 2 3 4 5 --seconds 10

Runs are sequential, each in its own process, from the repository root.  The
last line is a JSON object holding every run's values, so two invocations can
be compared median against median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    for name, vals in values.items():
        spread = quartile_spread(vals)
        print(f"  {name:<14} median {statistics.median(vals):.6g}  spread {spread}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
