"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py --seed 1 --seconds 30          # end to end
    python3 perfbench/report.py --seed 1 --seconds 30 --trace  # per layer

Exits non-zero if any run fails or any op's output differs from the
reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{w}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[next(iter(WORKLOADS))]["metrics"])
    print(f"{'metric':28s} {'unit':9s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[next(iter(WORKLOADS))]["metrics"][name]["unit"]
        row = "".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:28s} {unit:9s}{row}")
    row = "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values())
    print(f"{'fail_frac':28s} {'ratio':9s}{row}")
    row = "".join(f"{r['attempted']:14d}" for r in results.values())
    print(f"{'attempted':28s} {'count':9s}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
