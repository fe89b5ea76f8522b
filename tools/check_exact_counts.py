"""Gate the repository benchmark's exact per-layer counts.

For every workload in ``tools/exact_counts.json`` this runs one traced
call of the benchmark::

    python3 perfbench/run.py --workload W --seed 2017 --seconds 0 --trace 1

and compares each of its exact counts (Algorithm 1, deterministic-map and
Viterbi calls, placement walks, rejections and spills, process-pool task
bytes, spill bytes, score-cache hits and misses) with the committed
value.  The counts are a pure function of the workload and the seed, so
any difference means a change altered what the program computes or how
often; the script names each differing count and exits non-zero.  A
change that moves a count on purpose updates the JSON with it.

Run from the repository root: ``python3 tools/check_exact_counts.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "exact_counts.json"


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    """The metrics of one traced benchmark call (its last stdout line)."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: benchmark result is not correct: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    seed = expected["seed"]
    failures = []
    for workload, counts in expected["workloads"].items():
        measured = traced_counts(workload, seed)
        for name, value in counts.items():
            got = measured.get(name)
            if got != value:
                failures.append(f"{workload}: {name} is {got}, expected {value}")
        print(f"{workload}: {len(counts)} exact counts checked")
    for failure in failures:
        print(f"MISMATCH {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
