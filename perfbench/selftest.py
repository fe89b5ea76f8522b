"""Benchmark self-test: the smallest size of every workload, end to end.

Usage, from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size smoke`` once untraced and once
traced, prints every metric with its unit, and fails unless each run is
correct with ``fail_ratio == 0``.  It also checks that the benchmark
refuses to run without the program's source tree.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

import workloads  # noqa: E402 - after the path insert


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def main() -> int:
    failures = []
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = _run(
                ROOT,
                "--workload", name,
                "--seed", str(workloads.DEFAULT_SEED),
                "--seconds", "0",
                "--trace", trace,
                "--size", "smoke",
            )  # fmt: skip
            if proc.returncode != 0:
                failures.append(f"{name} trace={trace}: exit {proc.returncode}")
                print(proc.stderr, file=sys.stderr)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            for key, metric in result["metrics"].items():
                assert metric["unit"], key
            if not result["correct"] or result["failed"] != 0:
                failures.append(
                    f"{name} trace={trace}: fail_ratio "
                    f"{result['failed']}/{result['attempted']}"
                )
    # Without the program beside it the benchmark must refuse, not report.
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=tmp_root)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "--workload", "fig7-aware", "--seed", "1", "--seconds", "1")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("benchmark ran without the source tree")
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # a concurrent benchmark run still uses it
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
