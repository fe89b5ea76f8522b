"""The repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``perfbench/README.md`` and ``BENCHMARK.json``.
Each measured call runs in a fresh interpreter (``perfbench/child.py``) so
memo state starts cold the way it does for a command-line user.  Calls
repeat, closed loop and one at a time, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics as medians over the calls.
Call ``i`` of such a run builds its inputs from ``call_seed(seed, i)``:
the first call uses ``--seed`` itself, later ones a fixed sequence derived
from it.  The seed also draws the mobility models, and Algorithm 1's cost
varies by a fifth between models, so a run that measured one input only
would report its model's cost rather than the program's.

``--trace 1`` alternates untraced and traced calls on ``--seed`` alone and
reports the per-layer metrics of the traced ones, plus the tracing
overhead; its exact counts must repeat from call to call.

Every call's result is checked: range invariants always, and a digest of
all scalars and series against ``reference.json`` for the seeds it lists.
Calls on the same seed must agree on the digest.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (sweep points) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

#: Each run exits well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
MIN_CALLS = 3
MIN_TRACED_CALLS = 2

sys.path.insert(0, HERE)

import tracer  # noqa: E402 - after the path insert
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program could not be imported or configured at all."""


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _is_count(name: str, value) -> bool:
    return isinstance(value, int) and _layer_unit(name) in ("count", "B")


def _git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def fingerprint() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git": _git_revision(),
    }


def call_seed(seed: int, index: int) -> int:
    """Input seed of call ``index`` of an untraced run on ``seed``."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_call(workload: str, seed: int, *, trace: bool, size: str, deadline: float) -> dict:
    """One fresh-interpreter call; returns its record plus seed and ``setup_s``."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="call-", dir=TMP_ROOT)
    env = dict(os.environ)
    for knob in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[knob] = "1"
    env["TMPDIR"] = workdir  # streaming spills land here
    env["REPRO_MEC_CACHE"] = os.path.join(workdir, "cache")
    command = [
        sys.executable,
        CHILD,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--size",
        size,
    ] + (["--trace"] if trace else [])
    try:
        with open(os.path.join(workdir, "stderr.txt"), "w+") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
            timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            stderr.seek(0)
            log = stderr.read()
        if ready.strip() != "ready":
            raise SetupError(f"{workload}: set-up failed\n{log[-2000:]}")
        lines = rest.strip().splitlines()
        if proc.returncode != 0 or not lines:
            record = {"error": f"exit {proc.returncode}\n{log[-2000:]}"}
        else:
            record = json.loads(lines[-1])
        record.update(seed=seed, setup_s=setup_s)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_calls(name: str, size: str, calls: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed) sweep points plus problem messages.

    A call that crashed before reporting its sweep size counts as one
    failed point unless another call of the run reported it.
    """
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    expected = reference.get(name, {}) if size == "full" else {}
    digests: dict[int, set] = {}
    for call in calls:
        if "digest" in call:
            digests.setdefault(call["seed"], set()).add(call["digest"])
    n_points = next((call["n_points"] for call in calls if "n_points" in call), 1)
    attempted = failed = 0
    problems: list[str] = []
    for call in calls:
        attempted += n_points
        if call.get("error"):
            failed += n_points
            problems.append(f"call failed: {call['error'].strip().splitlines()[-1]}")
            continue
        reference_digest = expected.get(str(call["seed"]), call["digest"])
        if call["digest"] != reference_digest:
            failed += n_points
            problems.append(
                f"seed {call['seed']}: digest {call['digest'][:12]} "
                f"!= reference {reference_digest[:12]}"
            )
            continue
        if len(digests[call["seed"]]) > 1:
            failed += n_points
            problems.append(f"seed {call['seed']}: result digests differ between calls")
            continue
        bad = [msg for _, messages in call["points"] for msg in messages]
        failed += sum(1 for _, messages in call["points"] if messages)
        problems.extend(bad)
        if len(call["points"]) != n_points:
            failed += abs(n_points - len(call["points"]))
            problems.append(f"{len(call['points'])} sweep points, expected {n_points}")
    return attempted, failed, problems


def trace_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the successful traced calls, checking counts."""
    problems: list[str] = []
    layers = [call["layers"] for call in traced]
    metrics: dict[str, float] = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if _is_count(key, values[0]):
            if len(set(values)) > 1 and key in tracer.EXACT_COUNTS:
                problems.append(f"{key} differs between traced calls: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    for key in ("placement.rejected", "placement.spilled"):
        if metrics[key] < 0:
            problems.append(f"{key} is negative")
    if not 0.0 <= metrics["adversary.cache.hit_ratio"] <= 1.0:
        problems.append("adversary.cache.hit_ratio outside [0, 1]")
    if {call["digest"] for call in plain} != {call["digest"] for call in traced}:
        problems.append("traced and untraced result digests differ")
    traced_wall = statistics.median(call["wall_s"] for call in traced)
    plain_wall = statistics.median(call["wall_s"] for call in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="repro-mec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: the smallest size of the workload, for the self-test",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    trace = bool(args.trace)
    try:
        # Untimed warm-up: compiles bytecode and warms the page cache.
        run_call(args.workload, args.seed, trace=False, size="smoke", deadline=deadline)
        measure_from = time.monotonic()
        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            call_began = time.monotonic()
            seed = args.seed if trace else call_seed(args.seed, len(plain))
            plain.append(
                run_call(args.workload, seed, trace=False, size=args.size, deadline=deadline)
            )
            if trace:
                traced.append(
                    run_call(args.workload, args.seed, trace=True, size=args.size, deadline=deadline)
                )
            now = time.monotonic()
            last = now - call_began
            enough = len(plain) >= (MIN_TRACED_CALLS if trace else MIN_CALLS)
            # Start no call that would end past --seconds (or the hard limit).
            if enough and now + last - measure_from > args.seconds:
                break
            if now + 1.5 * last > deadline:
                break
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted, failed, problems = check_calls(args.workload, args.size, plain + traced)
    ok = [call for call in plain if not call.get("error")]
    ok_traced = [call for call in traced if not call.get("error")]
    if not ok or (trace and not ok_traced):
        # Nothing was measured, so there is no result to report.
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    if trace:
        metrics, trace_problems = trace_metrics(ok, ok_traced)
        problems += trace_problems
        units = {key: _layer_unit(key) for key in metrics}
    else:
        wall_s = statistics.median(call["wall_s"] for call in ok)
        metrics = {
            "wall_s": wall_s,
            # Episodes per call depend on the workload's size only, not its seed.
            "episodes_per_s": ok[0]["episodes"] / wall_s,
            "setup_s": statistics.median(call["setup_s"] for call in plain),
            "peak_rss_mb": statistics.median(call["peak_rss_mb"] for call in ok),
        }
        units = END_TO_END_UNITS

    kind = "traced + untraced" if trace else "untraced"
    print(
        f"# {args.workload} seed={args.seed} size={args.size}: {len(plain + traced)} "
        f"{kind} calls in {time.monotonic() - measure_from:.1f} s"
    )
    for key, value in metrics.items():
        print(f"#   {key:<28} {value:>14.6g} {units[key]}")
    walls = " ".join(f"{call['wall_s']:.3f}" for call in plain + traced if "wall_s" in call)
    print(f"#   per-call wall_s: {walls}")
    ratio = failed / attempted if attempted else 1.0
    print(f"#   {'fail_ratio':<28} {ratio:>14.6g} ({failed}/{attempted} sweep points)")
    if trace:
        for call in traced[:1]:
            for worker, layers in sorted(call.get("by_worker", {}).items()):
                busiest = sorted(layers.items(), key=lambda item: -item[1])[:4]
                shown = ", ".join(f"{layer} {value:.3f} s" for layer, value in busiest)
                print(f"#   worker {worker} self time: {shown}")
    for problem in problems[:20]:
        print(f"# PROBLEM {problem}")
    print(f"# fingerprint {json.dumps(fingerprint(), sort_keys=True)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
