"""RPL006 — every registered experiment config round-trips its cache key.

The on-disk result cache (:mod:`repro.sim.cache`) keys entries by the
canonical JSON form of an experiment's config.  A config whose ``to_dict``
emits something JSON can't represent deterministically, or whose
``from_dict`` does not reproduce the exact same canonical form, silently
degrades the cache: identical invocations stop hitting, or — worse —
different invocations collide.  This check runs against the *live*
registry at lint time, so adding an experiment with a broken config is a
CI failure, not a cache-debugging session.

For each registered experiment the config class is resolved from the
runner's first-parameter annotation, default-constructed, and required to

1. produce a cacheable key (``experiment_cache_key`` is not ``None``);
2. survive ``to_dict -> canonical JSON -> from_dict -> to_dict`` with an
   identical canonical form and an identical cache key;
3. keep its cache key invariant when any ``EXECUTION_ONLY_KEYS`` field
   (``workers``, ``stream``, ``run_stack``, …) is perturbed — execution
   knobs select *how* a result is computed, never *what* it is.
"""

from __future__ import annotations

import inspect
import json
from typing import Any, Callable, Iterator

from .findings import Finding

__all__ = ["check_config_contracts"]

_CODE = "RPL006"


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _config_class(runner: Callable[..., Any]) -> type | None:
    """The config class named by ``runner``'s first parameter, if any."""
    func = inspect.unwrap(runner)
    try:
        parameters = list(inspect.signature(func).parameters.values())
    except (TypeError, ValueError):
        return None
    if not parameters:
        return None
    annotation = parameters[0].annotation
    if annotation is inspect.Parameter.empty:
        return None
    # Annotations are strings under ``from __future__ import annotations``;
    # take the first union member and resolve it in the runner's module.
    name = str(annotation).split("|")[0].strip().strip("\"'")
    module = inspect.getmodule(func)
    candidate = getattr(module, name, None)
    return candidate if inspect.isclass(candidate) else None


def _location(cls: type) -> tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        path, line = "<unknown>", 1
    return path, line


def _check_one(experiment_id: str, cls: type) -> Iterator[Finding]:
    from repro.sim.cache import EXECUTION_ONLY_KEYS, experiment_cache_key

    path, line = _location(cls)

    def fail(message: str) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=1,
            code=_CODE,
            message=f"[{experiment_id}] {cls.__name__}: {message}",
        )

    try:
        config = cls()
    except TypeError as exc:
        yield fail(
            f"not default-constructible ({exc}); registered configs must "
            "have full defaults so cache keys are derivable"
        )
        return
    if not hasattr(config, "to_dict") or not hasattr(cls, "from_dict"):
        yield fail("must define to_dict/from_dict for cache keying")
        return
    first = config.to_dict()
    key = experiment_cache_key(experiment_id, first)
    if key is None:
        yield fail(
            "to_dict() is not canonically JSON-serialisable, so every "
            "invocation bypasses the result cache"
        )
        return
    round_tripped = cls.from_dict(json.loads(_canonical(first)))
    second = round_tripped.to_dict()
    if _canonical(second) != _canonical(first):
        yield fail(
            "to_dict -> JSON -> from_dict -> to_dict changes the canonical "
            "form; cached results would never be re-hit after a round trip"
        )
        return
    if experiment_cache_key(experiment_id, second) != key:
        yield fail("cache key changes across a config round trip")
        return
    # Execution-only knobs (workers, stream, run_stack, ...) change *how* a
    # result is computed, never *what* it is — so none of them may reach
    # the cache key.  Probe each one with a sentinel value the config could
    # never legitimately carry.
    for exec_key in EXECUTION_ONLY_KEYS:
        probed = dict(first)
        probed[exec_key] = "__repro_lint_probe__"
        if experiment_cache_key(experiment_id, probed) != key:
            yield fail(
                f"execution-only field {exec_key!r} leaks into the cache "
                "key; identical experiments run with different execution "
                "knobs would stop sharing cached results"
            )


def check_config_contracts() -> list[Finding]:
    """Round-trip every registered experiment's config through the cache key."""
    try:
        from repro.experiments.registry import EXPERIMENTS
    except Exception as exc:  # pragma: no cover - import-environment specific
        return [
            Finding(
                path="<registry>",
                line=1,
                col=1,
                code=_CODE,
                message=f"experiment registry not importable: {exc}",
            )
        ]
    findings: list[Finding] = []
    checked: set[type] = set()
    for experiment_id in sorted(EXPERIMENTS):
        cls = _config_class(EXPERIMENTS[experiment_id])
        if cls is None or cls in checked:
            continue
        checked.add(cls)
        findings.extend(_check_one(experiment_id, cls))
    return findings
