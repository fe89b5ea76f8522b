"""The RPL rule set: AST checks for the repo's determinism contracts.

Each rule encodes one invariant that an earlier PR had to restore by hand:

========  ==================================================================
RPL001    seeding flows through :mod:`repro.sim.seeding` SeedSequence
          helpers — no ``np.random.seed`` / ``RandomState`` / seed
          arithmetic inside ``default_rng`` (the PR-2 stream-overlap bug).
RPL002    no raw ``np.log`` / ``np.log2`` on probability data inside the
          ``repro`` package — use the ``LOG_FLOOR``-guarded helpers of
          :mod:`repro.numerics` (the PR-1 log-of-zero bug class).
RPL003    no direct dense-matrix attribute access on chains outside
          ``repro/mobility`` — use the backend-agnostic accessors
          (``log_transition_entries``, ``transition_row``,
          ``transition_edges``, ``dense_transition``, …), so the sparse
          backend keeps serving every call site (the PR-6 rewrite class).
RPL004    no ``.toarray()`` / ``.todense()`` without a declared dense-size
          guard (``DENSE_MATERIALISE_LIMIT`` / ``DENSE_STATIONARY_LIMIT``)
          in the enclosing function — accidental densification of a
          city-scale chain must fail loudly, not swap.
RPL005    no wall-clock or ambient-entropy calls inside ``repro/sim``,
          ``repro/mec``, ``repro/adversary``, ``repro/world`` — cache keys
          and worker bit-invariance depend on those layers being pure
          functions of their inputs.
RPL007    no ``(M, N, T)`` full-plane allocation (``np.empty``/``zeros``/
          ``ones``/``full`` with a literal 3-tuple shape) inside
          ``repro/{mec,adversary,world,sim}`` without the declared
          ``FULL_PLANE_LIMIT`` guard in the enclosing function — the
          store-backed driver exists so city-scale episodes never hold a
          whole horizon in memory (the PR-8 bounded-memory contract).
RPL008    telemetry clocks stay injected in the pure layers: no *reference*
          to a wall-clock function (RPL005 bans the calls; this bans
          passing ``time.perf_counter`` around as data), and no
          ``Recorder(...)`` without an explicit ``clock=`` keyword —
          instrumented code receives its clock from the composition
          root (the CLI / telemetry package), never names one itself.
========  ==================================================================

RPL006 (experiment-config cache-key round-trips) is not an AST rule; it
lives in :mod:`repro.devtools.lint.contract` and runs against the live
experiment registry.

Suppress a deliberate violation with ``# repro-lint: disable=RPL00x`` on
the offending line (state why in a neighbouring comment).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .findings import Finding

__all__ = ["FileContext", "Rule", "RULES", "rule_codes", "build_aliases"]


# ----------------------------------------------------------------------
# File context and import-alias resolution
# ----------------------------------------------------------------------
@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: str
    parts: tuple[str, ...]
    source: str
    tree: ast.Module
    aliases: dict[str, str]

    # -- package scoping ------------------------------------------------
    def repro_subpath(self) -> tuple[str, ...] | None:
        """Path parts below the last ``repro`` package directory, if any.

        ``.../src/repro/sim/cache.py`` -> ``("sim", "cache.py")``;
        returns ``None`` for files outside the package (tests, examples).
        """
        parts = self.parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                return parts[index + 1 :]
        return None

    def in_repro(self) -> bool:
        return self.repro_subpath() is not None

    def in_repro_dir(self, *dirs: str) -> bool:
        """Whether the file sits under ``repro/<one of dirs>/``."""
        sub = self.repro_subpath()
        return sub is not None and len(sub) > 1 and sub[0] in dirs


def build_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/object paths they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` ->
    ``{"default_rng": "numpy.random.default_rng"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def qualified_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to its imported dotted path, if any.

    ``np.random.seed`` resolves to ``"numpy.random.seed"`` when ``np`` was
    imported as numpy.  Chains not rooted in an import resolve to ``None``
    (locals and ``self`` attributes are never qualified).
    """
    chain: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = aliases.get(current.id)
    if base is None:
        return None
    return ".".join([base, *reversed(chain)])


def _contains_arithmetic(node: ast.AST) -> bool:
    """Whether ``node`` computes seed arithmetic (PR-2's overlap bug).

    Arithmetic inside a subscript *index* is exempt: indexing a spawned
    child list (``default_rng(children[i * k + j])``) is the canonical
    correct pattern, and the arithmetic there selects a stream rather
    than deriving one.
    """
    if isinstance(node, ast.BinOp):
        return True
    if isinstance(node, ast.Subscript):
        return _contains_arithmetic(node.value)
    return any(_contains_arithmetic(child) for child in ast.iter_child_nodes(node))


def _iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# Rule plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One lint rule: a code, a scope predicate and a checker."""

    code: str
    summary: str
    applies: Callable[[FileContext], bool]
    check: Callable[[FileContext], list[Finding]]

    def run(self, ctx: FileContext) -> list[Finding]:
        if not self.applies(ctx):
            return []
        return self.check(ctx)


def _finding(ctx: FileContext, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


# ----------------------------------------------------------------------
# RPL001 — SeedSequence-only seeding
# ----------------------------------------------------------------------
_RPL001_BANNED = {
    "numpy.random.seed": "global-state seeding",
    "numpy.random.RandomState": "the legacy RandomState generator",
    "numpy.random.rand": "the legacy global generator",
    "numpy.random.randn": "the legacy global generator",
    "numpy.random.randint": "the legacy global generator",
}


def _check_rpl001(ctx: FileContext) -> list[Finding]:
    findings = []
    for call in _iter_calls(ctx.tree):
        name = qualified_name(call.func, ctx.aliases)
        if name in _RPL001_BANNED:
            findings.append(
                _finding(
                    ctx,
                    call,
                    "RPL001",
                    f"{name} is {_RPL001_BANNED[name]}; derive streams by "
                    "spawning SeedSequence children via repro.sim.seeding "
                    "(as_seed_sequence / spawn_generators)",
                )
            )
        elif name == "numpy.random.default_rng" and any(
            _contains_arithmetic(arg) for arg in [*call.args, *[k.value for k in call.keywords]]
        ):
            findings.append(
                _finding(
                    ctx,
                    call,
                    "RPL001",
                    "seed arithmetic inside default_rng creates overlapping "
                    "streams across sweeps; spawn SeedSequence children via "
                    "repro.sim.seeding instead (spawn_generators / "
                    "spawn_sequences)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# RPL002 — floor-guarded logs on probability data
# ----------------------------------------------------------------------
_RPL002_LOGS = ("numpy.log", "numpy.log2", "numpy.log10")
#: ``np.log(LOG_FLOOR)`` — taking the log *of the floor constant itself* is
#: the guarded idiom, not a violation.
_FLOOR_NAMES = {"LOG_FLOOR"}


def _is_floor_constant(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id in _FLOOR_NAMES) or (
        isinstance(node, ast.Attribute) and node.attr in _FLOOR_NAMES
    )


def _check_rpl002(ctx: FileContext) -> list[Finding]:
    findings = []
    for call in _iter_calls(ctx.tree):
        name = qualified_name(call.func, ctx.aliases)
        if name not in _RPL002_LOGS:
            continue
        if len(call.args) == 1 and _is_floor_constant(call.args[0]):
            continue
        findings.append(
            _finding(
                ctx,
                call,
                "RPL002",
                f"raw {name} underflows to -inf on structurally-zero "
                "probabilities; use repro.numerics.safe_log (LOG_FLOOR "
                "guarded), or disable with a comment stating why the "
                "argument is provably positive",
            )
        )
    return findings


# ----------------------------------------------------------------------
# RPL003 — backend-agnostic chain access
# ----------------------------------------------------------------------
#: Dense-storage attributes of MarkovChain that only ``repro/mobility`` (and
#: an object's own methods, via ``self``) may touch.  Everything else goes
#: through the accessor API, which the sparse backend also serves.
_RPL003_ATTRS = {
    "transition_matrix": "dense_transition() / transition_row() / "
    "log_transition_entries() / transition_edges()",
    "_log_transition": "log_transition_entries()",
    "_cumulative_transition": "evolve_from_uniforms() / sample_next_state()",
    "_sampling_cache": "evolve_from_uniforms() / sample_trajectories_batch()",
    "_stack_cumulative": "evolve_from_uniforms(transition_stack=...)",
    "_log_data": "log_transition_entries()",
    "_flat_keys": "log_transition_entries()",
    "_dense_cache": "dense_transition()",
}


def _check_rpl003(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute) or node.attr not in _RPL003_ATTRS:
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue  # a class's own storage is its own business
        findings.append(
            _finding(
                ctx,
                node,
                "RPL003",
                f"direct .{node.attr} access bypasses the chain backend; "
                f"use {_RPL003_ATTRS[node.attr]} so sparse chains keep "
                "working at city scale",
            )
        )
    return findings


# ----------------------------------------------------------------------
# RPL004 — guarded dense materialisation
# ----------------------------------------------------------------------
_RPL004_METHODS = {"toarray", "todense"}
_RPL004_GUARDS = {"DENSE_MATERIALISE_LIMIT", "DENSE_STATIONARY_LIMIT"}


def _check_rpl004(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []

    def guard_names(func: ast.AST) -> set[str]:
        return {
            sub.id
            for sub in ast.walk(func)
            if isinstance(sub, ast.Name) and sub.id in _RPL004_GUARDS
        } | {
            sub.attr
            for sub in ast.walk(func)
            if isinstance(sub, ast.Attribute) and sub.attr in _RPL004_GUARDS
        }

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            guarded = bool(guard_names(node))
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _RPL004_METHODS
            ):
                if not guarded:
                    findings.append(
                        _finding(
                            ctx,
                            child,
                            "RPL004",
                            f".{child.func.attr}() without a dense-size guard "
                            "(DENSE_MATERIALISE_LIMIT) in the enclosing "
                            "function: a city-scale chain would silently "
                            "materialise O(L^2) memory",
                        )
                    )
            visit(child, guarded)

    visit(ctx.tree, guarded=False)
    return findings


# ----------------------------------------------------------------------
# RPL005 — purity of the simulation layers
# ----------------------------------------------------------------------
_RPL005_BANNED = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.seed",
    "random.getrandbits",
}
_RPL005_DIRS = ("sim", "mec", "adversary", "world")


def _check_rpl005(ctx: FileContext) -> list[Finding]:
    findings = []
    for call in _iter_calls(ctx.tree):
        name = qualified_name(call.func, ctx.aliases)
        if name in _RPL005_BANNED:
            findings.append(
                _finding(
                    ctx,
                    call,
                    "RPL005",
                    f"{name} makes this layer impure: cache keys, replay and "
                    "worker bit-invariance require sim/mec/adversary/world "
                    "to be pure functions of their inputs (pass timestamps "
                    "and entropy in explicitly)",
                )
            )
        elif (
            name == "numpy.random.default_rng"
            and not call.args
            and not call.keywords
        ):
            findings.append(
                _finding(
                    ctx,
                    call,
                    "RPL005",
                    "default_rng() with no seed draws ambient OS entropy; "
                    "derive the generator from the caller's SeedSequence "
                    "via repro.sim.seeding",
                )
            )
    return findings


# ----------------------------------------------------------------------
# RPL007 — full-plane allocations stay behind the full-plane guard
# ----------------------------------------------------------------------
_RPL007_ALLOCATORS = {"numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full"}
_RPL007_GUARDS = {"FULL_PLANE_LIMIT"}
_RPL007_DIRS = ("mec", "adversary", "world", "sim")


def _rpl007_shape_arg(call: ast.Call) -> ast.expr | None:
    """The shape argument of an allocator call, positional or keyword."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "shape":
            return keyword.value
    return None


def _check_rpl007(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []

    def guard_names(func: ast.AST) -> set[str]:
        return {
            sub.id
            for sub in ast.walk(func)
            if isinstance(sub, ast.Name) and sub.id in _RPL007_GUARDS
        } | {
            sub.attr
            for sub in ast.walk(func)
            if isinstance(sub, ast.Attribute) and sub.attr in _RPL007_GUARDS
        }

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            guarded = bool(guard_names(node))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not guarded:
                name = qualified_name(child.func, ctx.aliases)
                shape = (
                    _rpl007_shape_arg(child)
                    if name in _RPL007_ALLOCATORS
                    else None
                )
                if isinstance(shape, (ast.Tuple, ast.List)) and len(shape.elts) == 3:
                    findings.append(
                        _finding(
                            ctx,
                            child,
                            "RPL007",
                            f"{name} with a 3-axis shape allocates a full "
                            "(services, users/cells, horizon) plane; stream "
                            "the horizon in chunks, or materialise through "
                            "a FULL_PLANE_LIMIT-guarded helper "
                            "(repro.mec.materialise_full_plane)",
                        )
                    )
            visit(child, guarded)

    visit(ctx.tree, guarded=False)
    return findings


# ----------------------------------------------------------------------
# RPL008 — telemetry clocks are injected, never named, in pure layers
# ----------------------------------------------------------------------
#: Spellings under which the telemetry Recorder reaches a pure layer.  The
#: bare name covers relative imports (``from ..telemetry import Recorder``),
#: which alias resolution deliberately does not chase.
_RPL008_RECORDERS = {
    "Recorder",
    "repro.telemetry.Recorder",
    "repro.telemetry.recorder.Recorder",
}


def _check_rpl008(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    call_funcs = {id(call.func) for call in _iter_calls(ctx.tree)}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = qualified_name(func, ctx.aliases)
            local = func.id if isinstance(func, ast.Name) else None
            if (
                name in _RPL008_RECORDERS or local in _RPL008_RECORDERS
            ) and not any(keyword.arg == "clock" for keyword in node.keywords):
                findings.append(
                    _finding(
                        ctx,
                        node,
                        "RPL008",
                        "Recorder() without an explicit clock= binds the "
                        "ambient wall clock inside a pure layer; inject the "
                        "clock from the composition root "
                        "(Recorder(clock=...))",
                    )
                )
        elif (
            isinstance(node, (ast.Attribute, ast.Name))
            and id(node) not in call_funcs
        ):
            name = qualified_name(node, ctx.aliases)
            if name in _RPL005_BANNED:
                findings.append(
                    _finding(
                        ctx,
                        node,
                        "RPL008",
                        f"referencing {name} (even uncalled) smuggles the "
                        "wall clock into a pure layer as data; accept an "
                        "injected clock parameter instead "
                        "(repro.telemetry.default_clock lives outside "
                        "these layers)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _everywhere(ctx: FileContext) -> bool:
    return True


def _in_repro(ctx: FileContext) -> bool:
    return ctx.in_repro()


def _in_repro_outside_numerics(ctx: FileContext) -> bool:
    return ctx.in_repro() and ctx.repro_subpath() != ("numerics.py",)


def _in_repro_outside_mobility(ctx: FileContext) -> bool:
    return ctx.in_repro() and not ctx.in_repro_dir("mobility")


def _in_pure_layers(ctx: FileContext) -> bool:
    return ctx.in_repro_dir(*_RPL005_DIRS)


def _in_plane_layers(ctx: FileContext) -> bool:
    return ctx.in_repro_dir(*_RPL007_DIRS)


RULES: Sequence[Rule] = (
    Rule(
        "RPL001",
        "seeding must flow through repro.sim.seeding SeedSequence helpers",
        _everywhere,
        _check_rpl001,
    ),
    Rule(
        "RPL002",
        "logs of probability data must use the LOG_FLOOR-guarded helpers",
        _in_repro_outside_numerics,
        _check_rpl002,
    ),
    Rule(
        "RPL003",
        "chain access outside mobility/ must use backend-agnostic accessors",
        _in_repro_outside_mobility,
        _check_rpl003,
    ),
    Rule(
        "RPL004",
        "dense materialisation must sit behind a declared size guard",
        _in_repro,
        _check_rpl004,
    ),
    Rule(
        "RPL005",
        "sim/mec/adversary/world must stay pure (no wall clock, no ambient entropy)",
        _in_pure_layers,
        _check_rpl005,
    ),
    Rule(
        "RPL007",
        "full (M, N, T) plane allocations must sit behind FULL_PLANE_LIMIT",
        _in_plane_layers,
        _check_rpl007,
    ),
    Rule(
        "RPL008",
        "telemetry clocks are injected in pure layers (no ambient clock refs)",
        _in_pure_layers,
        _check_rpl008,
    ),
)


def rule_codes() -> list[str]:
    """All AST rule codes, plus the registry contract check RPL006."""
    return [rule.code for rule in RULES] + ["RPL006"]
