"""Experiment configuration objects.

Configs are plain dataclasses that can round-trip through dictionaries /
JSON so experiment definitions can be stored alongside their results and
re-run exactly (the Monte-Carlo harness derives all randomness from the
``seed`` field).

Every config is validated when it is constructed: an infeasible shape
or an unknown strategy / mobility-model name raises ``ValueError``
naming the field, instead of failing deep inside a (possibly pooled)
run.  Execution knobs (``workers``, ``backend``, ``stream``,
``run_stack``, ...) never change the numbers; the looped references the
equivalence tests compare the engines against are test-only oracles in
``tests/reference/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Sequence

from ..core.strategies import available_strategies
from ..mobility.models import SYNTHETIC_MODEL_BUILDERS

__all__ = [
    "SyntheticExperimentConfig",
    "TraceExperimentConfig",
    "FleetExperimentConfig",
    "DynamicExperimentConfig",
    "AdversaryExperimentConfig",
]


def _check_strategies(field_name: str, names: Iterable[str]) -> None:
    """Reject strategy names the registry cannot build (case-insensitive)."""
    available = available_strategies()
    for name in names:
        if str(name).upper() not in available:
            raise ValueError(
                f"{field_name}: unknown strategy {name!r}; available: {available}"
            )


def _check_mobility_models(field_name: str, names: Iterable[str]) -> None:
    """Reject mobility-model keys :func:`paper_synthetic_models` lacks."""
    for name in names:
        if name not in SYNTHETIC_MODEL_BUILDERS:
            raise ValueError(
                f"{field_name}: unknown mobility model {name!r}; "
                f"available: {sorted(SYNTHETIC_MODEL_BUILDERS)}"
            )


def _given(**overrides: Any) -> dict[str, Any]:
    """The ``scaled`` overrides actually supplied (``None`` keeps a field)."""
    return {name: value for name, value in overrides.items() if value is not None}


def _clamped_period(period: "int | None", horizon: int) -> "int | None":
    """A regime period that still rotates at least once within ``horizon``."""
    return None if period is None else max(2, min(period, horizon // 2))


@dataclass(frozen=True)
class SyntheticExperimentConfig:
    """Configuration of a synthetic (Markov-model) experiment (Figs. 4-7).

    Attributes
    ----------
    n_cells:
        Number of cells ``L`` (paper: 10).
    horizon:
        Trajectory length ``T`` (paper: 100).
    n_runs:
        Monte-Carlo runs per data point (paper: 1000).
    n_services:
        Total trajectories ``N`` (user + chaffs) for single-setting plots.
    mobility_models:
        Mobility-model labels (keys of ``paper_synthetic_models``).
    seed:
        Master seed for all randomness.
    workers:
        Worker processes for the experiment's independent points and run
        shards (``1`` = serial, ``0`` = all CPU cores).  Results are
        bit-identical for any value, so ``workers`` never enters the
        result-cache key.
    backend:
        Markov-chain storage backend: ``"dense"`` (the paper-scale
        reference), ``"sparse"`` (CSR kernels for city-scale ``L``), or
        ``"auto"`` (size/density heuristic).  At small ``L`` the sparse
        backend is bit-identical to dense.
    """

    n_cells: int = 10
    horizon: int = 100
    n_runs: int = 1000
    n_services: int = 2
    mobility_models: Sequence[str] = (
        "non-skewed",
        "spatially-skewed",
        "temporally-skewed",
        "spatially&temporally-skewed",
    )
    seed: int = 2017
    workers: int = 1
    backend: str = "dense"

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        if self.n_services < 2:
            raise ValueError("n_services must be at least 2")
        if not self.mobility_models:
            raise ValueError("at least one mobility model is required")
        _check_mobility_models("mobility_models", self.mobility_models)
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")
        if self.backend not in ("dense", "sparse", "auto"):
            raise ValueError("backend must be 'dense', 'sparse' or 'auto'")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        data = asdict(self)
        data["mobility_models"] = list(self.mobility_models)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SyntheticExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        if "mobility_models" in data:
            data["mobility_models"] = tuple(data["mobility_models"])
        return cls(**data)

    def scaled(self, *, n_runs: int | None = None, horizon: int | None = None):
        """Copy with a smaller run count / horizon (for tests and CI)."""
        return replace(
            self,
            mobility_models=tuple(self.mobility_models),
            **_given(n_runs=n_runs, horizon=horizon),
        )


@dataclass(frozen=True)
class TraceExperimentConfig:
    """Configuration of the trace-driven experiments (Figs. 8-10).

    Attributes
    ----------
    n_nodes:
        Taxi fleet size (paper: 174).
    horizon:
        Number of one-minute slots (paper: 100).
    n_towers:
        Target tower count before deduplication (paper ends at 959 cells;
        smaller values keep the experiments laptop-friendly).
    top_k_users:
        Number of most-trackable users analysed in Figs. 9(b)/10.
    n_chaffs:
        Chaffs per protected user (1 in Fig. 9(b), 2 in Fig. 10).
    strategies:
        Strategy names to evaluate for the protected users.
    seed:
        Master seed.
    workers:
        Worker processes for independent experiment points (``1`` =
        serial, ``0`` = all CPU cores); never affects the numbers.
    """

    n_nodes: int = 174
    horizon: int = 100
    n_towers: int = 300
    top_k_users: int = 5
    n_chaffs: int = 1
    strategies: Sequence[str] = ("IM", "MO", "ML", "OO")
    seed: int = 2017
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.n_towers < 2:
            raise ValueError("n_towers must be at least 2")
        if self.top_k_users < 1:
            raise ValueError("top_k_users must be positive")
        if self.n_chaffs < 1:
            raise ValueError("n_chaffs must be positive")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        _check_strategies("strategies", self.strategies)
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        data = asdict(self)
        data["strategies"] = list(self.strategies)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        if "strategies" in data:
            data["strategies"] = tuple(data["strategies"])
        return cls(**data)

    def scaled(
        self,
        *,
        n_nodes: int | None = None,
        n_towers: int | None = None,
        horizon: int | None = None,
    ) -> "TraceExperimentConfig":
        """Copy with reduced sizes (for tests and CI)."""
        return replace(
            self,
            strategies=tuple(self.strategies),
            **_given(n_nodes=n_nodes, n_towers=n_towers, horizon=horizon),
        )


@dataclass(frozen=True)
class FleetExperimentConfig:
    """Configuration of the multi-user fleet experiment.

    Attributes
    ----------
    n_users:
        Fleet population ``M`` at the largest sweep point (and the fixed
        population of the capacity sweep).
    n_cells:
        Number of cells; the deployment is the densest grid factorisation
        of ``n_cells`` (e.g. 25 -> 5x5).
    site_capacity:
        Service slots per edge site at the largest sweep point (and the
        fixed capacity of the population sweep).
    horizon:
        Slots per fleet run ``T``.
    n_runs:
        Monte-Carlo fleet runs per sweep point.
    n_chaffs:
        Chaffs per user.
    strategy:
        Chaff strategy name shared by all users.
    mobility_model:
        Key of :func:`~repro.mobility.models.paper_synthetic_models`.
    population_sweep / capacity_sweep:
        Explicit sweep points; ``None`` derives them from ``n_users`` /
        ``site_capacity`` so every point fits the deployment.
    seed:
        Master seed for all randomness.
    workers:
        Worker processes for independent sweep points and run shards
        (``1`` = serial, ``0`` = all cores); never changes the numbers.
    backend:
        Markov-chain storage backend (``"dense"``, ``"sparse"`` or
        ``"auto"``); bit-identical results, sparse wins at large
        ``n_cells``.
    stream:
        Advance fleet episodes in ``chunk_slots``-slot windows instead of
        one whole-horizon window; bit-identical to the batch engine.
        Memory is the same: the Monte-Carlo still holds every episode's
        full planes.
    chunk_slots:
        Slots per window (only used with ``stream=True``).
    run_stack:
        Monte-Carlo episodes folded into one pass of the slot kernel
        (``1`` = per-episode execution).  Execution-only: every stack
        size yields bit-identical statistics.
    """

    n_users: int = 50
    n_cells: int = 25
    site_capacity: int = 8
    horizon: int = 100
    n_runs: int = 20
    n_chaffs: int = 1
    strategy: str = "IM"
    mobility_model: str = "non-skewed"
    population_sweep: "tuple[int, ...] | None" = None
    capacity_sweep: "tuple[int, ...] | None" = None
    seed: int = 2017
    workers: int = 1
    backend: str = "dense"
    stream: bool = False
    chunk_slots: int = 64
    run_stack: int = 1

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if self.site_capacity < 1:
            raise ValueError("site_capacity must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        if self.n_chaffs < 0:
            raise ValueError("n_chaffs must be non-negative")
        _check_strategies("strategy", [self.strategy])
        _check_mobility_models("mobility_model", [self.mobility_model])
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")
        if self.backend not in ("dense", "sparse", "auto"):
            raise ValueError("backend must be 'dense', 'sparse' or 'auto'")
        if self.chunk_slots < 1:
            raise ValueError("chunk_slots must be positive")
        if self.run_stack < 1:
            raise ValueError("run_stack must be positive")
        # Feasibility is validated for the sweep points the experiment
        # actually runs, not just the nominal (n_users, site_capacity)
        # point, so an infeasible config fails here with a clear message
        # instead of deep inside a (possibly pooled) fleet run.
        populations = self.populations()
        if not populations or any(m < 1 for m in populations):
            raise ValueError("population_sweep must list positive populations")
        capacities = self.capacities()
        if not capacities or any(c < 1 for c in capacities):
            raise ValueError("capacity_sweep must list positive capacities")
        slots = self.n_cells * self.site_capacity
        largest = max(populations) * self.services_per_user
        if largest > slots:
            raise ValueError(
                f"population sweep point {max(populations)} needs {largest} "
                f"service slots but the deployment only has {slots}; raise "
                "site_capacity or n_cells"
            )
        tightest = self.n_cells * min(capacities)
        services = self.n_users * self.services_per_user
        if services > tightest:
            raise ValueError(
                f"capacity sweep point {min(capacities)} offers {tightest} "
                f"service slots but the fleet needs {services}; raise the "
                "sweep's capacities or n_cells"
            )

    @property
    def services_per_user(self) -> int:
        """Real service plus chaffs, per user."""
        return 1 + self.n_chaffs

    def populations(self) -> tuple[int, ...]:
        """Population sweep points (derived from ``n_users`` when unset)."""
        if self.population_sweep is not None:
            return tuple(int(m) for m in self.population_sweep)
        points = {max(2, self.n_users // 5), max(3, self.n_users // 2), self.n_users}
        return tuple(sorted(m for m in points if m <= self.n_users))

    def capacities(self) -> tuple[int, ...]:
        """Capacity sweep points, all feasible for ``n_users``.

        The smallest point is the tightest capacity that still hosts the
        whole fleet (maximum contention), the largest is
        ``site_capacity``.
        """
        if self.capacity_sweep is not None:
            return tuple(int(c) for c in self.capacity_sweep)
        minimum = -(-self.n_users * self.services_per_user // self.n_cells)
        points = {minimum, (minimum + self.site_capacity) // 2, self.site_capacity}
        return tuple(sorted(c for c in points if c >= minimum))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        data = asdict(self)
        if self.population_sweep is not None:
            data["population_sweep"] = list(self.population_sweep)
        if self.capacity_sweep is not None:
            data["capacity_sweep"] = list(self.capacity_sweep)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        for key in ("population_sweep", "capacity_sweep"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def scaled(
        self,
        *,
        n_users: int | None = None,
        n_runs: int | None = None,
        horizon: int | None = None,
    ) -> "FleetExperimentConfig":
        """Copy with reduced sizes (for tests and CI)."""
        return replace(self, **_given(n_users=n_users, n_runs=n_runs, horizon=horizon))


@dataclass(frozen=True)
class DynamicExperimentConfig:
    """Configuration of the dynamic-world fleet experiment.

    The experiment runs the multi-user fleet on a *live* deployment: a
    :class:`~repro.world.timeline.Timeline` of regime switches, Poisson
    site failures and user churn generated from the config seed.  Two
    sweeps are reported — privacy and per-user cost versus the site
    failure rate (churn fixed) and versus the user churn rate (failures
    fixed).

    Attributes
    ----------
    n_users / n_cells / site_capacity / horizon / n_runs / n_chaffs /
    strategy / mobility_model:
        The fleet shape, as in :class:`FleetExperimentConfig` (the
        deployment is the densest grid factorisation of ``n_cells``).
    regime_model:
        Mobility model key of the alternate regime; ``None`` disables
        regime switching.
    regime_period:
        Slots between regime rotations (``None`` disables switching).
    failure_rate:
        Expected site failures per slot in the churn sweep.
    churn_rate:
        Fraction of transient users in the failure sweep.
    mean_downtime:
        Mean slots a failed site stays down.
    failure_sweep / churn_sweep:
        Explicit sweep points; ``None`` derives a small default sweep
        around ``failure_rate`` / ``churn_rate``.
    seed / workers:
        As in every experiment config (``workers`` never changes the
        numbers and stays out of the cache key).
    """

    n_users: int = 40
    n_cells: int = 25
    site_capacity: int = 8
    horizon: int = 100
    n_runs: int = 10
    n_chaffs: int = 1
    strategy: str = "IM"
    mobility_model: str = "non-skewed"
    regime_model: "str | None" = "temporally-skewed"
    regime_period: "int | None" = 25
    failure_rate: float = 0.05
    churn_rate: float = 0.2
    mean_downtime: float = 5.0
    failure_sweep: "tuple[float, ...] | None" = None
    churn_sweep: "tuple[float, ...] | None" = None
    seed: int = 2017
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if self.site_capacity < 1:
            raise ValueError("site_capacity must be positive")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        if self.n_chaffs < 0:
            raise ValueError("n_chaffs must be non-negative")
        if self.regime_period is not None and self.regime_period < 1:
            raise ValueError("regime_period must be positive (or None)")
        if self.failure_rate < 0:
            raise ValueError("failure_rate must be non-negative")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must be in [0, 1]")
        if self.mean_downtime < 1:
            raise ValueError("mean_downtime must be at least 1 slot")
        if any(rate < 0 for rate in self.failure_rates()):
            raise ValueError("failure_sweep rates must be non-negative")
        if any(not 0.0 <= rate <= 1.0 for rate in self.churn_rates()):
            raise ValueError("churn_sweep rates must be in [0, 1]")
        _check_strategies("strategy", [self.strategy])
        _check_mobility_models("mobility_model", [self.mobility_model])
        if self.regime_model is not None:
            _check_mobility_models("regime_model", [self.regime_model])
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")
        slots = self.n_cells * self.site_capacity
        services = self.n_users * (1 + self.n_chaffs)
        if services > slots:
            raise ValueError(
                f"fleet needs {services} service slots but the deployment "
                f"only has {slots}; raise site_capacity or n_cells"
            )

    def failure_rates(self) -> tuple[float, ...]:
        """Failure-sweep points (derived from ``failure_rate`` when unset)."""
        if self.failure_sweep is not None:
            return tuple(float(rate) for rate in self.failure_sweep)
        return (0.0, self.failure_rate, 2 * self.failure_rate)

    def churn_rates(self) -> tuple[float, ...]:
        """Churn-sweep points (derived from ``churn_rate`` when unset)."""
        if self.churn_sweep is not None:
            return tuple(float(rate) for rate in self.churn_sweep)
        return (0.0, self.churn_rate, min(1.0, 2 * self.churn_rate))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        data = asdict(self)
        if self.failure_sweep is not None:
            data["failure_sweep"] = list(self.failure_sweep)
        if self.churn_sweep is not None:
            data["churn_sweep"] = list(self.churn_sweep)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DynamicExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        for key in ("failure_sweep", "churn_sweep"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def scaled(
        self,
        *,
        n_users: int | None = None,
        n_runs: int | None = None,
        horizon: int | None = None,
    ) -> "DynamicExperimentConfig":
        """Copy with reduced sizes (for tests and CI)."""
        horizon = horizon if horizon is not None else self.horizon
        return replace(
            self,
            horizon=horizon,
            regime_period=_clamped_period(self.regime_period, horizon),
            **_given(n_users=n_users, n_runs=n_runs),
        )


#: Knowledge levels accepted by :class:`AdversaryExperimentConfig`.
_KNOWLEDGE_LEVELS = ("oracle", "learned", "stale")


@dataclass(frozen=True)
class AdversaryExperimentConfig:
    """Configuration of the adversary knowledge/coverage ladder experiment.

    The experiment simulates one fleet Monte-Carlo (optionally on a
    regime-switching world, so ``stale`` knowledge has something to be
    blind to) and replays the *same* reports against a grid of
    adversaries: every knowledge level crossed with a coverage-fraction
    sweep (single compromised view) and a coalition-size sweep (several
    partial views merged).  Reported per point: detection rate, tracking
    accuracy — the "how much must the attacker know/see before privacy
    collapses" curve — plus the defender's (adversary-independent) cost.

    Attributes
    ----------
    n_users / n_cells / site_capacity / horizon / n_runs / n_chaffs /
    strategy / mobility_model:
        The fleet shape, as in :class:`FleetExperimentConfig` (the
        deployment is the densest grid factorisation of ``n_cells``).
    regime_model / regime_period:
        Mobility regime rotation of the world (``None`` period disables
        it; without regimes ``stale`` coincides with ``oracle``).
    knowledge_levels:
        Subset of ``("oracle", "learned", "stale")`` to evaluate.
    coverage_fractions:
        Compromised-site fractions of the single-view sweep (coalition
        size 1); values in ``(0, 1]``.
    coalition_sizes:
        Member counts of the coalition sweep; each member compromises
        its own seeded ``coalition_fraction`` of the sites.
    coalition_fraction:
        Per-member coverage fraction of the coalition sweep.
    smoothing / warm_start:
        Learned-knowledge fit parameters (additive smoothing; whether
        the adversary's counts persist episode over episode).
    seed / workers:
        As in every experiment config (``workers`` never changes the
        numbers and stays out of the cache key; workers shard the report
        simulation, never the order-dependent evaluation).
    run_stack:
        Monte-Carlo episodes folded into one pass of the slot kernel
        during report simulation (``1`` = per-episode).  Execution-only:
        bit-identical reports for every stack size.
    """

    n_users: int = 30
    n_cells: int = 25
    site_capacity: int = 8
    horizon: int = 60
    n_runs: int = 10
    n_chaffs: int = 1
    strategy: str = "IM"
    mobility_model: str = "non-skewed"
    regime_model: "str | None" = "temporally-skewed"
    regime_period: "int | None" = 20
    knowledge_levels: Sequence[str] = _KNOWLEDGE_LEVELS
    coverage_fractions: Sequence[float] = (0.2, 0.5, 1.0)
    coalition_sizes: Sequence[int] = (1, 2, 4)
    coalition_fraction: float = 0.2
    smoothing: float = 1e-3
    warm_start: bool = True
    seed: int = 2017
    workers: int = 1
    run_stack: int = 1

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if self.site_capacity < 1:
            raise ValueError("site_capacity must be positive")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        if self.n_chaffs < 0:
            raise ValueError("n_chaffs must be non-negative")
        if self.regime_period is not None and self.regime_period < 1:
            raise ValueError("regime_period must be positive (or None)")
        if not self.knowledge_levels:
            raise ValueError("at least one knowledge level is required")
        for level in self.knowledge_levels:
            if level not in _KNOWLEDGE_LEVELS:
                raise ValueError(
                    f"unknown knowledge level {level!r}; "
                    f"available: {_KNOWLEDGE_LEVELS}"
                )
        if not self.coverage_fractions:
            raise ValueError("at least one coverage fraction is required")
        if any(not 0.0 < f <= 1.0 for f in self.coverage_fractions):
            raise ValueError("coverage fractions must be in (0, 1]")
        if not self.coalition_sizes:
            raise ValueError("at least one coalition size is required")
        if any(s < 1 for s in self.coalition_sizes):
            raise ValueError("coalition sizes must be positive")
        if not 0.0 < self.coalition_fraction <= 1.0:
            raise ValueError("coalition_fraction must be in (0, 1]")
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")
        _check_strategies("strategy", [self.strategy])
        _check_mobility_models("mobility_model", [self.mobility_model])
        if self.regime_model is not None:
            _check_mobility_models("regime_model", [self.regime_model])
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")
        if self.run_stack < 1:
            raise ValueError("run_stack must be positive")
        slots = self.n_cells * self.site_capacity
        services = self.n_users * (1 + self.n_chaffs)
        if services > slots:
            raise ValueError(
                f"fleet needs {services} service slots but the deployment "
                f"only has {slots}; raise site_capacity or n_cells"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        data = asdict(self)
        data["knowledge_levels"] = list(self.knowledge_levels)
        data["coverage_fractions"] = list(self.coverage_fractions)
        data["coalition_sizes"] = list(self.coalition_sizes)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AdversaryExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        if "knowledge_levels" in data:
            data["knowledge_levels"] = tuple(data["knowledge_levels"])
        if "coverage_fractions" in data:
            data["coverage_fractions"] = tuple(data["coverage_fractions"])
        if "coalition_sizes" in data:
            data["coalition_sizes"] = tuple(data["coalition_sizes"])
        return cls(**data)

    def scaled(
        self,
        *,
        n_users: int | None = None,
        n_runs: int | None = None,
        horizon: int | None = None,
    ) -> "AdversaryExperimentConfig":
        """Copy with reduced sizes (for tests and CI)."""
        horizon = horizon if horizon is not None else self.horizon
        return replace(
            self,
            horizon=horizon,
            regime_period=_clamped_period(self.regime_period, horizon),
            knowledge_levels=tuple(self.knowledge_levels),
            coverage_fractions=tuple(self.coverage_fractions),
            coalition_sizes=tuple(self.coalition_sizes),
            **_given(n_users=n_users, n_runs=n_runs),
        )
