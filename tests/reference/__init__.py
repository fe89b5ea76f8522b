"""Test-only oracles: the naive looped reference paths.

The library ships one vectorised path per layer.  The slow, obvious
implementations they are checked against live here, outside ``src/``,
so no configuration can select them:

* :mod:`reference.monte_carlo` — the single-user Monte-Carlo and strategy
  sweep played one episode at a time;
* :mod:`reference.fleet` — the per-user, per-service fleet walk, plus a
  context manager routing whole fleet experiments through it;
* :mod:`reference.adversary` — the per-row Python scorer of the
  knowledge x coverage adversary;
* :mod:`reference.single_user` — the per-object single-user MEC
  simulator (migration engine, chaff orchestrator, eavesdropper
  observer) that an ``M = 1`` fleet reproduces bit for bit;
* :mod:`reference.optimal_offline` — Algorithm 1 solved one user
  trajectory at a time, the oracle of the batched layered DP;
* :mod:`reference.placement` — the placement walks that rescan every
  cell for the nearest free site, the oracle of the first-hit walk;
* :mod:`reference.sampling` — trajectory randomness drawn one
  trajectory at a time and the linear count over full cumulative rows,
  the oracle of the sampling step kernel.

``tests/conftest.py`` and ``benchmarks/conftest.py`` put ``tests/`` on
``sys.path``, so both suites import this package as ``reference``.
"""

from .adversary import LoopReferenceAdversaryDetector
from .fleet import loop_engine, run_fleet, run_fleet_loop
from .monte_carlo import run_game_loop, sweep_strategies_loop
from .optimal_offline import solve_optimal_offline_loop
from .placement import ReferencePlacementEngine

__all__ = [
    "LoopReferenceAdversaryDetector",
    "ReferencePlacementEngine",
    "loop_engine",
    "run_fleet",
    "run_fleet_loop",
    "run_game_loop",
    "solve_optimal_offline_loop",
    "sweep_strategies_loop",
]
