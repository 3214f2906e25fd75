"""The one place that decides which numeric path a cell runs on.

The cache key, ``experiments.year_result`` and the campaign runner's
partitioning all call :func:`decide_engine`; the ``lanes.py``
constructor keeps its guards purely as tripwires against being handed a
config this module would have routed elsewhere.

The rules, in order:

* An unknown requested engine is an error (``lanes``/``scalar`` only).
* ``scalar`` requested -> scalar, always (the pinned reference path).
* Exotic timing (anything but the standard 120 s model step / 600 s
  control period) -> scalar: the lane engine's rate-split caches assume
  the standard grid.
* Everything else -> lanes.  Neither the plant nor a fault schedule
  forces scalar: chiller, cooling_tower, and hybrid cells ride lanes
  through their lane-vectorized units, and faulted cells ride lanes
  with their own fault-injected sensors and actuators per lane.

Day-unfolding additionally requires every sampled day to be provably
independent of the days before it:

* scalar cells never unfold;
* faulted cells never unfold: fault state carries across days (a dead
  sensor holds its first reading, spike RNG streams continue, drift
  runs from the first observation in its window, a stuck sensor keeps
  its latched value), so day *k* depends on the days before it;
* deferrable workloads never unfold (their traces exist to be
  temporally rescheduled); and
* any temporal-scheduling policy other than ``NONE`` never unfolds
  (the scheduler mutates job start times across days).

See the engine-eligibility table in ``docs/EXPERIMENTS.md`` for the
same rules cell-shape by cell-shape.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.core.config import CoolAirConfig

SIM_ENGINES = ("lanes", "scalar")


@dataclasses.dataclass(frozen=True)
class EngineDecision:
    """Where a cell runs, and why it cannot run faster.

    ``engine`` is ``"lanes"`` or ``"scalar"``; ``day_unfold`` says
    whether the cell's sampled days may be unfolded into sibling lanes.
    ``reason`` carries the first rule that forced a downgrade (empty
    when the cell rides the fast path end to end).
    """

    engine: str
    day_unfold: bool
    reason: str = ""


def decide_engine(
    system: Union[str, CoolAirConfig],
    engine: Optional[str] = None,
    deferrable: bool = False,
) -> EngineDecision:
    """The single decision function for a cell's numeric path.

    ``system`` is ``"baseline"`` (or any plain string) or a resolved
    :class:`CoolAirConfig`; ``engine`` is the *requested* engine
    (``None`` means "the default", which the caller resolves — this
    function treats ``None`` as ``"lanes"`` since only the lane request
    has anything to decide).  The cooling plant takes no part: every
    backend rides the lane engine.
    """
    requested = engine or "lanes"
    if requested not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {requested!r}; choices: {SIM_ENGINES}"
        )
    if requested == "scalar":
        return EngineDecision("scalar", False, "scalar engine requested")
    if not isinstance(system, str):
        from repro.sim.lanes import CONTROL_PERIOD_S, MODEL_STEP_S

        if (
            system.model_step_s != MODEL_STEP_S
            or system.control_period_s != CONTROL_PERIOD_S
        ):
            return EngineDecision(
                "scalar",
                False,
                "exotic timing (lane caches assume 120 s / 600 s)",
            )
        if system.faults:
            return EngineDecision(
                "lanes", False, "fault state carries across days"
            )
    if deferrable:
        return EngineDecision(
            "lanes", False, "deferrable traces are temporally rescheduled"
        )
    if not isinstance(system, str):
        from repro.core.config import TemporalPolicy

        if system.temporal is not TemporalPolicy.NONE:
            return EngineDecision(
                "lanes", False, "temporal scheduling couples days"
            )
    return EngineDecision("lanes", True)
