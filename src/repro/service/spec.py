"""Declarative campaign specifications for the control-plane service.

A :class:`CampaignSpec` is the wire form of "a campaign": the three
sweep shapes the CLI already runs one-shot (``matrix``, ``world``,
``faults``) plus an explicit ``cells`` list, expressed as plain JSON so
clients in any language can submit them.  The spec compiles to the same
:class:`~repro.analysis.runner.YearTask` cells — and therefore the same
cache keys — as the one-shot commands, which is what makes cross-request
dedupe (:mod:`repro.service.scheduler`) and service-vs-CLI bit-identity
possible.

Validation happens at :meth:`CampaignSpec.from_json` time, so a bad
request is rejected at submission with a :class:`SpecError` instead of
failing cells mid-campaign.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.analysis.runner import YearTask
from repro.core.versions import ALL_VERSIONS
from repro.errors import ReproError
from repro.faults import BUILTIN_SCENARIOS, builtin_scenario
from repro.weather.locations import NAMED_LOCATIONS, world_grid

SPEC_KINDS = ("matrix", "world", "faults", "cells")

# Systems whose five_location_matrix cells run the deferrable trace; the
# spec mirrors experiments.five_location_matrix so cache keys line up.
DEFERRABLE_SYSTEMS = ("All-DEF", "Energy-DEF")


class SpecError(ReproError):
    """A campaign spec failed validation at submission time."""


def _known_system(name: str) -> str:
    if name != "baseline" and name not in ALL_VERSIONS:
        choices = ", ".join(["baseline"] + list(ALL_VERSIONS))
        raise SpecError(f"unknown system {name!r}; choices: {choices}")
    return name


def _known_location(name: str):
    try:
        return NAMED_LOCATIONS[name]
    except KeyError:
        raise SpecError(
            f"unknown location {name!r}; "
            f"choices: {', '.join(NAMED_LOCATIONS)}"
        )


def _faulted_config(system: str, scenario: str):
    """A system config carrying a built-in fault scenario."""
    if system == "baseline":
        raise SpecError(
            "fault scenarios require a CoolAir system (the baseline has "
            "no graceful-degradation path)"
        )
    try:
        schedule = builtin_scenario(scenario)
    except ReproError as err:
        raise SpecError(str(err))
    return dataclasses.replace(ALL_VERSIONS[system](), faults=schedule)


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One explicit campaign cell (the ``cells`` spec kind)."""

    system: str
    location: str
    workload: str = "facebook"
    deferrable: bool = False
    sample_every_days: Optional[int] = None
    forecast_bias_c: float = 0.0
    faults: Optional[str] = None

    def to_task(self) -> YearTask:
        climate = _known_location(self.location)
        system = _known_system(self.system)
        if self.faults:
            system = _faulted_config(system, self.faults)
        if self.workload not in ("facebook", "nutch"):
            raise SpecError(
                f"unknown workload {self.workload!r}; choices: "
                "facebook, nutch"
            )
        return YearTask(
            system=system,
            climate=climate,
            workload=self.workload,
            deferrable=self.deferrable,
            sample_every_days=self.sample_every_days,
            forecast_bias_c=self.forecast_bias_c,
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign request.

    ``kind`` selects the sweep shape:

    * ``matrix`` — ``systems`` x the five named locations (Figures 8-10);
    * ``world`` — (``baseline``, ``coolair_system``) at each of
      ``locations`` world-grid climates (Figures 12/13), aggregated by
      the streaming accumulator;
    * ``faults`` — ``system`` at ``location`` under each named built-in
      fault ``scenarios`` entry (docs/ROBUSTNESS.md);
    * ``cells`` — an explicit :class:`CellSpec` list.

    ``world`` specs take the grid size as ``grid_points`` (preferred; the
    older ``locations`` alias still works) and a ``screen`` mode:
    ``"on"`` runs the three-stage screening pipeline
    (:mod:`repro.analysis.screening`) — only climate-cluster
    representatives and surrogate-uncertain cells are simulated, the rest
    are served with provenance tags, and the job's status/result carry
    the simulated/served/surrogate counters.  Grid-cell names encode
    their coordinates, so every grid size produces its own cache keys.
    """

    kind: str
    systems: Tuple[str, ...] = ()
    workload: str = "facebook"
    sample_every_days: Optional[int] = None
    locations: Optional[int] = None
    grid_points: Optional[int] = None
    coolair_system: str = "All-ND"
    system: str = "All-ND"
    location: str = "Newark"
    scenarios: Tuple[str, ...] = ()
    cells: Tuple[CellSpec, ...] = ()
    screen: str = "off"
    # Cooling-plant backend stamped on every expanded cell.  Non-parasol
    # plants carry their own cache-key token, so a chiller campaign never
    # dedupes against a parasol one.
    plant: str = "parasol"

    # -- validation / wire form ---------------------------------------------

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise SpecError(
                f"unknown campaign kind {self.kind!r}; "
                f"choices: {', '.join(SPEC_KINDS)}"
            )
        if self.workload not in ("facebook", "nutch"):
            raise SpecError(
                f"unknown workload {self.workload!r}; choices: "
                "facebook, nutch"
            )
        if self.kind == "matrix" and not self.systems:
            raise SpecError("a matrix spec needs at least one system")
        if self.kind == "cells" and not self.cells:
            raise SpecError("a cells spec needs at least one cell")
        if self.locations is not None and self.locations < 1:
            raise SpecError(
                f"world-grid size must be >= 1, got {self.locations}"
            )
        if self.grid_points is not None and self.grid_points < 1:
            raise SpecError(
                f"world-grid size must be >= 1, got {self.grid_points}"
            )
        if self.screen not in ("off", "on"):
            raise SpecError(
                f"unknown screen mode {self.screen!r}; choices: off, on"
            )
        if (
            self.sample_every_days is not None
            and self.sample_every_days < 1
        ):
            raise SpecError(
                "sample_every_days must be >= 1, got "
                f"{self.sample_every_days}"
            )
        from repro.cooling.backends import PLANTS

        if self.plant not in PLANTS:
            raise SpecError(
                f"unknown cooling plant {self.plant!r}; "
                f"choices: {', '.join(PLANTS)}"
            )

    @classmethod
    def from_json(cls, payload: object) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise SpecError("spec must be a JSON object")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(sorted(unknown))}")
        data = dict(payload)
        try:
            for key in ("systems", "scenarios"):
                if key in data:
                    data[key] = tuple(str(s) for s in data[key])
            if "cells" in data:
                data["cells"] = tuple(
                    CellSpec(**cell) for cell in data["cells"]
                )
        except TypeError as err:
            raise SpecError(f"malformed spec: {err}")
        try:
            return cls(**data)
        except TypeError as err:
            raise SpecError(f"malformed spec: {err}")

    def to_json(self) -> dict:
        payload: Dict[str, object] = {"kind": self.kind}
        if self.kind == "matrix":
            payload["systems"] = list(self.systems)
            payload["workload"] = self.workload
        elif self.kind == "world":
            payload["locations"] = self.locations
            payload["grid_points"] = self.grid_points
            payload["coolair_system"] = self.coolair_system
            payload["screen"] = self.screen
        elif self.kind == "faults":
            payload["system"] = self.system
            payload["location"] = self.location
            payload["scenarios"] = list(self.scenarios)
            payload["workload"] = self.workload
        else:
            payload["cells"] = [cell.to_json() for cell in self.cells]
        if self.sample_every_days is not None:
            payload["sample_every_days"] = self.sample_every_days
        if self.plant != "parasol":
            payload["plant"] = self.plant
        return payload

    # -- expansion -----------------------------------------------------------

    def expand(self) -> List[YearTask]:
        """Compile the spec to campaign cells.

        Mirrors the one-shot entry points cell for cell —
        ``experiments.five_location_matrix`` for ``matrix``,
        ``experiments.world_sweep`` for ``world`` — so a service-run
        campaign shares cache keys (and therefore results) with the same
        campaign run via the CLI.
        """
        tasks: List[YearTask] = []
        if self.kind == "matrix":
            for system in self.systems:
                _known_system(system)
                for climate in NAMED_LOCATIONS.values():
                    tasks.append(
                        YearTask(
                            system=system,
                            climate=climate,
                            workload=self.workload,
                            deferrable=system in DEFERRABLE_SYSTEMS,
                            sample_every_days=self.sample_every_days,
                        )
                    )
        elif self.kind == "world":
            _known_system(self.coolair_system)
            for climate in world_grid(self.world_grid_points()):
                for system in ("baseline", self.coolair_system):
                    tasks.append(
                        YearTask(
                            system=system,
                            climate=climate,
                            sample_every_days=self.sample_every_days,
                        )
                    )
        elif self.kind == "faults":
            climate = _known_location(self.location)
            scenarios = self.scenarios or tuple(sorted(BUILTIN_SCENARIOS))
            for scenario in scenarios:
                tasks.append(
                    YearTask(
                        system=_faulted_config(
                            _known_system(self.system), scenario
                        ),
                        climate=climate,
                        workload=self.workload,
                        sample_every_days=self.sample_every_days,
                    )
                )
        else:
            tasks = [cell.to_task() for cell in self.cells]
        if self.plant != "parasol":
            tasks = [
                dataclasses.replace(task, plant=self.plant)
                for task in tasks
            ]
        return tasks

    def world_grid_points(self) -> int:
        """The world-grid size: ``grid_points`` > ``locations`` > default."""
        return self.grid_points or self.locations or _default_world()

    def world_climates(self):
        """The grid the world accumulator aggregates over (world kind only)."""
        return world_grid(self.world_grid_points())

    def describe(self) -> str:
        plant = f" ({self.plant})" if self.plant != "parasol" else ""
        if self.kind == "matrix":
            return f"matrix[{','.join(self.systems)}] ({self.workload}){plant}"
        if self.kind == "world":
            suffix = ", screened" if self.screen == "on" else ""
            return f"world[{self.world_grid_points()}{suffix}]{plant}"
        if self.kind == "faults":
            n = len(self.scenarios or BUILTIN_SCENARIOS)
            return f"faults[{self.system}@{self.location} x{n}]{plant}"
        return f"cells[{len(self.cells)}]{plant}"


def _default_world() -> int:
    from repro.analysis.experiments import DEFAULT_WORLD_LOCATIONS

    return DEFAULT_WORLD_LOCATIONS
