"""Seeded input pools and plans for the campaign benchmark's workloads.

A *plan* is plain data: the queries one caller issues, in order.  Each
query names the campaign entry point it goes through (``matrix`` for
``experiments.five_location_matrix``, ``tasks`` for
``runner.run_year_tasks`` over explicit ``YearTask`` cells, ``faults``
for ``CampaignSpec(kind="faults").expand()``) and lists the cells it
must return.  Inputs come only from the fixed pools below; the workload
seed picks among them, so one seed always yields the same plan and every
seed yields the same number of cell-days.

This module imports nothing from the program, so the orchestrator can
size and check a run without loading the simulator.
"""

from __future__ import annotations

import random
from typing import Dict, List

# A pool of two workers, the core count of the machine the bounds were
# set on; every workload is a closed loop with one caller.
WORKERS = 2

DAYS_PER_YEAR = 365

SITES = ("Newark", "Chad", "Santiago", "Iceland", "Singapore")
MATRIX_SYSTEMS = ("baseline", "Temperature", "Energy", "Variation", "All-ND")
COOLAIR_SYSTEMS = MATRIX_SYSTEMS[1:]
PLANTS = ("parasol", "chiller", "cooling_tower", "hybrid")
FAULT_SCENARIOS = (
    "ac-lockout",
    "damper-jam",
    "fan-stuck",
    "inlet-dropout",
    "model-gap",
    "sensor-drift",
    "sensor-spike",
    "sensor-stuck",
)

# Strides in one pool sample the same number of days (4 and 2), so a
# seed moves which days run, never how many.
QUARTER_STRIDES = tuple(range(92, 100))
HALF_STRIDES = tuple(range(183, 191))

# plant_world draws its climates from this world grid; fault_matrix and
# plant_world keep one stride so their seeds only move sites/climates.
GRID_POINTS = 48
PLANT_WORLD_CLIMATES = 12
PLANT_WORLD_STRIDE = 92
FAULT_SITES = 3
FAULT_STRIDE = 183

# small_campaigns: four distinct queries (one per CoolAir system) and two
# repeats of an earlier, non-adjacent query.
SMALL_SEQUENCE = (0, 1, 0, 2, 1, 3)

WORKLOADS = ("paper_matrix", "plant_world", "fault_matrix", "small_campaigns")


def sampled_day_count(stride: int) -> int:
    return len(range(0, DAYS_PER_YEAR, stride))


def cell(system: str, plant: str, stride: int, site: str = None,
         grid: int = None, fault: str = None) -> Dict:
    """One campaign cell, identified by everything that sets its result."""
    where = site if site is not None else f"grid{GRID_POINTS}:{grid}"
    name = system if fault is None else f"{system}+{fault}"
    return {
        "id": f"{name}@{where}/{plant}/s{stride}",
        "system": system,
        "site": site,
        "grid": grid,
        "plant": plant,
        "stride": stride,
        "fault": fault,
    }


def _matrix_query(systems, stride: int) -> Dict:
    return {
        "entry": "matrix",
        "systems": list(systems),
        "stride": stride,
        "cells": [
            cell(system, "parasol", stride, site=site)
            for system in systems
            for site in SITES
        ],
    }


def _plant_query(grid) -> Dict:
    return {
        "entry": "tasks",
        "cells": [
            cell("baseline", plant, PLANT_WORLD_STRIDE, grid=index)
            for plant in PLANTS
            for index in grid
        ],
    }


def _fault_query(sites) -> Dict:
    return {
        "entry": "faults",
        "system": "All-ND",
        "sites": list(sites),
        "scenarios": list(FAULT_SCENARIOS),
        "stride": FAULT_STRIDE,
        "cells": [
            cell("All-ND", "parasol", FAULT_STRIDE, site=site, fault=name)
            for site in sites
            for name in FAULT_SCENARIOS
        ],
    }


def plan(workload: str, seed: int) -> Dict:
    """The queries one caller issues for ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper_matrix":
        queries = [_matrix_query(MATRIX_SYSTEMS, rng.choice(QUARTER_STRIDES))]
    elif workload == "plant_world":
        grid = sorted(rng.sample(range(GRID_POINTS), PLANT_WORLD_CLIMATES))
        queries = [_plant_query(grid)]
    elif workload == "fault_matrix":
        chosen = set(rng.sample(SITES, FAULT_SITES))
        queries = [_fault_query([site for site in SITES if site in chosen])]
    elif workload == "small_campaigns":
        systems = list(COOLAIR_SYSTEMS)
        rng.shuffle(systems)
        distinct = [
            _matrix_query((system,), rng.choice(HALF_STRIDES))
            for system in systems
        ]
        queries = [distinct[i] for i in SMALL_SEQUENCE]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "queries": queries}


def pool_plan(workload: str) -> Dict:
    """Queries covering every distinct cell any seed of ``workload`` uses."""
    if workload == "paper_matrix":
        queries = [_matrix_query(MATRIX_SYSTEMS, s) for s in QUARTER_STRIDES]
    elif workload == "plant_world":
        queries = [_plant_query(range(GRID_POINTS))]
    elif workload == "fault_matrix":
        queries = [_fault_query(SITES)]
    elif workload == "small_campaigns":
        queries = [_matrix_query(COOLAIR_SYSTEMS, s) for s in HALF_STRIDES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": None, "queries": queries}


def plan_cells(p: Dict) -> List[Dict]:
    """Every cell the plan's queries return, repeats included, in order."""
    return [c for query in p["queries"] for c in query["cells"]]


def cell_days(p: Dict) -> int:
    return sum(sampled_day_count(c["stride"]) for c in plan_cells(p))
