"""Record ``reference.json``, the campaign benchmark's output check.

Run from the root of a checkout::

    python3 campaignbench/record_reference.py

Every cell that any seed of any workload can produce is run through the
same campaign entry points the benchmark uses, but on the scalar
reference engine (``REPRO_SIM_ENGINE=scalar``), so the check never trusts
the lane engine it guards.  Payloads are keyed by cell identity.  Record
again only when a change is meant to alter simulated results.
"""

import json
import shutil
import sys

import run
import workloads


def main():
    plan = {"queries": []}
    for workload in workloads.WORKLOADS:
        plan["queries"] += workloads.pool_plan(workload)["queries"]
    scratch = run.ROOT / ".bench_run" / "record"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        plan_path = scratch / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = run.run_child(
            "campaign",
            plan_path,
            scratch / "out.json",
            dict(
                run.child_env(scratch / "store", scratch / "cache"),
                REPRO_SIM_ENGINE="scalar",
            ),
            timeout_s=3600.0,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cells = {}
    for cell_id, payload in out["cells"]:
        if payload is None:
            sys.exit(f"error: {cell_id} failed on the scalar engine")
        cells[cell_id] = payload
    write_reference(
        {"engine": "scalar", "python": out["python"], "numpy": out["numpy"]},
        cells,
    )
    print(f"recorded {len(cells)} cells")


def write_reference(meta, cells):
    """One cell per line, so a re-recording diffs cell by cell."""
    lines = [
        f"  {json.dumps(cell_id)}: {json.dumps(cells[cell_id], sort_keys=True)}"
        for cell_id in sorted(cells)
    ]
    with open(run.HERE / "reference.json", "w") as handle:
        handle.write("{\n")
        for key in sorted(meta):
            handle.write(f"{json.dumps(key)}: {json.dumps(meta[key])},\n")
        handle.write('"cells": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
