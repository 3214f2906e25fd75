"""Self-tests of the campaign benchmark.

Run from the root of a checkout::

    python3 campaignbench/selftest.py          # fast checks, seconds
    python3 campaignbench/selftest.py --slow   # plus end-to-end runs, ~2 min

The fast checks cover seed plumbing, the output check, hook degradation
and the metric tables; ``--slow`` runs the benchmark itself to show that a
tampered reference payload lands in ``failed_frac`` and that traced counts
repeat exactly across runs.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

import calibrate
import run
import tracer
import workloads

SLOW = "--slow" in sys.argv
SEEDS = range(40)


def _ids(plan):
    return [cell["id"] for cell in workloads.plan_cells(plan)]


class SeedPlumbing(unittest.TestCase):
    def test_one_seed_yields_identical_cells(self):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(
                    workloads.plan(workload, seed),
                    workloads.plan(workload, seed),
                )

    def test_seeds_move_inputs_not_cell_days(self):
        for workload in workloads.WORKLOADS:
            plans = [workloads.plan(workload, seed) for seed in SEEDS]
            self.assertEqual(
                {workloads.cell_days(plan) for plan in plans},
                {workloads.cell_days(plans[0])},
            )
            self.assertGreater(len({tuple(_ids(plan)) for plan in plans}), 1)

    def test_inputs_come_from_the_pools_and_the_reference(self):
        reference = run.load_reference()
        for workload in workloads.WORKLOADS:
            pool = set(_ids(workloads.pool_plan(workload)))
            for seed in range(200):
                ids = set(_ids(workloads.plan(workload, seed)))
                self.assertLessEqual(ids, pool)
                self.assertLessEqual(ids, set(reference))

    def test_small_campaigns_repeat_a_fixed_share(self):
        for seed in SEEDS:
            queries = workloads.plan("small_campaigns", seed)["queries"]
            keys = [(q["systems"][0], q["stride"]) for q in queries]
            self.assertTrue(all(a != b for a, b in zip(keys, keys[1:])))
            self.assertEqual(len(keys) - len(set(keys)), 2)


class OutputCheck(unittest.TestCase):
    def test_tampered_payload_is_a_failure(self):
        reference = run.load_reference()
        cell_id = sorted(reference)[0]
        good = copy.deepcopy(reference[cell_id])
        self.assertEqual(run.check_cells([(cell_id, good)], reference), [])
        tampered = copy.deepcopy(good)
        tampered["cooling_kwh"] = tampered["cooling_kwh"] * (1 + 2.0 ** -52)
        self.assertNotEqual(tampered["cooling_kwh"], good["cooling_kwh"])
        self.assertEqual(
            run.check_cells([(cell_id, tampered)], reference), [cell_id]
        )
        self.assertEqual(run.check_cells([(cell_id, None)], reference), [cell_id])
        self.assertEqual(run.check_cells([("no-such-cell", good)], reference),
                         ["no-such-cell"])


class Hooks(unittest.TestCase):
    def test_missing_hooks_degrade(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        hooks = tracer.HOOKS
        tracer.HOOKS = hooks + (
            ("sim.self_s", "repro.sim.engine:DayRunner.gone", None),
            ("sim.self_s", "repro.no_such_module:gone", None),
            ("sim.fold_s", "repro.sim.trace:*_never", None),
        )
        try:
            with tempfile.TemporaryDirectory() as directory:
                installed = tracer.install(directory)
                installed.finish("selftest", 0.0)
                summary = tracer.summarize(directory)
        finally:
            tracer.HOOKS = hooks
        self.assertEqual(
            sorted(summary["missing"]),
            [
                "repro.no_such_module:gone",
                "repro.sim.engine:DayRunner.gone",
                "repro.sim.trace:*_never",
            ],
        )

    def test_metric_tables_agree(self):
        with open(run.ROOT / "BENCHMARK.json") as handle:
            bench = json.load(handle)
        with open(run.HERE / "layers.json") as handle:
            layers = json.load(handle)["layers"]
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(
            per_layer, {name: tracer.unit(name) for name in per_layer}
        )
        listed = [name for layer in layers for name in layer["metrics"]]
        self.assertEqual(sorted(listed), sorted(per_layer))
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            [w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS)
        )
        metrics = tracer.layer_metrics(
            _empty_summary(), _empty_summary(), workloads.WORKERS, 0.0
        )
        self.assertEqual(sorted(metrics), sorted(per_layer))


class Calibration(unittest.TestCase):
    def test_kernel_is_fixed_work(self):
        self.assertEqual(calibrate.kernel(500), calibrate.kernel(500))

    def test_calibration_times_every_core_and_reaps_its_children(self):
        wall, cpu = calibrate.calibrate(workloads.WORKERS)
        self.assertGreater(wall, 0.0)
        self.assertGreater(cpu, 0.0)
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _empty_summary():
    with tempfile.TemporaryDirectory() as directory:
        empty = tracer.Tracer(directory)
        empty.finish("selftest", 0.0)
        return tracer.summarize(directory)


@unittest.skipUnless(SLOW, "end-to-end runs need --slow")
class EndToEnd(unittest.TestCase):
    def test_tampered_reference_counts_in_failed_frac(self):
        reference = run.load_reference()
        cell = workloads.plan_cells(workloads.plan("plant_world", 0))[0]
        tampered = copy.deepcopy(reference)
        tampered[cell["id"]]["it_kwh"] += 1e-9
        result, info = run.run_benchmark("plant_world", 0, 0, False, tampered)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], info["attempted"] // 48)
        self.assertGreater(info["failed_frac"], 0.0)

    def test_traced_counts_repeat_exactly(self):
        reference = run.load_reference()
        runs = [
            run.run_benchmark("paper_matrix", 3, 0, True, reference)
            for _ in range(2)
        ]
        for result, info in runs:
            self.assertTrue(result["correct"])
            self.assertEqual(info["samples"]["missing_hooks"], [])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            self.assertAlmostEqual(
                info["samples"]["self_plus_unattributed_s"],
                metrics["trace.wall_s"],
                places=6,
            )
        first, second = (
            {k: r["metrics"][k]["value"] for k in tracer.COUNT_METRICS}
            for r, _ in runs
        )
        self.assertEqual(first, second)
        self.assertGreater(first["core.rollouts"], 0)
        self.assertGreater(first["physics.lane_steps"], 0)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + [a for a in sys.argv[1:] if a != "--slow"])
