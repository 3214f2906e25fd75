"""CampaignSpec validation, expansion, and wire-form round trips.

The load-bearing property is cell-for-cell equality with the one-shot
entry points: a spec's expansion must produce the same cache keys as
``experiments.five_location_matrix`` / ``world_sweep`` would, because
those keys are the service's dedupe identity and what makes service-run
and CLI-run campaigns share one result cache.
"""

import pytest

from repro.analysis.experiments import DEFAULT_WORLD_LOCATIONS
from repro.core.coolair import CoolAirConfig
from repro.faults import BUILTIN_SCENARIOS
from repro.service.jobs import task_cache_key, task_descriptor
from repro.service.spec import CampaignSpec, CellSpec, SpecError
from repro.weather.locations import NAMED_LOCATIONS


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown campaign kind"):
            CampaignSpec(kind="bogus")

    def test_matrix_needs_systems(self):
        with pytest.raises(SpecError, match="at least one system"):
            CampaignSpec(kind="matrix")

    def test_cells_needs_cells(self):
        with pytest.raises(SpecError, match="at least one cell"):
            CampaignSpec(kind="cells")

    def test_unknown_workload(self):
        with pytest.raises(SpecError, match="unknown workload"):
            CampaignSpec(kind="world", workload="hadoop")

    def test_bad_world_size(self):
        with pytest.raises(SpecError, match=">= 1"):
            CampaignSpec(kind="world", locations=0)

    def test_bad_stride(self):
        with pytest.raises(SpecError, match="sample_every_days"):
            CampaignSpec(kind="world", sample_every_days=0)

    def test_unknown_system_rejected_at_expand(self):
        spec = CampaignSpec(kind="matrix", systems=("bogus",))
        with pytest.raises(SpecError, match="unknown system"):
            spec.expand()

    def test_faults_reject_baseline(self):
        spec = CampaignSpec(
            kind="faults", system="baseline", scenarios=("sensor-stuck",)
        )
        with pytest.raises(SpecError, match="CoolAir system"):
            spec.expand()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            CampaignSpec.from_json({"kind": "world", "surprise": 1})

    def test_day_lanes_is_an_unknown_field(self):
        """The unfold width is the run's lane width, not a spec field."""
        with pytest.raises(SpecError, match="unknown spec field.*day_lanes"):
            CampaignSpec.from_json(
                {"kind": "matrix", "systems": ["All-ND"], "day_lanes": 4}
            )

    def test_from_json_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            CampaignSpec.from_json(["matrix"])


class TestExpansion:
    def test_matrix_mirrors_five_location_matrix(self):
        spec = CampaignSpec(
            kind="matrix", systems=("baseline", "All-DEF"), sample_every_days=183
        )
        tasks = spec.expand()
        assert len(tasks) == 2 * len(NAMED_LOCATIONS)
        # All-DEF runs the deferrable trace, exactly as the one-shot
        # matrix does; baseline does not.
        by_system = {}
        for task in tasks:
            by_system.setdefault(task.system, []).append(task)
        assert all(not t.deferrable for t in by_system["baseline"])
        assert all(t.deferrable for t in by_system["All-DEF"])

    def test_matrix_keys_match_one_shot_cache_keys(self):
        from repro.analysis import experiments
        from repro.analysis.runner import YearTask

        spec = CampaignSpec(kind="matrix", systems=("baseline",))
        spec_keys = {task_cache_key(t) for t in spec.expand()}
        direct_keys = {
            experiments.cache_key(
                "baseline", climate, "facebook", False, None, 0.0
            )
            for climate in NAMED_LOCATIONS.values()
        }
        assert spec_keys == direct_keys
        assert len(spec_keys) == len(spec.expand())  # all distinct
        assert all(isinstance(t, YearTask) for t in spec.expand())

    def test_world_pairs_baseline_with_coolair(self):
        spec = CampaignSpec(kind="world", locations=4)
        tasks = spec.expand()
        assert len(tasks) == 8
        systems = [
            t.system if isinstance(t.system, str) else t.system.name
            for t in tasks
        ]
        assert systems[::2] == ["baseline"] * 4
        assert systems[1::2] == ["All-ND"] * 4
        assert len(list(spec.world_climates())) == 4

    def test_world_defaults(self):
        spec = CampaignSpec(kind="world")
        assert len(spec.expand()) == 2 * DEFAULT_WORLD_LOCATIONS

    def test_faults_expand_to_configured_systems(self):
        spec = CampaignSpec(
            kind="faults", system="All-ND", scenarios=("sensor-stuck",)
        )
        tasks = spec.expand()
        assert len(tasks) == 1
        config = tasks[0].system
        assert isinstance(config, CoolAirConfig)
        assert config.faults is not None

    def test_faults_default_to_all_builtin_scenarios(self):
        spec = CampaignSpec(kind="faults")
        assert len(spec.expand()) == len(BUILTIN_SCENARIOS)

    def test_cells_kind(self):
        spec = CampaignSpec(
            kind="cells",
            cells=(
                CellSpec(system="baseline", location="Newark"),
                CellSpec(system="All-ND", location="Chad", faults="sensor-stuck"),
            ),
        )
        tasks = spec.expand()
        assert tasks[0].system == "baseline"
        assert isinstance(tasks[1].system, CoolAirConfig)

    def test_cell_unknown_location(self):
        spec = CampaignSpec(
            kind="cells", cells=(CellSpec(system="baseline", location="Atlantis"),)
        )
        with pytest.raises(SpecError, match="Atlantis"):
            spec.expand()


class TestWireForm:
    @pytest.mark.parametrize(
        "spec",
        [
            CampaignSpec(kind="matrix", systems=("baseline", "All-ND")),
            CampaignSpec(kind="world", locations=6, coolair_system="Energy"),
            CampaignSpec(
                kind="faults",
                system="All-ND",
                location="Chad",
                scenarios=("sensor-stuck",),
                sample_every_days=91,
            ),
            CampaignSpec(
                kind="cells",
                cells=(CellSpec(system="baseline", location="Newark"),),
            ),
        ],
    )
    def test_roundtrip_preserves_expansion(self, spec):
        clone = CampaignSpec.from_json(spec.to_json())
        assert [task_cache_key(t) for t in clone.expand()] == [
            task_cache_key(t) for t in spec.expand()
        ]
        assert clone.describe() == spec.describe()

    def test_descriptor_reports_faults(self):
        spec = CampaignSpec(kind="faults", scenarios=("sensor-stuck",))
        desc = task_descriptor(spec.expand()[0])
        assert desc["system"] == "All-ND"
        assert desc["faulted"] is True
        plain = task_descriptor(
            CampaignSpec(kind="matrix", systems=("baseline",)).expand()[0]
        )
        assert plain["faulted"] is None
        assert plain["label"]


class TestScreeningFields:
    def test_grid_points_overrides_locations(self):
        spec = CampaignSpec(kind="world", locations=24, grid_points=120)
        assert spec.world_grid_points() == 120

    def test_locations_fallback(self):
        spec = CampaignSpec(kind="world", locations=24)
        assert spec.world_grid_points() == 24

    def test_default_world_size(self):
        spec = CampaignSpec(kind="world")
        assert spec.world_grid_points() == DEFAULT_WORLD_LOCATIONS

    def test_bad_grid_points(self):
        with pytest.raises(SpecError, match=">= 1"):
            CampaignSpec(kind="world", grid_points=0)

    def test_bad_screen_mode(self):
        with pytest.raises(SpecError, match="unknown screen mode"):
            CampaignSpec(kind="world", screen="auto")

    def test_world_json_roundtrip_carries_screen(self):
        spec = CampaignSpec(kind="world", grid_points=120, screen="on")
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone.grid_points == 120
        assert clone.screen == "on"
        assert clone == spec

    def test_describe_marks_screened_sweeps(self):
        screened = CampaignSpec(kind="world", grid_points=120, screen="on")
        plain = CampaignSpec(kind="world", grid_points=120)
        assert "screened" in screened.describe()
        assert "screened" not in plain.describe()

    def test_grid_points_change_cache_keys(self):
        # Cache keys follow the coordinate-encoded climate names: two
        # densities share keys exactly where their lattices coincide,
        # and nowhere else — same physical cell, one cache entry.
        from repro.weather.locations import world_grid

        coarse = CampaignSpec(kind="world", grid_points=24, sample_every_days=365)
        dense = CampaignSpec(kind="world", grid_points=120, sample_every_days=365)
        coarse_keys = {task_cache_key(t) for t in coarse.expand()}
        dense_keys = {task_cache_key(t) for t in dense.expand()}
        shared_names = {c.name for c in world_grid(24)} & {
            c.name for c in world_grid(120)
        }
        # Two cells (baseline + CoolAir) per shared coordinate.
        assert len(coarse_keys & dense_keys) == 2 * len(shared_names)
        assert coarse_keys != dense_keys


class TestPlantField:
    def test_default_plant_omitted_from_wire_form(self):
        spec = CampaignSpec(kind="world", grid_points=24)
        assert "plant" not in spec.to_json()
        assert all(t.plant == "parasol" for t in spec.expand())

    def test_unknown_plant_rejected(self):
        with pytest.raises(SpecError, match="unknown cooling plant"):
            CampaignSpec(kind="world", plant="swamp_cooler")

    def test_plant_stamped_on_every_cell(self):
        spec = CampaignSpec(
            kind="matrix", systems=("baseline", "All-ND"), plant="chiller"
        )
        assert all(t.plant == "chiller" for t in spec.expand())

    def test_plant_roundtrip_and_describe(self):
        spec = CampaignSpec(kind="world", grid_points=24, plant="cooling_tower")
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert "cooling_tower" in spec.describe()
        assert "parasol" not in CampaignSpec(kind="world").describe()

    def test_plant_changes_cache_keys(self):
        base = CampaignSpec(kind="world", grid_points=24, sample_every_days=365)
        chiller = CampaignSpec(
            kind="world", grid_points=24, sample_every_days=365, plant="chiller"
        )
        base_keys = {task_cache_key(t) for t in base.expand()}
        chiller_keys = {task_cache_key(t) for t in chiller.expand()}
        assert base_keys.isdisjoint(chiller_keys)
        assert all("-pchiller-" in key for key in chiller_keys)

    def test_descriptor_reports_plant(self):
        spec = CampaignSpec(
            kind="matrix", systems=("baseline",), plant="hybrid"
        )
        assert task_descriptor(spec.expand()[0])["plant"] == "hybrid"
