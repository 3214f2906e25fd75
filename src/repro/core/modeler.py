"""The Cooling Modeler: learning thermal/humidity/power models (Section 3.1).

The Cooling Learner runs offline, once, over monitoring data collected
under the default cooling controller.  It fits:

* a **temperature model** per sensor per regime/transition — the predicted
  temperature is a linear function of: current and last inside temperature,
  current and last outside temperature, current and last fan speed, current
  datacenter utilization, fan speed x inside temperature, and fan speed x
  outside temperature (composed inputs allow linear regression to capture
  the bilinear mixing physics);
* an **absolute humidity model** per regime/transition — linear in current
  inside humidity, current outside humidity, current fan speed, fan x
  inside humidity, and fan x outside humidity; and
* a **cooling power model** per regime — constant per regime, except free
  cooling where power is a (cubic) function of fan speed, learned with an
  M5P piecewise-linear model tree.

Model selection for the linear behaviours follows the paper: try OLS and
least-median-squares, keep the lower-error fit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cooling.regimes import CoolingMode, RegimeKey, regime_key
from repro.errors import ModelNotTrainedError
from repro.ml.dataset import Dataset
from repro.ml.m5p import M5PModelTree
from repro.ml.selection import LinearModel, fit_best_linear

TEMP_FEATURES = (
    "inside_temp",
    "inside_temp_prev",
    "outside_temp",
    "outside_temp_prev",
    "fan_speed",
    "fan_speed_prev",
    "utilization",
    "fan_x_inside_temp",
    "fan_x_outside_temp",
)

HUMIDITY_FEATURES = (
    "inside_humidity",
    "outside_humidity",
    "fan_speed",
    "fan_x_inside_humidity",
    "fan_x_outside_humidity",
)

# Minimum samples before a per-regime model is considered learnable.
MIN_SAMPLES = 12


@dataclasses.dataclass(frozen=True)
class MonitoringSample:
    """One 2-minute monitoring record from the datacenter."""

    time_s: float
    mode: CoolingMode
    fan_speed: float  # free-cooling fan speed (0 when FC is off)
    sensor_temps_c: Tuple[float, ...]  # one per pod inlet sensor
    outside_temp_c: float
    utilization: float  # fraction of active servers
    inside_mixing_ratio: float
    outside_mixing_ratio: float
    cooling_power_w: float


def temp_features(
    current: MonitoringSample, previous: MonitoringSample, sensor: int
) -> List[float]:
    """Assemble the 9 temperature-model inputs for one sensor."""
    t_in = current.sensor_temps_c[sensor]
    return [
        t_in,
        previous.sensor_temps_c[sensor],
        current.outside_temp_c,
        previous.outside_temp_c,
        current.fan_speed,
        previous.fan_speed,
        current.utilization,
        current.fan_speed * t_in,
        current.fan_speed * current.outside_temp_c,
    ]


def humidity_features(current: MonitoringSample) -> List[float]:
    """Assemble the 5 humidity-model inputs."""
    return [
        current.inside_mixing_ratio,
        current.outside_mixing_ratio,
        current.fan_speed,
        current.fan_speed * current.inside_mixing_ratio,
        current.fan_speed * current.outside_mixing_ratio,
    ]


class CoolingModel:
    """The learned model bundle the Cooling Predictor consumes."""

    def __init__(self, num_sensors: int) -> None:
        self.num_sensors = num_sensors
        # (regime key, sensor index) -> linear temperature model.
        self.temp_models: Dict[Tuple[RegimeKey, int], LinearModel] = {}
        # regime key -> linear humidity model.
        self.humidity_models: Dict[RegimeKey, LinearModel] = {}
        # regime key -> power model (M5P over fan speed, or constant).
        self.power_models: Dict[RegimeKey, M5PModelTree] = {}
        self.power_constants: Dict[RegimeKey, float] = {}

    # -- prediction ---------------------------------------------------------

    def _temp_model(self, key: RegimeKey, sensor: int) -> LinearModel:
        model = self.temp_models.get((key, sensor))
        if model is None:
            # Fall back from a transition key to the steady model of the
            # target regime, which always exists after a campaign.
            if key.startswith("transition:"):
                target = key.split("->")[-1]
                model = self.temp_models.get((f"steady:{target}", sensor))
        if model is None:
            raise ModelNotTrainedError(
                f"no temperature model for regime {key!r} sensor {sensor}"
            )
        return model

    def predict_temp(
        self, key: RegimeKey, sensor: int, features: Sequence[float]
    ) -> float:
        """Predicted inlet temperature one model step ahead."""
        return self._temp_model(key, sensor).predict_one(features)

    def _vectorized(self, key: RegimeKey) -> Tuple[np.ndarray, np.ndarray]:
        """(intercepts, coefficient matrix) stacked across sensors.

        Cached per regime key; the Cooling Predictor's hot path predicts
        all sensors with one matrix product instead of per-sensor calls.
        """
        cache = getattr(self, "_vector_cache", None)
        if cache is None:
            cache = {}
            self._vector_cache = cache
        entry = cache.get(key)
        if entry is None:
            models = [self._temp_model(key, s) for s in range(self.num_sensors)]
            intercepts = np.array([m.intercept for m in models])
            coefs = np.vstack([m.coefficients for m in models])
            entry = (intercepts, coefs)
            cache[key] = entry
        return entry

    def predict_temps_vector(self, key: RegimeKey, features: np.ndarray) -> np.ndarray:
        """Predict all sensors at once; ``features`` is (sensors, n_feat)."""
        intercepts, coefs = self._vectorized(key)
        return intercepts + np.einsum("sf,sf->s", coefs, features)

    def batched_vectorized(
        self, keys: Tuple[RegimeKey, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(intercepts, coefficients) stacked across a tuple of regime keys.

        Returns arrays of shape (rows, sensors) and (rows, sensors, n_feat)
        so the Cooling Predictor can score every candidate regime of a
        control decision in one einsum.  Cached per key tuple — an optimizer
        decision uses only two tuples (the transition step and the steady
        steps), so the stacking cost is paid once per regime set.
        """
        cache = getattr(self, "_batch_cache", None)
        if cache is None:
            cache = {}
            self._batch_cache = cache
        entry = cache.get(keys)
        if entry is None:
            pairs = [self._vectorized(key) for key in keys]
            intercepts = np.stack([p[0] for p in pairs])
            coefs = np.stack([p[1] for p in pairs])
            entry = (intercepts, coefs)
            cache[keys] = entry
        return entry

    def has_transition_model(self, key: RegimeKey) -> bool:
        return any(k == key for k, _ in self.temp_models)

    def resolved_humidity_model(self, key: RegimeKey):
        """The humidity model serving ``key`` after transition fallback.

        Lets the predictor resolve each candidate row's regime lookup
        once per candidate set and stack the coefficients (see
        ``CoolingPredictor._get_plan``).
        """
        model = self.humidity_models.get(key)
        if model is None and key.startswith("transition:"):
            target = key.split("->")[-1]
            model = self.humidity_models.get(f"steady:{target}")
        if model is None:
            raise ModelNotTrainedError(f"no humidity model for regime {key!r}")
        # LMS wraps the regression it selected; predict_one just delegates,
        # so hand hot paths the underlying model directly.
        inner = getattr(model, "_best", None)
        return inner if inner is not None else model

    def predict_humidity(self, key: RegimeKey, features: Sequence[float]) -> float:
        """Predicted inside mixing ratio one model step ahead."""
        return max(1e-6, self.resolved_humidity_model(key).predict_one(features))

    def predict_power_w(self, key: RegimeKey, fan_speed: float) -> float:
        """Predicted cooling power draw in a regime."""
        tree = self.power_models.get(key)
        if tree is not None:
            return max(0.0, tree.predict_one([fan_speed]))
        if key in self.power_constants:
            return self.power_constants[key]
        if key.startswith("transition:"):
            return self.predict_power_w(f"steady:{key.split('->')[-1]}", fan_speed)
        raise ModelNotTrainedError(f"no power model for regime {key!r}")

    @property
    def learned_regimes(self) -> Tuple[RegimeKey, ...]:
        return tuple(sorted({key for key, _ in self.temp_models}))


class CoolingLearner:
    """Fits a :class:`CoolingModel` from a monitoring log."""

    def __init__(
        self,
        num_sensors: int,
        min_samples: int = MIN_SAMPLES,
        require_core_regimes: bool = True,
    ) -> None:
        self.num_sensors = num_sensors
        self.min_samples = min_samples
        # Fault-injection studies (docs/ROBUSTNESS.md) train from gapped
        # logs on purpose; they disable this so the degraded model can be
        # exercised against CoolAir's safe-mode fallback instead of
        # failing at training time.
        self.require_core_regimes = require_core_regimes

    def learn(self, log: Sequence[MonitoringSample]) -> CoolingModel:
        """Fit every regime/transition with enough data."""
        if len(log) < 3:
            raise ModelNotTrainedError(
                f"need at least 3 monitoring samples, got {len(log)}"
            )
        temp_data: Dict[Tuple[RegimeKey, int], Dataset] = {}
        hum_data: Dict[RegimeKey, Dataset] = {}
        power_data: Dict[RegimeKey, List[Tuple[float, float]]] = {}

        for i in range(1, len(log) - 1):
            prev, cur, nxt = log[i - 1], log[i], log[i + 1]
            key = regime_key(cur.mode, nxt.mode)
            for sensor in range(self.num_sensors):
                dataset = temp_data.setdefault(
                    (key, sensor), Dataset(TEMP_FEATURES)
                )
                dataset.add(
                    temp_features(cur, prev, sensor), nxt.sensor_temps_c[sensor]
                )
            hset = hum_data.setdefault(key, Dataset(HUMIDITY_FEATURES))
            hset.add(humidity_features(cur), nxt.inside_mixing_ratio)
            # Power is attributed to the regime in force during the step.
            power_data.setdefault(key, []).append(
                (nxt.fan_speed, nxt.cooling_power_w)
            )

        model = CoolingModel(self.num_sensors)
        for (key, sensor), dataset in temp_data.items():
            if len(dataset) >= self.min_samples:
                model.temp_models[(key, sensor)] = fit_best_linear(dataset)
        for key, dataset in hum_data.items():
            if len(dataset) >= self.min_samples:
                model.humidity_models[key] = fit_best_linear(dataset)
        for key, samples in power_data.items():
            if len(samples) < max(4, self.min_samples // 2):
                continue
            if key == f"steady:{CoolingMode.FREE_COOLING.value}":
                dataset = Dataset(("fan_speed",))
                for fan, power in samples:
                    dataset.add([fan], power)
                model.power_models[key] = M5PModelTree(min_leaf_size=6).fit(dataset)
            else:
                model.power_constants[key] = float(
                    np.mean([power for _, power in samples])
                )
        if self.require_core_regimes:
            self._require_steady_models(model)
        return model

    def _require_steady_models(self, model: CoolingModel) -> None:
        """A usable model needs at least the closed and FC steady regimes."""
        required = [
            f"steady:{CoolingMode.CLOSED.value}",
            f"steady:{CoolingMode.FREE_COOLING.value}",
        ]
        for key in required:
            for sensor in range(self.num_sensors):
                if (key, sensor) not in model.temp_models:
                    raise ModelNotTrainedError(
                        f"campaign produced too little data for {key!r} "
                        f"(sensor {sensor}); extend the campaign"
                    )


def rank_pods_by_recirculation(observed_rises_c: Sequence[float]) -> List[int]:
    """Rank pods by heat-recirculation potential, strongest first.

    ``observed_rises_c[i]`` is the inlet temperature rise observed when load
    was scheduled on pod ``i`` alone — the Cooling Modeler's probe
    (Section 3.3).  Hotter response means more recirculation.
    """
    order = sorted(
        range(len(observed_rises_c)),
        key=lambda pod: observed_rises_c[pod],
        reverse=True,
    )
    return order
