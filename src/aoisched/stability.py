"""Closed-form boundedness tests for the long-run monitoring cost.

The time-average cost stays bounded iff the spectral radius of
Omega (I - lambda_hat P), with P = diag(p0, p1), lies below a bound fixed by
the penalty: 1/rho(A)^2 for the estimation-trace penalty and 1/e^r for the
exponential one. Markov arrivals enter through lambda_hat = min{1 - stay_empty,
stay_active}. Feasible-region sweeps evaluate the same test on a (p0, p1)
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelSpec,
    EstimationTracePenalty,
    ExponentialPenalty,
    MarkovArrival,
    SensorSpec,
    SystemSpec,
)

__all__ = [
    "StabilityReport",
    "stability_check",
    "system_stability",
    "FeasibleRegion",
    "feasible_region",
]


@dataclass(frozen=True)
class StabilityReport:
    sensor_index: int
    rho: float
    bound: float
    satisfied: bool
    criterion: str  # trace-penalty | exponential-penalty | markov-arrival


def _perron_root(channel: ChannelSpec, lambda_hat: float, p0, p1):
    """rho(Omega diag(1 - lam p0, 1 - lam p1)), elementwise over p0 and p1.

    The matrix is entrywise nonnegative, so its 2x2 Perron root has the
    closed form (tr + sqrt(tr^2 - 4 det)) / 2.
    """
    d0 = 1.0 - lambda_hat * p0
    d1 = 1.0 - lambda_hat * p1
    k00, k01 = channel.kappa00, channel.kappa01
    k10, k11 = channel.kappa10, channel.kappa11
    tr = k00 * d0 + k11 * d1
    det = (k00 * k11 - k01 * k10) * d0 * d1
    disc = np.maximum(tr * tr - 4.0 * det, 0.0)  # nonneg matrix: disc >= 0
    return (tr + np.sqrt(disc)) / 2.0


def stability_check(channel: ChannelSpec, sensor: SensorSpec, sensor_index: int) -> StabilityReport:
    """Evaluate rho(Omega (I - lambda_hat P)) against the penalty's bound.

    The bound is set by the sensor's own penalty: 1/rho(A)^2 for the trace
    penalty, 1/e^r for the exponential one.
    """
    rho = _perron_root(channel, sensor.arrival.effective_rate(), sensor.p0, sensor.p1)
    if isinstance(sensor.penalty, EstimationTracePenalty):
        bound = 1.0 / sensor.penalty.rho_a() ** 2
        criterion = "trace-penalty"
    elif isinstance(sensor.penalty, ExponentialPenalty):
        bound = math.exp(-sensor.penalty.r)
        criterion = "exponential-penalty"
    else:  # pragma: no cover - union is exhaustive
        raise TypeError(f"unsupported penalty {type(sensor.penalty)!r}")
    if isinstance(sensor.arrival, MarkovArrival):
        criterion = "markov-arrival"
    return StabilityReport(sensor_index, float(rho), float(bound), rho < bound, criterion)


def system_stability(spec: SystemSpec) -> list:
    """Per-sensor stability reports; the system is stable iff all are."""
    return [
        stability_check(spec.channel, s, i) for i, s in enumerate(spec.sensors)
    ]


@dataclass
class FeasibleRegion:
    """Boolean feasibility grid over (p0, p1) in [0,1]^2.

    rho[u, v] and feasible[u, v] correspond to p0 = p0_values[u],
    p1 = p1_values[v]; feasibility is the strict comparison rho < bound.
    """

    p0_values: np.ndarray
    p1_values: np.ndarray
    rho: np.ndarray
    bound: float
    feasible: np.ndarray


def feasible_region(
    channel: ChannelSpec, lambda_hat: float, bound: float, resolution: int
) -> FeasibleRegion:
    """Sweep the stability test over a (p0, p1) grid: stability_check's
    Perron root, vectorized over the grid."""
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    p0 = np.linspace(0.0, 1.0, resolution)
    p1 = np.linspace(0.0, 1.0, resolution)
    rho = _perron_root(channel, lambda_hat, p0[:, np.newaxis], p1[np.newaxis, :])
    return FeasibleRegion(p0, p1, rho, float(bound), rho < bound)
