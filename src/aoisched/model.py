"""Static problem data: channel, arrivals, penalties, sensors, and small matrix utilities.

Everything here is immutable after construction and safe to share across
concurrently running simulations and solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "ConvergenceError",
    "ChannelSpec",
    "BernoulliArrival",
    "MarkovArrival",
    "ArrivalProcess",
    "ExponentialPenalty",
    "EstimationTracePenalty",
    "PenaltyFunction",
    "penalty_table",
    "SensorSpec",
    "SystemSpec",
    "solve_steady_state_covariance",
    "spectral_radius",
]


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance within max_iter."""


def _check_prob(value: float, name: str, strict: bool = False) -> None:
    lo_ok = value > 0.0 if strict else value >= 0.0
    hi_ok = value < 1.0 if strict else value <= 1.0
    if not (lo_ok and hi_ok):
        kind = "(0,1)" if strict else "[0,1]"
        raise ValueError(f"{name} must lie in {kind}, got {value!r}")


@dataclass(frozen=True)
class ChannelSpec:
    """Two-state Markov (Gilbert-Elliott) channel.

    kappa00 is the probability of staying in the bad state (0), kappa11 of
    staying in the good state (1). Both must be strictly inside (0,1) so the
    chain is irreducible and aperiodic.
    """

    kappa00: float
    kappa11: float

    def __post_init__(self) -> None:
        _check_prob(self.kappa00, "kappa00", strict=True)
        _check_prob(self.kappa11, "kappa11", strict=True)

    @property
    def kappa01(self) -> float:
        return 1.0 - self.kappa00

    @property
    def kappa10(self) -> float:
        return 1.0 - self.kappa11

    def omega(self) -> np.ndarray:
        """Row-stochastic transition matrix [[k00, k01], [k10, k11]]."""
        return np.array([[self.kappa00, self.kappa01], [self.kappa10, self.kappa11]])

    def transition_prob(self, theta: int, theta_next: int) -> float:
        stay = self.kappa00 if theta == 0 else self.kappa11
        return stay if theta_next == theta else 1.0 - stay

    def stationary_good_prob(self) -> float:
        """Long-run probability of the good state, k01 / (k01 + k10)."""
        return self.kappa01 / (self.kappa01 + self.kappa10)


@dataclass(frozen=True)
class BernoulliArrival:
    """Fresh data arrives i.i.d. each slot with probability `rate`."""

    rate: float

    def __post_init__(self) -> None:
        _check_prob(self.rate, "rate")

    def arrival_prob(self, prev_arrived: bool) -> float:
        return self.rate

    def mean_rate(self) -> float:
        return self.rate

    def effective_rate(self) -> float:
        """Rate entering the spectral-radius stability test."""
        return self.rate


@dataclass(frozen=True)
class MarkovArrival:
    """Two-state Markov arrival process.

    stay_empty  = Pr{no arrival now | no arrival last slot}   (lambda tilde)
    stay_active = Pr{arrival now    | arrival last slot}      (lambda bar)
    """

    stay_empty: float
    stay_active: float

    def __post_init__(self) -> None:
        _check_prob(self.stay_empty, "stay_empty")
        _check_prob(self.stay_active, "stay_active")

    def arrival_prob(self, prev_arrived: bool) -> float:
        return self.stay_active if prev_arrived else 1.0 - self.stay_empty

    def mean_rate(self) -> float:
        """Stationary arrival frequency of the two-state chain."""
        a = 1.0 - self.stay_empty  # empty -> arrival
        b = 1.0 - self.stay_active  # arrival -> empty
        if a + b == 0.0:
            return 1.0 if self.stay_active == 1.0 else 0.0
        return a / (a + b)

    def effective_rate(self) -> float:
        """min{1 - stay_empty, stay_active}, the worst-case per-slot rate."""
        return min(1.0 - self.stay_empty, self.stay_active)


ArrivalProcess = Union[BernoulliArrival, MarkovArrival]


@dataclass(frozen=True)
class ExponentialPenalty:
    """Aging penalty f(delta) = exp(r * delta) - 1 with r > 0."""

    r: float

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError(f"exponential penalty rate must be positive, got {self.r!r}")

    def __call__(self, delta: int) -> float:
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        return math.expm1(self.r * delta)


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=float)
    a.setflags(write=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _check_sym_psd(m: np.ndarray, name: str, tol: float = 1e-8) -> None:
    if not np.allclose(m, m.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh((m + m.T) / 2.0)
    if eig.min() < -tol * max(1.0, abs(eig).max()):
        raise ValueError(f"{name} must be positive semidefinite (min eig {eig.min():g})")


@dataclass(frozen=True, eq=False)
class EstimationTracePenalty:
    """Remote-estimation penalty f(delta) = Tr(h^delta(p_bar)).

    h(P) = a P a^T + sigma_w iterates the open-loop prediction of the error
    covariance; p_bar is the steady-state filtered covariance at the sensor.
    h^0 is the identity, so f(0) = Tr(p_bar).
    """

    a: np.ndarray
    sigma_w: np.ndarray
    p_bar: np.ndarray
    _traces: list = field(default_factory=list, repr=False, compare=False)
    _mats: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_matrix(self.a, "a"))
        object.__setattr__(self, "sigma_w", _as_matrix(self.sigma_w, "sigma_w"))
        object.__setattr__(self, "p_bar", _as_matrix(self.p_bar, "p_bar"))
        if not (self.a.shape == self.sigma_w.shape == self.p_bar.shape):
            raise ValueError("a, sigma_w and p_bar must share one square shape")
        _check_sym_psd(self.sigma_w, "sigma_w")
        _check_sym_psd(self.p_bar, "p_bar")
        self._mats.append(self.p_bar)
        self._traces.append(float(np.trace(self.p_bar)))

    def rho_a(self) -> float:
        """Spectral radius of the system matrix, used by the stability bound."""
        return spectral_radius(self.a)

    def __call__(self, delta: int) -> float:
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        while len(self._traces) <= delta:
            nxt = self.a @ self._mats[-1] @ self.a.T + self.sigma_w
            self._mats.append(nxt)
            self._traces.append(float(np.trace(nxt)))
        return self._traces[delta]


PenaltyFunction = Union[ExponentialPenalty, EstimationTracePenalty]


def penalty_table(pf: PenaltyFunction, max_delta: int) -> np.ndarray:
    """Penalty values for delta = 0..max_delta as a lookup array."""
    return np.array([pf(d) for d in range(max_delta + 1)])


@dataclass(frozen=True)
class SensorSpec:
    """One sensor: arrival process, penalty, per-channel-state success
    probabilities and truncation caps for both age counters."""

    arrival: ArrivalProcess
    penalty: PenaltyFunction
    p0: float
    p1: float
    max_aoli: int
    max_aori: int

    def __post_init__(self) -> None:
        _check_prob(self.p0, "p0")
        _check_prob(self.p1, "p1")
        if self.max_aori < 1:
            raise ValueError("max_aori must be >= 1")
        if self.max_aoli < 0:
            raise ValueError("max_aoli must be >= 0")

    def success_prob(self, theta: int) -> float:
        return self.p0 if theta == 0 else self.p1

    @property
    def has_markov_arrivals(self) -> bool:
        return isinstance(self.arrival, MarkovArrival)


@dataclass(frozen=True)
class SystemSpec:
    """N sensors sharing one channel, at most m_budget scheduled per slot."""

    sensors: tuple
    channel: ChannelSpec
    m_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        n = len(self.sensors)
        if n < 1:
            raise ValueError("need at least one sensor")
        if not (1 <= self.m_budget <= n):
            raise ValueError(f"m_budget must satisfy 1 <= M <= N={n}, got {self.m_budget}")

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    def is_feasible_action(self, action) -> bool:
        return (
            len(action) == self.n_sensors
            and all(d in (0, 1) for d in action)
            and sum(action) <= self.m_budget
        )


def solve_steady_state_covariance(
    a,
    c,
    sigma_w,
    r_meas,
    tol: float = 1e-10,
    max_iter: int = 100000,
) -> np.ndarray:
    """Steady-state filtered error covariance of a Kalman filter.

    Iterates predict / measurement-update on the posterior covariance,

        P_pred = a P a^T + sigma_w
        P      = P_pred - P_pred c^T (c P_pred c^T + r_meas)^-1 c P_pred

    from P = sigma_w until the max-abs difference of successive iterates is
    <= tol. Requires (a, c) detectable and r_meas positive definite.

    Raises ConvergenceError if max_iter is exhausted and
    numpy.linalg.LinAlgError if an innovation matrix is singular.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    sigma_w = np.atleast_2d(np.asarray(sigma_w, dtype=float))
    r_meas = np.atleast_2d(np.asarray(r_meas, dtype=float))
    p = sigma_w.copy()
    for _ in range(max_iter):
        p_pred = a @ p @ a.T + sigma_w
        innov = c @ p_pred @ c.T + r_meas
        gain_term = p_pred @ c.T @ np.linalg.solve(innov, c @ p_pred)
        p_next = p_pred - gain_term
        if np.max(np.abs(p_next - p)) <= tol:
            return p_next
        p = p_next
    raise ConvergenceError(
        f"Riccati iteration did not converge within {max_iter} iterations "
        f"(last step {np.max(np.abs(p_next - p)):.3e} > tol {tol:g}); "
        "check detectability / stability of the model"
    )


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square real matrix.

    2x2 matrices use the closed-form quadratic so the stability sweep stays
    cheap; larger matrices fall back to numpy's eigenvalue solver (power
    iteration is unreliable when the dominant eigenvalues form a complex
    pair, which the 4x4 robot dynamics exhibit).
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n == 1:
        return abs(float(m[0, 0]))
    if n == 2:
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0.0:
            root = math.sqrt(disc)
            return max(abs(tr + root), abs(tr - root)) / 2.0
        return math.sqrt(det)  # complex pair; |eig| = sqrt(det)
    return float(np.max(np.abs(np.linalg.eigvals(m))))
