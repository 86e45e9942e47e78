import math

import numpy as np
import pytest

import aoisched as a
from aoisched import model
from aoisched.model import penalty_table

from conftest import VA_A, VA_C, VA_R_MEAS, VA_SIGMA_W

# printed steady-state covariance for the reference 2x2 plant
PBAR_REFERENCE = np.array([[0.9038, -0.5175], [-0.5175, 0.7464]])


def test_exponential_penalty_values():
    pen = a.ExponentialPenalty(0.5)
    assert pen(0) == 0.0
    assert pen(2) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_exponential_penalty_requires_positive_rate():
    with pytest.raises(ValueError):
        a.ExponentialPenalty(0.0)


def test_trace_penalty_single_step(va_pbar, va_penalty):
    # independent one-step product, not the iterated cache
    expected = np.trace(VA_A @ va_pbar @ VA_A.T + VA_SIGMA_W)
    assert va_penalty(1) == pytest.approx(expected, rel=1e-12)
    assert va_penalty(0) == pytest.approx(np.trace(va_pbar), rel=1e-12)


def test_penalties_nondecreasing(va_penalty):
    for pen in (va_penalty, a.ExponentialPenalty(0.3)):
        values = penalty_table(pen, 14)
        assert np.all(np.diff(values) >= 0.0)


def test_riccati_matches_reference_plant(va_pbar):
    assert np.max(np.abs(va_pbar - PBAR_REFERENCE)) < 1e-3


def test_riccati_fixed_point_residual(va_pbar):
    pred = VA_A @ va_pbar @ VA_A.T + VA_SIGMA_W
    innov = VA_C @ pred @ VA_C.T + VA_R_MEAS
    updated = pred - pred @ VA_C.T @ np.linalg.solve(innov, VA_C @ pred)
    assert np.max(np.abs(updated - va_pbar)) <= 1e-8


def test_riccati_scalar_degenerate():
    # a = 0 forces the prediction covariance to sigma_w; the update then
    # shrinks it by the measurement
    p = a.solve_steady_state_covariance([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert p[0, 0] == pytest.approx(0.5, abs=1e-9)


ROBOT_A = np.array(
    [
        [1.0058, 0.0150, -0.0016, 0.0],
        [0.7808, 1.0058, -0.2105, -0.0016],
        [-0.1160, 0.0000, 1.0077, 0.0150],
        [-0.7962, -0.0060, 1.0294, 1.0077],
    ]
)
ROBOT_C = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
ROBOT_SIGMA = np.array([[0.003], [1.0], [-0.005], [-2.15]])
# printed 4x4 steady-state covariance of the planar-robot plant
ROBOT_PBAR_REFERENCE = np.array(
    [
        [0.0003, 0.0077, -0.0002, -0.0148],
        [0.0077, 1.3150, -0.0130, -2.8174],
        [-0.0002, -0.0130, 0.0007, 0.0289],
        [-0.0148, -2.8174, 0.0289, 6.0613],
    ]
)


def test_riccati_robot_plant_best_effort():
    # The robot plant's measurement noise is not part of the published
    # configuration; with 1e-3 I the fixed point lands within about 1% of
    # the dominant entry of the reference matrix. Kept as a qualitative
    # reproduction; downstream code takes the reference matrix as data.
    q = ROBOT_SIGMA @ ROBOT_SIGMA.T
    p = a.solve_steady_state_covariance(ROBOT_A, ROBOT_C, q, 1e-3 * np.eye(2))
    assert np.max(np.abs(p - ROBOT_PBAR_REFERENCE)) < 0.1
    pred = ROBOT_A @ p @ ROBOT_A.T + q
    innov = ROBOT_C @ pred @ ROBOT_C.T + 1e-3 * np.eye(2)
    updated = pred - pred @ ROBOT_C.T @ np.linalg.solve(innov, ROBOT_C @ pred)
    assert np.max(np.abs(updated - p)) <= 1e-8


def test_riccati_nonconvergence_raises(monkeypatch):
    # unstable and unobservable: covariance grows without bound
    monkeypatch.setattr(model, "RICCATI_MAX_ITER", 200)
    with pytest.raises(a.ConvergenceError):
        a.solve_steady_state_covariance([[2.0]], [[0.0]], [[1.0]], [[1.0]])


def test_spectral_radius_basics():
    assert a.spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-14)
    assert a.spectral_radius(np.diag([0.3, 0.7])) == pytest.approx(0.7, abs=1e-14)
    assert a.spectral_radius([[5.0]]) == 5.0


def test_spectral_radius_reference_matrix():
    # Omega (I - lam P) for channel (0.5, 0.8), lam = 0.9, P = diag(0.5, 1):
    # the quadratic has roots 0.3 and 0.055
    m = np.array([[0.275, 0.05], [0.11, 0.08]])
    assert a.spectral_radius(m) == pytest.approx(0.3, abs=1e-4)
    assert a.spectral_radius(m) == pytest.approx(max(abs(np.linalg.eigvals(m))), abs=1e-12)


def test_spectral_radius_complex_pair():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
    assert a.spectral_radius(m) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_row_stochastic_is_one():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        for _ in range(5):
            m = rng.random((n, n)) + 1e-3
            m /= m.sum(axis=1, keepdims=True)
            assert a.spectral_radius(m) == pytest.approx(1.0, abs=1e-10)


def test_spectral_radius_large_matrix_vs_char_poly():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    roots = np.roots(np.poly(m))
    assert a.spectral_radius(m) == pytest.approx(max(abs(roots)), rel=1e-8)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        a.ChannelSpec(0.0, 0.5)
    with pytest.raises(ValueError):
        a.ChannelSpec(0.5, 1.0)
    ch = a.ChannelSpec(0.5, 0.8)
    assert np.allclose(ch.omega().sum(axis=1), 1.0)
    # the long-run probability of the good state, k01 / (k01 + k10), balances omega
    stationary = np.array([0.2, 0.5]) / 0.7
    assert np.allclose(stationary @ ch.omega(), stationary)


def test_markov_arrival_rates():
    arr = a.MarkovArrival(0.6, 0.7)
    assert arr.arrival_prob(False) == pytest.approx(0.4)
    assert arr.arrival_prob(True) == pytest.approx(0.7)
    assert arr.mean_rate() == pytest.approx(0.4 / 0.7)
    assert arr.effective_rate() == pytest.approx(0.4)


def test_system_spec_budget_validation(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 0.5, 1.0, 7, 7)
    with pytest.raises(ValueError):
        a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 2)
    with pytest.raises(ValueError):
        a.SystemSpec((), a.ChannelSpec(0.5, 0.8), 1)


def test_sensor_spec_validation(va_penalty):
    with pytest.raises(ValueError):
        a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 1.2, 1.0, 7, 7)
    with pytest.raises(ValueError):
        a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 0.5, 1.0, 7, 0)
