import math
from pathlib import Path

import numpy as np
import pytest

import aoisched as a
from aoisched import cli, stability

from conftest import VA_CHANNEL, make_va_sensor, region_contains


def test_stability_check_reference_point(va_penalty):
    sensor = make_va_sensor(va_penalty, 0.9)  # p = (0.5, 1.0)
    report = stability.stability_check(VA_CHANNEL, sensor, 0)
    assert report.rho == pytest.approx(0.3, abs=1e-4)
    assert report.bound == pytest.approx(1.0 / 1.21, rel=1e-9)
    assert report.satisfied
    assert report.criterion == "trace-penalty"


def test_stability_check_never_delivering(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(1.0), va_penalty, 0.0, 0.0, 7, 7)
    report = stability.stability_check(VA_CHANNEL, sensor, 0)
    assert report.rho == pytest.approx(1.0, abs=1e-12)  # rho(Omega) = 1
    assert not report.satisfied


def test_stability_check_vanishing_arrivals(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(1e-9), va_penalty, 1.0, 1.0, 7, 7)
    report = stability.stability_check(VA_CHANNEL, sensor, 0)
    assert report.rho == pytest.approx(1.0, abs=1e-6)
    assert not report.satisfied


def test_stability_check_markov_effective_rate(va_penalty):
    markov = a.SensorSpec(a.MarkovArrival(0.2, 0.9), va_penalty, 0.5, 1.0, 7, 7)
    bern = a.SensorSpec(a.BernoulliArrival(0.8), va_penalty, 0.5, 1.0, 7, 7)
    rep_m = stability.stability_check(VA_CHANNEL, markov, 0)
    rep_b = stability.stability_check(VA_CHANNEL, bern, 0)
    # lambda_hat = min{1 - 0.2, 0.9} = 0.8 reduces to the Bernoulli case
    assert rep_m.rho == pytest.approx(rep_b.rho, abs=1e-12)
    assert rep_m.criterion == "markov-arrival"


def test_stability_check_exponential_bound():
    sensor = a.SensorSpec(a.BernoulliArrival(0.9), a.ExponentialPenalty(0.5), 0.5, 1.0, 7, 7)
    report = stability.stability_check(VA_CHANNEL, sensor, 0)
    assert report.bound == pytest.approx(math.exp(-0.5))
    assert report.criterion == "exponential-penalty"


def test_system_stability_reports(va_system):
    reports = stability.system_stability(va_system)
    assert [r.sensor_index for r in reports] == [0, 1]
    assert all(r.satisfied for r in reports)


@pytest.mark.parametrize("name", ["twosensor", "threesensor"])
def test_reports_satisfied_is_a_bool(name):
    """satisfied is a Python bool, not a numpy.bool, on every report of
    each shipped config."""
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml"
    reports = stability.system_stability(cli.load_config(str(config)).system)
    assert reports and all(type(r.satisfied) is bool for r in reports)


def test_region_all_feasible_for_loose_bound():
    region = stability.feasible_region(VA_CHANNEL, 0.9, 1.5, resolution=21)
    assert bool(np.all(region.feasible))


def test_region_matches_scalar_spectral_radius():
    channel = a.ChannelSpec(0.4, 0.7)
    region = stability.feasible_region(channel, 0.9, 1.0 / 1.21, resolution=11)
    for u in (0, 3, 7, 10):
        for v in (0, 5, 10):
            p0, p1 = region.p0_values[u], region.p1_values[v]
            m = channel.omega() * np.array([1 - 0.9 * p0, 1 - 0.9 * p1])[np.newaxis, :]
            assert region.rho[u, v] == pytest.approx(a.spectral_radius(m), abs=1e-12)


def test_region_componentwise_monotone():
    region = stability.feasible_region(a.ChannelSpec(0.4, 0.7), 0.7, 1.0 / 1.21, 41)
    assert np.all(np.diff(region.rho, axis=0) <= 1e-12)
    assert np.all(np.diff(region.rho, axis=1) <= 1e-12)
    # once feasible, larger success probabilities stay feasible
    f = region.feasible
    assert not np.any(f[:-1, :] & ~f[1:, :])
    assert not np.any(f[:, :-1] & ~f[:, 1:])


def test_region_shrinks_with_lower_arrival_rate():
    channel = a.ChannelSpec(0.4, 0.7)
    high = stability.feasible_region(channel, 0.9, 1.0 / 1.21, 51)
    low = stability.feasible_region(channel, 0.5, 1.0 / 1.21, 51)
    assert region_contains(high, low)
    assert high.feasible.sum() > low.feasible.sum()


def test_region_shrinks_with_stronger_channel_memory():
    sticky = stability.feasible_region(a.ChannelSpec(0.9, 0.9), 0.9, 1.0 / 1.21, 51)
    fast = stability.feasible_region(a.ChannelSpec(0.2, 0.2), 0.9, 1.0 / 1.21, 51)
    assert region_contains(fast, sticky)
    assert fast.feasible.sum() > sticky.feasible.sum()


def test_region_exponential_bound_inside_trace_bound():
    channel = a.ChannelSpec(0.4, 0.7)
    trace = stability.feasible_region(channel, 0.9, 1.0 / 1.21, 51)
    expo = stability.feasible_region(channel, 0.9, math.exp(-0.5), 51)
    assert region_contains(trace, expo)


def test_region_strict_boundary_consistency():
    region = stability.feasible_region(a.ChannelSpec(0.4, 0.7), 0.9, 1.0 / 1.21, 31)
    assert np.array_equal(region.feasible, region.rho < region.bound)


def test_region_resolution_validation():
    with pytest.raises(ValueError):
        stability.feasible_region(VA_CHANNEL, 0.9, 1.0, resolution=1)


def test_point_check_is_the_region_cell_bit_for_bit(va_penalty):
    channel = a.ChannelSpec(0.4, 0.7)
    region = stability.feasible_region(channel, 0.9, 1.0 / 1.21, resolution=11)
    for u, p0 in enumerate(region.p0_values.tolist()):
        for v, p1 in enumerate(region.p1_values.tolist()):
            sensor = make_va_sensor(va_penalty, 0.9, p0=p0, p1=p1)
            report = stability.stability_check(channel, sensor, 0)
            assert report.rho == region.rho[u, v], (p0, p1)
