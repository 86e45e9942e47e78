"""Stochastic forward simulation of the dual-age system.

A slot advances in a fixed draw order (channel, then per-sensor arrivals,
then per-sensor deliveries in index order) so that a seed fully determines a
trajectory and seeds stay comparable across policies.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .model import ArrivalProcess, ChannelSpec, SystemSpec

__all__ = [
    "SensorState",
    "JointState",
    "StepDraws",
    "initial_state",
    "step_channel",
    "sample_arrival",
    "step_sensor",
    "draw_step",
    "apply_step",
    "step_system",
    "step_system_traced",
    "TRAJECTORY_HEADER",
]


class SensorState(NamedTuple):
    aoli: int  # age of the packet waiting in the buffer; 0 right after an arrival
    aori: int  # age of the last packet delivered to the monitor; always >= 1


class JointState(NamedTuple):
    sensors: tuple  # SensorState per sensor
    theta: int  # shared channel state, 0 = bad, 1 = good
    prev_arrival: tuple  # per-sensor bool; only consulted for Markov arrivals


class StepDraws(NamedTuple):
    """Outcome of every random event in one slot.

    `deliveries` holds the per-sensor success indicator; it is only consulted
    for sensors that are actually scheduled.
    """

    next_channel: int
    arrivals: tuple
    deliveries: tuple


def initial_state(spec: SystemSpec) -> JointState:
    """Every sensor starts at (aoli, aori) = (0, 1) in the bad channel state."""
    n = spec.n_sensors
    return JointState(
        sensors=tuple(SensorState(0, 1) for _ in range(n)),
        theta=0,
        prev_arrival=tuple(True for _ in range(n)),
    )


def step_channel(theta: int, channel: ChannelSpec, rng: np.random.Generator) -> int:
    """Advance the two-state channel by one slot. Consumes one uniform draw."""
    stay = channel.kappa00 if theta == 0 else channel.kappa11
    return theta if rng.random() < stay else 1 - theta


def sample_arrival(proc: ArrivalProcess, prev_arrived: bool, rng: np.random.Generator) -> bool:
    """Draw this slot's arrival indicator. Consumes one uniform draw."""
    return rng.random() < proc.arrival_prob(prev_arrived)


def step_sensor(
    st: SensorState,
    scheduled: bool,
    arrived: bool,
    delivered: bool,
    caps: tuple,
) -> SensorState:
    """Apply one slot of the dual-age update to a single sensor.

    On delivery the monitor-side age resets to the delivered packet's age
    plus one; otherwise it grows by one. On an arrival the buffer age resets
    to zero; otherwise it grows by one. Both counters saturate at `caps`.
    """
    if delivered and not scheduled:
        raise ValueError("a sensor cannot deliver without being scheduled")
    cap_l, cap_r = caps
    new_aori = st.aoli + 1 if delivered else st.aori + 1
    new_aoli = 0 if arrived else st.aoli + 1
    return SensorState(min(new_aoli, cap_l), min(new_aori, cap_r))


def draw_step(
    state: JointState,
    action: Sequence[int],
    spec: SystemSpec,
    rng: np.random.Generator,
    predraw_delivery: bool = True,
) -> StepDraws:
    """Consume this slot's uniforms in the canonical order.

    With predraw_delivery every sensor burns one delivery draw regardless of
    scheduling, which keeps the stream aligned across policies that schedule
    different sets (common random numbers). Without it only scheduled sensors
    draw.
    """
    next_channel = step_channel(state.theta, spec.channel, rng)
    arrivals = tuple(
        sample_arrival(s.arrival, state.prev_arrival[i], rng)
        for i, s in enumerate(spec.sensors)
    )
    deliveries = []
    for i, s in enumerate(spec.sensors):
        if predraw_delivery or action[i]:
            deliveries.append(rng.random() < s.success_prob(state.theta))
        else:
            deliveries.append(False)
    return StepDraws(next_channel, arrivals, tuple(deliveries))


def apply_step(
    state: JointState,
    action: Sequence[int],
    draws: StepDraws,
    spec: SystemSpec,
) -> tuple:
    """Deterministically apply drawn events; returns (next_state, stage_cost).

    The stage cost is the sum of penalties at the post-transition monitor
    ages. Delivery success was drawn against the pre-transition channel
    state, matching the kernel's conditioning.
    """
    new_sensors = []
    cost = 0.0
    for i, s in enumerate(spec.sensors):
        delivered = bool(action[i]) and draws.deliveries[i]
        nxt = step_sensor(
            state.sensors[i],
            bool(action[i]),
            draws.arrivals[i],
            delivered,
            (s.max_aoli, s.max_aori),
        )
        new_sensors.append(nxt)
        cost += s.penalty(nxt.aori)
    next_state = JointState(tuple(new_sensors), draws.next_channel, draws.arrivals)
    return next_state, cost


def step_system(
    state: JointState,
    action: Sequence[int],
    spec: SystemSpec,
    rng: np.random.Generator,
    predraw_delivery: bool = True,
) -> tuple:
    """Advance the whole system one slot; returns (next_state, stage_cost)."""
    nxt, cost, _ = step_system_traced(state, action, spec, rng, predraw_delivery)
    return nxt, cost


def step_system_traced(
    state: JointState,
    action: Sequence[int],
    spec: SystemSpec,
    rng: np.random.Generator,
    predraw_delivery: bool = True,
) -> tuple:
    """Like step_system but also returns the StepDraws for trajectory logging."""
    if not spec.is_feasible_action(action):
        raise ValueError(
            f"infeasible action {tuple(action)} (budget {spec.m_budget} of {spec.n_sensors})"
        )
    draws = draw_step(state, action, spec, rng, predraw_delivery)
    nxt, cost = apply_step(state, action, draws, spec)
    return nxt, cost, draws


# One row per (slot, sensor) in trajectory dumps.
TRAJECTORY_HEADER = (
    "t",
    "theta",
    "sensor",
    "aoli",
    "aori",
    "scheduled",
    "arrived",
    "delivered",
    "penalty",
)
