"""Stochastic forward simulation of the dual-age system.

A slot advances in a fixed draw order (channel, then per-sensor arrivals,
then per-sensor deliveries in index order) so that a seed fully determines a
trajectory and seeds stay comparable across policies.

step_system is the scalar slot update, one state at a time; it is the
oracle for step_lanes, which advances many independent lanes (Monte Carlo
replications) by one slot from the same uniforms with the same comparisons,
so a lane follows the scalar trajectory exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .model import ArrivalProcess, ChannelSpec, SystemSpec, penalty_rows

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
    "LaneState",
    "LaneTables",
    "lane_state",
    "lane_tables",
    "step_lanes",
    "lane_cost",
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


class LaneState(NamedTuple):
    """JointStates of many lanes: theta has one entry per lane, the others
    one row per sensor (shape (N, lanes)). It is the one batch-of-states
    type: the engine steps it, every Policy.decide_array reads it, and
    StateSpace.lanes holds every state of a space as its lanes."""

    theta: np.ndarray
    aoli: np.ndarray
    aori: np.ndarray
    arrival: np.ndarray  # bool; the previous slot's arrivals


class LaneTables(NamedTuple):
    """A system's slot parameters as arrays, looked up by step_lanes."""

    stay: np.ndarray  # channel stay probability by theta
    arrival_prob: np.ndarray  # (N, 2): by sensor, then previous arrival bit
    success_prob: np.ndarray  # (N, 2): by sensor, then theta
    max_aoli: np.ndarray  # (N, 1)
    max_aori: np.ndarray  # (N, 1)
    penalty: np.ndarray  # penalty_rows


def lane_state(state: JointState, lanes: int) -> LaneState:
    """`lanes` copies of one JointState."""
    def rows(values, dtype):
        return np.repeat(np.array(values, dtype=dtype)[:, None], lanes, axis=1)

    return LaneState(
        np.full(lanes, state.theta, dtype=np.int64),
        rows([st.aoli for st in state.sensors], np.int64),
        rows([st.aori for st in state.sensors], np.int64),
        rows(state.prev_arrival, bool),
    )


def lane_tables(spec: SystemSpec) -> LaneTables:
    ch = spec.channel
    sensors = spec.sensors
    return LaneTables(
        np.array([ch.kappa00, ch.kappa11]),
        np.array([[s.arrival.arrival_prob(False), s.arrival.arrival_prob(True)] for s in sensors]),
        np.array([[s.success_prob(0), s.success_prob(1)] for s in sensors]),
        np.array([[s.max_aoli] for s in sensors]),
        np.array([[s.max_aori] for s in sensors]),
        penalty_rows(sensors),
    )


def step_lanes(
    lanes: LaneState, scheduled: np.ndarray, u: np.ndarray, tables: LaneTables
) -> tuple:
    """Advance every lane one slot; returns (next lanes, penalties, delivered).

    u holds one lane's uniforms per column in the canonical order (channel,
    N arrivals, N deliveries), so the predrawn stream of draw_step is one
    column per slot. scheduled is the (N, lanes) schedule. The comparisons
    and caps are those of step_system; penalties has shape (N, lanes) at the
    post-transition monitor ages (lane_cost sums them), and delivered is the
    (N, lanes) mask of scheduled sensors whose packet got through.
    """
    n = len(tables.penalty)
    theta = lanes.theta
    arrived = u[1 : 1 + n] < np.where(
        lanes.arrival, tables.arrival_prob[:, 1:], tables.arrival_prob[:, :1]
    )
    delivered = scheduled & (u[1 + n :] < tables.success_prob[:, theta])
    aoli_up = lanes.aoli + 1
    aori = np.minimum(np.where(delivered, aoli_up, lanes.aori + 1), tables.max_aori)
    aoli = np.minimum(np.where(arrived, 0, aoli_up), tables.max_aoli)
    theta = np.where(u[0] < tables.stay[theta], theta, 1 - theta)
    penalties = tables.penalty[np.arange(n)[:, None], aori]
    return LaneState(theta, aoli, aori, arrived), penalties, delivered


def lane_cost(penalties: np.ndarray) -> np.ndarray:
    """Stage cost per lane, summed sensor by sensor in index order as in apply_step."""
    cost = penalties[0]
    for row in penalties[1:]:
        cost = cost + row
    return cost


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
