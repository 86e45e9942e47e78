"""Low-complexity scheduling through per-sensor value decomposition.

Under a policy that schedules sensor i independently with probability
p_i, the joint value function splits into per-sensor value functions, each
solvable on the small (aoli, aori, channel) space by RVI on a dense
n_i x n_i kernel; a solve holds one such matrix at a time, plus a block of
rows. The structure-informed policy (SispPolicy) takes, in any joint state,
the action minimizing the stage cost plus the expected sum of those
per-sensor values, read at the state's per-sensor indices with no joint
space. Its rule is a threshold in each sensor's monitor-side age per
channel state, checked on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import LaneState
from .mdp import (
    ActionSet,
    Kernels,
    PolicyTable,
    StateSpace,
    cost_vector,
    kernel_rows,
    mixture_chain_matrix,
    relative_value_iteration,
    sensor_space,
)
from .model import ChannelSpec, SensorSpec, SystemSpec
from .policies import Policy, RandomizedSchedule, policy_to_table

__all__ = [
    "default_randomized_probs",
    "PerSensorValue",
    "solve_per_sensor_value",
    "solve_sisp_values",
    "SispPolicy",
    "build_policy_table",
    "build_policy_table_with_pruning",
    "ThresholdTable",
    "extract_thresholds",
    "randomized_chain_matrix",
]


def default_randomized_probs(spec: SystemSpec) -> tuple:
    """Scheduling probabilities proportional to arrival rates, capped at 0.99.

    p_i = M * rate_i / sum(rate); rescaled if the budget is exceeded after
    capping. Markov arrivals contribute their stationary rate.
    """
    rates = np.array([s.arrival.mean_rate() for s in spec.sensors])
    if np.any(rates <= 0.0):
        raise ValueError("all arrival rates must be positive for the default probabilities")
    p = spec.m_budget * rates / rates.sum()
    p = np.minimum(p, 0.99)
    if p.sum() > spec.m_budget:
        p *= spec.m_budget / p.sum()
    return tuple(float(x) for x in p)


# rows of the idle kernel densified at a time while the mix is formed
MIX_ROWS = 64


def _dense_kernel(space: StateSpace, rows: tuple, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the dense n x n kernel whose distinct rows are the
    CSR arrays rows = (data, indices, indptr): state s's row is distinct row
    row_of[s], written straight into its place with numpy, so SISP loads
    no sparse routine. A CSR row holds each column at most once, so every
    entry is written once, as toarray writes it.
    """
    data, indices, indptr = rows
    distinct = space.factors.row_of[lo:hi]
    starts = indptr[distinct]
    counts = indptr[distinct + 1] - starts
    # entry t of state j's row sits at starts[j] + t in data and indices
    at = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    k = np.zeros((hi - lo, space.n_states))
    k[np.repeat(np.arange(hi - lo), counts), indices[at]] = data[at]
    return k


@dataclass
class PerSensorValue:
    """Solved per-sensor relative value function under the randomized policy.

    `eq[x, a]` caches the expected next-step value from per-sensor state x
    when the sensor idles (a=0) or transmits (a=1); the SISP argmin only ever
    needs these two columns.
    """

    space: StateSpace
    values: np.ndarray
    gain: float
    p_r: float
    eq: np.ndarray


def solve_per_sensor_value(
    sensor: SensorSpec, channel: ChannelSpec, p_r_i: float
) -> PerSensorValue:
    """Relative value iteration on the expected per-sensor kernel.

    Stage cost is the sensor's own penalty at its monitor-side age; the value
    is normalized to zero at the reference state ((0,1), bad channel).
    """
    space = sensor_space(sensor, channel)
    # each action's distinct rows, which _dense_kernel densifies a row
    # block at a time
    idle, tx = kernel_rows(space)
    n = space.n_states
    # p K_tx + (1 - p) K_idle with one dense matrix live: the same two
    # rounded products and one rounded add per entry, the idle rows a block
    # at a time
    mixed = _dense_kernel(space, tx, 0, n)
    mixed *= p_r_i
    for lo in range(0, n, MIX_ROWS):
        block = _dense_kernel(space, idle, lo, min(n, lo + MIX_ROWS))
        block *= 1.0 - p_r_i
        mixed[lo : lo + MIX_ROWS] += block
    cost = cost_vector(space)
    # every state its own row: the dense mixed kernel is already assembled
    kernels = Kernels((((0, n, (mixed,)),),), np.arange(n))
    vt, _ = relative_value_iteration(kernels, cost, space.reference_index())
    del mixed, kernels
    # each action's kernel densified again in turn, for the same product
    eq = np.empty((n, 2))
    for a, rows in enumerate((idle, tx)):
        eq[:, a] = _dense_kernel(space, rows, 0, n) @ vt.values
    return PerSensorValue(space, vt.values, vt.gain, p_r_i, eq)


def solve_sisp_values(spec: SystemSpec, p_r: Sequence[float]) -> list:
    """Solve every sensor's decomposed value function under the scheduling
    probabilities p_r (default_randomized_probs gives the arrival-rate
    proportional ones); each must lie in (0,1) and their sum within the
    budget. The per-sensor solves are independent of one another.
    """
    if len(p_r) != spec.n_sensors:
        raise ValueError("p_r length must match the number of sensors")
    for p in p_r:
        if not (0.0 < p < 1.0):
            raise ValueError(f"scheduling probabilities must lie in (0,1), got {p}")
    if sum(p_r) > spec.m_budget + 1e-12:
        raise ValueError(
            f"sum of scheduling probabilities {sum(p_r):g} exceeds budget {spec.m_budget}"
        )
    return [solve_per_sensor_value(s, spec.channel, p) for s, p in zip(spec.sensors, p_r)]


class SispPolicy(Policy):
    """The structure-informed policy, decided from the per-sensor values.

    Each action scores the sum, in sensor order, of one eq column per sensor
    at the state's index in that sensor's own space: the joint expectation
    factorizes, and the stage cost is the same for every action. The first
    argmin (ties favor idling) is the decision; no joint space is needed.
    """

    name = "sisp"

    def __init__(self, values: Sequence[PerSensorValue]):
        self.values = tuple(values)

    def decide_array(self, actions, lanes, t, u):
        scores = np.zeros((len(actions), len(lanes.theta)))
        for i, pv in enumerate(self.values):
            sensor = LaneState(lanes.theta, *(a[i : i + 1] for a in lanes[1:]))
            scores += pv.eq[pv.space.encode_array(sensor), actions.schedules[:, i, None]]
        return scores.argmin(axis=0)


def build_policy_table(values: Sequence[PerSensorValue], space: StateSpace) -> PolicyTable:
    """SISP table: SispPolicy tabulated at every state of space, over
    space.action_set (no pruning)."""
    for i, pv in enumerate(values):
        if pv.space.dims[:3] != space.dims[3 * i : 3 * i + 3]:
            raise ValueError(f"per-sensor space of sensor {i} does not match the system")
    return policy_to_table(SispPolicy(values), space)


def build_policy_table_with_pruning(values: Sequence[PerSensorValue], space: StateSpace) -> tuple:
    """SISP table and its threshold persistence; returns (table, n_copied,
    violations).

    The table is the argmin at every state (build_policy_table). A pruned
    construction visits states in increasing index order, which is monotone
    in every age coordinate, and copies the action of the state one
    monitor-age step below (all else equal, first such sensor in index
    order) whenever that action schedules the sensor. n_copied counts the
    states it would copy rather than evaluate. Persistence is checked on the
    argmin table: every such state must choose its source's action, and
    violations holds, in increasing order, the states that do not. Where it
    is empty the pruned table is the argmin table.
    """
    table = build_policy_table(values, space)
    chosen = table.action_index
    scheduled = space.action_set.schedules[chosen]
    idx = np.arange(space.n_states)
    source = np.full(space.n_states, -1)
    for i in range(space.n_sensors):
        below = idx - space.aori_stride(i)
        hit = (source < 0) & (space.lanes.aori[i] >= 2)
        hit[hit] = scheduled[below[hit], i]
        source[hit] = below[hit]
    copied = source >= 0
    violations = np.nonzero(copied & (chosen != chosen[source]))[0]
    return table, int(copied.sum()), violations


@dataclass
class ThresholdTable:
    """Smallest scheduling age per (sensor, channel state); inf if never.

    Thresholds are context dependent; this table pins the scanned sensor's
    buffer age and every other sensor's state to a fixed context.
    """

    thresholds: np.ndarray  # shape (N, 2), float with inf sentinel

    def rows(self):
        for i in range(self.thresholds.shape[0]):
            for theta in (0, 1):
                yield (i + 1, theta, self.thresholds[i, theta])


def extract_thresholds(values: Sequence[PerSensorValue], spec: SystemSpec) -> ThresholdTable:
    """First monitor age at which SISP schedules each sensor, per channel state.

    Sensor i is scanned over aori = 1..max_aori with its buffer age at 0;
    every other sensor sits at (aoli, aori) = (0, 1), and every arrival
    memory bit is 1 (the packet in each buffer is fresh). SispPolicy decides
    those states, so each threshold is the first age at which the SISP table
    schedules sensor i in that context; inf if it never does within the
    truncated range.
    """
    n = spec.n_sensors
    actions = ActionSet(n, spec.m_budget)
    out = np.full((n, 2), np.inf)
    for i in range(n):
        cap = spec.sensors[i].max_aori
        # the scanned states, bad channel first: theta = 0 then 1, aori = 1..cap
        theta = np.repeat([0, 1], cap)
        aori = np.ones((n, 2 * cap), dtype=np.int64)
        aori[i] = np.tile(np.arange(1, cap + 1), 2)
        scan = LaneState(theta, np.zeros_like(aori), aori, np.ones_like(aori, dtype=bool))
        chosen = SispPolicy(values).decide_array(actions, scan, 0, None)
        scheduled = actions.schedules[chosen, i].reshape(2, cap)
        out[i] = np.where(scheduled.any(axis=1), scheduled.argmax(axis=1) + 1, np.inf)
    return ThresholdTable(out)


def randomized_chain_matrix(space: StateSpace, p_r: Sequence[float]):
    """Exact joint chain of the independent randomized policy, on the states
    of space reachable from space.reference_index(): the Chain of
    mixture_chain_matrix.

    Mixes the kernels of all 2^N schedule vectors with product Bernoulli
    weights: the randomized policy's one-cursor schedule with budget N,
    where nothing is thinned. The budget holds in expectation only, matching the
    policy the value decomposition is defined against.
    """
    full_actions = ActionSet(space.n_sensors, space.n_sensors)
    schedule = RandomizedSchedule(p_r, space.n_sensors).schedule(full_actions)
    return mixture_chain_matrix(schedule, space, full_actions)
