"""Exact truncated-MDP machinery.

A StateSpace numbers either the full truncated grid, which solve writes, or
its closed sub-grid (closed=True), the product of each sensor's closure
from the start (on threesensor 85,750 of 351,232 states), which compare and
simulate solve and evaluate on: no chain and no simulated lane ever leaves
it. The transition model, the cost vector, the lanes, RVI, the tables and
the chains are built on the space they are given, and RVI stops on the
closed sub-grid on both, so the two solves take the same iterations and
give the same values and table there.

State enumeration, the factored transition kernel (channel factor times
per-sensor case table, with a Markov-arrival variant), relative value
iteration for the average-cost optimal policy, a value-monotonicity checker,
and exact policy evaluation through the stationary distribution of the
policy-induced chain's one closed class, found by frontier searches
(_closed_class) and solved by a numpy GMRES (_gmres), sparse LU or, on a
nearly decomposable class, GTH (_gth), certified
by its L1 balance residual (stationary_distribution). No sum in it is left to
BLAS, so exact costs have the same bits for any BLAS thread count. A chain
is searched from the start state only, so its closed classes are the ones
the start reaches, with rows generated from the per-sensor factors as the
search first needs them, never from assembled kernels, and it is built
lumped: the reached states that share a distinct row and the policy's group
(action, or a state-blind schedule's cursor) are one state (reachable_chain).

factor_rows is the one row generator: the joint solver, exact policy
evaluation, the per-sensor SISP solves and chains, the randomized chain and
the myopic baseline all read from it. Truncation saturates the ages, so most
kernel rows repeat (a sensor's successors are the same one step below a cap
as at it), and a state's row is one of the distinct rows that Factors
indexes by theta and its sensors' row classes, theta slowest, with row_of,
the state -> distinct-row map all actions share. The rows are written straight from
the per-sensor successor tables, whose entries are ordered so that every
row comes out sorted by column, with no COO step or duplicate summing; the
assembled kernels are byte-identical to a state-by-state assembly from
transition_distribution (kernel_rows says why that matters). factor_rows
fills listed rows: kernel_rows lists every row of every action, for the
one-chunk models, and the chain builders list the rows their chain reaches
(on threesensor, compare's chains make at most 45,333 rows, maf's, of the
closed sub-grid's 39,366 distinct rows per action, and a state-blind
policy's per-sensor chains at most 145).
build_kernels fills the joint model's rows on the open grid of whole
leading-sensor classes instead, as the blocks of Kernels: each CPU's share
of classes is two blocks, its theta = 0 rows and its theta = 1 rows, and a
block's rows of an action are one CSR matrix (_csr.CSR). The theta = 1
matrix reads the theta = 0 matrix's columns wherever the sensors' successor
tables agree in both channel states (on threesensor, everywhere). The
blocks stacked in row order and indexed by row_of are the assembled
kernels. The joint solve and the myopic baseline are both solved on them.
RVI, the one reader of Kernels, backs up the distinct rows block by block,
takes the minimum over actions there and spreads it by row_of.
Every sparse product and conversion is a call of scipy's compiled CSR
routines, which _csr loads on first use without scipy.sparse, with the
operands and order scipy.sparse gives them, so no command imports
scipy.sparse and every result keeps scipy's bits. The per-sensor SISP
solves densify kernel_rows with numpy and load not even those routines.
scipy.sparse and scipy.sparse.linalg are imported only by the sparse-LU
fallback, which no shipped or benchmark config reaches.
table_rows writes every solve table as byte blocks assembled in numpy,
with no per-row object: a column's cells index a small table of its
labels, the value column's labels being its distinct bit patterns, each
formatted once.

A model of more than TABLE_CHUNK distinct rows (the joint threesensor MDP)
is built and solved on one thread per CPU in the process's affinity mask,
with no setting for the count. build_kernels cuts the classes once, on
leading-sensor class boundaries, into one share per CPU; each share's rows
of every action are generated in a thread of their own, and RVI backs up
each share's two blocks in its own thread. scipy's csr_matvec and numpy's
elementwise kernels release the GIL, so the threads overlap. Every entry
and every row sum is computed by the same code over the same operands in
the same order as on one thread, so kernels, values, gains, iteration
counts and tables are the same bits for any number of CPUs. Smaller
models, and every model on one CPU, are one share, run on the calling
thread and import no pool.

_forks is the process form of the thread shares, for the Monte Carlo,
whose lanes are numpy calls of a few microseconds that threads would
serialize on the GIL: share 0 runs in the calling process and each other
share in a child made by os.fork once every pool is joined, with its
result pickled back through a pipe. sim deals its policies and caps out to
one process per CPU, and compare simulates in a child while it evaluates
exactly; on one CPU, and inside a share, every share runs inline. No child
outlives the with block that made it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _csr
from .dynamics import JointState, LaneState, SensorState, initial_state, lane_cost, lane_state
from .model import ChannelSpec, ConvergenceError, SensorSpec, SystemSpec, penalty_rows

__all__ = [
    "StateSpace",
    "sensor_space",
    "ActionSet",
    "ValueTable",
    "PolicyTable",
    "sensor_delta_transitions",
    "transition_distribution",
    "stage_cost",
    "cost_vector",
    "Factors",
    "build_factors",
    "factor_rows",
    "Kernels",
    "kernel_rows",
    "build_kernels",
    "relative_value_iteration",
    "solve_optimal_policy",
    "check_value_monotonicity",
    "Chain",
    "reachable_chain",
    "policy_chain_matrix",
    "mixture_chain_matrix",
    "stationary_distribution",
    "chain_average_cost",
    "average_cost_by_sensor",
    "table_rows",
]

# Column groups of a full state table; the rows in one byte block of
# table_rows, which is also about the rows factor_rows fills at once and
# the states RVI's final argmin reads at once. A model of more rows than one
# chunk is built and solved on every CPU (build_kernels)
TABLE_COLUMNS = ("state_index", "aoli", "aori", "arrmem", "theta", "value", "action_bits")
TABLE_CHUNK = 1 << 14
# Floats in CSV cells and in printed results: 12 significant digits
VALUE_FORMAT = ".12g"

# Relative value iteration: the sup-norm stopping bound on successive
# iterates, and the iterations allowed before ConvergenceError
RVI_EPSILON = 1e-9
RVI_MAX_ITER = 100000

# Stationary solve: the L1 balance residual a returned distribution must meet,
# and the GMRES restart length, tolerance, restart cycles and passes. The
# passes after the first solve for the correction of the residual left, to
# a tolerance of their own: on the shipped and benchmark configs 1e-6 gives
# every exact cost the bits of 1e-12 with a fifth fewer products
STATIONARY_RESIDUAL = 1e-12
GMRES_RESTART = 20
GMRES_RTOL = 1e-12
GMRES_CORRECTION_RTOL = 1e-6
GMRES_CYCLES = 100
GMRES_PASSES = 2
# The least share of the largest mass the pinned first state of a class may
# hold; below it the class is solved again pinned at its largest mass. A
# pinned system that near to singular can pass the certificate far from the
# truth (a pinned mass of 4e-12 where it is about 1e-47, on a degenerate
# round-robin chain), while a slowly mixing chain whose masses fall
# geometrically (2.4e-9 across the 50-state birth-death chain of the tests)
# solves accurately as pinned
PIN_MASS = 1e-10
# The most states a class is pinned at in turn, until one gives a finite
# answer, when its first state is too light to pin: where the masses span
# more than a double's range (steps of 1e-309), the state the most
# probability flows into can be too light as well
PIN_TRIES = 4
# The largest closed class the sparse-LU fallback solves; above it a class
# GMRES cannot certify raises ConvergenceError at once, since the LU fill-in
# grows so fast that a large class would appear to hang (61.5 s on a
# 15,016-state class)
LU_MAX_STATES = 8_000
# A class whose entries of at least WEAK_COUPLING close more than one class
# is nearly decomposable: the split of its mass between those parts rests on
# the weak entries, and GMRES's answer can be off by the inverse of their
# size times the rounding (1e-10 on a 6e-8 coupling, and wholly wrong on a
# 2e-16 one). Such a class of at most GTH_MAX_STATES states is solved by GTH
# instead, whose dense elimination takes 0.2 s on 1,442 states (one x86
# core), where GMRES takes 0.01 s
WEAK_COUPLING = 1e-4
GTH_MAX_STATES = 2_000


class StateSpace:
    """Bijective index <-> JointState codec over the full truncated grid, or
    over its closed sub-grid.

    The full grid is the rectangle of the radix tuple dims = (l_1, r_1, g_1,
    ..., l_N, r_N, g_N, 2): each sensor's aoli < l = max_aoli + 1, aori - 1
    < r = max_aori and arrival-memory bit g, which only exists (g = 2) for
    sensors with Markov arrivals, then the channel bit theta. A sensor's
    sub-index ravels its own three axes. members[i] holds the sub-indices of
    sensor i that the space keeps, increasing: every one on the full grid,
    and on a closed space (closed=True) the sensor's closure, the ones its
    start reaches (closure). The index is the row-major ravel of each
    sensor's position in members[i], sensor 1 most significant, then theta
    fastest; so a closed space numbers its states in the full grid's order,
    and on the full grid stepping one age coordinate is a fixed positive
    stride.

    Data reach the monitor only from the sensor's own buffer, so from the
    start a sensor never has aoli > aori: its closure is 35 of its 56
    sub-indices on threesensor. The closures' product with theta is closed
    under every joint action and holds the start, so RVI's iterates, every
    chain and every simulated lane restricted to it are the full grid's
    (Puterman 1994, 8.3): compare and simulate solve and evaluate on the
    closed space, and solve writes the full grid. n_states counts the
    space's states and grid_states the full grid's, which the state budget
    reads.

    The space is also the model of its spec: action_set, factors (the
    transition model, build_factors) and lanes are built on first use and
    kept, so a space made only to count its states builds none of them.
    """

    def __init__(self, spec: SystemSpec, closed: bool = False):
        self.spec = spec
        self.closed = closed
        sizes = [
            (s.max_aoli + 1, s.max_aori, 2 if s.has_markov_arrivals else 1) for s in spec.sensors
        ]
        self.dims = (*itertools.chain(*sizes), 2)
        self.l_sizes, self.r_sizes, self.g_sizes = zip(*sizes)
        # exact integer products: an int64 product wraps at large caps and
        # would slip past the state budget
        self.grid_states = math.prod(self.dims)
        self.sub_sizes = [len(c) for c in self.closure] if closed else [math.prod(s) for s in sizes]
        self.n_states = 2 * math.prod(self.sub_sizes)
        # the step of the joint index per position of each sensor
        self.sub_strides = [2 * math.prod(self.sub_sizes[i + 1 :]) for i in range(len(sizes))]

    @property
    def n_sensors(self) -> int:
        return self.spec.n_sensors

    @functools.cached_property
    def closure(self) -> tuple:
        """Each sensor's closed sub-indices of the full grid, increasing:
        those its sub-index at reference_index() reaches under both
        decisions and both channel states. They are searched (_reach) over
        the full grid's successor tables, not assumed from aoli <= aori, so
        unequal caps and Markov arrivals stay exact."""
        grid = StateSpace(self.spec) if self.closed else self
        start = np.unravel_index(grid.reference_index(), [*grid.sub_sizes, 2])
        out = []
        for i, n in enumerate(grid.sub_sizes):
            tables = [_successor_table(grid, i, scheduled) for scheduled in (False, True)]
            succ = np.concatenate([t[0].reshape(n, -1) for t in tables], axis=1)
            valid = np.concatenate([t[2].reshape(n, -1) for t in tables], axis=1)
            indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
            seen = _reach(indptr, succ[valid] // grid.sub_strides[i], start[i], np.zeros(n, bool))
            out.append(np.flatnonzero(seen))
        return tuple(out)

    @functools.cached_property
    def members(self) -> tuple:
        """Each sensor's sub-indices of the full grid in the space, increasing."""
        return self.closure if self.closed else tuple(map(np.arange, self.sub_sizes))

    def closed_max(self, x: np.ndarray) -> float:
        """The largest entry of x, a vector over the space's states, on the
        closed sub-grid: the stopping rule of the joint solves
        (relative_value_iteration). On the full grid it reads the block of
        states of each closed sub-index of the leading sensor at the closed
        offsets within it, so no index or copy of the whole sub-grid is made.
        """
        if self.closed:
            return x.max()
        blocks = x.reshape(self.sub_sizes[0], -1)
        rest = np.ix_(*self.closure[1:], [0, 1])
        inner = np.ravel_multi_index(rest, [*self.sub_sizes[1:], 2]).ravel()
        return max(blocks[i][inner].max() for i in self.closure[0])

    @functools.cached_property
    def action_set(self) -> ActionSet:
        """The schedules of at most spec.m_budget sensors."""
        return ActionSet(self.n_sensors, self.spec.m_budget)

    @functools.cached_property
    def factors(self) -> Factors:
        """The transition model as its per-sensor factors (build_factors)."""
        return build_factors(self)

    def sensor_sub_index(self, i: int, aoli: int, aori: int, g: int) -> int:
        if not (0 <= aoli < self.l_sizes[i] and 1 <= aori <= self.r_sizes[i]):
            raise ValueError(f"sensor {i} state ({aoli},{aori}) outside truncation")
        g_eff = g if self.g_sizes[i] == 2 else 0
        return (aoli * self.r_sizes[i] + (aori - 1)) * self.g_sizes[i] + g_eff

    def sensor_states(self, i: int) -> tuple:
        """(aoli, aori, g) of each of sensor i's sub-indices in the space, in
        order."""
        aoli, aori, g = np.unravel_index(self.members[i], self.dims[3 * i : 3 * i + 3])
        return aoli, aori + 1, g

    def encode(self, js: JointState) -> int:
        """encode_array of the state as one lane."""
        return int(self.encode_array(lane_state(js, 1))[0])

    def encode_array(self, lanes: LaneState) -> np.ndarray:
        """The index of every lane of a LaneState: one ravel_multi_index over
        dims, and on a closed space one gather of that full-grid index; a
        Bernoulli sensor's arrival bit is ignored. An age outside the
        truncation, on either side, or a theta outside {0, 1} is refused,
        naming the first sensor (or theta) out of range, and on a closed
        space so is a state outside the closed sub-grid."""
        coords = [
            c
            for i, g_size in enumerate(self.g_sizes)
            for c in (lanes.aoli[i], lanes.aori[i] - 1, lanes.arrival[i] if g_size == 2 else 0)
        ] + [lanes.theta]
        try:
            idx = np.ravel_multi_index(coords, self.dims)
        except ValueError:
            for k, (c, d) in enumerate(zip(coords, self.dims)):
                if np.any((c < 0) | (c >= d)):
                    what = "theta" if k == len(coords) - 1 else f"sensor {k // 3} state"
                    raise ValueError(f"{what} outside truncation") from None
            raise
        if not self.closed:
            return idx
        idx = self._index_of[idx]
        if (idx < 0).any():
            for i, members in enumerate(self.members):
                sub = np.ravel_multi_index(coords[3 * i : 3 * i + 3], self.dims[3 * i : 3 * i + 3])
                if not np.isin(sub, members).all():
                    raise ValueError(f"sensor {i} state outside the closed sub-grid")
        return idx

    @functools.cached_property
    def _index_of(self) -> np.ndarray:
        """Each full-grid state's index in the space, -1 outside it."""
        grid = [math.prod(self.dims[3 * i : 3 * i + 3]) for i in range(self.n_sensors)]
        at = np.ravel_multi_index(np.ix_(*self.members, [0, 1]), [*grid, 2])
        index = np.full(self.grid_states, -1)
        index[at.ravel()] = np.arange(self.n_states)
        return index

    def decode(self, idx: int) -> JointState:
        if not (0 <= idx < self.n_states):
            raise ValueError(f"state index {idx} out of range")
        *at, theta = map(int, np.unravel_index(idx, [*self.sub_sizes, 2]))
        coords = [
            np.unravel_index(members[k], self.dims[3 * i : 3 * i + 3])
            for i, (members, k) in enumerate(zip(self.members, at))
        ]
        sensors = tuple(SensorState(int(l), int(r) + 1) for l, r, _ in coords)
        prev = tuple(
            bool(g) if g_size == 2 else st.aoli == 0
            for (_, _, g), g_size, st in zip(coords, self.g_sizes, sensors)
        )
        return JointState(sensors, theta, prev)

    def reference_index(self) -> int:
        """Index of the canonical start state (all sensors (0,1), bad channel)."""
        return self.encode(initial_state(self.spec))

    @functools.cached_property
    def lanes(self) -> LaneState:
        """Every state, in index order, as the lanes of one LaneState.

        Each sensor's row is its sensor_states broadcast over the grid of the
        joint index. A Bernoulli sensor's arrival bit is aoli == 0, the
        prev_arrival of decode."""
        n = self.n_sensors
        grid = [*self.sub_sizes, 2]
        aoli = np.empty((n, self.n_states), dtype=np.int64)
        aori = np.empty_like(aoli)
        arrival = np.empty(aoli.shape, dtype=bool)
        for i in range(n):
            l, r, g = (c.reshape(-1, *[1] * (n - i)) for c in self.sensor_states(i))
            aoli[i].reshape(grid)[...] = l
            aori[i].reshape(grid)[...] = r
            arrival[i].reshape(grid)[...] = g == 1 if self.g_sizes[i] == 2 else l == 0
        return LaneState(np.tile(np.arange(2), self.n_states // 2), aoli, aori, arrival)

    def _grid_stride(self, k: int) -> int:
        """The full grid's index step along axis k of dims; the closed
        sub-grid has no fixed age step."""
        if self.closed:
            raise ValueError("a closed space has no fixed age strides")
        return math.prod(self.dims[k + 1 :])

    def aori_stride(self, i: int) -> int:
        return self._grid_stride(3 * i + 1)

    def aoli_stride(self, i: int) -> int:
        return self._grid_stride(3 * i)


def sensor_space(sensor: SensorSpec, channel: ChannelSpec) -> StateSpace:
    """The full grid of one sensor alone on the channel, budget 1: its
    sub-indices and theta, in the joint space's per-sensor order. The
    per-sensor SISP solves and the state-blind policies' per-sensor chains
    are built on it."""
    return StateSpace(SystemSpec(sensors=(sensor,), channel=channel, m_budget=1))


class ActionSet:
    """All binary schedules with at most M ones, idle first.

    Actions are ordered by (number scheduled, bitmask with sensor 0 as the
    low bit); argmin ties therefore resolve toward not transmitting.
    `schedules` is the same list as a read-only (actions, sensors) array of
    0/1 ints, so a sensor's column can index a per-decision table.
    """

    def __init__(self, n: int, m: int):
        if not (1 <= m <= n):
            raise ValueError(f"need 1 <= M <= N, got M={m}, N={n}")
        self.n = n
        self.m = m
        masks = [mask for mask in range(1 << n) if bin(mask).count("1") <= m]
        masks.sort(key=lambda mask: (bin(mask).count("1"), mask))
        self.actions = tuple(
            tuple((mask >> i) & 1 for i in range(n)) for mask in masks
        )
        self.schedules = np.array(self.actions, dtype=np.intp)
        self.schedules.flags.writeable = False
        self._index = {a: k for k, a in enumerate(self.actions)}
        # action index of every bitmask, -1 where the budget is exceeded
        self.code_index = np.full(1 << n, -1, dtype=np.int64)
        self.code_index[masks] = np.arange(len(masks))

    def __len__(self) -> int:
        return len(self.actions)

    def index(self, action) -> int:
        return self._index[tuple(action)]


@dataclass
class ValueTable:
    values: np.ndarray
    gain: float
    iterations: int


@dataclass
class PolicyTable:
    action_index: np.ndarray
    action_set: ActionSet


def sensor_delta_transitions(
    sensor: SensorSpec,
    aoli: int,
    aori: int,
    g: int,
    theta: int,
    scheduled: bool,
) -> list:
    """One sensor's transition law for a slot: [((aoli', aori', g'), prob)].

    Conditions on the pre-transition channel state. Under Markov arrivals the
    arrival probability depends on the memory bit g; under Bernoulli arrivals
    g is ignored and the returned g' mirrors (aoli' == 0). Successors beyond
    the truncation caps are saturated and merged.
    """
    arr_p = sensor.arrival.arrival_prob(bool(g))
    markov = sensor.has_markov_arrivals
    cap_l, cap_r = sensor.max_aoli, sensor.max_aori
    if scheduled:
        p = sensor.success_prob(theta)
        outcomes = [
            (True, True, arr_p * p),
            (False, True, (1.0 - arr_p) * p),
            (True, False, arr_p * (1.0 - p)),
            (False, False, (1.0 - arr_p) * (1.0 - p)),
        ]
    else:
        outcomes = [(True, False, arr_p), (False, False, 1.0 - arr_p)]
    merged = {}
    for arrived, delivered, prob in outcomes:
        if prob <= 0.0:
            continue
        new_aori = min((aoli if delivered else aori) + 1, cap_r)
        new_aoli = 0 if arrived else min(aoli + 1, cap_l)
        if markov:
            new_g = 1 if arrived else 0
        else:
            new_g = 1 if new_aoli == 0 else 0
        key = (new_aoli, new_aori, new_g)
        merged[key] = merged.get(key, 0.0) + prob
    return list(merged.items())


def transition_distribution(state: JointState, action, spec: SystemSpec) -> list:
    """Full one-step distribution [(JointState, prob)] for a feasible action."""
    if not spec.is_feasible_action(action):
        raise ValueError(f"infeasible action {tuple(action)}")
    channel = spec.channel
    per_sensor = [
        sensor_delta_transitions(
            s,
            state.sensors[i].aoli,
            state.sensors[i].aori,
            1 if state.prev_arrival[i] else 0,
            state.theta,
            bool(action[i]),
        )
        for i, s in enumerate(spec.sensors)
    ]
    merged = {}
    for theta_next in (0, 1):
        ch = channel.transition_prob(state.theta, theta_next)
        for combo in itertools.product(*per_sensor):
            prob = ch
            sensors = []
            prev = []
            for (aoli, aori, g), pr in combo:
                prob *= pr
                sensors.append(SensorState(aoli, aori))
                prev.append(bool(g))
            key = JointState(tuple(sensors), theta_next, tuple(prev))
            merged[key] = merged.get(key, 0.0) + prob
    return list(merged.items())


def stage_cost(state: JointState, spec: SystemSpec) -> float:
    """Sum of penalties at the current monitor-side ages; action independent."""
    return sum(s.penalty(state.sensors[i].aori) for i, s in enumerate(spec.sensors))


def cost_vector(space: StateSpace) -> np.ndarray:
    """Stage cost of every state, with no lanes: lane_cost of each
    sensor's penalties at the monitor ages of its sub-indices, broadcast
    over the grid of the joint index (sensor 1 most significant, theta
    fastest), so every state's sum adds the same terms in the same order."""
    n = space.n_sensors
    penalties = [
        row[space.sensor_states(i)[1]].reshape(-1, *[1] * (n - i))
        for i, row in enumerate(penalty_rows(space.spec.sensors))
    ]
    return np.broadcast_to(lane_cost(penalties), [*space.sub_sizes, 2]).ravel()


def _successor_table(space: StateSpace, i: int, scheduled: bool) -> tuple:
    """Sensor i's successors for one scheduling decision, as padded arrays.

    Returns (offset, prob, valid), each of shape (sub_size, 2, k): entry
    [sub, theta, c] is a pair of sensor_delta_transitions from the space's
    sub-index sub under pre-transition channel state theta, with the
    successor given as its offset in the joint index. The pairs are sorted
    by offset, k is the longest list, and `valid` marks the real entries,
    which come first. The space's sub-indices are closed, so every
    successor is one of them.
    """
    sensor = space.spec.sensors[i]
    rows = [
        [
            sorted(
                (space.sensor_sub_index(i, *key), pr)
                for key, pr in sensor_delta_transitions(sensor, *state, theta, scheduled)
            )
            for theta in (0, 1)
        ]
        for state in zip(*(c.tolist() for c in space.sensor_states(i)))
    ]
    shape = (space.sub_sizes[i], 2, max(len(row) for pair in rows for row in pair))
    sub = np.zeros(shape, dtype=np.int64)
    prob = np.zeros(shape)
    valid = np.zeros(shape, dtype=bool)
    for k, pair in enumerate(rows):
        for theta, row in enumerate(pair):
            for c, (s, pr) in enumerate(row):
                sub[k, theta, c] = s
                prob[k, theta, c] = pr
                valid[k, theta, c] = True
    # a full-grid sub-index's position in the space, in the same order
    offset = np.searchsorted(space.members[i], sub) * space.sub_strides[i]
    return offset, prob, valid


@dataclass(frozen=True, eq=False)
class Kernels:
    """Every action's transition kernel, stored as its distinct rows in
    blocks of consecutive rows, grouped into the shares that RVI backs up
    in a thread each.

    shares holds one tuple of blocks per thread, and a block is (lo, hi,
    mats), where mats[a] is action a's distinct rows lo..hi-1 as a CSR
    matrix (_csr.CSR, or any object with its data, indices, indptr and
    shape) or, in the per-sensor SISP solve, a dense array. The blocks
    cover the rows 0..n_rows-1 once. row_of maps each state to its
    distinct row, one map shared by every action, so the assembled kernel
    K_a is the blocks' mats[a] stacked in row order, indexed by row_of.
    """

    shares: tuple
    row_of: np.ndarray

    @property
    def n_rows(self) -> int:
        return sum(hi - lo for share in self.shares for lo, hi, _ in share)

    def __iter__(self):
        """Every block's matrices, share by share, each block's in action
        order. A CSR matrix that reads the columns of one yielded before it
        is yielded as its nnz and data alone, with empty views of the
        indices and indptr it reads: so the data, indices and indptr
        iterated are every buffer the kernels hold, each once."""
        read = set()
        for share in self.shares:
            for mat in (mat for _, _, mats in share for mat in mats):
                indices = getattr(mat, "indices", None)
                at = None if indices is None else indices.__array_interface__["data"][0]
                if at in read:
                    mat = SimpleNamespace(
                        nnz=mat.nnz, data=mat.data, indices=indices[:0], indptr=mat.indptr[:0]
                    )
                elif at is not None:
                    read.add(at)
                yield mat


def _worker_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _shares(n: int):
    """Yields run(fn), which returns [fn(0), ..., fn(n - 1)]: fn(0) on the
    calling thread, the others in a pool of n - 1 threads that the with
    block joins on exit, also when it raises. One share runs inline and
    imports no pool."""
    if n == 1:
        yield lambda fn: [fn(0)]
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n - 1) as pool:

        def run(fn):
            futures = [pool.submit(fn, k) for k in range(1, n)]
            first = fn(0)
            return [first] + [future.result() for future in futures]

        yield run


# True in a child that _forks made, and only there: its own shares run
# inline, so a share never nests
_in_share = False


def _fork_processes() -> int:
    """Processes that forked shares may run on: one per CPU, but only the
    calling one inside a share or where os.fork does not exist."""
    return 1 if _in_share or not hasattr(os, "fork") else _worker_count()


@contextlib.contextmanager
def _forks(n: int):
    """Yields run(fn), which returns [fn(0), ..., fn(n - 1)] as _shares
    does, with a process per share: fn(0) runs in the calling process and
    each other share in a child made by os.fork, which pickles its result
    or its exception back through a pipe and leaves only through os._exit.
    With one process (_fork_processes) the shares run inline, in order.

    A child's exception is raised after fn(0) returns, with its type and
    message; a child that dies is seen as EOF on its pipe and raised as
    RuntimeError. The with block kills and reaps every child still running
    on exit, so none outlives it, also when fn(0) raises. Fork only where
    no other thread is alive: the child has just the forking thread.
    """
    children = {}  # share -> (pid, read end of its pipe)

    def run(fn):
        global _in_share
        if n == 1 or _fork_processes() == 1:
            return [fn(k) for k in range(n)]
        import pickle

        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    _in_share = True
                    os.close(r)
                    # caught only to be raised again in the parent
                    try:
                        payload = (True, fn(k))
                    except BaseException as exc:  # noqa: BLE001
                        payload = (False, exc)
                    data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[k] = (pid, open(r, "rb"))
        out = [fn(0)]
        for k in range(1, n):
            pid, pipe = children[k]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[k]
            if not data:
                raise RuntimeError(f"forked share {k} died with exit code {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out.append(value)
        return out

    try:
        yield run
    finally:
        import signal

        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _row_classes(tables: Sequence) -> tuple:
    """(class of each sub-index, first sub-index of each class) of one sensor.

    Two sub-indices share a class when their padded successor tables (column
    offsets, probability bytes and validity) agree under both decisions and
    both channel states; classes are numbered by first occurrence.
    """
    n_sub = len(tables[0][0])
    key = np.concatenate(
        [t.reshape(n_sub, -1).view(np.uint8) for table in tables for t in table], axis=1
    )
    # a dict of row bytes keeps first occurrences in order with no sort;
    # np.unique(axis=0) would build a dtype with one field per key byte,
    # which cost a small command about 0.7 MiB of peak memory
    first_of = {}
    firsts = [first_of.setdefault(row.tobytes(), sub) for sub, row in enumerate(key)]
    class_of = {sub: c for c, sub in enumerate(first_of.values())}
    return np.array([class_of[sub] for sub in firsts]), np.array(list(first_of.values()))


@dataclass(frozen=True, eq=False)
class Factors:
    """The joint transition model as its per-sensor factors, from which
    factor_rows generates any kernel row.

    Truncation makes most kernel rows copies of others: an age one step
    below its cap steps to the cap, as the cap itself does, so on
    threesensor (caps 7) a sensor's successors are the same at aoli in
    {6, 7}, and again at aori in {6, 7}. So each sensor's sub-indices fall
    into classes whose successor tables agree under both decisions and both
    channel states (_row_classes; 42 classes out of 56 sub-indices per
    threesensor sensor), and a joint state's row, for every action, depends
    only on its sensors' classes and theta. These distinct rows are indexed
    in mixed radix over `shape` = (2, classes of sensor 1, ..., of sensor
    N), theta most significant, so that each channel state's rows are one
    run and a leading-sensor class's rows are one run within it, and row_of
    maps each state to its row. On threesensor that is 148,176 rows out of
    351,232. (In the state index theta is the fastest digit.)

    tables[i][scheduled] is sensor i's successor table under one decision
    (_successor_table), cut to the first sub-index of each class: arrays
    (offset, prob, valid) of shape (classes, 2, k). omega is the channel's
    transition matrix and n_states the joint state count.
    """

    tables: tuple
    row_of: np.ndarray
    omega: np.ndarray
    n_states: int

    @property
    def shape(self) -> tuple:
        return (2, *(len(table[0][0]) for table in self.tables))

    @property
    def n_rows(self) -> int:
        return math.prod(self.shape)


def build_factors(space: StateSpace) -> Factors:
    """Each sensor's successor tables, built once per decision, its row
    classes, and the state -> distinct-row map: space.factors, which keeps
    them."""
    tables, class_of, n_classes = [], [], []
    for i in range(space.n_sensors):
        full = [_successor_table(space, i, scheduled) for scheduled in (False, True)]
        classes, first = _row_classes(full)
        class_of.append(classes)
        n_classes.append(len(first))
        tables.append(tuple(tuple(t[first] for t in table) for table in full))
    *classes, theta = np.ix_(*class_of, [0, 1])
    row_of = np.ravel_multi_index((theta, *classes), [2, *n_classes]).ravel()
    return Factors(tuple(tables), row_of, space.spec.channel.omega(), space.n_states)


def _entry_axis(arr: np.ndarray, i: int, n_sensors: int) -> np.ndarray:
    """arr, of shape (rows..., k), with its k entries put on axis i of the
    entry grid (c_1, ..., c_N, theta')."""
    tail = [1] * (n_sensors + 1)
    tail[i] = arr.shape[-1]
    return arr.reshape(arr.shape[:-1] + tuple(tail))


def _row_counts(tables: Sequence, classes: Sequence, theta) -> np.ndarray:
    """The entries of each row (classes, theta): 2 * prod_i k_i(class_i,
    theta), k_i counting sensor i's real successors."""
    counts = 2
    for i, (_, _, valid) in enumerate(tables):
        counts = counts * valid[classes[i], theta].sum(axis=-1)
    return np.ravel(counts)


def _grid_columns(tables: Sequence, classes: Sequence, theta, index_dtype) -> tuple:
    """(cols, mask) over the grid of rows (classes, theta) by entries
    (c_1, ..., c_N, theta'): each entry's column, theta' plus the sensors'
    offsets, and whether every sensor's entry in it is real. The mask
    starts on the theta' axis so that it ends up with the grid's full
    shape: boolean indexing by a broadcast mask is several times slower."""
    n_sensors = len(tables)
    cols, mask = np.arange(2, dtype=index_dtype), np.ones(2, dtype=bool)
    for i, (offset, _, valid) in enumerate(tables):
        at = (classes[i], theta)
        cols = cols + _entry_axis(offset[at].astype(index_dtype), i, n_sensors)
        mask = mask & _entry_axis(valid[at], i, n_sensors)
    return cols, mask


def _grid_values(tables: Sequence, omega: np.ndarray, classes: Sequence, theta) -> np.ndarray:
    """Each entry's value over the grid of _grid_columns, multiplied in the
    fixed order ((Omega[theta, theta'] * p_1) * p_2) * ...."""
    n_sensors = len(tables)
    vals = _entry_axis(omega[theta], n_sensors, n_sensors)
    for i, (_, prob, _) in enumerate(tables):
        vals = vals * _entry_axis(prob[classes[i], theta], i, n_sensors)
    return vals


def factor_rows(factors: Factors, action, rows) -> tuple:
    """The kernel rows of one action, generated from the per-sensor factors.

    action holds one 0/1 decision per sensor, and rows is an array of
    distinct row indices. Returns the numpy arrays (data, indices, indptr)
    of a CSR matrix whose row k is distinct row rows[k], of n_states
    columns: the bytes of that row of kernel_rows, which is this function
    of every row.

    Row (theta, class_1, ..., class_N) holds the entries of a grid with
    axes (c_1, ..., c_N, theta'), each class standing for its first
    sub-index. A successor's column is theta' plus the sensors' offsets,
    and the joint index puts sensor 1 most significant and theta' fastest.
    With every table sorted by offset, a row's entries in grid order
    therefore have strictly increasing columns, so the grid flattens
    straight into CSR order with no sort and no duplicates. Padding comes
    last in each table and is dropped by the per-sensor masks, never by
    value, and each value is multiplied in the fixed order
    ((Omega[theta, theta'] * p_1) * p_2) * .... A row holds
    2 * prod_i k_i(class_i, theta) entries, where k_i counts sensor i's
    real successors, which gives `indptr`.

    Every entry is computed elementwise from its own operands, so a row's
    bytes do not depend on which other rows are generated with it: the
    tables are gathered at the classes of TABLE_CHUNK rows at a time.
    """
    shape = factors.shape
    keys = np.unravel_index(rows, shape)
    tables = [factors.tables[i][action[i]] for i in range(len(shape) - 1)]
    counts = _row_counts(tables, keys[1:], keys[0])
    nnz = int(counts.sum())
    index_dtype = np.int32 if max(factors.n_states, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(counts) + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz)
    for lo in range(0, len(rows), TABLE_CHUNK):
        hi = min(len(rows), lo + TABLE_CHUNK)
        theta, *classes = (k[lo:hi] for k in keys)
        cols, mask = _grid_columns(tables, classes, theta, index_dtype)
        span = slice(indptr[lo], indptr[hi])
        data[span] = _grid_values(tables, factors.omega, classes, theta)[mask]
        indices[span] = cols[mask]
    return data, indices, indptr


def kernel_rows(space: StateSpace) -> list:
    """Transition matrices of every action of space, built as their
    distinct rows.

    Returns, in the order of space.action_set, each action's distinct rows
    as the numpy arrays (data, indices, indptr) of a CSR matrix of shape
    (factors.n_rows, n_states), factor_rows of every row of space.factors,
    so that with its row_of, row row_of[s] is state s's row of K_a. The
    per-sensor SISP solves densify them, on the calling thread;
    build_kernels generates the joint and myopic models' rows itself, in
    its row blocks. On threesensor the distinct rows hold
    15.6 M nonzeros out of 36.6 M.

    The assembled kernels are byte-identical to a state-by-state assembly
    from transition_distribution. This matters because the optimal policy
    has exactly tied actions, and a last-bit change in a kernel entry can
    flip which one the argmin picks.
    """
    factors = space.factors
    every = np.arange(factors.n_rows)
    return [factor_rows(factors, action, every) for action in space.action_set.actions]


def _theta_blocks(factors: Factors, action, lo: int, hi: int) -> tuple:
    """One action's distinct rows of whole leading-sensor classes in both
    channel states, as two CSR matrices: rows lo..hi-1, which have
    theta = 0, and the theta = 1 rows of the same classes, n_rows // 2
    further on. Each is the bytes of its rows of kernel_rows, filled on the
    open grid of the classes, about TABLE_CHUNK // 2 rows at a time.

    A row's columns are its grid's offsets and its real entries the grid's
    valid ones, so when every sensor's successor table has the same offsets
    and validity in both channel states, the theta = 0 and theta = 1 rows of
    each class tuple reach the same columns in the same order: then the
    columns and the mask are computed once, and the theta = 1 matrix reads
    the theta = 0 matrix's indices and indptr. Where a table differs (a
    success probability of 0 or 1 under a transmit decision drops outcomes
    in one channel state only), each keeps its own; no entry is padded in."""
    shape = factors.shape
    lead = math.prod(shape[2:])
    tables = [factors.tables[i][action[i]] for i in range(len(shape) - 1)]
    shared = all(
        np.array_equal(offset[:, 0], offset[:, 1]) and np.array_equal(valid[:, 0], valid[:, 1])
        for offset, _, valid in tables
    )
    keys = np.ix_(np.arange(lo // lead, hi // lead), *map(np.arange, shape[2:]))
    counts = [_row_counts(tables, keys, theta) for theta in (0, 1)]
    nnz = [int(c.sum()) for c in counts]
    index_dtype = np.int32 if max(factors.n_states, *nnz) <= np.iinfo(np.int32).max else np.int64
    columns = (0,) if shared else (0, 1)
    indptr = [np.zeros(len(counts[0]) + 1, dtype=index_dtype) for _ in columns]
    for ptr, c in zip(indptr, counts):
        np.cumsum(c, out=ptr[1:])
    indices = [np.empty(nnz[theta], dtype=index_dtype) for theta in columns]
    if shared:
        # the theta = 1 matrix reads the theta = 0 matrix's arrays
        indptr, indices = indptr * 2, indices * 2
    data = [np.empty(n) for n in nnz]
    classes = (hi - lo) // lead
    step = max(1, TABLE_CHUNK // (2 * lead))
    for c in range(0, classes, step):
        block = (keys[0][c : c + step], *keys[1:])
        first, last = c * lead, min(classes, c + step) * lead
        for theta in (0, 1):
            span = slice(indptr[theta][first], indptr[theta][last])
            if theta in columns:
                cols, mask = _grid_columns(tables, block, theta, index_dtype)
                indices[theta][span] = cols[mask]
            data[theta][span] = _grid_values(tables, factors.omega, block, theta)[mask]
    return tuple(
        _csr.CSR(*arrays, (hi - lo, factors.n_states)) for arrays in zip(data, indices, indptr)
    )


def build_kernels(space: StateSpace) -> Kernels:
    """Every action of space.action_set's distinct rows, from
    space.factors, as Kernels of CSR matrices: the joint MDP's and the
    myopic model's.

    A model of more than TABLE_CHUNK distinct rows is cut into one share
    per CPU in the process's affinity mask, and a smaller one, or any model
    on one CPU, is one share. The cuts fall on leading-sensor class
    boundaries, the shares taking about equal numbers of classes (some are
    empty when there are more CPUs than classes). A share is two blocks,
    its classes' theta = 0 rows and their theta = 1 rows, and its rows of
    every action are generated by _theta_blocks in a thread of their own,
    the calling thread taking share 0. A row's bytes do not depend on the
    rows generated beside it, so the blocks stacked in row order are
    kernel_rows byte for byte, on any number of CPUs. No matrix of every
    row is made. On threesensor every action's theta = 1 blocks read their
    theta = 0 twins' columns, and the kernels hold 157 MB where separate
    columns would take 189 MB.
    """
    factors, actions = space.factors, space.action_set
    half, n_classes = factors.n_rows // 2, factors.shape[1]
    lead = half // n_classes
    workers = _worker_count() if factors.n_rows > TABLE_CHUNK else 1
    bounds = [k * n_classes // workers * lead for k in range(workers + 1)]

    def share(k):
        lo, hi = bounds[k], bounds[k + 1]
        mats = [_theta_blocks(factors, action, lo, hi) for action in actions.actions]
        return tuple(
            (theta * half + lo, theta * half + hi, tuple(m[theta] for m in mats))
            for theta in (0, 1)
        )

    with _shares(workers) as run:
        return Kernels(tuple(run(share)), factors.row_of)


def relative_value_iteration(
    kernels: Kernels, cost: np.ndarray, ref_index: int, sup_norm=np.max
) -> tuple:
    """Average-cost relative value iteration, normalized at ref_index.

    Iterates Q' = min_a [c + K_a Q] - (same at the reference state) until
    sup_norm of the absolute difference of successive iterates (by default
    its largest entry, over every state) is <= RVI_EPSILON, raising
    ConvergenceError after RVI_MAX_ITER iterations. The joint MDP stops on
    its closed sub-grid (StateSpace.closed_max), so the full grid and the
    closed space take the same iterations; the full grid's values outside
    it are then not held to RVI_EPSILON. Returns (ValueTable,
    policy), policy holding each state's action index; the gain is
    min_a Theta(ref, a) at termination and argmin ties resolve to the lowest
    action index.

    K_a Q is the backup of the distinct rows spread by row_of. Identical
    rows give identical sums, so this is the assembled kernel's backup bit
    for bit. The minimum over actions is taken on the distinct rows, before
    one spread by row_of and one add of the cost: the cost does not depend
    on the action and rounding is monotone, so min_a fl(c + x_a) equals
    fl(c + min_a x_a) exactly. The argmin at termination still reads each
    state's own sums c + x_a, because rounding can tie fl(c + x_a) where
    the x_a differ, and ties go to the lowest index; it is taken
    TABLE_CHUNK states at a time into a preallocated table. csr_matvec
    adds each backup into its zeroed slice of a preallocated (actions,
    n_rows) stack, a sum from +0.0 as scipy's A @ q, and the iterates swap
    two buffers (the sup norm is taken in the one the next spread
    overwrites), so the products allocate nothing.

    Each of kernels.shares has the backups and the columns' minimum of its
    blocks computed in a thread of its own, the calling thread taking share
    0, each block's products written into its contiguous columns of the
    stack, and the spread, the normalization and the sup norm follow on the
    calling thread. Each row is summed by the same csr_matvec over the same
    entries in the same order, whether its block reads another's columns
    or not, and the minimum is per column, so values, gain, iteration count
    and table are the same bits for any number of shares. The pool is
    opened in a with block, so it is joined also when ConvergenceError is
    raised; kernels of one share are backed up on the calling thread with
    no pool.
    """
    n = len(cost)
    q = np.zeros(n)
    q_next = np.empty(n)
    shares = kernels.shares
    backups = np.empty((len(shares[0][0][2]), kernels.n_rows))
    best = np.empty(kernels.n_rows)

    def back_up(k):
        for lo, hi, mats in shares[k]:
            for a, mat in enumerate(mats):
                out = backups[a, lo:hi]
                if isinstance(mat, np.ndarray):
                    out[...] = mat @ q
                else:
                    out.fill(0.0)
                    _csr.accumulate(mat, q, out)
            np.min(backups[:, lo:hi], axis=0, out=best[lo:hi])

    sup_diff = np.inf
    with _shares(len(shares)) as run:
        for it in range(RVI_MAX_ITER):
            run(back_up)
            # mode="clip" is never clipping (row_of is in range) but, unlike
            # the default, writes into out without a buffer
            np.take(best, kernels.row_of, out=q_next, mode="clip")
            np.add(cost, q_next, out=q_next)
            gain = q_next[ref_index]
            q_next -= gain
            # the next take overwrites q, so the difference goes there
            np.subtract(q_next, q, out=q)
            sup_diff = sup_norm(np.abs(q, out=q))
            q, q_next = q_next, q
            if sup_diff <= RVI_EPSILON:
                break
        else:
            raise ConvergenceError(
                f"relative value iteration: sup-diff {sup_diff:.3e} > {RVI_EPSILON:g} "
                f"after {RVI_MAX_ITER} iterations"
            )
    policy = np.empty(n, dtype=np.intp)
    for lo in range(0, n, TABLE_CHUNK):
        hi = min(n, lo + TABLE_CHUNK)
        theta = backups[:, kernels.row_of[lo:hi]]
        theta += cost[lo:hi]
        theta.argmin(axis=0, out=policy[lo:hi])
    return ValueTable(q, float(gain), it + 1), policy


def solve_optimal_policy(space: StateSpace) -> tuple:
    """(vt, pt) of the joint MDP on space, the full grid (solve) or the
    closed sub-grid (compare, simulate): RVI on its kernels, stopped on the
    closed sub-grid (closed_max), so both spaces take the same iterations
    and give the same values and table there. The kernels live for this
    solve only: the exact evaluations build their chains from the
    per-sensor factors."""
    kernels = build_kernels(space)
    cost, start = cost_vector(space), space.reference_index()
    vt, pi = relative_value_iteration(kernels, cost, start, space.closed_max)
    return vt, PolicyTable(pi, space.action_set)


def check_value_monotonicity(values: np.ndarray, space: StateSpace, slack: float) -> list:
    """Pairs where the value function decreases along a +1 age step.

    Compares every state against its neighbor with one age coordinate raised
    by one (same channel state, same arrival memory) and reports
    (state_index, neighbor_index, sensor, coordinate) where the neighbor's
    value is smaller by more than `slack`.
    """
    idx = np.arange(space.n_states)
    lanes = space.lanes
    violations = []
    for i in range(space.n_sensors):
        for coord, arr, cap, stride in (
            ("aoli", lanes.aoli[i], space.l_sizes[i] - 1, space.aoli_stride(i)),
            ("aori", lanes.aori[i], space.r_sizes[i], space.aori_stride(i)),
        ):
            mask = arr < cap
            src = idx[mask]
            dst = src + stride
            bad = values[dst] < values[src] - slack
            for s, d in zip(src[bad], dst[bad]):
                violations.append((int(s), int(d), i, coord))
    return violations


class Chain(NamedTuple):
    """A chain lumped on its keys (reachable_chain): p on the keys, rep
    the row of each key on the states, both CSR matrices (_csr.CSR). With
    pi the stationary distribution of p, the state masses are rep.T @ pi
    and the exact cost pi @ (rep @ cost) (chain_average_cost)."""

    p: _csr.CSR
    rep: _csr.CSR


def reachable_chain(make, locate, shape: tuple, start_index: int, n: int) -> Chain:
    """A Markov chain of n states, searched from start_index and built on
    the keys of the states it reaches, one row per key.

    locate(states) returns (group, row): state s's row is row row[s] of
    group group[s], where shape = (groups, rows per group); a group is an
    action, or a state-blind schedule's cursor. Such a (group, row) pair
    is a key, and every state of a key has the same row.
    make(group, rows) returns the CSR arrays (data, indices, indptr) of
    that group's rows for increasing row indices `rows`, sorted by column,
    their columns numbered in the chain. A frontier search from start_index
    follows every stored entry, explicit zeros included (stationary_distribution
    reads a zero as no step). Each key's row is
    made once, when a frontier first reaches a state of it, and its columns
    are read then: every state a row made earlier reaches is already seen,
    so a frontier reads the columns of the rows made for it alone.

    The keys are numbered by their smallest reached state, so the closed
    class's first key, the one stationary_distribution pins, is the key of
    the class's smallest state, the state the unlumped chain pins, unless a
    transient state below it shares a key with the class. rep stacks their
    rows in that order, and p = rep C, where C merges each state into its
    key: a row's entries of one key are summed in column order, and a zero
    sum stays stored. Merging states with equal rows is an ordinary lumping
    (Kemeny & Snell 1960, 6.3): p's stationary distribution is the chain's,
    summed over each key.

    The parts are joined, reordered and merged by scipy's routines
    (_csr.vstack, take_rows, sum_duplicates), so p and rep have the bytes
    of scipy.sparse's vstack, a[order] and sum_duplicates.
    """
    parts = []
    # the number, in making order, of each (group, row) made so far; -1
    # before it is made
    where = np.full(shape, -1, dtype=np.int64)
    made = 0

    def new_columns(states):
        """Makes the rows that states read and no earlier frontier did;
        returns the columns of their stored entries."""
        nonlocal made
        group, row = locate(states)
        missing = where[group, row] < 0
        new = np.unique(np.ravel_multi_index((group[missing], row[missing]), shape))
        new_group, new_row = np.unravel_index(new, shape)
        # an empty first array keeps a step that makes no row integer
        cols = [np.arange(0)]
        for g in np.unique(new_group):
            rows = new_row[new_group == g]
            where[g, rows] = made + np.arange(len(rows))
            made += len(rows)
            parts.append(_csr.CSR(*make(g, rows), (len(rows), n)))
            cols.append(parts[-1].indices)
        return np.concatenate(cols)

    seen = np.zeros(n, dtype=bool)
    seen[start_index] = True
    frontier = np.array([start_index])
    while len(frontier):
        # the states first seen in this step, by a mask, not by np.unique
        # of the columns, which repeat many times
        fresh = np.zeros(n, dtype=bool)
        fresh[new_columns(frontier)] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    states = np.flatnonzero(seen)
    made_of = where[locate(states)]
    # the made rows in key order: by the first reached state that reads each
    order = np.argsort(np.unique(made_of, return_index=True)[1])
    k = len(order)
    key_of = np.empty(n, dtype=np.int32 if k <= np.iinfo(np.int32).max else np.int64)
    key_of[states] = np.argsort(order)[made_of]
    rep = _csr.vstack(parts, n)
    parts.clear()
    rep = _csr.take_rows(rep, order)
    # each row's entries by key, in column order within a key: a stable
    # sort, so that sum_duplicates, which sums runs of one column in stored
    # order, finds each run sorted. The rows are in order and most of
    # their keys too, which a stable sort of one integer key runs through
    # about ten times faster than np.lexsort
    cols = key_of[rep.indices]
    entry = np.repeat(np.arange(k), np.diff(rep.indptr))
    entry *= k
    entry += cols
    entry = np.argsort(entry, kind="stable")
    p = _csr.CSR(rep.data[entry], cols[entry], rep.indptr.copy(), (k, k))
    return Chain(_csr.sum_duplicates(p), rep)


def policy_chain_matrix(policy: PolicyTable, space: StateSpace) -> Chain:
    """Chain of a deterministic policy on the states of space reachable
    from space.reference_index(), lumped on (action, distinct row) keys.

    State s's row is distinct row row_of[s] of space.factors under its
    action pi(s), generated by factor_rows once per key reached. Returns
    the Chain of reachable_chain.
    """
    factors = space.factors
    actions = policy.action_set.actions
    return reachable_chain(
        lambda a, rows: factor_rows(factors, actions[a], rows),
        lambda s: (policy.action_index[s], factors.row_of[s]),
        (len(actions), factors.n_rows),
        space.reference_index(),
        space.n_states,
    )


def mixture_chain_matrix(schedule: Sequence[tuple], space: StateSpace, actions: ActionSet) -> Chain:
    """Chain of a state-blind policy on the states of space augmented with
    its cursor, over those reachable from space.reference_index() at
    cursor 0, lumped on (cursor, distinct row) keys.

    schedule[c] = (weights, next cursor): at cursor c the policy takes each
    action of `actions` (space.action_set, or a larger budget's) with its
    weight and moves to the next cursor, whatever the state, so the
    augmented pair is Markov, stepping by sum_a w_a K_a. Augmented state
    c * n_states + s, cursor-major, takes distinct row row_of[s] of that
    sum, its columns moved into the next cursor's block. Round robin's
    schedule (round_robin_chain) is one-hot weights over its cursors, a
    randomized policy's one cursor that steps to itself. Returns the Chain
    of reachable_chain, whose rep columns are augmented states.

    The weighted sum is taken in action order, with scipy's products and
    sums (w * K_a, then csr_plus_csr, _csr.plus), over the distinct rows
    the search reaches only, each mixed once, when a frontier first uses
    it: a row's sum reads that row alone. A sum of two or more actions
    drops the entries that come to zero, so the search follows the mixed
    rows, not the kernels'.
    """
    if any(len(w) != len(actions) or abs(sum(w) - 1.0) > 1e-9 for w, _ in schedule):
        raise ValueError("weights must match actions and sum to one")
    factors, n_states = space.factors, space.n_states
    n = len(schedule) * n_states

    def mix(cursor, rows):
        weights, nxt = schedule[cursor]
        out = None
        for w, action in zip(weights, actions.actions):
            if w:
                data, indices, indptr = factor_rows(factors, action, rows)
                data *= w
                term = _csr.CSR(data, indices, indptr, (len(rows), n_states))
                out = term if out is None else _csr.plus(out, term)
        return out.data, out.indices + nxt * n_states, out.indptr

    def locate(states):
        cursor, s = np.divmod(states, n_states)
        return cursor, factors.row_of[s]

    return reachable_chain(mix, locate, (len(schedule), factors.n_rows), space.reference_index(), n)


def _dot(x: np.ndarray, y: np.ndarray, buf: np.ndarray) -> float:
    """x . y as numpy's pairwise sum of the products, through buf: a fixed
    order of adds, where BLAS ddot's order depends on its thread count."""
    return float(np.add.reduce(np.multiply(x, y, out=buf)))


def _givens(f: float, g: float) -> tuple:
    """(c, s, r) of the plane rotation [c s; -s c] that takes (f, g) to
    (r, 0), with c >= 0, as LAPACK's dlartg."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.hypot(f, g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres(matvec, b: np.ndarray, rtol: float) -> tuple:
    """Restarted GMRES (Saad & Schultz 1986) on A x = b from x = 0: (x, info),
    info 0 once |b - A x| <= rtol |b|, else GMRES_CYCLES.

    A port of scipy 1.17's gmres with no preconditioner: GMRES_RESTART
    Arnoldi steps a cycle by modified Gram-Schmidt, the least-squares
    problem kept triangular by Givens rotations, at most GMRES_CYCLES
    cycles, and the same tolerance control on the inner residual estimate
    from one cycle to the next. matvec(x, out) writes A x into out. Every
    inner product and norm is _dot and the update of x adds the basis
    vectors one at a time, so the bits do not depend on the BLAS thread
    count. The Krylov basis is written in place, with no copy of A x."""
    n = len(b)
    buf = np.empty(n)
    bnrm2 = math.sqrt(_dot(b, b, buf))
    x = np.zeros(n)
    if bnrm2 == 0.0:
        return x, 0
    atol = rtol * bnrm2
    eps = np.finfo(float).eps
    restart = min(GMRES_RESTART, n)
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    r = b.copy()
    for _ in range(GMRES_CYCLES):
        s_norm = math.sqrt(_dot(r, r, buf))
        np.multiply(r, 1.0 / s_norm, out=v[0])
        s = np.zeros(restart + 1)
        s[0] = s_norm
        breakdown = False
        for col in range(restart):
            w = v[col + 1]
            matvec(v[col], w)
            h0 = math.sqrt(_dot(w, w, buf))
            for k in range(col + 1):
                h[col, k] = _dot(v[k], w, buf)
                w -= np.multiply(v[k], h[col, k], out=buf)
            h1 = math.sqrt(_dot(w, w, buf))
            h[col, col + 1] = h1
            if h1 <= eps * h0:
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                w *= 1.0 / h1
            for k in range(col):
                c, sn = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + sn * n1, -sn * n0 + c * n1
            c, sn, h[col, col] = _givens(h[col, col], h[col, col + 1])
            givens[col] = c, sn
            h[col, col + 1] = 0.0
            s[col], s[col + 1] = c * s[col], -sn * s[col]
            presid = abs(s[col + 1])
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0.0:
            s[col] = 0.0
        y = s[: col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0.0:
            y[0] /= h[0, 0]
        for k in range(col + 1):
            x += np.multiply(v[k], y[k], out=buf)
        matvec(x, r)
        np.subtract(b, r, out=r)
        rnorm = math.sqrt(_dot(r, r, buf))
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else GMRES_CYCLES


def _generator(q: _csr.CSR) -> tuple:
    """(off, out): q's off-diagonal entries as CSR, in q's stored order, and
    each row's sum of them, the rate at which its state is left. The balance
    equations are (D - Off)^T xi = 0 with D = diag(out), as in the GTH
    algorithm (Grassmann, Taksar & Heyman 1985): a state's outflow is the
    sum of its steps to other states, not 1 - q_ii. A float chain's rows do
    not sum to 1 exactly, and where a state is left with a small
    probability, 1 - q_ii moves its outflow by a large share of itself and
    the masses by up to 1e-10 (on a 6e-8 step). The stationary distribution
    of D - Off depends on the off-diagonal entries alone, each mass to
    within a few ulps of them (O'Cinneide 1993), so that a chain and its
    lumping, whose entries are sums of the chain's, have one answer."""
    m = q.shape[0]
    off = q
    on_diagonal = q.indices == np.repeat(np.arange(m), np.diff(q.indptr))
    if q.data[on_diagonal].any():
        off = _csr.kept(q, ~on_diagonal)
    return off, off @ np.ones(m)


def _operator(off: _csr.CSR, out: np.ndarray) -> _csr.CSR:
    """A = (D - Off)^T as CSR, D = diag(out) (_generator): csr_minus_csr,
    which drops zero differences, then csr_tocsc, as scipy's
    (sparse.diags(out) - off).T.tocsr()."""
    at = np.arange(len(out) + 1, dtype=off.indptr.dtype)
    diagonal = _csr.CSR(out, at[:-1], at, off.shape)
    return _csr.transpose(_csr.minus(diagonal, off))


def _gmres_solve(q: _csr.CSR, b: np.ndarray) -> np.ndarray:
    """_gmres on the pinned system A[1:, 1:] x = b of the class q,
    A = (D - Off)^T (_generator), to GMRES_RTOL, then passes on the
    remaining residual, to GMRES_CORRECTION_RTOL, while each pass
    converges; one that runs out of cycles would stall again.

    The operator is x -> (a @ [0, x])[1:] over a, A as a CSR matrix, with
    no copy of a[1:, 1:]: csr_matvec sums rows 1.. of a, read through
    a.indptr[1:], straight into the Krylov vector. Its products have the
    bits of a[1:, 1:] @ x: csr_matvec sums each row from +0.0, and an entry
    in column 0 adds its product with 0.0, a signed zero, which leaves any
    such sum unchanged.

    The residual a correction pass solves for is the balance residual
    (Off^T xi - out xi)[1:] of xi = [1, x], computed in numpy's longdouble
    (mixed-precision iterative refinement, Moler 1967): on an
    ill-conditioned class, a residual in doubles leaves the masses many
    ulps from the answer. Where longdouble is no wider than a double, the
    refinement gains nothing."""
    m = q.shape[0]
    off, out = _generator(q)
    a = _operator(off, out)
    # rows 1.. of a: indptr holds absolute offsets into data and indices
    rest = _csr.CSR(a.data, a.indices, a.indptr[1:], (m - 1, m))
    padded = np.zeros(m)

    def matvec(x, y):
        padded[1:] = x
        y.fill(0.0)
        _csr.accumulate(rest, padded, y)

    x = np.zeros(m - 1)
    r = b
    for k in range(GMRES_PASSES):
        if k:
            # Off in longdouble lives for this residual only, not beside a
            # pass's Krylov basis
            wide = _csr.CSR(off.data.astype(np.longdouble), off.indices, off.indptr, q.shape)
            xi = np.ones(m, dtype=np.longdouble)
            xi[1:] = x
            r = (wide.T @ xi - (wide @ np.ones(m, dtype=np.longdouble)) * xi)[1:].astype(float)
            del wide, xi
        dx, info = _gmres(matvec, r, GMRES_RTOL if k == 0 else GMRES_CORRECTION_RTOL)
        x += dx
        if info != 0:
            break
    return x


def _lu_solve(q: _csr.CSR, b: np.ndarray) -> np.ndarray:
    """Sparse LU on the pinned system A[1:, 1:] x = b of the class q,
    A = (D - Off)^T (_generator): the one path that copies A[1:, 1:], and
    the one that imports scipy.sparse, whose matrix it hands to
    scipy.sparse.linalg."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    a = _operator(*_generator(q))
    a = sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    return spsolve(a[1:, 1:].tocsc(), b)


def _restricted(p: _csr.CSR, keep: np.ndarray) -> _csr.CSR:
    """p[ix_(keep, keep)] as CSR, for increasing indices keep
    (_csr.restrict); p itself when keep is every state, where the copy
    would have the same bytes."""
    if len(keep) == p.shape[0]:
        return p
    return _csr.restrict(p, keep)


def _certified(xi: np.ndarray, residual: float) -> bool:
    return residual <= STATIONARY_RESIDUAL and bool(np.all(xi > 0.0))


def _pinned_solve(q: _csr.CSR) -> tuple:
    """(xi, its L1 residual) on the class q with its first state pinned,
    by GMRES, then by sparse LU (stationary_distribution). The right-hand
    side -A[1:, 0] is row 0 of q past its first column."""
    m = q.shape[0]
    b = _csr.CSR(q.data, q.indices, q.indptr[:2], (1, m)).toarray()[0, 1:]
    for solve in (_gmres_solve,) if m > LU_MAX_STATES else (_gmres_solve, _lu_solve):
        xi = np.concatenate(([1.0], solve(q, b)))
        xi /= xi.sum()
        residual = float(np.abs(q.T @ xi - xi).sum())
        if _certified(xi, residual):
            break
    return xi, residual


def _reach(indptr: np.ndarray, indices: np.ndarray, start: int, seen: np.ndarray) -> np.ndarray:
    """seen, with every state marked that a frontier search from start
    reaches over the stored entries of the CSR structure (indptr, indices),
    start included; the states already marked are not searched from."""
    frontier = np.array([start])
    seen[start] = True
    while len(frontier):
        counts = indptr[frontier + 1] - indptr[frontier]
        first = np.cumsum(counts) - counts
        at = np.arange(first[-1] + counts[-1]) + np.repeat(indptr[frontier] - first, counts)
        fresh = np.zeros(len(seen), dtype=bool)
        fresh[indices[at]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return seen


def _closed_class(p: _csr.CSR) -> tuple:
    """(the states of one closed class of p, increasing; how many closed
    classes p has), by frontier searches over p's stored entries, explicit
    zeros included: forward on p's CSR, backward on its CSC.

    A search starts at the state that the most entries enter. While
    the states it reaches include one that does not reach it back, it
    moves there, where the reach is smaller. Otherwise the reach is
    strongly connected and no entry leaves it: a closed class, and its
    backward reach is every state that can enter it. Those are set aside.
    The states left reach no class found so far, so every entry out of one
    of them stays among them, and they hold the other closed classes,
    which are searched for among them in the same way until none is left.
    """
    n = p.shape[0]
    # p's pattern by columns, with no values: each state's predecessors
    pattern = _csr.CSR(np.ones(len(p.indices), dtype=bool), p.indices, p.indptr, p.shape)
    pc = _csr.transpose(pattern)
    inflow = np.diff(pc.indptr)
    left = np.ones(n, dtype=bool)
    members, count = None, 0
    state = int(np.argmax(inflow))
    while True:
        forward = _reach(p.indptr, p.indices, state, np.zeros(n, dtype=bool))
        back = _reach(pc.indptr, pc.indices, state, ~left)
        candidates = np.flatnonzero(forward & ~back)
        if len(candidates) == 0:
            count += 1
            if members is None:
                members = np.flatnonzero(forward)
            left &= ~back
            candidates = np.flatnonzero(left)
            if len(candidates) == 0:
                return members, count
        state = int(candidates[np.argmax(inflow[candidates])])


def _weakly_coupled(q: _csr.CSR) -> bool:
    """Whether q's entries of at least WEAK_COUPLING close more than one
    class (Courtois 1977: a nearly completely decomposable chain)."""
    return _closed_class(_csr.kept(q, ~(q.data < WEAK_COUPLING)))[1] > 1


def _gth(q: _csr.CSR) -> np.ndarray:
    """The stationary distribution of the irreducible class q by the GTH
    algorithm (Grassmann, Taksar & Heyman 1985): the states are eliminated
    from the last, each pivot the sum of its row's remaining off-diagonal
    entries, so that no step subtracts and each mass is accurate to a few
    ulps of itself however weakly the class's parts are coupled (O'Cinneide
    1993). Dense; a state's elimination updates only the rows that enter it
    and the columns it leaves to, and every sum is numpy's, with no BLAS."""
    a = q.toarray()
    m = len(a)
    for k in range(m - 1, 0, -1):
        rows = np.flatnonzero(a[:k, k])
        cols = np.flatnonzero(a[k, :k])
        a[rows, k] /= np.add.reduce(a[k, cols])
        a[np.ix_(rows, cols)] += np.multiply.outer(a[rows, k], a[k, cols])
    xi = np.ones(m)
    for k in range(1, m):
        xi[k] = np.add.reduce(xi[:k] * a[:k, k])
    return xi / np.add.reduce(xi)


def stationary_distribution(p: _csr.CSR) -> np.ndarray:
    """Stationary distribution of the one recurrent class of p, a CSR
    matrix (_csr.CSR, or any object with its data, indices, indptr and
    shape, which are all that is read).

    The strongly connected components of p that no edge leaves are its
    closed classes (_closed_class). Raises RuntimeError unless there is
    exactly one (the long-run cost would otherwise depend on chance); the
    other states get zero mass. The chain builders (reachable_chain) build
    only the states their start reaches, so their closed classes are the
    start's.

    The classes are those of p's positive entries: the explicit zeros that
    a stuck channel stores are no steps.

    On that class, with transition matrix Q (p itself when the class is all
    of p), the balance equations A xi = 0 with A = (D - Off)^T, Off the
    off-diagonal part of Q and D its row sums (_generator), fix xi only up
    to scale. A class whose entries of at least WEAK_COUPLING close more
    than one class is solved by GTH (_gth) when it has at most
    GTH_MAX_STATES states, and by the pinned solve below when that has no
    finite answer. The class's first state (reachable_chain says which on a
    lumped chain) is pinned to xi_0 = 1 and its equation dropped, leaving
    the nonsingular system A[1:, 1:] xi[1:] = -A[1:, 0] (Stewart 1994,
    ch. 2), as every state of an irreducible class has positive mass.
    Restarted GMRES solves it (Saad & Schultz 1986; _gmres, a numpy port
    of scipy's whose sums run in a fixed order, so that the masses have the
    same bits for any BLAS thread count), and a second pass solves for the
    correction of the first pass's balance residual, computed in longdouble
    from Off itself, which takes the answer down to rounding level. Power
    iteration is not used: it does not converge on periodic chains such as
    round robin's.

    GMRES's own convergence flag is not trusted (its tolerance is relative
    to a right-hand side that can be tiny). The answer certifies itself
    instead: after normalizing, the L1 balance residual |xi Q - xi|_1 must
    be <= STATIONARY_RESIDUAL and every state of the class must have
    positive mass. Slowly mixing classes (a 50-state birth-death chain, say)
    can stall restarted GMRES short of that; their system is then solved
    again by sparse LU, whose cost does not depend on the mixing, on a class
    of at most LU_MAX_STATES states. A first state of negligible mass makes
    the pinned system singular or near to it: when the answer is not finite,
    or gives the first state less than PIN_MASS of its largest mass, the
    class is solved again, pinned at the states of the largest masses or,
    with no finite answer, at those most probability flows into, in turn,
    up to PIN_TRIES of them, until one gives a finite answer. (No class
    of the shipped and benchmark configs is solved twice.) A mass within
    rounding of zero (at least -eps, the total being 1)
    is the one exception to positivity: a state entered with probability
    1e-288, say, has a mass far below what a double resolves next to 1, and
    its computed sign is noise. When no solve is certified, such masses are
    set to zero and the rest must still balance within STATIONARY_RESIDUAL.
    An answer that fails the check raises ConvergenceError with its
    residual and the class size.
    """
    if not p.data.all():
        # an explicit zero (a stuck channel's) is no step: it would join to
        # a class states that no probability enters, or that leave it only
        # by zeros, and make the pinned system singular
        p = _csr.kept(p, p.data != 0)
    members, count = _closed_class(p)
    if count != 1:
        raise RuntimeError(f"{count} recurrent classes in the chain")
    m = len(members)
    xi = np.ones(1)
    if m > 1:
        q = _restricted(p, members)
        residual = np.nan
        if m <= GTH_MAX_STATES and _weakly_coupled(q):
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = _gth(q)
            residual = float(np.abs(q.T @ xi - xi).sum())
        if not np.isfinite(residual):
            xi, residual = _pinned_solve(q)
            finite = np.isfinite(residual)
            if not (finite and xi[0] >= PIN_MASS * xi.max()):
                # the first state's mass is too small to pin: pin the states
                # of the largest masses or, with no finite answer, those most
                # probability flows into, in turn, until one gives one
                heavy = xi if finite else q.T @ np.ones(m)
                for k in np.argsort(-heavy, kind="stable")[:PIN_TRIES]:
                    if k:
                        order = np.roll(np.arange(m), -k)
                        # sorted, so that each outflow adds its row by column
                        moved = _pinned_solve(_csr.permuted(q, order))
                        if np.isfinite(moved[1]):
                            xi[order], residual = moved
                            break
        if not _certified(xi, residual) and xi.min() >= -np.finfo(float).eps:
            # no solve is certified, but every mass is positive or within
            # rounding of zero: the latter are zero
            xi = np.maximum(xi, 0.0)
            residual = float(np.abs(q.T @ xi - xi).sum())
        if not (residual <= STATIONARY_RESIDUAL and np.all(xi >= 0.0)):
            tried = (
                "by GMRES and by sparse LU" if m <= LU_MAX_STATES
                else f"by GMRES; sparse LU skipped above {LU_MAX_STATES} states"
            )
            raise ConvergenceError(
                f"stationary solve: L1 residual {residual:.3e} (bound "
                f"{STATIONARY_RESIDUAL:g}), smallest mass {xi.min():.3e}, "
                f"on a {m}-state closed class, {tried}"
            )
    xi_full = np.zeros(p.shape[0])
    xi_full[members] = xi
    return xi_full


def chain_average_cost(chain: Chain, cost: np.ndarray) -> float:
    """Exact long-run average cost of a lumped chain whose states' stage
    costs are `cost`: the stationary distribution of chain.p times
    chain.rep @ cost, each key's expected cost of its next state. The
    chain's columns are read modulo len(cost), so that the
    cursor-augmented states of a state-blind schedule's chain
    (mixture_chain_matrix), a per-sensor one included, read their state's
    cost. The products are added by math.fsum, which rounds their exact
    sum once: no order of adds, and so no BLAS thread count, can move its
    bits."""
    p, rep = chain
    # rep is freed once its cost is taken, before the stationary solve
    del chain
    rep_cost = _csr.CSR(rep.data, rep.indices % len(cost), rep.indptr, (rep.shape[0], len(cost)))
    rep_cost = rep_cost @ cost
    del rep
    return math.fsum(stationary_distribution(p) * rep_cost)


def average_cost_by_sensor(xi: np.ndarray, space: StateSpace) -> np.ndarray:
    """Per-sensor share of the stationary average cost."""
    penalties = penalty_rows(space.spec.sensors)
    return np.array([xi @ row[aori] for row, aori in zip(penalties, space.lanes.aori)])


def _label_cells(labels, codes):
    """Column reader (lo, hi) -> labels[codes[lo:hi]] as a (rows, width)
    uint8 matrix, each cell NUL-padded on the right."""
    labels = np.array(labels, dtype=np.bytes_)
    width = labels.itemsize
    return lambda lo, hi: labels[codes[lo:hi]].view(np.uint8).reshape(hi - lo, width)


def _digit_labels(col: np.ndarray):
    """Column reader for small non-negative integers, as decimal digits."""
    return _label_cells([str(v) for v in range(int(col.max()) + 1)], col)


def _index_cells(lo: int, hi: int) -> np.ndarray:
    """The decimal digits of lo..hi-1 as a (rows, width) uint8 matrix, each
    number's leading zeros NUL."""
    idx = np.arange(lo, hi)
    width = len(str(hi - 1))
    out = np.zeros((hi - lo, width), dtype=np.uint8)
    for k in range(width):
        place = 10**k
        col = out[:, width - 1 - k]
        col[...] = idx // place % 10 + ord("0")
        if k:
            col[idx < place] = 0
    return out


def _value_cells(values: Optional[np.ndarray]):
    """Column reader for the value column: blank when values is None, else
    each distinct bit pattern formatted once by VALUE_FORMAT. Bit patterns,
    not float equality, so that -0.0 prints apart from 0.0."""
    if values is None:
        return lambda lo, hi: np.zeros((hi - lo, 0), dtype=np.uint8)
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    return _label_cells([format(v, VALUE_FORMAT) for v in bits.view(np.float64).tolist()], codes)


def _join_cells(cells: list) -> bytes:
    """CSV lines of one chunk: each row's cells side by side in one NUL-padded
    matrix, with a comma after each cell but the last and "\r\n" after it,
    then every byte but the NULs. No cell holds a NUL."""
    rows = cells[0].shape[0]
    out = np.zeros((rows, sum(c.shape[1] + 1 for c in cells) + 1), dtype=np.uint8)
    at = 0
    for c in cells:
        out[:, at : at + c.shape[1]] = c
        at += c.shape[1]
        out[:, at] = ord(",")
        at += 1
    out[:, at - 1 :] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return out[out != 0].tobytes()


def table_rows(
    space: StateSpace,
    values: Optional[np.ndarray],
    policy: PolicyTable,
    columns: Sequence[str] = TABLE_COLUMNS,
):
    """The CSV table dumps as bytes: the header line, then one block of lines
    per TABLE_CHUNK states.

    `columns` picks column groups in order: state_index; aoli, aori and
    arrmem give one column per sensor (arrmem only when some sensor has
    Markov arrivals: the memory bit for those sensors, 1 where aoli == 0
    for the others); theta; value, blank when values is None; action_bits.
    Each line holds the cells cli._write_csv writes for the same numbers,
    joined by commas and ended by "\r\n". No per-row object is made: the
    coordinate columns and action_bits index a small table of their labels
    by their codes, the value column does the same with a table of its
    distinct bit patterns, each formatted once by VALUE_FORMAT, and
    state_index is decimal digit arithmetic on the chunk's indices.
    """
    n = space.n_states
    sensors = range(space.n_sensors)
    theta, aoli, aori, arrival = space.lanes
    bits = ["".join(map(str, a)) for a in policy.action_set.actions]
    groups = {
        "state_index": [("state_index", _index_cells)],
        "aoli": [(f"aoli_{i+1}", _digit_labels(aoli[i])) for i in sensors],
        "aori": [(f"aori_{i+1}", _digit_labels(aori[i])) for i in sensors],
        "arrmem": [(f"arrmem_{i+1}", _digit_labels(arrival[i].view(np.uint8)))
                   for i in sensors if 2 in space.g_sizes],
        "theta": [("theta", _digit_labels(theta))],
        "value": [("value", _value_cells(values))],
        "action_bits": [("action_bits", _label_cells(bits, policy.action_index))],
    }
    cols = [col for group in columns for col in groups[group]]
    yield (",".join(name for name, _ in cols) + "\r\n").encode()
    for lo in range(0, n, TABLE_CHUNK):
        hi = min(n, lo + TABLE_CHUNK)
        yield _join_cells([cells(lo, hi) for _, cells in cols])
