"""Exact truncated-MDP machinery.

State enumeration, the factored transition kernel (channel factor times
per-sensor case table, with a Markov-arrival variant), relative value
iteration for the average-cost optimal policy, a value-monotonicity checker,
and exact policy evaluation through the stationary distribution of the
policy-induced chain: restarted GMRES on the pinned balance equations of the
single closed class reachable from the start state, certified by its L1
balance residual, with a sparse LU solve when GMRES misses the bound
(stationary_distribution).

kernel_rows is the one kernel builder: the joint solver, exact policy
evaluation, the per-sensor SISP solves, the randomized chain and the myopic
baseline all read from it. Truncation saturates the ages, so most kernel
rows repeat (a sensor's successors are the same one step below a cap as at
it), and the builder returns only the distinct rows of each action, as
numpy CSR arrays, plus row_of, the state -> distinct-row map all actions
share. The rows are written straight from the per-sensor successor tables,
whose entries are ordered so that every row comes out sorted by column,
with no COO step or duplicate summing; the assembled kernels are
byte-identical to a state-by-state assembly from transition_distribution
(kernel_rows says why that matters). build_kernels makes them the scipy CSR
matrices of Kernels, where rows[a][row_of] is the assembled kernel K_a.
build_padded_kernels makes them PaddedRows instead, a numpy operator whose
product adds in scipy's order and so gives the same bits; the myopic
baseline is solved on it. RVI backs up the distinct rows, takes the minimum
over actions there and spreads it by row_of; the chain builders gather from
them. scipy.sparse is imported only where a sparse matrix is made or
combined, so the per-sensor SISP solves, which densify kernel_rows with
numpy, and the myopic solve never load it.
table_rows writes every solve table as byte blocks assembled in numpy,
with no per-row object: a column's cells index a small table of its
labels, the value column's labels being its distinct bit patterns, each
formatted once.

A model of more than TABLE_CHUNK distinct rows (the joint threesensor MDP)
is built and solved on one thread per CPU in the process's affinity mask,
with no setting for the count: kernel_rows builds the actions in a thread
pool, build_kernels cuts the rows into blocks of about equal nonzeros, and
RVI backs up each block in its own thread. scipy's csr_matvec and numpy's
elementwise kernels release the GIL, so the threads overlap. Every entry
and every row sum is computed by the same code over the same operands in
the same order as on one thread, so kernels, values, gains, iteration
counts and tables are the same bits for any number of CPUs. Smaller
models, and every model on one CPU, run on the calling thread and import
no pool.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .dynamics import JointState, LaneState, SensorState, initial_state, lane_cost
from .model import ConvergenceError, SensorSpec, SystemSpec, penalty_rows

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "StateSpace",
    "ActionSet",
    "ValueTable",
    "PolicyTable",
    "sensor_delta_transitions",
    "transition_distribution",
    "stage_cost",
    "cost_vector",
    "Kernels",
    "kernel_rows",
    "build_kernels",
    "PaddedRows",
    "build_padded_kernels",
    "relative_value_iteration",
    "solve_optimal_policy",
    "check_value_monotonicity",
    "policy_chain_matrix",
    "mixture_chain_matrix",
    "stationary_distribution",
    "chain_average_cost",
    "policy_average_cost",
    "average_cost_by_sensor",
    "table_rows",
]

# Column groups of a full state table; the rows in one byte block of
# table_rows, which is also about the rows build_kernels fills at once and
# the states RVI's final argmin reads at once. A model of more rows than one
# chunk is built and solved on every CPU (_threads)
TABLE_COLUMNS = ("state_index", "aoli", "aori", "arrmem", "theta", "value", "action_bits")
TABLE_CHUNK = 1 << 14
# Floats in CSV cells and in printed results: 12 significant digits
VALUE_FORMAT = ".12g"

# Stationary solve: the L1 balance residual a returned distribution must meet,
# and the GMRES restart length, tolerance, restart cycles and passes
STATIONARY_RESIDUAL = 1e-12
GMRES_RESTART = 20
GMRES_RTOL = 1e-12
GMRES_CYCLES = 100
GMRES_PASSES = 2


class StateSpace:
    """Bijective index <-> JointState codec over the truncated rectangle.

    Layout per sensor: ((aoli * max_aori) + (aori - 1)) * g_size + g, where
    the arrival-memory bit g only exists (g_size = 2) for sensors with Markov
    arrivals. The joint index interleaves sensors most-significant-first with
    the channel bit fastest, so stepping one age coordinate is a fixed
    positive stride.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.l_sizes = [s.max_aoli + 1 for s in spec.sensors]
        self.r_sizes = [s.max_aori for s in spec.sensors]
        self.g_sizes = [2 if s.has_markov_arrivals else 1 for s in spec.sensors]
        self.sub_sizes = [
            l * r * g for l, r, g in zip(self.l_sizes, self.r_sizes, self.g_sizes)
        ]
        # exact integer product: an int64 product wraps at large caps and
        # would slip past the state budget
        self.n_states = 2 * math.prod(self.sub_sizes)
        # joint stride of one unit of sensor i's sub-index
        self.sub_strides = []
        stride = 2
        for size in reversed(self.sub_sizes):
            self.sub_strides.append(stride)
            stride *= size
        self.sub_strides.reverse()
        self._lanes = None

    @property
    def n_sensors(self) -> int:
        return self.spec.n_sensors

    def sensor_sub_index(self, i: int, aoli: int, aori: int, g: int) -> int:
        if not (0 <= aoli < self.l_sizes[i] and 1 <= aori <= self.r_sizes[i]):
            raise ValueError(f"sensor {i} state ({aoli},{aori}) outside truncation")
        g_eff = g if self.g_sizes[i] == 2 else 0
        return (aoli * self.r_sizes[i] + (aori - 1)) * self.g_sizes[i] + g_eff

    def encode(self, js: JointState) -> int:
        idx = 0
        for i in range(self.n_sensors):
            st = js.sensors[i]
            g = 1 if js.prev_arrival[i] else 0
            idx = idx * self.sub_sizes[i] + self.sensor_sub_index(i, st.aoli, st.aori, g)
        return idx * 2 + js.theta

    def encode_array(self, lanes: LaneState) -> np.ndarray:
        """encode in every lane of a LaneState; a Bernoulli sensor's arrival
        bit is ignored, as encode ignores its prev_arrival."""
        idx = lanes.theta
        for i in range(self.n_sensors):
            aoli, aori = lanes.aoli[i], lanes.aori[i]
            if aoli.max() >= self.l_sizes[i] or aori.max() > self.r_sizes[i]:
                raise ValueError(f"sensor {i} state outside truncation")
            sub = aoli * self.r_sizes[i] + (aori - 1)
            if self.g_sizes[i] == 2:
                sub = sub * 2 + lanes.arrival[i]
            idx = idx + sub * self.sub_strides[i]
        return idx

    def decode(self, idx: int) -> JointState:
        if not (0 <= idx < self.n_states):
            raise ValueError(f"state index {idx} out of range")
        theta = idx % 2
        rest = idx // 2
        subs = [0] * self.n_sensors
        for i in range(self.n_sensors - 1, -1, -1):
            subs[i] = rest % self.sub_sizes[i]
            rest //= self.sub_sizes[i]
        sensors = []
        prev = []
        for i, sub in enumerate(subs):
            g = sub % self.g_sizes[i]
            t = sub // self.g_sizes[i]
            aori = t % self.r_sizes[i] + 1
            aoli = t // self.r_sizes[i]
            sensors.append(SensorState(aoli, aori))
            prev.append(bool(g) if self.g_sizes[i] == 2 else aoli == 0)
        return JointState(tuple(sensors), theta, tuple(prev))

    def reference_index(self) -> int:
        """Index of the canonical start state (all sensors (0,1), bad channel)."""
        return self.encode(initial_state(self.spec))

    def lanes(self) -> LaneState:
        """Every state, in index order, as the lanes of one LaneState (cached).

        A Bernoulli sensor's arrival bit is aoli == 0, the prev_arrival of
        decode."""
        if self._lanes is None:
            n = self.n_sensors
            aoli = np.empty((n, self.n_states), dtype=np.int64)
            aori = np.empty_like(aoli)
            arrival = np.empty(aoli.shape, dtype=bool)
            rest, theta = np.divmod(np.arange(self.n_states), 2)
            for i in range(n - 1, -1, -1):
                rest, sub = np.divmod(rest, self.sub_sizes[i])
                t, g = np.divmod(sub, self.g_sizes[i])
                np.divmod(t, self.r_sizes[i], out=(aoli[i], aori[i]))
                aori[i] += 1
                arrival[i] = g == 1 if self.g_sizes[i] == 2 else aoli[i] == 0
            self._lanes = LaneState(theta, aoli, aori, arrival)
        return self._lanes

    def aori_stride(self, i: int) -> int:
        return self.g_sizes[i] * self.sub_strides[i]

    def aoli_stride(self, i: int) -> int:
        return self.r_sizes[i] * self.g_sizes[i] * self.sub_strides[i]


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

    def is_feasible(self, action) -> bool:
        return tuple(action) in self._index


@dataclass
class ValueTable:
    values: np.ndarray
    gain: float
    iterations: int = 0


@dataclass
class PolicyTable:
    action_index: np.ndarray
    action_set: Optional[ActionSet] = None

    def action_of(self, state_index: int):
        if self.action_set is None:
            raise ValueError("policy table has no action set attached")
        return self.action_set.actions[self.action_index[state_index]]


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


def cost_vector(space: StateSpace, spec: SystemSpec) -> np.ndarray:
    """Stage cost of every state: lane_cost of the penalties at its monitor ages."""
    aori = space.lanes().aori
    return lane_cost(penalty_rows(spec.sensors)[np.arange(len(aori))[:, None], aori])


def _successor_table(space: StateSpace, i: int, sensor: SensorSpec, scheduled: bool) -> tuple:
    """Sensor i's successors for one scheduling decision, as padded arrays.

    Returns (offset, prob, valid), each of shape (sub_size, 2, k): entry
    [sub, theta, c] is a pair of sensor_delta_transitions from sub-index sub
    under pre-transition channel state theta, with the successor given as
    its offset in the joint index. The pairs are sorted by offset, k is the
    longest list, and `valid` marks the real entries, which come first.
    """
    g_size, r_size = space.g_sizes[i], space.r_sizes[i]
    stride = space.sub_strides[i]
    rows = [
        [
            sorted(
                (space.sensor_sub_index(i, *key) * stride, pr)
                for key, pr in sensor_delta_transitions(
                    sensor,
                    sub // g_size // r_size,
                    sub // g_size % r_size + 1,
                    sub % g_size,
                    theta,
                    scheduled,
                )
            )
            for theta in (0, 1)
        ]
        for sub in range(space.sub_sizes[i])
    ]
    shape = (space.sub_sizes[i], 2, max(len(row) for pair in rows for row in pair))
    offset = np.zeros(shape, dtype=np.int64)
    prob = np.zeros(shape)
    valid = np.zeros(shape, dtype=bool)
    for sub, pair in enumerate(rows):
        for theta, row in enumerate(pair):
            for c, (off, pr) in enumerate(row):
                offset[sub, theta, c] = off
                prob[sub, theta, c] = pr
                valid[sub, theta, c] = True
    return offset, prob, valid


@dataclass(frozen=True, eq=False)
class Kernels:
    """Every action's transition kernel, stored as its distinct rows.

    rows[a] is a matrix of shape (n_rows, n_states), CSR from build_kernels
    or PaddedRows from build_padded_kernels, and row_of maps each state to
    its distinct row, one map shared by every action, so the assembled
    kernel K_a is rows[a][row_of] (assembled needs the CSR rows). Iterating
    yields rows[a] in action order.

    blocks cuts the distinct rows for RVI's threads: one (lo, hi, views)
    per CPU, where views[a] is rows[a][lo:hi] as a CSR view of the same
    entries, so views[a] @ q is the same bits as (rows[a] @ q)[lo:hi].
    build_kernels fills it only for a model of more than TABLE_CHUNK
    distinct rows on more than one CPU; otherwise it is empty and RVI backs
    up rows on the calling thread.
    """

    rows: tuple
    row_of: np.ndarray
    blocks: tuple = ()

    @property
    def n_rows(self) -> int:
        return self.rows[0].shape[0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def assembled(self, a: int) -> sparse.csr_matrix:
        """K_a with one row per state."""
        return self.rows[a][self.row_of]


def _worker_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads(n_rows: int) -> int:
    """Threads for a model of n_rows distinct rows: one per CPU when the
    rows span more than one TABLE_CHUNK, else only the calling thread."""
    return _worker_count() if n_rows > TABLE_CHUNK else 1


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


def kernel_rows(spec: SystemSpec, space: StateSpace, actions: ActionSet) -> tuple:
    """Transition matrices of every action, built as their distinct rows.

    Returns (row_of, n_rows, parts): parts holds, in action order, each
    action's distinct rows as the numpy arrays (data, indices, indptr) of a
    CSR matrix of shape (n_rows, n_states), and row_of maps each state to
    its row. build_kernels wraps them as scipy matrices.

    Truncation makes most kernel rows copies of others: an age one step
    below its cap steps to the cap, as the cap itself does, so on
    threesensor (caps 7) a sensor's successors are the same at aoli in
    {6, 7}, and again at aori in {6, 7}. So each sensor's sub-indices fall
    into classes whose successor tables agree under both decisions and both
    channel states (_row_classes; 42 classes out of 56 sub-indices per
    threesensor sensor), and a joint state's row, for every action, depends
    only on its sensors' classes and theta. The rows are
    built once per class combination, indexed in mixed radix with sensor 1
    most significant and theta fastest, and row_of maps each state to its
    row: rows[a][row_of] is the assembled kernel K_a. On threesensor that is
    148,176 rows out of 351,232 and 15.6 M nonzeros out of 36.6 M.

    Each sensor's successor table is built once per (theta, scheduled), and
    one action's entries form a grid with axes (class_1..class_N, theta,
    c_1..c_N, theta'), each class standing for its first sub-index. The
    first N + 1 axes flatten to the row index. A successor's column is
    theta' plus the sensors' offsets, and the joint index puts sensor 1
    most significant and theta' fastest. With every table sorted by offset,
    a row's entries in grid order therefore have strictly increasing
    columns, so the grid flattens straight into CSR order with no sort and
    no duplicates. Padding comes last in each table and is dropped by the
    per-sensor masks, never by value, and each value is multiplied in the
    fixed order ((Omega[theta, theta'] * p_1) * p_2) * ....

    A row holds 2 * prod_i k_i(class_i, theta) entries, where k_i counts
    sensor i's real successors, which gives `indptr`. `data` and `indices`
    are then filled one block of whole leading-sensor classes (about
    TABLE_CHUNK rows) at a time. The assembled kernels are byte-identical
    to a state-by-state assembly from transition_distribution. This matters
    because the optimal policy has exactly tied actions, and a last-bit
    change in a kernel entry can flip which one the argmin picks.

    When n_rows > TABLE_CHUNK (the model spans more than one chunk), the
    actions are dealt out to one thread per CPU (at most one per action):
    with k threads, thread j builds actions j, j + k, ..., and thread 0 is
    the calling thread. Each action's arrays are computed by the same code
    as on one thread, so their bytes do not depend on the number of CPUs;
    a model of one chunk is built on the calling thread with no pool.
    """
    n = space.n_states
    n_sensors = space.n_sensors
    ndim = 2 * n_sensors + 2

    def on_axes(arr, axes):
        shape = [1] * ndim
        for ax, size in zip(axes, arr.shape):
            shape[ax] = size
        return arr.reshape(shape)

    # per sensor and decision: (column offset, prob, valid) of each class's
    # first sub-index, on the grid axes
    tables, class_of, n_classes = [], [], []
    for i, s in enumerate(spec.sensors):
        full = [_successor_table(space, i, s, scheduled) for scheduled in (False, True)]
        classes, first = _row_classes(full)
        class_of.append(classes)
        n_classes.append(len(first))
        tables.append([
            [on_axes(t[first], (i, n_sensors, n_sensors + 1 + i)) for t in table]
            for table in full
        ])
    n_rows = 2 * math.prod(n_classes)
    row_of = np.ravel_multi_index(np.ix_(*class_of, [0, 1]), n_classes + [2]).ravel()

    omega = on_axes(spec.channel.omega(), (n_sensors, ndim - 1))
    all_next = on_axes(np.ones(2, dtype=bool), (ndim - 1,))
    lead_rows = n_rows // n_classes[0]
    step = max(1, TABLE_CHUNK // lead_rows)

    def action_rows(action):
        factors = [tables[i][action[i]] for i in range(n_sensors)]
        counts = 2
        for i, (_, _, valid) in enumerate(factors):
            counts = counts * valid.sum(axis=n_sensors + 1 + i, keepdims=True)
        nnz = int(counts.sum())
        index_dtype = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n_rows + 1, dtype=index_dtype)
        np.cumsum(counts.ravel(), out=indptr[1:])
        indices = np.empty(nnz, dtype=index_dtype)
        data = np.empty(nnz)
        offsets = [offset.astype(index_dtype) for offset, _, _ in factors]
        theta_next = on_axes(np.arange(2, dtype=index_dtype), (ndim - 1,))
        for lo in range(0, n_classes[0], step):
            block = slice(lo, lo + step)
            # the mask starts on the theta' axis so that it ends up with the
            # grid's full shape: boolean indexing by a broadcast mask is
            # several times slower
            vals, cols, mask = omega, theta_next, all_next
            for i, (_, prob, valid) in enumerate(factors):
                lead = block if i == 0 else slice(None)
                vals = vals * prob[lead]
                cols = cols + offsets[i][lead]
                mask = mask & valid[lead]
            span = slice(indptr[lo * lead_rows], indptr[min(n_rows, (lo + step) * lead_rows)])
            data[span] = vals[mask]
            indices[span] = cols[mask]
        return data, indices, indptr

    def share(k):
        return [action_rows(action) for action in actions.actions[k::shares]]

    shares = min(_threads(n_rows), len(actions))
    parts = [None] * len(actions)
    with _shares(shares) as run:
        for k, built in enumerate(run(share)):
            parts[k::shares] = built
    return row_of, n_rows, parts


def build_kernels(spec: SystemSpec, space: StateSpace, actions: ActionSet) -> Kernels:
    """kernel_rows as Kernels of scipy CSR matrices: the one place a kernel
    becomes a sparse matrix, and the first import of scipy.sparse in the
    commands that build a joint kernel.

    With more than one CPU and more than TABLE_CHUNK distinct rows, the rows
    are also cut into Kernels.blocks for RVI, one per CPU: contiguous row
    ranges whose nonzeros, summed over all actions, are about equal (a
    search in the summed indptr). A block's matrices are views of the data
    and indices with a rebased indptr, so they copy no entries, and
    csr_matvec sums each of their rows over the same entries in the same
    order as the whole matrix does. Otherwise there are no blocks and
    nothing more is allocated.
    """
    from scipy import sparse

    row_of, n_rows, parts = kernel_rows(spec, space, actions)
    n = space.n_states
    rows = tuple(sparse.csr_matrix(part, shape=(n_rows, n)) for part in parts)
    workers = _threads(n_rows)
    if workers == 1:
        return Kernels(rows, row_of)

    def view(lo, hi, data, indices, indptr):
        span = slice(indptr[lo], indptr[hi])
        return sparse.csr_matrix(
            (data[span], indices[span], indptr[lo:hi + 1] - indptr[lo]), shape=(hi - lo, n)
        )

    # cut where the nonzeros of all actions, counted from row 0, pass each
    # k / workers of their total
    nnz = sum(indptr.astype(np.int64) for _, _, indptr in parts)
    cuts = np.searchsorted(nnz, nnz[-1] * np.arange(1, workers) / workers).tolist()
    bounds = [0, *cuts, n_rows]
    blocks = tuple(
        (lo, hi, tuple(view(lo, hi, *part) for part in parts))
        for lo, hi in zip(bounds, bounds[1:])
    )
    return Kernels(rows, row_of, blocks)


class PaddedRows:
    """One action's CSR rows padded to (slots, n_rows) arrays of values and
    columns: slot k of a row is its k-th entry, and the rows shorter than
    the longest end in zero values at column 0. Only `@ q` and `.shape`
    are offered, the parts of a scipy matrix that RVI reads."""

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple):
        counts = np.diff(indptr)
        rows = np.repeat(np.arange(shape[0]), counts)
        slot = np.arange(len(data)) - np.repeat(indptr[:-1], counts)
        width = (int(counts.max()), shape[0])
        self.values = np.zeros(width)
        self.columns = np.zeros(width, dtype=indices.dtype)
        self.values[slot, rows] = data
        self.columns[slot, rows] = indices
        self.shape = shape

    def __matmul__(self, q: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0])
        for values, columns in zip(self.values, self.columns):
            out += values * q[columns]
        return out


def build_padded_kernels(spec: SystemSpec, space: StateSpace, actions: ActionSet) -> Kernels:
    """kernel_rows as Kernels of PaddedRows, with no scipy.sparse.

    `rows[a] @ q` equals the scipy CSR product bit for bit when q is
    finite. scipy's csr_matvec sums each row from 0.0, left to right, with
    one rounded multiply and one rounded add per entry, and so does
    PaddedRows: every row starts at np.zeros, slot k adds entry k, and
    numpy rounds the product before the add (no fused multiply-add). The
    padding comes after a row's last entry and adds 0.0 * q[0], a zero,
    which leaves any sum unchanged (a sum that starts at +0.0 never becomes
    -0.0). A Python loop over the slots costs about 3x the scipy product on
    the joint kernels, so this is for small models: the myopic baseline.
    """
    row_of, n_rows, parts = kernel_rows(spec, space, actions)
    shape = (n_rows, space.n_states)
    return Kernels(tuple(PaddedRows(*part, shape) for part in parts), row_of)


def relative_value_iteration(
    kernels: Kernels,
    cost: np.ndarray,
    ref_index: int,
    epsilon: float = 1e-9,
    max_iter: int = 100000,
    action_set: Optional[ActionSet] = None,
) -> tuple:
    """Average-cost relative value iteration, normalized at ref_index.

    Iterates Q' = min_a [c + K_a Q] - (same at the reference state) until the
    sup norm of successive iterates is <= epsilon. Returns (ValueTable,
    PolicyTable); the gain is min_a Theta(ref, a) at termination and argmin
    ties resolve to the lowest action index.

    K_a Q is the backup of the distinct rows spread by row_of. Identical
    rows give identical sums, so this is the assembled kernel's backup bit
    for bit. The minimum over actions is taken on the distinct rows, before
    one spread by row_of and one add of the cost: the cost does not depend
    on the action and rounding is monotone, so min_a fl(c + x_a) equals
    fl(c + min_a x_a) exactly. The argmin at termination still reads each
    state's own sums c + x_a, because rounding can tie fl(c + x_a) where
    the x_a differ, and ties go to the lowest index; it is taken
    TABLE_CHUNK states at a time into a preallocated table. The backups are
    written into a preallocated (actions, n_rows) stack, and the iterates
    swap two buffers (the sup norm is taken in the one the next spread
    overwrites), so an iteration allocates only the matrix-vector products.

    With kernels.blocks, each block's backups and its columns' minimum are
    computed in a thread of its own, the calling thread taking block 0,
    and the spread, the normalization and the sup norm follow on the
    calling thread. Each row is summed by the same csr_matvec over the same
    entries in the same order, and the minimum is per column, so values,
    gain, iteration count and table are the same bits for any number of
    blocks, one included. The pool is opened in a with block, so it is
    joined also when ConvergenceError is raised. Kernels without blocks are
    backed up on the calling thread with no pool.
    """
    n = len(cost)
    q = np.zeros(n)
    q_next = np.empty(n)
    backups = np.empty((len(kernels), kernels.n_rows))
    best = np.empty(kernels.n_rows)
    blocks = kernels.blocks or ((0, kernels.n_rows, kernels.rows),)

    def back_up(k):
        lo, hi, views = blocks[k]
        for a, view in enumerate(views):
            backups[a, lo:hi] = view @ q
        np.min(backups[:, lo:hi], axis=0, out=best[lo:hi])

    sup_diff = np.inf
    with _shares(len(blocks)) as run:
        for it in range(max_iter):
            run(back_up)
            # mode="clip" is never clipping (row_of is in range) but, unlike
            # the default, writes into out without a buffer
            np.take(best, kernels.row_of, out=q_next, mode="clip")
            np.add(cost, q_next, out=q_next)
            gain = q_next[ref_index]
            q_next -= gain
            # the next take overwrites q, so the difference goes there
            np.subtract(q_next, q, out=q)
            sup_diff = np.abs(q, out=q).max()
            q, q_next = q_next, q
            if sup_diff <= epsilon:
                break
        else:
            raise ConvergenceError(
                f"relative value iteration: sup-diff {sup_diff:.3e} > {epsilon:g} "
                f"after {max_iter} iterations"
            )
    policy = np.empty(n, dtype=np.intp)
    for lo in range(0, n, TABLE_CHUNK):
        hi = min(n, lo + TABLE_CHUNK)
        theta = backups[:, kernels.row_of[lo:hi]]
        theta += cost[lo:hi]
        theta.argmin(axis=0, out=policy[lo:hi])
    return ValueTable(q, float(gain), it + 1), PolicyTable(policy, action_set)


def solve_optimal_policy(spec: SystemSpec) -> tuple:
    """Build the truncated MDP and solve it; returns (space, actions, vt, pt)."""
    space = StateSpace(spec)
    actions = ActionSet(spec.n_sensors, spec.m_budget)
    kernels = build_kernels(spec, space, actions)
    cost = cost_vector(space, spec)
    vt, pt = relative_value_iteration(
        kernels, cost, space.reference_index(), action_set=actions
    )
    return space, actions, vt, pt


def check_value_monotonicity(values: np.ndarray, space: StateSpace, slack: float) -> list:
    """Pairs where the value function decreases along a +1 age step.

    Compares every state against its neighbor with one age coordinate raised
    by one (same channel state, same arrival memory) and reports
    (state_index, neighbor_index, sensor, coordinate) where the neighbor's
    value is smaller by more than `slack`.
    """
    idx = np.arange(space.n_states)
    lanes = space.lanes()
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


def policy_chain_matrix(policy: PolicyTable, kernels: Kernels) -> sparse.csr_matrix:
    """Markov matrix of the chain induced by a deterministic policy.

    One row gather: state s takes row pi(s) * n_rows + row_of[s] of every
    action's distinct rows stacked in action order.
    """
    from scipy import sparse

    stacked = sparse.vstack(kernels.rows, format="csr")
    return stacked[policy.action_index * kernels.n_rows + kernels.row_of]


def mixture_chain_matrix(weights: Sequence[float], kernels: Kernels) -> sparse.csr_matrix:
    """Chain of a state-independent randomized policy: sum_a w_a K_a.

    The weighted sum is taken over the distinct rows, then spread by row_of.
    """
    if len(weights) != len(kernels) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must match kernels and sum to one")
    out = None
    for w, rows in zip(weights, kernels):
        if w == 0.0:
            continue
        out = w * rows if out is None else out + w * rows
    return out.tocsr()[kernels.row_of]


def _gmres_solve(a11: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Restarted GMRES on a11 x = b, then passes on the remaining residual
    while each pass converges; one that runs out of cycles would stall again."""
    from scipy.sparse.linalg import gmres

    x = np.zeros(len(b))
    for _ in range(GMRES_PASSES):
        dx, info = gmres(
            a11, b - a11 @ x, rtol=GMRES_RTOL, atol=0.0,
            restart=GMRES_RESTART, maxiter=GMRES_CYCLES,
        )
        x += dx
        if info != 0:
            break
    return x


def _lu_solve(a11: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    from scipy.sparse.linalg import spsolve

    return spsolve(a11.tocsc(), b)


def stationary_distribution(p: sparse.csr_matrix, start_index: int) -> np.ndarray:
    """Stationary distribution of the recurrent class reachable from start.

    Breadth-first search from start_index gives the reachable states; their
    strongly connected components that no edge leaves are the closed
    classes. Raises RuntimeError unless exactly one closed class is
    reachable (the long-run cost would otherwise depend on chance).
    Transient and unreachable states get zero mass.

    On that class, with transition matrix Q, the balance equations are
    A xi = 0 with A = (I - Q)^T, which fix xi only up to scale. The first
    state is pinned to xi_0 = 1 and its equation dropped, leaving the
    nonsingular system A[1:, 1:] xi[1:] = -A[1:, 0] (Stewart 1994, ch. 2);
    the pin is valid because every state of an irreducible class has
    positive mass. Restarted GMRES solves it (Saad & Schultz 1986), and a
    second pass solves for the correction of the first pass's residual,
    which takes the answer down to rounding level. Power iteration is not
    used: it does not converge on periodic chains such as round robin's.
    A one-state class gets mass 1 without a solve.

    GMRES's own convergence flag is not trusted (its tolerance is relative
    to a right-hand side that can be tiny). The answer certifies itself
    instead: after normalizing, the L1 balance residual |xi Q - xi|_1 must
    be <= STATIONARY_RESIDUAL and every state of the class must have
    positive mass. Slowly mixing classes (a 50-state birth-death chain, say)
    can stall restarted GMRES short of that; their system is then solved
    again by sparse LU, whose cost does not depend on the mixing. If that
    answer fails the same check too, ConvergenceError is raised with the
    residual and the class size.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = p.shape[0]
    reach = np.sort(breadth_first_order(p, start_index, return_predecessors=False))
    sub = p[np.ix_(reach, reach)].tocsr()
    n_comp, labels = connected_components(sub, directed=True, connection="strong")
    edges = sub.tocoo()
    leaving = labels[edges.row] != labels[edges.col]
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[labels[edges.row[leaving]]] = False
    closed = np.flatnonzero(is_closed)
    if len(closed) != 1:
        raise RuntimeError(
            f"{len(closed)} recurrent classes reachable from state {start_index}"
        )
    members = np.flatnonzero(labels == closed[0])
    m = len(members)
    xi = np.ones(1)
    if m > 1:
        q = sub[np.ix_(members, members)]
        a = (sparse.identity(m, format="csr") - q).T.tocsr()
        a11 = a[1:, 1:]
        b = -a[1:, 0].toarray().ravel()
        for solve in (_gmres_solve, _lu_solve):
            xi = np.concatenate(([1.0], solve(a11, b)))
            xi /= xi.sum()
            residual = float(np.abs(q.T @ xi - xi).sum())
            if residual <= STATIONARY_RESIDUAL and np.all(xi > 0.0):
                break
        else:
            raise ConvergenceError(
                f"stationary solve: L1 residual {residual:.3e} (bound "
                f"{STATIONARY_RESIDUAL:g}), smallest mass {xi.min():.3e}, "
                f"on a {m}-state closed class, by GMRES and by sparse LU"
            )
    xi_full = np.zeros(n)
    xi_full[reach[members]] = xi
    return xi_full


def chain_average_cost(p: sparse.csr_matrix, cost: np.ndarray, start_index: int) -> float:
    xi = stationary_distribution(p, start_index)
    return float(xi @ cost)


def policy_average_cost(
    policy: PolicyTable,
    kernels: Kernels,
    cost: np.ndarray,
    start_index: int,
) -> float:
    """Exact long-run average cost of a deterministic stationary policy."""
    return chain_average_cost(policy_chain_matrix(policy, kernels), cost, start_index)


def average_cost_by_sensor(
    xi: np.ndarray, space: StateSpace, spec: SystemSpec
) -> np.ndarray:
    """Per-sensor share of the stationary average cost."""
    penalties = penalty_rows(spec.sensors)
    return np.array([xi @ row[aori] for row, aori in zip(penalties, space.lanes().aori)])


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
    Each line holds the cells cli._Writer would print for the same numbers,
    joined by commas and ended by "\r\n". No per-row object is made: the
    coordinate columns and action_bits index a small table of their labels
    by their codes, the value column does the same with a table of its
    distinct bit patterns, each formatted once by VALUE_FORMAT, and
    state_index is decimal digit arithmetic on the chunk's indices.
    """
    n = space.n_states
    sensors = range(space.n_sensors)
    theta, aoli, aori, arrival = space.lanes()
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
