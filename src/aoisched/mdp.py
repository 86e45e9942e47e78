"""Exact truncated-MDP machinery.

State enumeration, the factored transition kernel (channel factor times
per-sensor case table, with a Markov-arrival variant), relative value
iteration for the average-cost optimal policy, a value-monotonicity checker,
and exact policy evaluation through the stationary distribution of the
policy-induced chain's one closed class, by GMRES or sparse LU, certified by
its L1 balance residual (stationary_distribution). A chain is searched from
the start state only, so its closed classes are the ones the start reaches,
with rows generated from the per-sensor factors as the search first needs
them, never from assembled kernels, and it is built lumped: the reached
states that share a distinct row and the policy's group (action, round-robin
cursor, or the mixture's one group) are one state (reachable_chain).

factor_rows is the one row generator: the joint solver, exact policy
evaluation, the per-sensor SISP solves, the randomized chain and the myopic
baseline all read from it. Truncation saturates the ages, so most kernel
rows repeat (a sensor's successors are the same one step below a cap as at
it), and a state's row is one of the distinct rows that Factors indexes by
theta and its sensors' row classes, theta slowest, with row_of, the state
-> distinct-row map all actions share. The rows are written straight from
the per-sensor successor tables, whose entries are ordered so that every
row comes out sorted by column, with no COO step or duplicate summing; the
assembled kernels are byte-identical to a state-by-state assembly from
transition_distribution (kernel_rows says why that matters). factor_rows
fills listed rows: kernel_rows lists every row of every action, for the
one-chunk models, and the chain builders list the rows their chain reaches
(on threesensor, at most 38,275 of the 148,176 distinct rows).
build_kernels fills the joint model's rows on the open grid of whole
leading-sensor classes instead, as the blocks of Kernels: each CPU's share
of classes is two blocks, its theta = 0 rows and its theta = 1 rows, and a
block's rows of an action are one scipy CSR matrix. The theta = 1 matrix
reads the theta = 0 matrix's columns wherever the sensors' successor tables
agree in both channel states (on threesensor, everywhere). The blocks
stacked in row order and indexed by row_of are the assembled kernels.
build_padded_kernels pads kernel_rows into PaddedRows instead, a numpy
operator whose product adds in scipy's order and so gives the same bits;
the myopic baseline is solved on it, as one block. RVI, the one reader of
Kernels, backs up the distinct rows block by block, takes the minimum over
actions there and spreads it by row_of.
scipy.sparse is imported only where a sparse matrix is made or combined,
so the per-sensor SISP solves, which densify kernel_rows with numpy, and
the myopic solve never load it.
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
import itertools
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

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
    "Factors",
    "build_factors",
    "factor_rows",
    "Kernels",
    "kernel_rows",
    "build_kernels",
    "PaddedRows",
    "build_padded_kernels",
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
# and the GMRES restart length, tolerance, restart cycles and passes
STATIONARY_RESIDUAL = 1e-12
GMRES_RESTART = 20
GMRES_RTOL = 1e-12
GMRES_CYCLES = 100
GMRES_PASSES = 2
# The largest closed class the sparse-LU fallback solves; above it a class
# GMRES cannot certify raises ConvergenceError at once, since the LU fill-in
# grows so fast that a large class would appear to hang
LU_MAX_STATES = 20_000


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
        if js.theta not in (0, 1):
            raise ValueError(f"channel state theta {js.theta} is not 0 or 1")
        idx = 0
        for i in range(self.n_sensors):
            st = js.sensors[i]
            g = 1 if js.prev_arrival[i] else 0
            idx = idx * self.sub_sizes[i] + self.sensor_sub_index(i, st.aoli, st.aori, g)
        return idx * 2 + js.theta

    def encode_array(self, lanes: LaneState) -> np.ndarray:
        """encode in every lane of a LaneState; a Bernoulli sensor's arrival
        bit is ignored, as encode ignores its prev_arrival. Each sensor's
        sub-index is one ravel_multi_index pass, which also refuses an age
        outside the truncation, on either side, as encode does. The last
        sensor's stride is 2, so theta is its pass's fastest digit, refused
        outside {0, 1} in the same pass."""
        last = self.n_sensors - 1
        idx = 0
        for i in range(self.n_sensors):
            coords = (lanes.aoli[i], lanes.aori[i] - 1)
            dims = (self.l_sizes[i], self.r_sizes[i])
            if self.g_sizes[i] == 2:
                coords += (lanes.arrival[i],)
                dims += (2,)
            if i == last:
                coords += (lanes.theta,)
                dims += (2,)
            try:
                sub = np.ravel_multi_index(coords, dims)
            except ValueError:
                what = "state or channel state theta" if i == last else "state"
                raise ValueError(f"sensor {i} {what} outside truncation") from None
            idx = idx + (sub if i == last else sub * self.sub_strides[i])
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


def cost_vector(space: StateSpace, spec: SystemSpec) -> np.ndarray:
    """Stage cost of every state, with no lanes(): lane_cost of each
    sensor's penalties at the monitor ages of its sub-indices, broadcast
    over the grid of the joint index (sensor 1 most significant, theta
    fastest), so every state's sum adds the same terms in the same order."""
    grid = [*space.sub_sizes, 2]
    penalties = []
    for i, row in enumerate(penalty_rows(spec.sensors)):
        aori = np.arange(space.sub_sizes[i]) // space.g_sizes[i] % space.r_sizes[i] + 1
        shape = [1] * len(grid)
        shape[i] = space.sub_sizes[i]
        penalties.append(row[aori].reshape(shape))
    return np.broadcast_to(lane_cost(penalties), grid).ravel()


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
    """Every action's transition kernel, stored as its distinct rows in
    blocks of consecutive rows, grouped into the shares that RVI backs up
    in a thread each.

    shares holds one tuple of blocks per thread, and a block is (lo, hi,
    mats), where mats[a] is action a's distinct rows lo..hi-1: a scipy CSR
    matrix from build_kernels, PaddedRows from build_padded_kernels, or any
    matrix whose `@ q` gives those rows' sums. The blocks cover the rows
    0..n_rows-1 once. row_of maps each state to its distinct row, one map
    shared by every action, so the assembled kernel K_a is the blocks'
    mats[a] stacked in row order, indexed by row_of.
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


def build_factors(spec: SystemSpec, space: StateSpace) -> Factors:
    """Each sensor's successor tables, built once per decision, its row
    classes, and the state -> distinct-row map."""
    tables, class_of, n_classes = [], [], []
    for i, s in enumerate(spec.sensors):
        full = [_successor_table(space, i, s, scheduled) for scheduled in (False, True)]
        classes, first = _row_classes(full)
        class_of.append(classes)
        n_classes.append(len(first))
        tables.append(tuple(tuple(t[first] for t in table) for table in full))
    *classes, theta = np.ix_(*class_of, [0, 1])
    row_of = np.ravel_multi_index((theta, *classes), [2, *n_classes]).ravel()
    return Factors(tuple(tables), row_of, spec.channel.omega(), space.n_states)


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


def kernel_rows(factors: Factors, actions: ActionSet) -> list:
    """Transition matrices of every action, built as their distinct rows.

    Returns, in action order, each action's distinct rows as the numpy
    arrays (data, indices, indptr) of a CSR matrix of shape
    (factors.n_rows, n_states), factor_rows of every row, so that with
    row_of from the factors, row row_of[s] is state s's row of K_a. The
    per-sensor SISP solves densify them and build_padded_kernels pads them,
    all on the calling thread; build_kernels generates the joint model's
    rows itself, in its row blocks. On threesensor the distinct rows hold
    15.6 M nonzeros out of 36.6 M.

    The assembled kernels are byte-identical to a state-by-state assembly
    from transition_distribution. This matters because the optimal policy
    has exactly tied actions, and a last-bit change in a kernel entry can
    flip which one the argmin picks.
    """
    every = np.arange(factors.n_rows)
    return [factor_rows(factors, action, every) for action in actions.actions]


def _theta_blocks(factors: Factors, action, lo: int, hi: int) -> tuple:
    """One action's distinct rows of whole leading-sensor classes in both
    channel states, as two scipy CSR matrices: rows lo..hi-1, which have
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
    from scipy import sparse

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
        sparse.csr_matrix(arrays, shape=(hi - lo, factors.n_states))
        for arrays in zip(data, indices, indptr)
    )


def build_kernels(factors: Factors, space: StateSpace, actions: ActionSet) -> Kernels:
    """Every action's distinct rows as Kernels of scipy CSR matrices over
    space: the first import of scipy.sparse in the commands that build a
    joint kernel.

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
    """kernel_rows as Kernels of PaddedRows, in one block, with no
    scipy.sparse.

    Each action's `rows @ q` equals the scipy CSR product bit for bit when
    q is finite. scipy's csr_matvec sums each row from 0.0, left to right,
    with one rounded multiply and one rounded add per entry, and so does
    PaddedRows: every row starts at np.zeros, slot k adds entry k, and
    numpy rounds the product before the add (no fused multiply-add). The
    padding comes after a row's last entry and adds 0.0 * q[0], a zero,
    which leaves any sum unchanged (a sum that starts at +0.0 never becomes
    -0.0). A Python loop over the slots costs about 3x the scipy product on
    the joint kernels, so this is for small models: the myopic baseline.
    """
    factors = build_factors(spec, space)
    shape = (factors.n_rows, space.n_states)
    rows = tuple(PaddedRows(*part, shape) for part in kernel_rows(factors, actions))
    return Kernels((((0, factors.n_rows, rows),),), factors.row_of)


def relative_value_iteration(kernels: Kernels, cost: np.ndarray, ref_index: int) -> tuple:
    """Average-cost relative value iteration, normalized at ref_index.

    Iterates Q' = min_a [c + K_a Q] - (same at the reference state) until the
    sup norm of successive iterates is <= RVI_EPSILON, raising
    ConvergenceError after RVI_MAX_ITER iterations. Returns (ValueTable,
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
    TABLE_CHUNK states at a time into a preallocated table. The backups are
    written into a preallocated (actions, n_rows) stack, and the iterates
    swap two buffers (the sup norm is taken in the one the next spread
    overwrites), so an iteration allocates only the matrix-vector products.

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
                backups[a, lo:hi] = mat @ q
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
            sup_diff = np.abs(q, out=q).max()
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


def solve_optimal_policy(spec: SystemSpec) -> tuple:
    """Build the truncated MDP and solve it; returns (space, actions, vt, pt)."""
    space = StateSpace(spec)
    actions = ActionSet(spec.n_sensors, spec.m_budget)
    kernels = build_kernels(build_factors(spec, space), space, actions)
    cost = cost_vector(space, spec)
    vt, pi = relative_value_iteration(kernels, cost, space.reference_index())
    return space, actions, vt, PolicyTable(pi, actions)


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


class Chain(NamedTuple):
    """A chain lumped on its keys (reachable_chain): p on the keys, rep
    the row of each key on the states. With pi the stationary distribution
    of p, the state masses are pi @ rep and the exact cost
    pi @ (rep @ cost) (chain_average_cost)."""

    p: sparse.csr_matrix
    rep: sparse.csr_matrix


def reachable_chain(make, locate, shape: tuple, start_index: int, n: int) -> Chain:
    """A Markov chain of n states, searched from start_index and built on
    the keys of the states it reaches, one row per key.

    locate(states) returns (group, row): state s's row is row row[s] of
    group group[s], where shape = (groups, rows per group); a group is an
    action, a round-robin cursor, or the one group of a mixture. Such a
    (group, row) pair is a key, and every state of a key has the same row.
    make(group, rows) returns the CSR arrays (data, indices, indptr) of
    that group's rows for increasing row indices `rows`, sorted by column,
    their columns numbered in the chain. A frontier search from start_index
    follows every stored entry, explicit zeros included, as csgraph's
    breadth-first search does. Each key's row is made once, when a frontier
    first reaches a state of it, and its columns are read then: every state
    a row made earlier reaches is already seen, so a frontier reads the
    columns of the rows made for it alone.

    The keys are numbered by their smallest reached state, so the closed
    class's first key, the one stationary_distribution pins, is the key of
    the class's smallest state, the state the unlumped chain pins, unless a
    transient state below it shares a key with the class. rep stacks their
    rows in that order, and p = rep C, where C merges each state into its
    key: a row's entries of one key are summed in column order, and a zero
    sum stays stored. Merging states with equal rows is an ordinary lumping
    (Kemeny & Snell 1960, 6.3): p's stationary distribution is the chain's,
    summed over each key.
    """
    from scipy import sparse

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
            parts.append(sparse.csr_matrix(make(g, rows), shape=(len(rows), n)))
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
    rep = sparse.vstack(parts, format="csr")
    parts.clear()
    rep = rep[order]
    # each row's entries by key, in column order within a key: a stable
    # sort, so that scipy's sum_duplicates, which sums runs of one column
    # in stored order, sorts nothing. The rows are in order and most of
    # their keys too, which a stable sort of one integer key runs through
    # about ten times faster than np.lexsort
    cols = key_of[rep.indices]
    entry = np.repeat(np.arange(k), np.diff(rep.indptr))
    entry *= k
    entry += cols
    entry = np.argsort(entry, kind="stable")
    p = sparse.csr_matrix((rep.data[entry], cols[entry], rep.indptr.copy()), shape=(k, k))
    p.has_sorted_indices = True
    p.sum_duplicates()
    return Chain(p, rep)


def policy_chain_matrix(policy: PolicyTable, factors: Factors, start_index: int) -> Chain:
    """Chain of a deterministic policy on the states reachable from start,
    lumped on (action, distinct row) keys.

    State s's row is distinct row row_of[s] under its action pi(s),
    generated by factor_rows once per key reached. Returns the Chain of
    reachable_chain.
    """
    actions = policy.action_set.actions
    return reachable_chain(
        lambda a, rows: factor_rows(factors, actions[a], rows),
        lambda s: (policy.action_index[s], factors.row_of[s]),
        (len(actions), factors.n_rows),
        start_index,
        factors.n_states,
    )


def mixture_chain_matrix(
    weights: Sequence[float], factors: Factors, actions: ActionSet, start_index: int
) -> Chain:
    """Chain of a state-independent randomized policy, sum_a w_a K_a over
    `actions`, on the states reachable from start, lumped on its distinct
    rows (one group). Returns the Chain of reachable_chain.

    The weighted sum is taken in action order, with the same scipy products
    and sums as over every distinct row, but only over the distinct rows
    the search reaches, each mixed once, when a frontier first uses it: a
    row's sum reads that row alone. A sum of two or more actions drops the
    entries that come to zero, so the search follows the mixed rows, not
    the kernels'.
    """
    from scipy import sparse

    if len(weights) != len(actions) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must match actions and sum to one")

    def mix(_, rows):
        out = None
        for w, action in zip(weights, actions.actions):
            if w == 0.0:
                continue
            term = sparse.csr_matrix(
                factor_rows(factors, action, rows), shape=(len(rows), factors.n_states)
            )
            out = w * term if out is None else out + w * term
        out = out.tocsr()
        return out.data, out.indices, out.indptr

    return reachable_chain(
        mix,
        lambda s: (np.zeros(len(s), dtype=np.intp), factors.row_of[s]),
        (1, factors.n_rows),
        start_index,
        factors.n_states,
    )


def _gmres_solve(a: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Restarted GMRES on the pinned system a[1:, 1:] x = b, then passes on
    the remaining residual while each pass converges; one that runs out of
    cycles would stall again.

    The operator is x -> (a @ [0, x])[1:], over a itself, with no copy of
    a[1:, 1:]. Its products have the bits of a[1:, 1:] @ x: csr_matvec sums
    each row from +0.0, and an entry in column 0 adds its product with 0.0,
    a signed zero, which leaves any such sum unchanged."""
    from scipy.sparse.linalg import LinearOperator, gmres

    padded = np.zeros(a.shape[0])

    def matvec(x):
        padded[1:] = x.ravel()
        return (a @ padded)[1:]

    a11 = LinearOperator((len(b), len(b)), matvec=matvec, dtype=np.float64)
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


def _lu_solve(a: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU on the pinned system a[1:, 1:] x = b, the one path that
    copies a[1:, 1:]."""
    from scipy.sparse.linalg import spsolve

    return spsolve(a[1:, 1:].tocsc(), b)


def _restricted(p: sparse.csr_matrix, keep: np.ndarray) -> sparse.csr_matrix:
    """p[ix_(keep, keep)] as CSR, for increasing indices keep; p itself when
    keep is every state and p is CSR in canonical format, where the copy
    would have the same bytes."""
    if len(keep) == p.shape[0] and p.format == "csr" and p.has_canonical_format:
        return p
    return p[np.ix_(keep, keep)].tocsr()


def _certified(xi: np.ndarray, residual: float) -> bool:
    return residual <= STATIONARY_RESIDUAL and bool(np.all(xi > 0.0))


def _pinned_solve(q: sparse.csr_matrix) -> tuple:
    """(xi, its L1 residual) on the class q with its first state pinned,
    by GMRES, then by sparse LU (stationary_distribution)."""
    from scipy import sparse

    m = q.shape[0]
    a = (sparse.identity(m, format="csr") - q).T.tocsr()
    b = -a[1:, 0].toarray().ravel()
    for solve in (_gmres_solve,) if m > LU_MAX_STATES else (_gmres_solve, _lu_solve):
        xi = np.concatenate(([1.0], solve(a, b)))
        xi /= xi.sum()
        residual = float(np.abs(q.T @ xi - xi).sum())
        if _certified(xi, residual):
            break
    return xi, residual


def stationary_distribution(p: sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution of the one recurrent class of p.

    The strongly connected components of p that no edge leaves are its
    closed classes. Raises RuntimeError unless there is exactly one (the
    long-run cost would otherwise depend on chance); the other states get
    zero mass. The chain builders (reachable_chain) build only the states
    their start reaches, so their closed classes are the start's.

    On that class, with transition matrix Q (p itself when the class is all
    of p), the balance equations A xi = 0 with A = (I - Q)^T fix xi only up
    to scale. The class's first state (reachable_chain says which on a
    lumped chain) is pinned to xi_0 = 1 and its equation dropped, leaving
    the nonsingular system A[1:, 1:] xi[1:] = -A[1:, 0] (Stewart 1994,
    ch. 2), as every state of an irreducible class has positive mass.
    Restarted GMRES solves it (Saad & Schultz 1986), and a second pass
    solves for the correction of the first pass's residual, which takes the
    answer down to rounding level. Power iteration is not used: it does not
    converge on periodic chains such as round robin's.

    GMRES's own convergence flag is not trusted (its tolerance is relative
    to a right-hand side that can be tiny). The answer certifies itself
    instead: after normalizing, the L1 balance residual |xi Q - xi|_1 must
    be <= STATIONARY_RESIDUAL and every state of the class must have
    positive mass. Slowly mixing classes (a 50-state birth-death chain, say)
    can stall restarted GMRES short of that; their system is then solved
    again by sparse LU, whose cost does not depend on the mixing, on a class
    of at most LU_MAX_STATES states. A first state of negligible mass makes
    the pinned system singular to rounding and the masses non-finite; the
    class is then solved again, pinned at the state most probability flows
    into. An answer that fails the check raises ConvergenceError with its
    residual and the class size.
    """
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(p, directed=True, connection="strong")
    # a class is closed when no stored entry leaves it: compare each entry's
    # row label with its column's, TABLE_CHUNK rows at a time
    is_closed = np.ones(n_comp, dtype=bool)
    for lo in range(0, len(labels), TABLE_CHUNK):
        hi = min(len(labels), lo + TABLE_CHUNK)
        span = slice(p.indptr[lo], p.indptr[hi])
        row_label = np.repeat(labels[lo:hi], np.diff(p.indptr[lo:hi + 1]))
        is_closed[row_label[row_label != labels[p.indices[span]]]] = False
    closed = np.flatnonzero(is_closed)
    if len(closed) != 1:
        raise RuntimeError(f"{len(closed)} recurrent classes in the chain")
    members = np.flatnonzero(labels == closed[0])
    m = len(members)
    xi = np.ones(1)
    if m > 1:
        q = _restricted(p, members)
        xi, residual = _pinned_solve(q)
        if not np.isfinite(residual):
            # singular to rounding: the first state's mass is negligible,
            # so pin the state most probability flows into
            order = np.roll(np.arange(m), -int(np.argmax(q.sum(axis=0))))
            moved = _pinned_solve(q[order][:, order].tocsr())
            if _certified(*moved):
                xi[order], residual = moved
        if not _certified(xi, residual):
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
    chain's columns are read modulo len(cost), so that round robin's
    cursor-augmented states read their state's cost."""
    from scipy import sparse

    rep = chain.rep
    rep_cost = sparse.csr_matrix(
        (rep.data, rep.indices % len(cost), rep.indptr), shape=(rep.shape[0], len(cost))
    ) @ cost
    return float(stationary_distribution(chain.p) @ rep_cost)


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
    Each line holds the cells cli._write_csv writes for the same numbers,
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
