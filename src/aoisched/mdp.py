"""Exact truncated-MDP machinery.

State enumeration, the factored transition kernel (channel factor times
per-sensor case table, with a Markov-arrival variant), relative value
iteration for the average-cost optimal policy, a value-monotonicity checker,
and exact policy evaluation through the stationary distribution of the
policy-induced chain: restarted GMRES on the pinned balance equations of the
single closed class reachable from the start state, certified by its L1
balance residual, with a sparse LU solve when GMRES misses the bound
(stationary_distribution).

build_kernels is the one kernel builder: the joint solver, exact policy
evaluation, the per-sensor SISP solves, the randomized chain and the myopic
baseline all read from it. It assembles each kernel from the per-sensor
successor tables by broadcasting, and its CSR arrays are byte-identical to a
state-by-state assembly from transition_distribution (build_kernels says
why that matters).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import gmres, spsolve

from .dynamics import JointState, SensorState, initial_state
from .model import ConvergenceError, SensorSpec, SystemSpec, penalty_table

__all__ = [
    "StateSpace",
    "ActionSet",
    "ValueTable",
    "PolicyTable",
    "sensor_delta_transitions",
    "transition_distribution",
    "stage_cost",
    "cost_vector",
    "build_kernels",
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

# Column groups of a full state table, and the rows table_rows converts at once
TABLE_COLUMNS = ("state_index", "aoli", "aori", "arrmem", "theta", "value", "action_bits")
TABLE_CHUNK = 1 << 14

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
        self._coords = None

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

    def encode_array(self, theta, aoli, aori, arrival) -> np.ndarray:
        """encode over arrays: theta is an int array, aoli, aori and arrival
        hold one such array per sensor (the layout of _coordinate_arrays)."""
        idx = theta
        for i in range(self.n_sensors):
            if aoli[i].max() >= self.l_sizes[i] or aori[i].max() > self.r_sizes[i]:
                raise ValueError(f"sensor {i} state outside truncation")
            sub = aoli[i] * self.r_sizes[i] + (aori[i] - 1)
            if self.g_sizes[i] == 2:
                sub = sub * 2 + arrival[i]
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

    # cached coordinate arrays for vectorized table operations
    def _coordinate_arrays(self):
        if self._coords is None:
            idx = np.arange(self.n_states)
            theta = idx % 2
            rest = idx // 2
            aoli, aori, g, psi = [], [], [], []
            for i in range(self.n_sensors - 1, -1, -1):
                sub = rest % self.sub_sizes[i]
                rest = rest // self.sub_sizes[i]
                gi = sub % self.g_sizes[i]
                t = sub // self.g_sizes[i]
                aoli.append(t // self.r_sizes[i])
                aori.append(t % self.r_sizes[i] + 1)
                g.append(gi)
                psi.append(sub * 2 + theta)
            for arr in (aoli, aori, g, psi):
                arr.reverse()
            self._coords = (theta, aoli, aori, g, psi)
        return self._coords

    def aoli_array(self, i: int) -> np.ndarray:
        return self._coordinate_arrays()[1][i]

    def aori_array(self, i: int) -> np.ndarray:
        return self._coordinate_arrays()[2][i]

    def arrival_bit_array(self, i: int) -> np.ndarray:
        return self._coordinate_arrays()[3][i]

    def per_sensor_index_array(self, i: int) -> np.ndarray:
        """Map joint index -> index in sensor i's own single-sensor space."""
        return self._coordinate_arrays()[4][i]

    def aori_stride(self, i: int) -> int:
        return self.g_sizes[i] * self.sub_strides[i]

    def aoli_stride(self, i: int) -> int:
        return self.r_sizes[i] * self.g_sizes[i] * self.sub_strides[i]


class ActionSet:
    """All binary schedules with at most M ones, idle first.

    Actions are ordered by (number scheduled, bitmask with sensor 0 as the
    low bit); argmin ties therefore resolve toward not transmitting.
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
    cost = np.zeros(space.n_states)
    for i, s in enumerate(spec.sensors):
        table = penalty_table(s.penalty, s.max_aori)
        cost += table[space.aori_array(i)]
    return cost


def _successor_table(space: StateSpace, i: int, sensor: SensorSpec, scheduled: bool) -> tuple:
    """Sensor i's successors for one scheduling decision, as padded arrays.

    Returns (offset, prob, valid), each of shape (sub_size, 2, k): entry
    [sub, theta, c] is the c-th pair of sensor_delta_transitions, in its own
    order, from sub-index sub under pre-transition channel state theta, with
    the successor given as its offset in the joint index. k is the longest
    list; `valid` marks the real entries.
    """
    g_size, r_size = space.g_sizes[i], space.r_sizes[i]
    rows = [
        [
            sensor_delta_transitions(
                sensor,
                sub // g_size // r_size,
                sub // g_size % r_size + 1,
                sub % g_size,
                theta,
                scheduled,
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
            for c, (key, pr) in enumerate(row):
                offset[sub, theta, c] = space.sensor_sub_index(i, *key) * space.sub_strides[i]
                prob[sub, theta, c] = pr
                valid[sub, theta, c] = True
    return offset, prob, valid


def build_kernels(spec: SystemSpec, space: StateSpace, actions: ActionSet) -> list:
    """Sparse transition matrix per action, rows summing to one.

    Assembled from the factors by broadcasting: each sensor's successor table
    is built once per (theta, scheduled), and one action's entries form a
    grid with axes (sub_1..sub_N, theta, theta', c_1..c_N). The first N + 1
    axes flatten to the row index, and the rest enumerate a row's entries
    in the order of transition_distribution. Each value is multiplied in the
    fixed order ((Omega[theta, theta'] * p_1) * p_2) * ..., and padding is
    dropped by the per-sensor masks, never by value. The entries then pass
    through coo_matrix(...).tocsr() and sum_duplicates(), so `indptr`,
    `indices` and `data` are byte-identical to a state-by-state assembly
    from transition_distribution. This matters because the optimal policy
    has exactly tied actions, and a last-bit change in a kernel entry can
    flip which one the argmin picks.
    """
    n = space.n_states
    n_sensors = space.n_sensors
    ndim = 2 * n_sensors + 2
    index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64

    def on_axes(arr, axes):
        shape = [1] * ndim
        for ax, size in zip(axes, arr.shape):
            shape[ax] = size
        return arr.reshape(shape)

    # per sensor and decision: (column offset, prob, valid) on the grid axes
    factors = []
    for i, s in enumerate(spec.sensors):
        axes = (i, n_sensors, n_sensors + 2 + i)
        by_action = []
        for scheduled in (False, True):
            offset, prob, valid = _successor_table(space, i, s, scheduled)
            by_action.append(
                [on_axes(t, axes) for t in (offset.astype(index_dtype), prob, valid)]
            )
        factors.append(by_action)

    omega = on_axes(spec.channel.omega(), (n_sensors, n_sensors + 1))
    theta_next = on_axes(np.arange(2, dtype=index_dtype), (n_sensors + 1,))
    row_index = on_axes(
        np.arange(n, dtype=index_dtype).reshape(*space.sub_sizes, 2), range(n_sensors + 1)
    )
    kernels = []
    for action in actions.actions:
        vals, cols, mask = omega, theta_next, True
        for i in range(n_sensors):
            offset, prob, valid = factors[i][action[i]]
            vals = vals * prob
            cols = cols + offset
            mask = mask & valid
        mask = np.broadcast_to(mask, vals.shape)
        rows = np.broadcast_to(row_index, vals.shape)[mask]
        cols = cols[mask]
        vals = vals[mask]
        mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mat.sum_duplicates()
        kernels.append(mat)
    return kernels


def relative_value_iteration(
    kernels: Sequence,
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
    """
    n = len(cost)
    q = np.zeros(n)
    theta_stack = np.empty((len(kernels), n))
    sup_diff = np.inf
    for it in range(max_iter):
        for a, k in enumerate(kernels):
            theta_stack[a] = cost + k @ q
        q_next = theta_stack.min(axis=0)
        gain = q_next[ref_index]
        q_next -= gain
        sup_diff = np.max(np.abs(q_next - q))
        q = q_next
        if sup_diff <= epsilon:
            policy = theta_stack.argmin(axis=0)
            return ValueTable(q, float(gain), it + 1), PolicyTable(policy, action_set)
    raise ConvergenceError(
        f"relative value iteration: sup-diff {sup_diff:.3e} > {epsilon:g} "
        f"after {max_iter} iterations"
    )


def solve_optimal_policy(
    spec: SystemSpec, epsilon: float = 1e-9, max_iter: int = 100000
) -> tuple:
    """Build the truncated MDP and solve it; returns (space, actions, vt, pt)."""
    space = StateSpace(spec)
    actions = ActionSet(spec.n_sensors, spec.m_budget)
    kernels = build_kernels(spec, space, actions)
    cost = cost_vector(space, spec)
    vt, pt = relative_value_iteration(
        kernels, cost, space.reference_index(), epsilon, max_iter, actions
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
    violations = []
    for i in range(space.n_sensors):
        for coord, arr, cap, stride in (
            ("aoli", space.aoli_array(i), space.l_sizes[i] - 1, space.aoli_stride(i)),
            ("aori", space.aori_array(i), space.r_sizes[i], space.aori_stride(i)),
        ):
            mask = arr < cap
            src = idx[mask]
            dst = src + stride
            bad = values[dst] < values[src] - slack
            for s, d in zip(src[bad], dst[bad]):
                violations.append((int(s), int(d), i, coord))
    return violations


def policy_chain_matrix(policy: PolicyTable, kernels: Sequence) -> sparse.csr_matrix:
    """Markov matrix of the chain induced by a deterministic policy."""
    n = kernels[0].shape[0]
    rows, cols, vals = [], [], []
    for a, k in enumerate(kernels):
        sel = np.nonzero(policy.action_index == a)[0]
        if len(sel) == 0:
            continue
        sub = k[sel].tocoo()
        rows.append(sel[sub.row])
        cols.append(sub.col)
        vals.append(sub.data)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def mixture_chain_matrix(weights: Sequence[float], kernels: Sequence) -> sparse.csr_matrix:
    """Chain of a state-independent randomized policy: sum_a w_a K_a."""
    if len(weights) != len(kernels) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must match kernels and sum to one")
    out = None
    for w, k in zip(weights, kernels):
        if w == 0.0:
            continue
        out = w * k if out is None else out + w * k
    return out.tocsr()


def _gmres_solve(a11: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Restarted GMRES on a11 x = b, then passes on the remaining residual."""
    x = np.zeros(len(b))
    for _ in range(GMRES_PASSES):
        dx, _ = gmres(
            a11, b - a11 @ x, rtol=GMRES_RTOL, atol=0.0,
            restart=GMRES_RESTART, maxiter=GMRES_CYCLES,
        )
        x += dx
    return x


def _lu_solve(a11: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
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
    kernels: Sequence,
    cost: np.ndarray,
    start_index: int,
) -> float:
    """Exact long-run average cost of a deterministic stationary policy."""
    return chain_average_cost(policy_chain_matrix(policy, kernels), cost, start_index)


def average_cost_by_sensor(
    xi: np.ndarray, space: StateSpace, spec: SystemSpec
) -> np.ndarray:
    """Per-sensor share of the stationary average cost."""
    out = np.zeros(spec.n_sensors)
    for i, s in enumerate(spec.sensors):
        table = penalty_table(s.penalty, s.max_aori)
        out[i] = float(xi @ table[space.aori_array(i)])
    return out


def table_rows(
    space: StateSpace,
    values: Optional[np.ndarray],
    policy: PolicyTable,
    columns: Sequence[str] = TABLE_COLUMNS,
):
    """Header, then one row per state, for the CSV table dumps.

    `columns` picks column groups in order: state_index; aoli, aori and
    arrmem give one column per sensor (arrmem only when some sensor has
    Markov arrivals: the memory bit for those sensors, aoli == 0 for the
    others); theta; value, blank when values is None; action_bits. Cells are
    read from the cached coordinate arrays and turned into Python objects
    TABLE_CHUNK rows at a time.
    """
    n = space.n_states
    sensors = range(space.n_sensors)
    theta, aoli, aori, g, _ = space._coordinate_arrays()
    bits = np.array(["".join(map(str, a)) for a in policy.action_set.actions], dtype=object)
    if values is None:
        values = np.broadcast_to(np.array("", dtype=object), (n,))
    groups = {
        "state_index": [("state_index", np.arange(n))],
        "aoli": [(f"aoli_{i+1}", aoli[i]) for i in sensors],
        "aori": [(f"aori_{i+1}", aori[i]) for i in sensors],
        "arrmem": [(f"arrmem_{i+1}", g[i] if space.g_sizes[i] == 2 else aoli[i] == 0)
                   for i in sensors if 2 in space.g_sizes],
        "theta": [("theta", theta)],
        "value": [("value", values)],
        "action_bits": [("action_bits", bits[policy.action_index])],
    }
    cols = [col for group in columns for col in groups[group]]
    yield [name for name, _ in cols]
    for lo in range(0, n, TABLE_CHUNK):
        yield from zip(*(col[lo : lo + TABLE_CHUNK].tolist() for _, col in cols))
