"""Baseline scheduling policies sharing one decision interface.

Covers the comparison set: the solved optimal table, the structure-informed
table, max-age-first, max-error-first, round robin, randomized with budget
thinning, the myopic single-age baseline, and always-idle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .dynamics import JointState
from .mdp import ActionSet, PolicyTable, StateSpace, solve_optimal_policy
from .model import BernoulliArrival, SystemSpec, penalty_rows

__all__ = [
    "Policy",
    "TablePolicy",
    "maf_decide",
    "MafPolicy",
    "mef_decide",
    "MefPolicy",
    "round_robin_decide",
    "RoundRobinPolicy",
    "randomized_decide",
    "RandomizedSchedule",
    "randomized_action_weights",
    "IdlePolicy",
    "MyopicModel",
    "myopic_system",
    "build_myopic_policy",
    "MyopicPolicy",
    "policy_to_table",
    "round_robin_chain",
    "POLICY_NAMES",
]

POLICY_NAMES = ("optimal", "sisp", "maf", "mef", "rr", "rand", "myopic", "idle")


class Policy:
    """Decision interface of the simulator and of tabulation.

    decide_array is the decision rule: it maps the states of many lanes to
    action indices at once, and serves both the Monte Carlo engine and
    policy_to_table. decide is the same rule for one JointState; it drives
    the scalar episode (sim.run_episode) and is the test oracle.
    reset() is called at the start of every scalar episode; stateful
    policies (cursor, private randomness) reinitialize there.
    """

    name = "policy"

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        pass

    def decide(self, state: JointState) -> tuple:
        raise NotImplementedError

    def decide_array(
        self, actions: ActionSet, theta, aoli, aori, arrival, t: int = 0, rngs=None
    ) -> np.ndarray:
        """Index into `actions` of the decision in every lane.

        theta is an int array over lanes; aoli, aori and arrival hold one such
        array per sensor, the layout of StateSpace._coordinate_arrays(). t
        counts the decisions since the episode start, and rngs holds one
        policy stream per lane (the generator reset() would get). Raises
        ValueError on a schedule over the budget of `actions`.
        """
        raise NotImplementedError


def _action_code(action) -> int:
    """Bitmask of a schedule, sensor 0 the low bit."""
    return sum(bit << i for i, bit in enumerate(action))


def _lane_actions(actions: ActionSet, codes) -> np.ndarray:
    """Indices into `actions` of schedule bitmasks; an over-budget schedule
    raises the ValueError of dynamics.step_system."""
    idx = actions.code_index[codes]
    if idx.min() < 0:
        code = int(codes[np.argmin(idx)])
        action = tuple((code >> i) & 1 for i in range(actions.n))
        raise ValueError(f"infeasible action {action} (budget {actions.m} of {actions.n})")
    return idx


def _table_codes(table: PolicyTable) -> np.ndarray:
    return np.array([_action_code(a) for a in table.action_set.actions])


class TablePolicy(Policy):
    """Lookup policy over the full truncated state space."""

    def __init__(self, name: str, space: StateSpace, table: PolicyTable):
        self.name = name
        self.space = space
        self.table = table
        self._codes = _table_codes(table)

    def decide(self, state: JointState) -> tuple:
        return self.table.action_of(self.space.encode(state))

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        idx = self.space.encode_array(theta, aoli, aori, arrival)
        return _lane_actions(actions, self._codes[self.table.action_index[idx]])


def _top_m(scores: Sequence[float], m: int) -> tuple:
    """Schedule the m highest scores; ties go to the lowest sensor index."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    action = [0] * n
    for i in order[:m]:
        action[i] = 1
    return tuple(action)


def _top_m_array(actions: ActionSet, scores: np.ndarray, m: int) -> np.ndarray:
    """_top_m in every lane: scores has one row per sensor. A stable sort
    on -score keeps the lowest sensor index first among ties."""
    top = np.argsort(-scores, axis=0, kind="stable")[:m]
    return _lane_actions(actions, (1 << top).sum(axis=0))


def maf_decide(state: JointState, m: int) -> tuple:
    """Schedule the m sensors with the largest monitor-side age."""
    return _top_m([st.aori for st in state.sensors], m)


class MafPolicy(Policy):
    name = "maf"

    def __init__(self, m: int):
        self.m = m

    def decide(self, state: JointState) -> tuple:
        return maf_decide(state, self.m)

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        return _top_m_array(actions, np.asarray(aori), self.m)


def mef_decide(state: JointState, m: int, spec: SystemSpec) -> tuple:
    """Schedule the m sensors with the largest current penalty."""
    scores = [
        spec.sensors[i].penalty(st.aori) for i, st in enumerate(state.sensors)
    ]
    return _top_m(scores, m)


class MefPolicy(Policy):
    name = "mef"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.m = spec.m_budget
        self._tables = penalty_rows(spec.sensors)

    def decide(self, state: JointState) -> tuple:
        scores = [self._tables[i][st.aori] for i, st in enumerate(state.sensors)]
        return _top_m(scores, self.m)

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        rows = np.arange(len(self._tables))[:, None]
        return _top_m_array(actions, self._tables[rows, np.asarray(aori)], self.m)


def round_robin_decide(cursor: int, n: int, m: int) -> tuple:
    """Schedule sensors cursor..cursor+m-1 (mod n); returns (action, next cursor)."""
    if not (0 <= cursor < n):
        raise ValueError(f"cursor must lie in [0, {n}), got {cursor}")
    action = [0] * n
    for k in range(m):
        action[(cursor + k) % n] = 1
    return tuple(action), (cursor + m) % n


class RoundRobinPolicy(Policy):
    name = "rr"

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.cursor = 0

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        self.cursor = 0

    def decide(self, state: JointState) -> tuple:
        action, self.cursor = round_robin_decide(self.cursor, self.n, self.m)
        return action

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        # after t decisions the cursor has advanced by t * m
        action, _ = round_robin_decide(t * self.m % self.n, self.n, self.m)
        return _lane_actions(actions, np.full(len(theta), _action_code(action)))


def randomized_decide(p: Sequence[float], m: int, rng: np.random.Generator) -> tuple:
    """Independent Bernoulli(p_i) draws, thinned uniformly to at most m.

    One uniform per sensor in index order; when more than m fire, a uniformly
    random size-m subset of the fired sensors keeps its slot.
    """
    fired = [i for i, pi in enumerate(p) if rng.random() < pi]
    if len(fired) > m:
        keep = rng.choice(len(fired), size=m, replace=False)
        fired = [fired[k] for k in keep]
    action = [0] * len(p)
    for i in fired:
        action[i] = 1
    return tuple(action)


class RandomizedSchedule(Policy):
    name = "rand"

    def __init__(self, p: Sequence[float], m: int):
        self.p = tuple(p)
        self.m = m
        self._rng = None

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        if rng is None:
            raise ValueError("randomized policy needs a random source at reset")
        self._rng = rng

    def decide(self, state: JointState) -> tuple:
        return randomized_decide(self.p, self.m, self._rng)

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        # one scalar draw per lane keeps each lane's variable-length stream
        codes = [_action_code(randomized_decide(self.p, self.m, rng)) for rng in rngs]
        return _lane_actions(actions, np.array(codes))


def randomized_action_weights(
    p: Sequence[float], m: int, actions: ActionSet
) -> np.ndarray:
    """Exact action distribution of the thinned randomized policy.

    Enumerates all 2^N fired subsets; over-budget subsets spread their
    probability uniformly across their size-m subsets. The result aligns
    with `actions` for mixture_chain_matrix.
    """
    n = len(p)
    weights = np.zeros(len(actions))
    for fired_mask in range(1 << n):
        fired = [i for i in range(n) if fired_mask >> i & 1]
        prob = 1.0
        for i in range(n):
            prob *= p[i] if (fired_mask >> i & 1) else 1.0 - p[i]
        if prob == 0.0:
            continue
        if len(fired) <= m:
            action = tuple(fired_mask >> i & 1 for i in range(n))
            weights[actions.index(action)] += prob
        else:
            subsets = list(itertools.combinations(fired, m))
            share = prob / len(subsets)
            for subset in subsets:
                action = tuple(1 if i in subset else 0 for i in range(n))
                weights[actions.index(action)] += share
    return weights


class IdlePolicy(Policy):
    name = "idle"

    def __init__(self, n: int):
        self.action = tuple(0 for _ in range(n))

    def decide(self, state: JointState) -> tuple:
        return self.action

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        return _lane_actions(actions, np.full(len(theta), _action_code(self.action)))


@dataclass
class MyopicModel:
    space: StateSpace
    table: PolicyTable
    gain: float


def myopic_system(spec: SystemSpec) -> SystemSpec:
    """spec with certain arrivals and no buffer age: the myopic model's system."""
    return replace(
        spec,
        sensors=tuple(
            replace(s, arrival=BernoulliArrival(1.0), max_aoli=0) for s in spec.sensors
        ),
    )


def build_myopic_policy(
    spec: SystemSpec, epsilon: float = 1e-9, max_iter: int = 100000
) -> MyopicModel:
    """Solve the single-age generate-at-will model on (aori, theta) only.

    A successful delivery is assumed to reset the monitor age to one, i.e.
    the buffer always holds fresh data. That model is the joint MDP of
    myopic_system(spec): every sensor gets BernoulliArrival(1.0) and
    max_aoli = 0, so its space is indexed by the monitor ages and the
    channel alone. The resulting table deliberately ignores buffer
    staleness; evaluating it under the true dual-age dynamics quantifies
    that model mismatch.
    """
    space, _, vt, pt = solve_optimal_policy(myopic_system(spec), epsilon, max_iter)
    return MyopicModel(space, pt, vt.gain)


class MyopicPolicy(Policy):
    name = "myopic"

    def __init__(self, model: MyopicModel):
        self.model = model
        self._strides = [model.space.aori_stride(i) for i in range(model.space.n_sensors)]
        self._codes = _table_codes(model.table)

    def decide(self, state: JointState) -> tuple:
        idx = state.theta
        for st, stride in zip(state.sensors, self._strides):
            idx += (st.aori - 1) * stride
        return self.model.table.action_of(idx)

    def decide_array(self, actions, theta, aoli, aori, arrival, t=0, rngs=None):
        idx = theta
        for i, stride in enumerate(self._strides):
            idx = idx + (aori[i] - 1) * stride
        return _lane_actions(actions, self._codes[self.model.table.action_index[idx]])


def policy_to_table(policy: Policy, space: StateSpace, actions: ActionSet) -> PolicyTable:
    """Tabulate a stateless decision rule over the full truncated space.

    Only valid for policies whose decision is a pure function of the state
    (not round robin, not randomized): decide_array at every state of space.
    """
    theta, aoli, aori, arrival, _ = space._coordinate_arrays()
    return PolicyTable(policy.decide_array(actions, theta, aoli, aori, arrival), actions)


def round_robin_chain(
    space: StateSpace, kernels: Sequence, cost: np.ndarray, n: int, m: int
) -> tuple:
    """Chain of round robin on the state space augmented with the cursor.

    The cursor advances by m (mod n) every slot independent of the state, so
    the augmented pair (state, cursor) is Markov. Returns (P, cost, start)
    over n_states * n_cursors augmented states, cursor-major blocks.
    """
    ns = space.n_states
    actions = ActionSet(n, m)
    blocks = []
    for cursor in range(n):
        action, nxt = round_robin_decide(cursor, n, m)
        row = [None] * n
        row[nxt] = kernels[actions.index(action)]
        blocks.append(row)
    p_aug = sparse.bmat(blocks, format="csr")
    cost_aug = np.tile(cost, n)
    return p_aug, cost_aug, space.reference_index()  # cursor 0 block comes first
