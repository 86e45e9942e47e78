"""Baseline scheduling policies sharing one decide(state) -> action interface.

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
from .model import BernoulliArrival, SystemSpec, penalty_table

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
    """Decision interface used by the simulator.

    reset() is called at the start of every episode; stateful policies
    (cursor, private randomness) reinitialize there.
    """

    name = "policy"

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        pass

    def decide(self, state: JointState) -> tuple:
        raise NotImplementedError

    def action_indices(self, space: StateSpace, actions: ActionSet) -> Optional[np.ndarray]:
        """Index into `actions` of the decision at every state of `space`, by
        array lookup; None when only decide can tabulate this policy."""
        return None


class TablePolicy(Policy):
    """Lookup policy over the full truncated state space."""

    def __init__(self, name: str, space: StateSpace, table: PolicyTable):
        self.name = name
        self.space = space
        self.table = table

    def decide(self, state: JointState) -> tuple:
        return self.table.action_of(self.space.encode(state))

    def action_indices(self, space: StateSpace, actions: ActionSet) -> Optional[np.ndarray]:
        return self.table.action_index


def _top_m(scores: Sequence[float], m: int) -> tuple:
    """Schedule the m highest scores; ties go to the lowest sensor index."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    action = [0] * n
    for i in order[:m]:
        action[i] = 1
    return tuple(action)


def maf_decide(state: JointState, m: int) -> tuple:
    """Schedule the m sensors with the largest monitor-side age."""
    return _top_m([st.aori for st in state.sensors], m)


class MafPolicy(Policy):
    name = "maf"

    def __init__(self, m: int):
        self.m = m

    def decide(self, state: JointState) -> tuple:
        return maf_decide(state, self.m)


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
        self._tables = [
            penalty_table(s.penalty, s.max_aori) for s in spec.sensors
        ]

    def decide(self, state: JointState) -> tuple:
        scores = [self._tables[i][st.aori] for i, st in enumerate(state.sensors)]
        return _top_m(scores, self.m)


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

    def action_indices(self, space: StateSpace, actions: ActionSet) -> Optional[np.ndarray]:
        return np.full(space.n_states, actions.index(self.action), dtype=np.int64)


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

    def decide(self, state: JointState) -> tuple:
        idx = state.theta
        for st, stride in zip(state.sensors, self._strides):
            idx += (st.aori - 1) * stride
        return self.model.table.action_of(idx)

    def action_indices(self, space: StateSpace, actions: ActionSet) -> Optional[np.ndarray]:
        idx = space._coordinate_arrays()[0].copy()
        for i, stride in enumerate(self._strides):
            idx += (space.aori_array(i) - 1) * stride
        return self.model.table.action_index[idx]


def policy_to_table(policy: Policy, space: StateSpace, actions: ActionSet) -> PolicyTable:
    """Tabulate a stateless decision rule over the full truncated space.

    Only valid for policies whose decision is a pure function of the state
    (not round robin, not randomized). Policies that hold a table (the
    solved and structure-informed tables, myopic, idle) are read by array
    lookup through action_indices; the others call decide state by state.
    """
    table = policy.action_indices(space, actions)
    if table is not None:
        return PolicyTable(table, actions)
    table = np.empty(space.n_states, dtype=np.int64)
    for idx in range(space.n_states):
        table[idx] = actions.index(policy.decide(space.decode(idx)))
    return PolicyTable(table, actions)


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
