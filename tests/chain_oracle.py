"""The exact evaluation as it was before it ran on lumped chains: every
policy's chain built over its reachable states, one row per state, and the
cost read from the state masses spread back to full length. Kept as the
oracle that the lumped chains of mdp.reachable_chain are checked against.
"""

from typing import Sequence

import numpy as np

from aoisched import mdp
from aoisched.policies import round_robin_decide


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + counts[k] - 1, concatenated."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out


def _gather_rows(parts: Sequence, part: np.ndarray, row: np.ndarray) -> tuple:
    """Rows of CSR arrays copied into one CSR: output row k is row row[k]
    of parts[part[k]], each part being (data, indices, indptr), entries in
    their stored order. Returns (indptr, data, indices)."""
    counts = np.empty(len(row), dtype=np.int64)
    picks = []
    order = np.argsort(part, kind="stable")
    present, first = np.unique(part[order], return_index=True)
    for k, sel in zip(present, np.split(order, first[1:])):
        indptr = parts[k][2]
        starts = indptr[row[sel]]
        counts[sel] = indptr[row[sel] + 1] - starts
        picks.append((parts[k], sel, starts))
    indptr = np.zeros(len(row) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    out = [
        np.empty(indptr[-1], dtype=np.result_type(*(p[f].dtype for p, _, _ in picks)))
        for f in (0, 1)
    ]
    for arrays, sel, starts in picks:
        src = _ranges(starts, counts[sel])
        dst = _ranges(indptr[sel], counts[sel])
        for field, gathered in zip(arrays, out):
            gathered[dst] = field[src]
    return (indptr, *out)


def reachable_chain(make, locate, shape: tuple, start_index: int, n: int) -> tuple:
    """A Markov chain of n states, built over the states reachable from
    start_index only, from rows made as the search first needs them.

    locate(states) returns (group, row): state s's row is row row[s] of
    group group[s], where shape = (groups, rows per group); a group is an
    action, a round-robin cursor, or the one group of a mixture.
    make(group, rows) returns the CSR arrays (data, indices, indptr) of
    that group's rows for increasing row indices `rows`, their columns
    numbered in the chain. A frontier search from start_index follows every
    stored entry, explicit zeros included, as csgraph's breadth-first
    search does. Each (group, row) is made once, when a frontier first
    reaches a state that reads it, and its columns are read then: every
    state a row made earlier reaches is already seen, so a frontier reads
    the columns of the rows made for it alone. Then _gather_rows copies the
    reached states' rows in index order, and their columns are renumbered
    to positions in that order. Returns (p, states):
    states holds the reached indices in increasing order, and p is the
    chain on them, byte for byte the whole chain's p[ix_(states, states)],
    since a reached row's columns are all reached and the renumbering keeps
    their order.
    """
    from scipy import sparse

    parts = []
    # part << 32 | row in that part, of each (group, row) made so far; -1
    # before it is made
    where = np.full(shape, -1, dtype=np.int64)

    def new_columns(states):
        """Makes the rows that states read and no earlier frontier did;
        returns the columns of their stored entries."""
        group, row = locate(states)
        missing = where[group, row] < 0
        new = np.unique(np.ravel_multi_index((group[missing], row[missing]), shape))
        new_group, new_row = np.unravel_index(new, shape)
        # an empty first array keeps a step that makes no row integer
        cols = [np.arange(0)]
        for g in np.unique(new_group):
            rows = new_row[new_group == g]
            where[g, rows] = len(parts) << 32 | np.arange(len(rows))
            parts.append(make(g, rows))
            cols.append(parts[-1][1])
        return np.concatenate(cols)

    seen = np.zeros(n, dtype=bool)
    seen[start_index] = True
    frontier = np.array([start_index])
    while len(frontier):
        cols = new_columns(frontier)
        cols = cols[~seen[cols]]
        seen[cols] = True
        frontier = np.unique(cols)
    states = np.flatnonzero(seen)
    key = where[locate(states)]
    indptr, data, cols = _gather_rows(parts, key >> 32, key & 0xFFFFFFFF)
    m = len(states)
    position = np.empty(n, dtype=np.int32 if m <= np.iinfo(np.int32).max else np.int64)
    position[states] = np.arange(m)
    return sparse.csr_matrix((data, position[cols], indptr), shape=(m, m)), states


def policy_chain_matrix(policy: mdp.PolicyTable, factors: mdp.Factors, start_index: int) -> tuple:
    """Chain of a deterministic policy on the states reachable from start.

    State s's row is distinct row row_of[s] under its action pi(s),
    generated by factor_rows for the reached states only. Returns
    (p, states) of reachable_chain.
    """
    actions = policy.action_set.actions
    return reachable_chain(
        lambda a, rows: mdp.factor_rows(factors, actions[a], rows),
        lambda s: (policy.action_index[s], factors.row_of[s]),
        (len(actions), factors.n_rows),
        start_index,
        factors.n_states,
    )


def mixture_chain_matrix(
    weights: Sequence[float], factors: mdp.Factors, actions: mdp.ActionSet, start_index: int
) -> tuple:
    """Chain of a state-independent randomized policy, sum_a w_a K_a over
    `actions`, on the states reachable from start. Returns (p, states).

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
                mdp.factor_rows(factors, action, rows), shape=(len(rows), factors.n_states)
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


def round_robin_chain(space: mdp.StateSpace, factors: mdp.Factors, n: int, m: int) -> tuple:
    """Chain of round robin on the state space augmented with the cursor,
    over the augmented states reachable from the start only.

    The cursor advances by m (mod n) every slot independent of the state, so
    the augmented pair (state, cursor) is Markov. Augmented state
    cursor * n_states + s, cursor-major, takes distinct row row_of[s] under
    the cursor's action, generated by factor_rows with its columns moved
    into the next cursor's block; the start is space.reference_index() at
    cursor 0. Returns (p, states) of reachable_chain, states being
    augmented indices.
    """
    n_states = space.n_states
    schedule = [round_robin_decide(cursor, n, m) for cursor in range(n)]

    def make(cursor, rows):
        action, nxt = schedule[cursor]
        data, indices, indptr = mdp.factor_rows(factors, action, rows)
        return data, np.add(indices, nxt * n_states, dtype=np.int64), indptr

    def locate(states):
        cursor, s = np.divmod(states, n_states)
        return cursor, factors.row_of[s]

    return reachable_chain(
        make, locate, (n, factors.n_rows), space.reference_index(), n * n_states
    )


def chain_average_cost(p, states: np.ndarray, cost: np.ndarray, start_index: int) -> float:
    """Exact long-run average cost of a chain built over `states`, the
    increasing indices of a chain whose stage costs are `cost`, started at
    start_index. The distribution is spread back to full length before the
    dot product, which then adds the same terms in the same positions as
    over the whole chain: BLAS sums a dot product in lanes by position, so
    dropping the zeros could move its last bits."""
    xi = np.zeros(len(cost))
    xi[states] = mdp.stationary_distribution(p, int(np.searchsorted(states, start_index)))
    return float(xi @ cost)
