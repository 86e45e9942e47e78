"""The direct CSR kernel assembly against a state-by-state oracle, and the
solvers routed through it (myopic reduction, SISP persistence count).

Byte identity, not closeness, is asserted: the optimal policy has exactly
tied actions, and a last-bit difference in a kernel entry can flip them.
"""

import concurrent.futures
import gc
import io
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import aoisched as a
from aoisched import _csr, cli, decomposed, mdp, policies as pol, sim

from conftest import action_at, kernel_rows, stacked_rows, stuck_channel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def oracle_kernels(spec, space, actions):
    """Kernels from transition_distribution, one state at a time."""
    kernels = []
    for action in actions.actions:
        rows, cols, vals = [], [], []
        for idx in range(space.n_states):
            for nxt, prob in mdp.transition_distribution(space.decode(idx), action, spec):
                rows.append(idx)
                cols.append(space.encode(nxt))
                vals.append(prob)
        n = space.n_states
        mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mat.sum_duplicates()
        kernels.append(mat)
    return kernels


def _sensor(arrival, p0, p1, max_aoli, max_aori, r=0.5):
    return a.SensorSpec(arrival, a.ExponentialPenalty(r), p0, p1, max_aoli, max_aori)


def markov3_system(m):
    """Three sensors, one with Markov arrivals; success 1.0 in the good state."""
    return a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.8), 0.3, 1.0, 2, 3),
            _sensor(a.MarkovArrival(0.6, 0.7), 0.5, 0.9, 1, 3, r=0.7),
            _sensor(a.BernoulliArrival(0.5), 0.6, 1.0, 2, 2, r=0.3),
        ),
        a.ChannelSpec(0.45, 0.75),
        m,
    )


def bern2_system():
    return a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.9), 0.5, 1.0, 3, 4),
            _sensor(a.BernoulliArrival(0.6), 0.4, 0.8, 3, 4, r=0.8),
        ),
        a.ChannelSpec(0.5, 0.8),
        1,
    )


KERNEL_SYSTEMS = {
    "one-bernoulli": a.SystemSpec(
        (_sensor(a.BernoulliArrival(0.7), 0.4, 0.9, 3, 4),), a.ChannelSpec(0.5, 0.8), 1
    ),
    "one-markov-no-buffer-age": a.SystemSpec(
        (_sensor(a.MarkovArrival(0.3, 0.8), 0.2, 1.0, 0, 5),), a.ChannelSpec(0.4, 0.7), 1
    ),
    "two-certain-arrivals": a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(1.0), 1.0, 1.0, 2, 3),
            _sensor(a.MarkovArrival(0.5, 0.8), 0.5, 1.0, 2, 3),
        ),
        a.ChannelSpec(0.45, 0.75),
        2,
    ),
    "three-m1": markov3_system(1),
    "three-m2": markov3_system(2),
    "three-myopic-reduction": a.SystemSpec(
        tuple(
            _sensor(a.BernoulliArrival(1.0), p0, 1.0, 0, 3)
            for p0 in (0.3, 0.5, 0.6)
        ),
        a.ChannelSpec(0.45, 0.75),
        2,
    ),
}


def assert_kernels_match_oracle(spec):
    """Every assembled kernel, its blocks stacked and indexed by row_of,
    equals the oracle's, dtype too."""
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    built = mdp.build_kernels(space)
    expected = oracle_kernels(spec, space, actions)
    stacked = stacked_rows(built)
    assert len(stacked) == len(expected) == len(actions)
    assert built.row_of.shape == (space.n_states,)
    for rows, o in zip(stacked, expected):
        assert rows.shape == (built.n_rows, space.n_states)
        k = rows[built.row_of]
        assert k.shape == o.shape
        for got, want in ((k.indptr, o.indptr), (k.indices, o.indices), (k.data, o.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_byte_identical_to_oracle(name):
    assert_kernels_match_oracle(KERNEL_SYSTEMS[name])


def assert_canonical_stochastic_csr(k):
    assert k.indices.dtype == k.indptr.dtype == np.int32
    assert k.has_canonical_format
    # strictly increasing columns within every row
    row_start = np.zeros(k.nnz, dtype=bool)
    row_start[k.indptr[:-1][np.diff(k.indptr) > 0]] = True
    assert np.all(np.diff(k.indices)[~row_start[1:]] > 0)
    assert np.all(k.data != 0.0)
    assert np.all(np.diff(k.indptr) > 0)
    assert np.abs(np.asarray(k.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_are_canonical_stochastic_csr(name):
    """The builder sorts by construction, with no sum_duplicates pass, and
    the expansion by row_of keeps that."""
    spec = KERNEL_SYSTEMS[name]
    space = mdp.StateSpace(spec)
    kernels = mdp.build_kernels(space)
    # row_of reaches every distinct row
    assert np.array_equal(np.unique(kernels.row_of), np.arange(kernels.n_rows))
    for rows in stacked_rows(kernels):
        assert_canonical_stochastic_csr(rows)
        assert_canonical_stochastic_csr(rows[kernels.row_of])


@pytest.mark.parametrize(
    "config, n_rows, n_states, nnz, assembled_nnz",
    [
        ("twosensor", 3_528, 6_272, 108_864, 192_640),
        # 42 of 56 sub-indices per sensor: 2 * 42**3 of 2 * 56**3
        ("threesensor", 148_176, 351_232, 15_579_648, 36_628_480),
    ],
)
def test_distinct_row_counts(config, n_rows, n_states, nnz, assembled_nnz):
    system = cli.load_config(str(CONFIGS / f"{config}.yaml")).system
    space = mdp.StateSpace(system)
    kernels = mdp.build_kernels(space)
    assert (kernels.n_rows, space.n_states) == (n_rows, n_states)
    assert sum(rows.nnz for rows in kernels) == nnz
    assert sum(
        int(np.diff(rows.indptr)[kernels.row_of].sum()) for rows in stacked_rows(kernels)
    ) == assembled_nnz


# probabilities that include the ends, so successor lists merge and differ
# in length, and the per-sensor tables carry padding
ENDS = st.sampled_from([0.0, 1.0])
PROBS = st.one_of(ENDS, st.floats(0.0, 1.0))


@st.composite
def small_systems(draw, split=False):
    """Systems with N <= 3 and caps <= 3. With split, sensor 1 has
    max_aoli != max_aori and a success probability of 0 or 1, so its idle
    and transmit tables repeat over different sub-indices and only classes
    pooled over both decisions give the right rows."""
    n = draw(st.integers(1, 3))
    sensors = []
    for i in range(n):
        if draw(st.booleans()):
            arrival = a.MarkovArrival(draw(PROBS), draw(PROBS))
        else:
            arrival = a.BernoulliArrival(draw(PROBS))
        p0, p1 = draw(PROBS), draw(PROBS)
        max_aoli, max_aori = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        if split and i == 0:
            max_aori = draw(st.integers(1, 3).filter(lambda cap: cap != max_aoli))
            p0, p1 = (draw(ENDS), p1) if draw(st.booleans()) else (p0, draw(ENDS))
        sensors.append(_sensor(arrival, p0, p1, max_aoli, max_aori))
    channel = a.ChannelSpec(draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99)))
    return a.SystemSpec(tuple(sensors), channel, draw(st.integers(1, n)))


def assume_oracle_is_quick(spec):
    space = mdp.StateSpace(spec)
    # the oracle takes about 0.2 ms per state and action
    assume(space.n_states * len(mdp.ActionSet(spec.n_sensors, spec.m_budget)) <= 1500)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems(), st.integers(1, 40))
def test_kernels_byte_identical_to_oracle_on_random_systems(spec, chunk):
    assume_oracle_is_quick(spec)
    # a chunk of a few rows fills the kernels a leading sub-index at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        assert_kernels_match_oracle(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems(split=True))
def test_kernels_byte_identical_to_oracle_where_decisions_split(spec):
    assume_oracle_is_quick(spec)
    assert_kernels_match_oracle(spec)


def oracle_rvi(kernels, cost, ref_index, epsilon, max_iter):
    """RVI backing up assembled kernels, Theta_a = cost + K_a @ q, with the
    same stopping rule: (values, gain, iterations, actions), or None if
    max_iter runs out."""
    q = np.zeros(len(cost))
    theta_stack = np.empty((len(kernels), len(cost)))
    for it in range(max_iter):
        for a_idx, k in enumerate(kernels):
            theta_stack[a_idx] = cost + k @ q
        q_next = theta_stack.min(axis=0)
        gain = q_next[ref_index]
        q_next -= gain
        sup_diff = np.max(np.abs(q_next - q))
        q = q_next
        if sup_diff <= epsilon:
            return q, float(gain), it + 1, theta_stack.argmin(axis=0)
    return None


RVI_MAX_ITER = 3000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems())
def test_rvi_on_distinct_rows_matches_assembled_kernels(spec):
    """Identical rows give identical sums, so every value, the gain, the
    iteration count and every argmin, ties included, are the same."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    kernels = mdp.build_kernels(space)
    cost = mdp.cost_vector(space)
    ref = space.reference_index()
    assembled = [rows[kernels.row_of] for rows in stacked_rows(kernels)]
    want = oracle_rvi(assembled, cost, ref, 1e-9, RVI_MAX_ITER)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdp, "RVI_MAX_ITER", RVI_MAX_ITER)
            vt, pi = mdp.relative_value_iteration(kernels, cost, ref)
    except a.ConvergenceError:
        assert want is None
        return
    assert want is not None
    values, gain, iterations, policy = want
    assert np.array_equal(vt.values.view(np.int64), values.view(np.int64))
    assert vt.gain == gain
    assert vt.iterations == iterations
    assert np.array_equal(pi, policy)


def test_rvi_argmin_reads_the_rounded_sums_with_cost():
    """State 1 costs 1e16, whose ulp is 2, and its actions back up 0.5
    (action 0, through state 2) and 0 (action 1, to the reference state).
    The sums with cost tie at 1e16, so the argmin takes action 0, although
    the backups alone differ and would pick action 1."""
    to_ref = [1.0, 0.0, 0.0]
    rows = (
        np.array([to_ref, [0.0, 0.0, 1.0], to_ref]),
        np.array([to_ref, to_ref, to_ref]),
    )
    kernels = mdp.Kernels((((0, 3, rows),),), np.arange(3))
    cost = np.array([0.0, 1e16, 0.5])
    want = oracle_rvi(list(kernels), cost, 0, 1e-9, RVI_MAX_ITER)
    vt, pi = mdp.relative_value_iteration(kernels, cost, 0)
    assert vt.values.tolist() == want[0].tolist() == [0.0, 1e16, 0.5]
    assert pi.tolist() == want[3].tolist() == [0, 0, 0]


def split_solve(spec, workers, chunk):
    """build_kernels and RVI with `workers` CPUs and a TABLE_CHUNK of
    `chunk` rows: (kernels, (values, gain, iterations, actions) or None if
    RVI_MAX_ITER runs out)."""
    space = mdp.StateSpace(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        mp.setattr(mdp, "_worker_count", lambda: workers)
        mp.setattr(mdp, "RVI_MAX_ITER", RVI_MAX_ITER)
        kernels = mdp.build_kernels(space)
        cost = mdp.cost_vector(space)
        try:
            vt, pi = mdp.relative_value_iteration(kernels, cost, space.reference_index())
        except a.ConvergenceError:
            return kernels, None
    return kernels, (vt.values, vt.gain, vt.iterations, pi)


def csr_bytes(rows):
    return [(arr.dtype, arr.tobytes()) for arr in (rows.data, rows.indices, rows.indptr)]


# one sensor whose ages never leave (0, 1): two distinct rows, so three
# workers cut them into three blocks and at least one is empty
TWO_ROWS = a.SystemSpec(
    (_sensor(a.BernoulliArrival(0.7), 0.4, 0.9, 0, 1),), a.ChannelSpec(0.5, 0.8), 1
)


# the ends where a channel state's successor table loses outcomes (a success
# probability of 0 or 1), certain arrivals, Markov arrivals and a channel
# that never leaves the bad state
THETA_EDGES = [
    a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.7), 0.0, 0.8, 2, 3),
            _sensor(a.MarkovArrival(0.6, 0.7), 0.5, 1.0, 1, 2),
        ),
        a.ChannelSpec(0.45, 0.75),
        1,
    ),
    a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(1.0), 0.4, 0.9, 2, 2),
            _sensor(a.MarkovArrival(0.3, 0.8), 0.3, 0.6, 1, 3),
        ),
        stuck_channel(0.7),
        2,
    ),
    a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(1.0), 1.0, 1.0, 1, 2),
            _sensor(a.BernoulliArrival(0.5), 0.0, 0.5, 2, 2),
        ),
        stuck_channel(0.4),
        1,
    ),
]


def assert_shares_cut_classes(kernels, factors, n_shares):
    """kernels is n_shares shares, each the theta = 0 and the theta = 1
    rows of one run of leading-sensor classes, in order; the runs cover
    every class once and differ in size by at most one class."""
    half = factors.n_rows // 2
    per_class = half // factors.shape[1]
    assert len(kernels.shares) == n_shares
    bounds = [0]
    for (lo, hi, _), (lo1, hi1, _) in kernels.shares:
        assert (lo, lo1 - half, hi1 - half) == (bounds[-1], lo, hi)
        bounds.append(hi)
    assert bounds[-1] == half
    assert all(bound % per_class == 0 for bound in bounds)
    classes = [(hi - lo) // per_class for lo, hi in zip(bounds, bounds[1:])]
    assert max(classes) - min(classes) <= 1
    return classes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.booleans().flatmap(lambda split: small_systems(split=split)),
       st.sampled_from([1, 2, 3]), st.integers(1, 8))
@example(TWO_ROWS, 3, 1)
@example(THETA_EDGES[0], 1, 8)
@example(THETA_EDGES[1], 2, 8)
@example(THETA_EDGES[2], 3, 8)
def test_split_work_is_the_one_worker_work_bit_for_bit(spec, workers, chunk):
    """Kernels built and backed up in shares give the one-worker run's
    kernel bytes (the blocks stacked in row order), raw value bits, gain,
    iteration count and table, also where a share is empty. The shares cut
    the classes on leading-sensor class boundaries into about equal class
    counts, and the one share of one worker is kernel_rows byte for byte."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    kernels, solved = split_solve(spec, workers, chunk)
    serial, want = split_solve(spec, 1, chunk)
    factors = space.factors
    assert_shares_cut_classes(serial, factors, 1)
    classes = assert_shares_cut_classes(
        kernels, factors, workers if factors.n_rows > chunk else 1
    )
    if spec is TWO_ROWS:
        assert 0 in classes
    for got, rows in zip(stacked_rows(kernels), stacked_rows(serial), strict=True):
        assert csr_bytes(got) == csr_bytes(rows)
    for rows, part in zip(stacked_rows(serial), kernel_rows(space), strict=True):
        assert csr_bytes(rows) == [(arr.dtype, arr.tobytes()) for arr in part]
    assert (solved is None) == (want is None)
    if want is not None:
        values, gain, iterations, policy = solved
        assert np.array_equal(values.view(np.int64), want[0].view(np.int64))
        assert (gain, iterations) == want[1:3]
        assert np.array_equal(policy, want[3])


def theta_halves_agree(parts):
    """Whether the theta = 0 rows and the theta = 1 rows of kernel_rows
    (its first and its second half) reach the same columns in the same
    order, under every action."""
    agree = []
    for part in parts:
        rows = sparse.csr_matrix(part)
        half = rows.shape[0] // 2
        rows0, rows1 = rows[:half], rows[half:]
        agree.append(
            np.array_equal(rows0.indices, rows1.indices)
            and np.array_equal(rows0.indptr, rows1.indptr)
        )
    return agree


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
@example(THETA_EDGES[0], 2, 0)
@example(THETA_EDGES[1], 3, 1)
@example(THETA_EDGES[2], 1, 2)
@example(TWO_ROWS, 3, 3)
def test_theta_pairs_are_kernel_rows_bit_for_bit(spec, workers, seed):
    """Each share's theta = 0 and theta = 1 blocks are CSR matrices of the
    package (_csr.CSR), those rows of kernel_rows byte for byte, and each one's product, q
    holding negative entries, is the CSR product of those rows of
    kernel_rows bit for bit. The theta = 1 block reads the theta = 0
    block's columns and row pointers exactly when the two channel states'
    rows reach the same columns. RVI on the shares gives the values, gain,
    iteration count and table of RVI on one block of kernel_rows' CSR
    matrices."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    kernels, solved = split_solve(spec, workers, 8)
    factors = space.factors
    parts = kernel_rows(space)
    whole = tuple(sparse.csr_matrix(part, shape=(factors.n_rows, space.n_states)) for part in parts)
    agree_by_action = theta_halves_agree(parts)
    q = np.random.default_rng(seed).normal(scale=10.0, size=space.n_states)
    for share in kernels.shares:
        for lo, hi, mats in share:
            for mat, rows in zip(mats, whole, strict=True):
                assert type(mat) is _csr.CSR and mat.shape == (hi - lo, space.n_states)
                assert csr_bytes(mat) == csr_bytes(rows[lo:hi])
                assert (mat @ q).tobytes() == (rows[lo:hi] @ q).tobytes()
        (lo, hi, mats0), (_, _, mats1) = share
        if lo < hi:
            for rows0, rows1, agree in zip(mats0, mats1, agree_by_action, strict=True):
                for field in ("indices", "indptr"):
                    assert np.shares_memory(getattr(rows0, field), getattr(rows1, field)) == agree
                assert not np.shares_memory(rows0.data, rows1.data)
    one_block = mdp.Kernels((((0, factors.n_rows, whole),),), factors.row_of)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "RVI_MAX_ITER", RVI_MAX_ITER)
        try:
            vt, pi = mdp.relative_value_iteration(
                one_block, mdp.cost_vector(space), space.reference_index()
            )
        except a.ConvergenceError:
            assert solved is None
            return
    values, gain, iterations, policy = solved
    assert values.tobytes() == vt.values.tobytes()
    assert (gain, iterations) == (vt.gain, vt.iterations)
    assert np.array_equal(policy, pi)


@pytest.mark.parametrize(
    "config, shared", [("twosensor", [True, False, False]), ("threesensor", [True] * 4)]
)
def test_theta_halves_share_columns_where_the_tables_agree(config, shared):
    """Threesensor's success probabilities lie inside (0, 1), so every
    action's theta = 1 block reads its theta = 0 block's column list and
    row pointers, and the columns take a quarter of the bytes of the two
    blocks' values. Twosensor's p1 = 1 drops the failed outcomes in the
    good channel state under a transmit decision, so those blocks keep
    columns of their own."""
    system = cli.load_config(str(CONFIGS / f"{config}.yaml")).system
    space = mdp.StateSpace(system)
    kernels = mdp.build_kernels(space)
    for (_, _, mats0), (_, _, mats1) in kernels.shares:
        for rows0, rows1, one in zip(mats0, mats1, shared, strict=True):
            for field in ("indices", "indptr"):
                assert np.shares_memory(getattr(rows0, field), getattr(rows1, field)) == one
            if one:
                assert rows0.indices.nbytes * 4 == rows0.data.nbytes + rows1.data.nbytes


def _buffer(arr):
    """The array that owns arr's memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def test_kernels_iterate_every_buffer_they_hold(monkeypatch):
    """The arrays of the matrices iterated from Kernels (each block's
    data, indices and indptr) are every buffer the kernels hold besides
    row_of, each whole and once, so their sizes sum to the bytes held: a
    column list two blocks share counts once, and no block holds a copy."""
    monkeypatch.setattr(mdp, "TABLE_CHUNK", 8)
    monkeypatch.setattr(mdp, "_worker_count", lambda: 3)
    spec = markov3_system(1)
    space = mdp.StateSpace(spec)
    kernels = mdp.build_kernels(space)
    assert len(kernels.shares) == 3
    # the idle action's theta = 1 blocks read their theta = 0 blocks'
    # columns, sensor 1's transmit blocks (p1 = 1) do not
    assert {len(rows.indices) < rows.nnz for rows in kernels} == {True, False}
    held, seen, todo = {}, set(), [kernels]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held[id(_buffer(obj))] = _buffer(obj)
        elif isinstance(obj, (tuple, list, dict, mdp.Kernels, _csr.CSR)):
            todo.extend(gc.get_referents(obj))
    del held[id(_buffer(kernels.row_of))]
    iterated = [arr for rows in kernels for arr in (rows.data, rows.indices, rows.indptr)]
    assert {id(_buffer(arr)) for arr in iterated} == set(held)
    assert sum(arr.nbytes for arr in iterated) == sum(arr.nbytes for arr in held.values())


def test_rvi_joins_its_threads_when_it_fails(monkeypatch):
    monkeypatch.setattr(mdp, "TABLE_CHUNK", 4)
    monkeypatch.setattr(mdp, "_worker_count", lambda: 3)
    monkeypatch.setattr(mdp, "RVI_MAX_ITER", 1)
    spec = markov3_system(1)
    space = mdp.StateSpace(spec)
    kernels = mdp.build_kernels(space)
    assert len(kernels.shares) == 3
    before = threading.active_count()
    with pytest.raises(a.ConvergenceError):
        mdp.relative_value_iteration(kernels, mdp.cost_vector(space), space.reference_index())
    assert threading.active_count() == before


def test_one_chunk_joint_model_runs_on_one_share(monkeypatch):
    """Twosensor's joint model has at most TABLE_CHUNK distinct rows, so on
    any number of CPUs it is one share: build_kernels and RVI run on the
    calling thread and start no thread pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(mdp, "_worker_count", lambda: 4)
    system = cli.load_config(str(CONFIGS / "twosensor.yaml")).system
    space = mdp.StateSpace(system)
    before = threading.active_count()
    kernels = mdp.build_kernels(space)
    assert len(kernels.shares) == 1 and kernels.n_rows <= mdp.TABLE_CHUNK
    vt, _ = mdp.relative_value_iteration(
        kernels, mdp.cost_vector(space), space.reference_index()
    )
    assert vt.iterations == 24
    assert threading.active_count() == before


@pytest.mark.parametrize("config", ["twosensor", "threesensor"])
def test_myopic_solve_is_the_scipy_solve_bit_for_bit(config):
    """The myopic model, solved on its kernels by RVI stopped on every
    state, gives solve_optimal_policy's values, gain, iteration count and
    table on the shipped configs, where the closed sub-grid's rule stops
    at the same iteration."""
    system = cli.load_config(str(CONFIGS / f"{config}.yaml")).system
    space = mdp.StateSpace(pol.myopic_system(system))
    vt, pt = mdp.solve_optimal_policy(space)
    got, _ = mdp.relative_value_iteration(
        mdp.build_kernels(space), mdp.cost_vector(space), space.reference_index()
    )
    assert got.values.tobytes() == vt.values.tobytes()
    assert got.iterations == vt.iterations
    policy = pol.build_myopic_policy(system)
    assert policy.gain == vt.gain
    assert policy.space.n_states == space.n_states
    assert np.array_equal(policy.table.action_index, pt.action_index)


@pytest.mark.parametrize(
    "spec, n_states, gain, table",
    [
        (markov3_system(1), 36, 5.350279607405474, "222222222222212122222222212122222222"),
        (bern2_system(), 32, 7.254029808126294, "22222222112222221122222211222222"),
    ],
)
def test_myopic_reduction_matches_recorded_model(spec, n_states, gain, table):
    """Gain and table recorded from the dedicated (aori, theta) solver it replaced."""
    model = pol.build_myopic_policy(spec)
    assert model.space.n_states == n_states
    assert model.gain == gain
    assert "".join(str(k) for k in model.table.action_index) == table


def test_myopic_decide_reads_monitor_ages_and_channel():
    spec = markov3_system(1)
    policy = pol.build_myopic_policy(spec)
    full = mdp.StateSpace(spec)
    table = pol.policy_to_table(policy, full)
    for idx in range(full.n_states):
        js = full.decode(idx)
        reduced = a.JointState(
            tuple(a.SensorState(0, st.aori) for st in js.sensors),
            js.theta,
            (True,) * spec.n_sensors,
        )
        assert action_at(table, idx) == action_at(policy.table, policy.space.encode(reduced))


@pytest.mark.parametrize(
    "spec, copied", [(markov3_system(1), 736), (bern2_system(), 276)]
)
def test_pruning_count_matches_recorded(spec, copied):
    """Counts recorded from the state-by-state pruned construction it replaced."""
    space = mdp.StateSpace(spec)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    plain = decomposed.build_policy_table(values, space)
    pruned, n_copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert n_copied == copied
    assert violations.size == 0
    assert np.array_equal(plain.action_index, pruned.action_index)


# markov3_system(2) as a config file
MARKOV3_M2_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.45, kappa11: 0.75}
    budget: 2
    sensors:
      - arrival: {kind: bernoulli, rate: 0.8}
        penalty: {kind: exponential, r: 0.5}
        p0: 0.3
        p1: 1.0
        max_aoli: 2
        max_aori: 3
      - arrival: {kind: markov, stay_empty: 0.6, stay_active: 0.7}
        penalty: {kind: exponential, r: 0.7}
        p0: 0.5
        p1: 0.9
        max_aoli: 1
        max_aori: 3
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty: {kind: exponential, r: 0.3}
        p0: 0.6
        p1: 1.0
        max_aoli: 2
        max_aori: 2
    """
)


def test_pruning_reports_persistence_violations(tmp_path, capsys):
    # with M=2 a copied pair can differ from the argmin: the sensor stays
    # scheduled one monitor-age step up, but its partner changes
    spec = markov3_system(2)
    space = mdp.StateSpace(spec)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    table, _, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert len(violations) == 4
    assert np.all(np.diff(violations) > 0)
    plain = decomposed.build_policy_table(values, space)
    assert np.array_equal(table.action_index, plain.action_index)

    # solve writes that argmin table and reports the count
    path = tmp_path / "m2.yaml"
    path.write_text(MARKOV3_M2_YAML)
    assert cli.load_config(str(path)).system == spec
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(path), "--policy", "sisp", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert f"threshold persistence fails at 4 states, first state {violations[0]};" in err
    expected = b"".join(mdp.table_rows(space, None, plain))
    written = (out / "sisp_table.csv").read_bytes()
    assert written.split(b"\n", 1)[1] == expected
    header, row = (out / "sisp_summary.csv").read_text().splitlines()[1:]
    summary = dict(zip(header.split(","), row.split(",")))
    assert summary["persistence_violations"] == "4"
    # the summed per-sensor gains: the randomized policy's cost, not SISP's
    assert summary["randomized_gain"] == cli._fmt(sum(v.gain for v in values))


def test_sisp_policy_simulates_like_its_table():
    """monte_carlo with SispPolicy against the tabulated SISP, on the system
    where persistence fails: means and lane 0's trajectory, bit for bit."""
    spec = markov3_system(2)
    space = mdp.StateSpace(spec)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    table = decomposed.build_policy_table(values, space)
    policies = [decomposed.SispPolicy(values), pol.TablePolicy("sisp", space, table)]
    sinks = [io.StringIO(), io.StringIO()]
    plan = sim.ExperimentPlan(spec, policies, 400, 5, 7, warmup=25)
    direct, tabulated = sim.monte_carlo(plan, sinks)
    assert direct.rep_means.tobytes() == tabulated.rep_means.tobytes()
    assert direct.mean == tabulated.mean
    rows = [sink.getvalue().splitlines() for sink in sinks]
    assert len(rows[0]) == 400 * 3
    assert rows[0] == rows[1]
