"""Every scipy.sparse operation the package makes through _csr gives
scipy.sparse's bytes: random CSR matrices, explicit zeros included, go
through both, and the data, indices and indptr (dtypes included), or the
product's bits, must be equal. scipy.sparse is the independent reference
here, as in tests/chain_oracle.py and tests/stationary_oracle.py."""

import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from aoisched import _csr, mdp

from test_cli import run_python

# entries with exact zeros, negative values and magnitudes far apart, so
# that any change in the order of a sum moves its bits
VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.1, 0.3, -0.7, 1e-17, 3e8, 2.5e-5, 1 / 3])


@st.composite
def matrices(draw, square=False, duplicates=False, max_size=9):
    """(scipy CSR matrix, rng seed): each row's entries sorted by column;
    a column repeats in a row only when duplicates is set."""
    m = draw(st.integers(1, max_size))
    n = m if square else draw(st.integers(1, max_size))
    rows, cols = [], []
    for i in range(m):
        row = sorted(draw(st.lists(st.integers(0, n - 1), max_size=2 * n, unique=not duplicates)))
        rows += [i] * len(row)
        cols += row
    data = np.array(draw(st.lists(VALUES, min_size=len(cols), max_size=len(cols))), dtype=float)
    indptr = np.searchsorted(rows, np.arange(m + 1)).astype(np.int32)
    mat = sparse.csr_matrix((data, np.array(cols, dtype=np.int32), indptr), shape=(m, n))
    return mat, draw(st.integers(0, 2**32 - 1))


def ours(mat) -> _csr.CSR:
    """The scipy matrix's arrays, copied, as a CSR."""
    return _csr.CSR(mat.data.copy(), mat.indices.copy(), mat.indptr.copy(), mat.shape)


def assert_same(got, want):
    assert tuple(got.shape) == tuple(want.shape)
    for field in ("data", "indices", "indptr"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        assert g.tobytes() == w.tobytes(), field


def assert_same_bits(got, want):
    """The same values and signs, so the same bits for non-NaN floats (a
    longdouble's padding bytes aside)."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(), st.sampled_from([np.float64, np.longdouble]))
def test_products_are_scipy_products(drawn, dtype):
    """A @ x, A^T @ x and csr_matvec's accumulation into a zeroed slice of
    a larger array, in float64 and longdouble; a vector of the wrong length
    raises."""
    mat, seed = drawn
    mat = sparse.csr_matrix((mat.data.astype(dtype), mat.indices, mat.indptr), shape=mat.shape)
    rng = np.random.default_rng(seed)
    m, n = mat.shape
    x, y = rng.normal(scale=10.0, size=n).astype(dtype), rng.normal(size=m).astype(dtype)
    x[rng.random(n) < 0.3] = 0.0
    a = ours(mat)
    assert_same_bits(a @ x, mat @ x)
    assert_same_bits(a.T @ y, mat.T @ y)
    stack = np.full((2, m + 3), np.nan, dtype=dtype)
    stack[1, 2 : m + 2] = 0.0
    _csr.accumulate(a, x, stack[1, 2 : m + 2])
    assert_same_bits(stack[1, 2 : m + 2], mat @ x)
    assert np.isnan(stack[0]).all() and np.isnan(stack[1, [0, 1, m + 2]]).all()
    np.testing.assert_array_equal(a.toarray(), mat.toarray())
    # the routines check no length: a vector that does not fit is refused
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ np.zeros(n + 1, dtype=dtype)
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.T @ np.zeros(m + 1, dtype=dtype)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _csr.accumulate(a, x, np.zeros(m + 1, dtype=dtype))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(matrices(duplicates=True), min_size=1, max_size=4), st.integers(1, 9))
def test_chain_merge_is_scipy_merge(parts, n):
    """reachable_chain's steps: vstack, the row order rep[order], and the
    merge of sorted runs of one column (sum_duplicates, a zero sum kept)."""
    parts = [
        sparse.csr_matrix((p.data, p.indices % n, p.indptr), shape=(p.shape[0], n))
        for p, _ in parts
    ]
    stacked = _csr.vstack([ours(p) for p in parts], n)
    want = sparse.vstack(parts, format="csr")
    assert_same(stacked, want)
    order = np.random.default_rng(len(want.data)).permutation(want.shape[0])
    assert_same(_csr.take_rows(stacked, order), want[order])
    want.sort_indices()  # each row by column, a repeated column's entries side by side
    got = _csr.sum_duplicates(ours(want))
    want.has_sorted_indices = True
    want.sum_duplicates()
    assert_same(got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mixture_sum_is_scipy_sum(data):
    """w1 K1 + w2 K2 + ... (csr_plus_csr), which drops the entries that
    sum to zero, and csr_minus_csr."""
    first, _ = data.draw(matrices())
    shape = first.shape
    terms = [first] + [data.draw(same_shape(shape)) for _ in range(data.draw(st.integers(1, 3)))]
    weights = data.draw(st.lists(VALUES.filter(bool), min_size=len(terms), max_size=len(terms)))
    got, want = None, None
    for w, term in zip(weights, terms):
        mine = ours(term)
        mine.data *= w
        got = mine if got is None else _csr.plus(got, mine)
        want = w * term if want is None else want + w * term
    assert_same(got, want.tocsr())
    assert_same(_csr.minus(ours(terms[0]), ours(terms[1])), terms[0] - terms[1])


def same_shape(shape):
    """Matrices of the given shape, explicit zeros included."""
    m, n = shape
    return st.lists(
        st.lists(st.tuples(st.integers(0, n - 1), VALUES), max_size=n), min_size=m, max_size=m
    ).map(lambda rows: _from_rows(rows, n))


def _from_rows(rows, n):
    cols, vals, indptr = [], [], [0]
    for row in rows:
        entries = dict(row)
        cols += sorted(entries)
        vals += [entries[c] for c in sorted(entries)]
        indptr.append(len(cols))
    return sparse.csr_matrix(
        (np.array(vals, dtype=float), np.array(cols, dtype=np.int32), np.array(indptr, np.int32)),
        shape=(len(rows), n),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(square=True), st.data())
def test_stationary_steps_are_scipy_steps(drawn, data):
    """The stationary solve's restriction p[ix_(keep, keep)], its
    off-diagonal part and outflows, its operator (diags(out) - Off)^T, its
    symmetric permutation q[order][:, order] sorted, its removal of
    explicit zeros and its pattern transpose."""
    p, seed = drawn
    m = p.shape[0]
    rng = np.random.default_rng(seed)
    off, out = mdp._generator(ours(p))
    # the same parts by scipy's diagonal and constructor
    rows = np.repeat(np.arange(m), np.diff(p.indptr))
    want = p
    if p.diagonal().any():
        keep = p.indices != rows
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=m))))
        want = sparse.csr_matrix((p.data[keep], p.indices[keep], indptr), shape=p.shape)
    assert_same(off, want)
    assert_same_bits(out, want @ np.ones(m))
    keep = np.flatnonzero(rng.random(m) < 0.7)
    if len(keep):
        assert_same(_csr.restrict(ours(p), keep), p[np.ix_(keep, keep)].tocsr())
    out = np.abs(rng.normal(size=m))
    out[rng.random(m) < 0.3] = 0.0
    want = (sparse.diags(out) - p).T.tocsr()
    assert_same(mdp._operator(ours(p), out), want)
    order = np.roll(np.arange(m), -data.draw(st.integers(0, m - 1)))
    assert_same(_csr.permuted(ours(p), order), p[order][:, order].tocsr().sorted_indices())
    no_zeros = p.copy()
    no_zeros.eliminate_zeros()
    assert_same(_csr.kept(ours(p), p.data != 0), no_zeros)
    assert_same(_csr.transpose(ours(p)), p.T.tocsr())
    np.testing.assert_array_equal(ours(p).T @ np.ones(m), np.asarray(p.sum(axis=0)).ravel())


def test_loader_runs_no_scipy_code():
    """The extension loads under its private name, once, with no scipy
    module."""
    code = textwrap.dedent(
        """
        import sys
        from aoisched import _csr
        tools = _csr.tools()
        assert tools is _csr.tools()
        print(tools.__name__, sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert run_python("-c", code).strip() == "aoisched._sparsetools []"
