"""CSR matrices on scipy's compiled sparse routines, with no scipy.sparse.

Importing scipy.sparse loads several hundred modules (scipy 1.17 clones
numpy's namespace through array_api_compat), about 17 MiB of a command's
memory, while each product and conversion the package makes is one C++
routine of scipy's _sparsetools extension, the one scipy.sparse calls.
tools() loads that extension alone, on first use: it is found in the
installed scipy's sparse directory and loaded under a private module name,
so no scipy package code runs, and a command that makes no sparse matrix
loads nothing.

CSR holds a matrix's four parts, and the functions below are the
scipy.sparse operations the package makes. Each calls the routine scipy
calls, or does in numpy what scipy's does, on the same operands in the same
order, and drops zeros, prunes and picks index dtypes where scipy does, so
every result has scipy's bytes (tests/test_csr.py checks each against
scipy.sparse). A function reads only data, indices, indptr and shape of
its matrix arguments, so a scipy matrix may stand for one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

__all__ = [
    "tools",
    "CSR",
    "accumulate",
    "vstack",
    "take_rows",
    "kept",
    "sum_duplicates",
    "plus",
    "minus",
    "transpose",
    "restrict",
    "permuted",
]

_INT32_MAX = np.iinfo(np.int32).max
# the extension's module name here, and the lock its first load holds
_NAME = "aoisched._sparsetools"
_loading = threading.Lock()


def tools():
    """scipy's _sparsetools extension, loaded on the first call, by one
    thread, as the module aoisched._sparsetools."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    with _loading:
        if _NAME not in sys.modules:
            scipy = importlib.util.find_spec("scipy").submodule_search_locations
            where = [os.path.join(d, "sparse") for d in scipy]
            found = importlib.machinery.PathFinder.find_spec("_sparsetools", where)
            if found is None:
                raise ImportError("no scipy/sparse/_sparsetools extension in " + ", ".join(where))
            spec = importlib.util.spec_from_file_location(_NAME, found.origin)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module
    return sys.modules[_NAME]


def _index_dtype(maxval: int, *arrays) -> type:
    """scipy's index dtype (get_index_dtype): int32 unless maxval or an
    array's dtype needs int64."""
    if maxval > _INT32_MAX or any(not np.can_cast(a.dtype, np.int32) for a in arrays):
        return np.int64
    return np.int32


def _pruned(arr: np.ndarray, nnz: int) -> np.ndarray:
    """arr[:nnz], copied when that is less than half of its buffer
    (scipy's _prune_array)."""
    arr = arr[:nnz]
    return arr.copy() if arr.base is not None and arr.size < arr.base.size // 2 else arr


class CSR:
    """A matrix of `shape` in compressed sparse row form: row i's entries
    are data[indptr[i]:indptr[i + 1]], in columns indices[...] of the same
    span. a @ x is A x and a.T @ x is A^T x, each entry's product added in
    stored order onto +0.0."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return accumulate(self, x, np.zeros(self.shape[0], np.result_type(self.data, x)))

    @property
    def T(self) -> _Transpose:
        return _Transpose(self)

    def toarray(self) -> np.ndarray:
        """The dense matrix (csr_todense)."""
        m, n = self.shape
        out = np.zeros((m, n), dtype=self.data.dtype)
        tools().csr_todense(m, n, self.indptr, self.indices, self.data, out)
        return out


class _Transpose:
    """A^T of a CSR matrix, for products only: a.T @ x is csc_matvec on a's
    arrays, as scipy's a.T @ x."""

    __slots__ = ("a",)

    def __init__(self, a: CSR):
        self.a = a

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        a = self.a
        m, n = a.shape
        out = np.zeros(n, np.result_type(a.data, x))
        _check_lengths(a, out, x)
        tools().csc_matvec(n, m, a.indptr, a.indices, a.data, x, out)
        return out


def _check_lengths(a, longs: np.ndarray, shorts: np.ndarray):
    """Raises ValueError unless a's row pointers, and the vectors of one
    entry per column and per row of a (for A^T, per row and per column),
    fit a's shape: the routines check no length and would read or write
    past an array."""
    m, n = a.shape
    if len(a.indptr) != m + 1 or (len(longs), len(shorts)) != (n, m):
        raise ValueError(f"dimension mismatch: a {m} x {n} matrix and vectors of "
                         f"{len(longs)} and {len(shorts)} entries")


def accumulate(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += A x (csr_matvec): each row's products added in stored order
    onto its entry of out, a contiguous vector of A's dtype. From out = +0.0
    this is scipy's A @ x bit for bit."""
    _check_lengths(a, x, out)
    m, n = a.shape
    tools().csr_matvec(m, n, a.indptr, a.indices, a.data, x, out)
    return out


def vstack(parts, n: int) -> CSR:
    """The CSR matrices parts, of n columns, stacked in order
    (scipy.sparse.vstack(parts, format="csr"))."""
    data = np.concatenate([p.data for p in parts])
    dtype = _index_dtype(max(len(data), n), *(p.indptr for p in parts))
    indices = np.concatenate([p.indices for p in parts], dtype=dtype)
    counts = np.concatenate([np.diff(p.indptr) for p in parts])
    indptr = np.zeros(len(counts) + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    return CSR(data, indices, indptr, (len(counts), n))


def take_rows(a, rows: np.ndarray) -> CSR:
    """A's rows in the order `rows` (scipy's a[rows], csr_row_index)."""
    dtype = _index_dtype(0, a.indptr, a.indices)
    rows = np.asarray(rows, dtype=dtype)
    indptr, indices = a.indptr.astype(dtype, copy=False), a.indices.astype(dtype, copy=False)
    out_ptr = np.zeros(len(rows) + 1, dtype=dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=out_ptr[1:])
    nnz = int(out_ptr[-1])
    out_indices, out_data = np.empty(nnz, dtype=dtype), np.empty(nnz, dtype=a.data.dtype)
    tools().csr_row_index(len(rows), rows, indptr, indices, a.data, out_indices, out_data)
    return CSR(out_data, out_indices, out_ptr, (len(rows), a.shape[1]))


def kept(a, keep: np.ndarray) -> CSR:
    """A's entries where keep (a mask over the stored entries), in stored
    order: keep = a.data != 0 is scipy's eliminate_zeros."""
    counts = np.concatenate(([0], np.cumsum(keep)))
    return CSR(a.data[keep], a.indices[keep], counts[a.indptr].astype(a.indptr.dtype), a.shape)


def sum_duplicates(a: CSR) -> CSR:
    """a, whose rows are each sorted by column, with each run of one column
    summed left to right into one entry, a zero sum kept (csr_sum_duplicates,
    in place, then pruned): scipy's sum_duplicates once has_sorted_indices
    is set."""
    m, n = a.shape
    tools().csr_sum_duplicates(m, n, a.indptr, a.indices, a.data)
    nnz = a.nnz
    return CSR(_pruned(a.data, nnz), _pruned(a.indices, nnz), a.indptr, a.shape)


def _binop(name: str, a, b) -> CSR:
    """scipy's _binopt: the csr_<op>_csr routine, which drops the entries
    that come to zero, then pruned."""
    m, n = a.shape
    maxnnz = int(a.indptr[-1]) + int(b.indptr[-1])
    dtype = _index_dtype(maxnnz, a.indptr, a.indices, b.indptr, b.indices)
    indptr, indices = np.empty(m + 1, dtype=dtype), np.empty(maxnnz, dtype=dtype)
    data = np.empty(maxnnz, dtype=np.result_type(a.data, b.data))
    getattr(tools(), name)(
        m, n,
        a.indptr.astype(dtype, copy=False), a.indices.astype(dtype, copy=False), a.data,
        b.indptr.astype(dtype, copy=False), b.indices.astype(dtype, copy=False), b.data,
        indptr, indices, data,
    )
    nnz = int(indptr[-1])
    return CSR(_pruned(data, nnz), _pruned(indices, nnz), indptr, a.shape)


def plus(a, b) -> CSR:
    """A + B with zero sums dropped, as scipy's a + b."""
    return _binop("csr_plus_csr", a, b)


def minus(a, b) -> CSR:
    """A - B with zero differences dropped, as scipy's a - b."""
    return _binop("csr_minus_csr", a, b)


def transpose(a) -> CSR:
    """A^T as CSR, each row sorted by column (csr_tocsc): the arrays of
    scipy's a.T.tocsr() and a.tocsc()."""
    m, n = a.shape
    nnz = int(a.indptr[-1])
    dtype = _index_dtype(max(nnz, m), a.indptr, a.indices)
    indptr, indices = np.empty(n + 1, dtype=dtype), np.empty(nnz, dtype=dtype)
    data = np.empty(nnz, dtype=a.data.dtype)
    tools().csr_tocsc(
        m, n, a.indptr.astype(dtype, copy=False), a.indices.astype(dtype, copy=False), a.data,
        indptr, indices, data,
    )
    return CSR(data, indices, indptr, (n, m))


def _columns_moved(a: CSR, order: np.ndarray) -> CSR:
    """a with column order[k] moved to column k and the other columns
    dropped, each row's entries in stored order (scipy's
    _minor_index_fancy, for distinct order)."""
    position = np.full(a.shape[1], -1, dtype=a.indices.dtype)
    position[order] = np.arange(len(order))
    cols = position[a.indices]
    return kept(CSR(a.data, cols, a.indptr, (a.shape[0], len(order))), cols >= 0)


def restrict(a, keep: np.ndarray) -> CSR:
    """A[ix_(keep, keep)] for distinct keep (scipy's a[np.ix_(keep, keep)])."""
    return _columns_moved(take_rows(a, keep), keep)


def permuted(a, order: np.ndarray) -> CSR:
    """A[order][:, order] with each row sorted by column (scipy's
    a[order][:, order].sorted_indices(), csr_sort_indices) for a
    permutation order of a square matrix with no column twice in a row."""
    out = _columns_moved(take_rows(a, order), order)
    tools().csr_sort_indices(out.shape[0], out.indptr, out.indices, out.data)
    return out
