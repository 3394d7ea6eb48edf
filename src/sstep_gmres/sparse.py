"""Sparse CSR storage, Matrix Market I/O, preconditioners, and synthetic
test-matrix generation with prescribed singular spectra."""

import functools
import io
import operator
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# householder_qr is no longer called here (see _haar_orthogonal), but
# perfbench/tracing.py patches every package module that binds it, and
# the harness tests expect this module to be one of them
from .dense import frobenius_norm, householder_qr  # noqa: F401

__all__ = [
    "CsrMatrix",
    "MatrixMarketError",
    "Preconditioner",
    "RandSvdSpec",
    "apply_preconditioner_inverse",
    "gen_randsvd",
    "jacobi_preconditioner",
    "parse_matrix_market",
    "right_singular_vector",
    "spmv",
    "write_matrix_market",
]


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; messages carry 1-based line numbers."""


def reject_complex(v, what):
    """Raise ValueError for complex ``v``, reading its dtype alone: a cast
    would keep only the real parts and describe a different system."""
    if np.iscomplexobj(v):
        raise ValueError("%s must be real, not complex" % what)


def real_vector(v, what, n=None):
    """A float copy of ``v``, which must be real, 1-d (of length ``n``
    when given) and finite."""
    reject_complex(v, what)
    v = np.array(v, dtype=float)
    if v.ndim != 1 or (n is not None and v.size != n):
        raise ValueError("%s has wrong shape" % what)
    if not np.all(np.isfinite(v)):
        raise ValueError("%s must be finite" % what)
    return v


def require_count(name, value):
    """Raise ValueError unless ``value`` is an integer of at least 1."""
    # operator.index admits Python and numpy integers but no float;
    # bool is an int subclass that no caller means as a count
    if isinstance(value, bool):
        raise ValueError("%s must be an integer, not a bool" % name)
    try:
        operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be at least 1" % name)


@contextmanager
def text_stream(target, mode):
    """``target`` as a text stream to read (``mode`` "r") or write ("w").

    A path (str, bytes or ``os.PathLike``) is opened as ASCII and closed
    on exit; reads replace undecodable bytes, for the reader to reject
    by line. An open stream is used as it is and left open. Anything
    else, an int file descriptor included, raises ValueError.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        errors = "replace" if mode == "r" else "strict"
        with open(target, mode, encoding="ascii", errors=errors) as fh:
            yield fh
    elif hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        raise ValueError(
            "expected a path or an open text stream, got %s" % type(target).__name__
        )


def square_real_matrix(a):
    """``a`` as a float array; it must be real, 2-d and square. Finiteness
    is for the caller to check."""
    reject_complex(a, "matrix")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return a


@dataclass(frozen=True)
class CsrMatrix:
    """Square sparse matrix in compressed sparse row form.

    Rows are stored with strictly increasing column indices; values are
    finite. Construction validates the structure once so every consumer
    can rely on it, and stores ``row_idx``, the row of each stored entry.
    ``slot_layout``, the storage ``spmv`` reads, is built on first use.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    row_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reject_complex(self.values, "matrix values")
        object.__setattr__(self, "row_ptr", np.asarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        require_count("matrix dimension", self.n)
        n, ptr, idx, val = self.n, self.row_ptr, self.col_idx, self.values
        if ptr.shape != (n + 1,) or ptr[0] != 0 or ptr[-1] != idx.size:
            raise ValueError("row_ptr inconsistent with matrix shape")
        if np.any(np.diff(ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if idx.size != val.size:
            raise ValueError("col_idx and values length mismatch")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("column index out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
        unsorted = (rows[1:] == rows[:-1]) & (np.diff(idx) <= 0)
        if unsorted.any():
            raise ValueError(
                "row %d has unsorted or duplicate columns" % int(rows[1:][unsorted][0])
            )
        if val.size and not np.all(np.isfinite(val)):
            raise ValueError("matrix values must be finite")
        object.__setattr__(self, "row_idx", rows)

    @property
    def nnz(self):
        return int(self.values.size)

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        out[self.row_idx, self.col_idx] = self.values
        return out

    def diagonal(self):
        """Stored diagonal entries; 0 for rows that store none."""
        d = np.zeros(self.n)
        on_diag = self.row_idx == self.col_idx
        d[self.row_idx[on_diag]] = self.values[on_diag]
        return d

    def frobenius_norm(self):
        return frobenius_norm(self.values)

    @functools.cached_property
    def slot_layout(self):
        return SlotLayout.of(self)


@dataclass(frozen=True)
class SlotLayout:
    """Slot-major ("jagged diagonal", Saad, SISC 1989) copy of a CSR matrix.

    Rows are taken longest first; ``position[i]`` is the place of row i
    in that order. Slot j holds the j-th stored entry of every row
    longer than j. Those rows are a prefix of the order, so
    ``slots[j]`` = (columns, values) lists them by position. A slot is
    kept only while it covers at least half of the nonempty rows, so
    there are at most 2 nnz / (nonempty rows) of them. The entries of
    the rows that are longer still form the tail, in CSR order:
    ``tail_cols``, ``tail_vals``, and ``tail_bins``, their rows'
    positions, led by the positions 0, 1, ... of those rows once each
    (the bins of their partial sums). Indices are ``intp``, which
    ``take`` reads fastest.
    """

    position: np.ndarray
    slots: tuple
    tail_bins: np.ndarray
    tail_cols: np.ndarray
    tail_vals: np.ndarray

    @classmethod
    def of(cls, a):
        lengths = np.diff(a.row_ptr)
        order = np.argsort(-lengths, kind="stable")
        position = np.empty(a.n, dtype=np.intp)
        position[order] = np.arange(a.n)
        lengths = lengths[order]
        starts = a.row_ptr[:-1][order]
        longest = int(lengths[0])
        # covers[j]: the number of rows longer than j
        covers = np.searchsorted(-lengths, -np.arange(longest + 1), side="left")
        kept = int(np.count_nonzero(2 * covers[:longest] >= covers[0]))
        slots = []
        for j in range(kept):
            entries = starts[: covers[j]] + j
            slots.append((a.col_idx[entries].astype(np.intp), a.values[entries]))
        tail = np.flatnonzero(np.arange(a.nnz) - a.row_ptr[a.row_idx] >= kept)
        heads = np.arange(covers[kept], dtype=np.intp)
        return cls(
            position=position,
            slots=tuple(slots),
            tail_bins=np.concatenate([heads, position[a.row_idx[tail]]]),
            tail_cols=a.col_idx[tail].astype(np.intp),
            tail_vals=a.values[tail],
        )


def csr_from_coo(n, rows, cols, vals):
    """Build CSR from unsorted coordinate data; duplicates are summed in
    input order."""
    reject_complex(vals, "matrix values")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size == 0:
        return CsrMatrix(n, np.zeros(n + 1, dtype=np.int64), rows, vals)
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    fresh = np.empty(r.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = (np.diff(r) != 0) | (np.diff(c) != 0)
    slot = np.cumsum(fresh) - 1
    out_v = np.zeros(int(slot[-1]) + 1)
    np.add.at(out_v, slot, v)  # unbuffered: file-order summation of duplicates
    out_r = r[fresh]
    out_c = c[fresh]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, out_r + 1, 1)
    row_ptr = np.cumsum(row_ptr)
    return CsrMatrix(n, row_ptr, out_c, out_v)


def csr_from_dense(a):
    """CSR of a square real array, storing its nonzero entries."""
    a = square_real_matrix(a)
    rows, cols = np.nonzero(a)
    return csr_from_coo(a.shape[0], rows, cols, a[rows, cols])


def parse_matrix_market(source, dense_fill=None):
    """Parse Matrix Market coordinate real input into CsrMatrix.

    Reads a path or an open text stream (see ``text_stream``).
    Supported: object 'matrix', format 'coordinate', field 'real' (or
    'integer'), symmetry 'general' or 'symmetric'. Symmetric input is
    expanded to full storage at parse time (diagonal entries once).
    One-based indices become zero-based. Duplicate entries are summed in
    file order.

    With ``dense_fill`` = d, input that stores at least n^2 / d distinct
    positions is returned as an n x n ndarray instead, scattered from
    the entries without building the CSR form: the bits of the
    CsrMatrix's ``to_dense()``.

    A size line that declares more than memory holds fails as a
    ``MatrixMarketError`` naming that line, not as a ``MemoryError``.
    """
    with text_stream(source, "r") as fh:
        return _parse_mm_stream(fh, dense_fill)


def _assemble(n, rows, cols, vals, dense_fill):
    if dense_fill is not None and dense_fill * rows.size >= n * n:
        # fewer entries than n^2 / d hold fewer distinct positions, so
        # this n^2-byte mask is at most d bytes per entry
        stored = np.zeros((n, n), dtype=bool)
        stored[rows, cols] = True
        if dense_fill * np.count_nonzero(stored) >= n * n:
            a = np.zeros((n, n))
            np.add.at(a, (rows, cols), vals)  # unbuffered: file order, as csr_from_coo
            return a
    return csr_from_coo(n, rows, cols, vals)


def _fail(lineno, msg):
    raise MatrixMarketError("line %d: %s" % (lineno, msg))


def _data_lines(lines, lineno):
    """(line number, fields) of each line after line ``lineno`` that is
    neither blank nor a comment, then (last line number, None). ``int``
    and ``float`` read digit underscores (1_0 as 10) and any Unicode
    digit, so a data line holding ``_`` or non-ASCII text fails here."""
    for line in lines:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if "_" in stripped or not stripped.isascii():
            _fail(lineno, "underscores and non-ASCII characters are not allowed")
        yield lineno, stripped.split()
    yield lineno, None


def _parse_mm_stream(fh, dense_fill):
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        _fail(1, "missing %%MatrixMarket banner")
    parts = header.strip().split()
    if len(parts) != 5:
        _fail(1, "banner must have 5 fields, got %d" % len(parts))
    _, obj, fmt, fld, sym = [p.lower() for p in parts]
    if obj != "matrix":
        _fail(1, "unsupported object %r" % obj)
    if fmt != "coordinate":
        _fail(1, "unsupported format %r (only coordinate)" % fmt)
    if fld not in ("real", "integer"):
        _fail(1, "unsupported field %r (only real/integer)" % fld)
    if sym not in ("general", "symmetric"):
        _fail(1, "unsupported symmetry %r (only general/symmetric)" % sym)

    # readline, not iteration, keeps tell() usable for the entry section
    lineno, fields = next(_data_lines(iter(fh.readline, ""), 1))
    if fields is None:
        _fail(lineno, "missing size line")
    if len(fields) != 3:
        _fail(lineno, "size line must be 'rows cols nnz'")
    try:
        rows_n, cols_n, nnz = (int(f) for f in fields)
    except ValueError:
        _fail(lineno, "size line must hold three integers")
    if rows_n != cols_n:
        _fail(lineno, "matrix must be square, got %d x %d" % (rows_n, cols_n))
    if rows_n < 1:
        _fail(lineno, "matrix dimension must be positive")
    if nnz < 0:
        _fail(lineno, "entry count must be nonnegative")

    if not fh.seekable():
        fh = io.StringIO(fh.read())
    try:
        ri, ci, vv = _read_entries(fh, lineno, rows_n, nnz)
        if sym == "symmetric":
            off = ri != ci
            ri = np.concatenate([ri, ci[off]])
            ci = np.concatenate([ci, ri[:nnz][off]])
            vv = np.concatenate([vv, vv[off]])
        return _assemble(rows_n, ri, ci, vv, dense_fill)
    except MemoryError:
        _fail(lineno, "a %d x %d matrix of %d entries does not fit in memory"
              % (rows_n, rows_n, nnz))


_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _read_entries(fh, lineno, n, nnz):
    """Zero-based (rows, cols, values) of the entries left in ``fh``.

    ``lineno`` is the line number of the size line. One ``np.loadtxt``
    over the stream parses well-formed input, and the checks run on
    whole arrays. Input that fails any of them (or that has comment
    lines) is read again by the line scan, which names the first
    offending line. Neither accepts digit underscores or non-ASCII
    digits.
    """
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            entries = np.loadtxt(fh, dtype=_ENTRY_DTYPE, comments=None, ndmin=1)
        except ValueError:
            entries = None
    if entries is not None and entries.size == nnz:
        i, j, v = entries["i"], entries["j"], entries["v"]
        if np.all((i >= 1) & (i <= n) & (j >= 1) & (j <= n)) and np.all(np.isfinite(v)):
            return i - 1, j - 1, v.copy()
    fh.seek(start)
    return _scan_entries(fh, lineno, n, nnz)


def _scan_entries(lines, lineno, n, nnz):
    ri = np.empty(nnz, dtype=np.int64)
    ci = np.empty(nnz, dtype=np.int64)
    vv = np.empty(nnz, dtype=float)
    seen = 0
    for lineno, fields in _data_lines(lines, lineno):
        if fields is None:
            break
        if seen >= nnz:
            _fail(lineno, "more entries than the declared %d" % nnz)
        if len(fields) != 3:
            _fail(lineno, "entry must be 'i j value'")
        try:
            i = int(fields[0])
            j = int(fields[1])
            v = float(fields[2])
        except ValueError:
            _fail(lineno, "malformed entry %r" % " ".join(fields))
        if not (1 <= i <= n) or not (1 <= j <= n):
            _fail(lineno, "index (%d, %d) out of range for n=%d" % (i, j, n))
        if not np.isfinite(v):
            _fail(lineno, "non-finite value")
        ri[seen] = i - 1
        ci[seen] = j - 1
        vv[seen] = v
        seen += 1
    if seen != nnz:
        _fail(lineno + 1, "expected %d entries, found %d" % (nnz, seen))
    return ri, ci, vv


# entries formatted per write; formatting makes a few small strings per
# entry, and at 1024 entries they grew the peak RSS of a gen-then-solve
# run at n = 300 by about 1.3 MB, at no gain in speed
_WRITE_CHUNK = 128


def write_matrix_market(a, sink):
    """Write CsrMatrix (or square dense array) as coordinate real general.

    ``sink`` is a path or an open text stream (see ``text_stream``).
    Values are written with shortest round-trip decimals so that
    parse(write(a)) reproduces them bit for bit.
    """
    if not isinstance(a, CsrMatrix):
        a = csr_from_dense(a)
    with text_stream(sink, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("%d %d %d\n" % (a.n, a.n, a.nnz))
        for lo in range(0, a.nnz, _WRITE_CHUNK):
            part = slice(lo, lo + _WRITE_CHUNK)
            rows = (a.row_idx[part] + 1).tolist()
            cols = (a.col_idx[part] + 1).tolist()
            # the repr of a float list is the shortest round-trip repr of
            # each value, joined by ", "
            values = repr(a.values[part].tolist())[1:-1].split(", ")
            lines = [f"{i} {j} {v}\n" for i, j, v in zip(rows, cols, values)]
            fh.write("".join(lines))


def spmv(a, x):
    """y = A x with plain left-to-right accumulation within each row.

    Every row's sum starts from 0.0 and adds the products of its stored
    entries in column order, one rounding each, so the bits of y are
    those of the row-by-row loop (up to which NaN a NaN entry is: IEEE
    754 leaves open which of two NaN operands a sum returns). The
    products are taken slot by slot
    through ``a.slot_layout``: y[:len_j] += vals_j * x[cols_j] for slot
    j = 0, 1, ... on the rows sorted longest first, then one
    ``bincount`` for the tail. It adds, per row, the partial sum first
    and the remaining products after it, in column order. Starting that
    from 0.0 changes nothing: 0.0 + p = p exactly, and a sum that
    starts at +0.0 is never -0.0. One ``take`` then puts the rows back
    in their order. No BLAS call is made, so the result does not depend
    on the BLAS thread count.
    """
    reject_complex(x, "x")
    x = np.asarray(x, dtype=float)
    if x.shape != (a.n,):
        raise ValueError("vector length %r does not match n=%d" % (x.shape, a.n))
    layout = a.slot_layout
    y = np.zeros(a.n)
    for cols, vals in layout.slots:
        products = x.take(cols)
        products *= vals
        y[: cols.size] += products
    if layout.tail_vals.size:
        heads = layout.tail_bins.size - layout.tail_vals.size
        products = x.take(layout.tail_cols)
        products *= layout.tail_vals
        weights = np.concatenate([y[:heads], products])
        y[:heads] = np.bincount(layout.tail_bins, weights=weights)
    return y.take(layout.position)


@dataclass(frozen=True)
class Preconditioner:
    """Diagonal (Jacobi) preconditioner M = diag(diag), applied from the
    left; ``None`` in its place means no preconditioner."""

    diag: np.ndarray

    def __post_init__(self):
        reject_complex(self.diag, "jacobi preconditioner diagonal")
        d = np.asarray(self.diag, dtype=float)
        if np.any(d == 0.0) or not np.all(np.isfinite(d)):
            raise ValueError("jacobi preconditioner needs a nonzero finite diagonal")
        object.__setattr__(self, "diag", d)


def jacobi_preconditioner(a):
    """Jacobi preconditioner from the diagonal of a CsrMatrix or a square
    real array; the array's diagonal is copied, so the preconditioner
    does not keep the matrix alive."""
    if isinstance(a, CsrMatrix):
        d = a.diagonal()
    else:
        d = np.diag(square_real_matrix(a)).copy()
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise ValueError("zero diagonal entry at row %d" % int(zero[0]))
    return Preconditioner(d)


def apply_preconditioner_inverse(p, x):
    """M^{-1} x for the given preconditioner (``None`` returns x untouched)."""
    if p is None:
        return x
    return x / p.diag


@dataclass(frozen=True)
class RandSvdSpec:
    """Synthetic dense test matrix with a prescribed singular spectrum.

    mode 1: one large value (sigma_1 = 1, rest 1/kappa)
    mode 2: one small value (sigma_n = 1/kappa, rest 1)
    mode 3: geometric decay from 1 to 1/kappa
    mode 4: arithmetic decay from 1 to 1/kappa
    mode 5: random values with log-uniform distribution in [1/kappa, 1]
    """

    n: int
    kappa: float
    mode: int
    seed: int

    def __post_init__(self):
        require_count("n", self.n)
        if not 1.0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and >= 1")
        if self.mode not in (1, 2, 3, 4, 5):
            raise ValueError("mode must be in 1..5")


def _randsvd_sigma(spec, generator):
    n, kappa = spec.n, float(spec.kappa)
    if n == 1:
        return np.ones(1)
    if spec.mode == 1:
        sigma = np.full(n, 1.0 / kappa)
        sigma[0] = 1.0
    elif spec.mode == 2:
        sigma = np.ones(n)
        sigma[-1] = 1.0 / kappa
    elif spec.mode == 3:
        sigma = kappa ** (-np.arange(n) / (n - 1.0))
    elif spec.mode == 4:
        sigma = 1.0 - (1.0 - 1.0 / kappa) * np.arange(n) / (n - 1.0)
    else:
        sigma = np.sort(np.exp(generator.uniform(np.log(1.0 / kappa), 0.0, n)))[::-1]
    return sigma


def gen_randsvd(spec):
    """Dense A = U diag(sigma) V^T from the seeded spec.

    Returns (a, v, sigma): the matrix, its right singular vectors as
    columns of v (descending sigma order), and the prescribed singular
    values. The PCG64 stream draws sigma (mode 5 only), then U, then V.
    """
    generator = np.random.Generator(np.random.PCG64(spec.seed))
    sigma = _randsvd_sigma(spec, generator)
    u = _haar_orthogonal(generator, spec.n)
    v = _haar_orthogonal(generator, spec.n)
    a = (u * sigma) @ v.T
    return a, v, sigma


def _haar_orthogonal(generator, n):
    """Q of the QR of an n x n Gaussian, with R's diagonal made
    nonnegative: a Haar-distributed orthogonal matrix (Mezzadri, Notices
    AMS 2007). LAPACK's blocked dorgqr forms a square Q in about a third
    of the flops of ``householder_qr``'s WY product, which is built for
    thin blocks: at n = 300, 3.8 against 7.5 ms (one thread, x86-64).
    """
    q, r = np.linalg.qr(generator.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def right_singular_vector(v, k):
    """k-th right singular vector (1-based, descending order) as a copy."""
    v = np.asarray(v)
    if not 1 <= k <= v.shape[1]:
        raise ValueError("k must be in 1..%d, got %d" % (v.shape[1], k))
    return v[:, k - 1].copy()
