import io
import os
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sstep_gmres import sparse
from sstep_gmres.diagnostics import read_csv, write_csv
from sstep_gmres.sparse import (
    CsrMatrix,
    csr_from_coo,
    MatrixMarketError,
    Preconditioner,
    RandSvdSpec,
    apply_preconditioner_inverse,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
    parse_matrix_market,
    right_singular_vector,
    spmv,
    text_stream,
    write_matrix_market,
)

from helpers import rng, stencil_coo


def mm(text):
    return parse_matrix_market(io.StringIO(text))


GENERAL_3X3 = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 3 -1.5
3 1 4.0
2 2 1.0
"""


class TestParse:
    def test_general_entries_and_ordering(self):
        a = mm(GENERAL_3X3)
        assert a.n == 3 and a.nnz == 4
        dense = a.to_dense()
        expect = np.array([[2.0, 0, 0], [0, 1.0, -1.5], [4.0, 0, 0]])
        assert_allclose(dense, expect, atol=0.0)
        # rows sorted by column index
        for i in range(3):
            cols = a.col_idx[a.row_ptr[i]:a.row_ptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_duplicates_summed_in_file_order(self):
        a = mm(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 1 2.5\n2 2 3.0\n"
        )
        assert a.nnz == 2
        assert_allclose(a.to_dense(), [[3.5, 0.0], [0.0, 3.0]], atol=0.0)

    def test_symmetric_expansion(self):
        a = mm(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 1 -1.0\n3 1 0.5\n3 3 1.0\n"
        )
        dense = a.to_dense()
        assert_allclose(dense, dense.T, atol=0.0)
        assert a.nnz == 4 + 2  # off-diagonals mirrored, diagonal kept once
        assert dense[0, 1] == -1.0 and dense[1, 0] == -1.0

    def test_one_based_becomes_zero_based(self):
        a = mm("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 7.0\n")
        assert a.to_dense()[0, 0] == 7.0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("%%MatrixMarket matrix array real general\n", "line 1"),
            ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n", "line 1"),
            ("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n", "line 1"),
            ("not a banner\n1 1 1\n", "line 1"),
            ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n", "square"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "line 3"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "expected 2"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 5.0\n", "more entries"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 one 1.0\n", "line 3"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n", "line 3"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n% c\n2 2 nan\n", "line 6"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n\n1 1 1.0\n2 3 1.0\n", "line 5"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", "line 2"),
            ("%%MatrixMarket matrix coordinate real general\n% c\n1_0 1_0 1\n1 1 1.0\n", "line 3"),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1_0\n", "line 3"),
            # int and float read any Unicode decimal digit
            ("%%MatrixMarket matrix coordinate real general\n"
             "\u0661 \u0661 \u0661\n\u0661 \u0661 \u0665\n", "line 2"),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \u0665\n", "line 3"),
            ("%%MatrixMarket matrix coordinate real\n1 1 1\n", "line 1: banner must have 5"),
            ("%%MatrixMarket vector coordinate real general\n1 1 1\n", "line 1: unsupported object"),
            ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n", "line 1: unsupported symmetry"),
            ("%%MatrixMarket matrix coordinate real general\n% c\n\n", "line 3: missing size line"),
            ("%%MatrixMarket matrix coordinate real general\n2 2\n", "line 2: size line must be"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 x\n", "line 2: size line must hold"),
            ("%%MatrixMarket matrix coordinate real general\n0 0 0\n", "line 2: matrix dimension"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "line 3: entry must be"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(MatrixMarketError, match=fragment):
            mm(text)

    def test_size_line_too_large_for_memory(self, monkeypatch):
        # the allocation is simulated: n = 1e11 would ask for 745 GiB
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(sparse, "csr_from_coo", out_of_memory)
        text = (
            "%%MatrixMarket matrix coordinate real general\n% c\n"
            "100000000000 100000000000 1\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="line 3: .* does not fit in memory"):
            mm(text)

    def test_bulk_parse_matches_line_scan(self):
        # the one-call loadtxt read against the line-by-line reference
        g = rng(8)
        n = 40
        entries = [
            "%d %d %s" % (i, j, v)
            for i, j, v in zip(
                g.integers(1, n + 1, 600),
                g.integers(1, n + 1, 600),
                [repr(float(x)) for x in g.standard_normal(300) * 10.0 ** g.integers(-30, 30, 300)]
                + ["3", "-0", "+2.5", "1e-310", ".5", "5."] * 50,
            )
        ]
        text = "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n%s\n" % (
            n, n, len(entries), "\n".join(entries))
        got = mm(text)
        ri, ci, vv = sparse._scan_entries(io.StringIO("\n".join(entries)), 2, n, len(entries))
        want = csr_from_coo(n, ri, ci, vv)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.col_idx, want.col_idx)
        assert np.array_equal(got.row_ptr, want.row_ptr)

    def test_comment_lines_and_python_number_syntax_in_entries(self):
        plain = mm("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 10.0\n2 2 3.0\n")
        spaced = mm(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
            "% entries follow\n1 1 1e1\n\n2 2 3.0\n"
        )
        assert np.array_equal(spaced.to_dense(), plain.to_dense())

    def test_non_seekable_stream(self):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

            def tell(self):
                raise io.UnsupportedOperation("not seekable")

        a = parse_matrix_market(Pipe(GENERAL_3X3))
        assert np.array_equal(a.to_dense(), mm(GENERAL_3X3).to_dense())

    def test_integer_field_accepted(self):
        a = mm("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 3\n")
        assert a.to_dense()[0, 0] == 3.0

    def test_write_parse_round_trip_bit_exact(self):
        g = rng(4)
        dense = np.where(g.random((6, 6)) < 0.4, g.standard_normal((6, 6)), 0.0)
        dense[0, 0] = 1e-17  # exercises shortest round-trip formatting
        a = csr_from_dense(dense)
        buf = io.StringIO()
        write_matrix_market(a, buf)
        b = parse_matrix_market(io.StringIO(buf.getvalue()))
        assert b.n == a.n and b.nnz == a.nnz
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)


    def test_write_keeps_its_byte_format(self):
        dense = np.array([[5e-324, -1.7976931348623157e308], [0.0, -0.1]])
        buf = io.StringIO()
        write_matrix_market(dense, buf)
        assert buf.getvalue() == (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 5e-324\n"
            "1 2 -1.7976931348623157e+308\n"
            "2 2 -0.1\n"
        )
        empty = io.StringIO()
        write_matrix_market(np.zeros((3, 3)), empty)
        assert empty.getvalue() == (
            "%%MatrixMarket matrix coordinate real general\n3 3 0\n"
        )


class TestParseDense:
    """``dense_fill`` scatters straight into an ndarray; its bits are those
    of the CsrMatrix's ``to_dense()``, and the fill counts distinct
    positions, as ``nnz`` does."""

    @pytest.mark.parametrize(
        "text",
        [
            # duplicates summed in file order, one of them a -0.0 alone
            "%%MatrixMarket matrix coordinate real general\n2 2 6\n"
            "1 1 0.1\n2 1 -0.0\n1 1 0.2\n1 1 0.3\n2 2 1e-300\n1 2 1e300\n",
            # mirrored off-diagonals, and a duplicate across the mirror
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 6\n"
            "1 1 -0.0\n2 1 0.1\n1 2 0.2\n3 2 -2.5\n3 3 7.0\n2 2 0.7\n",
        ],
    )
    def test_bits_of_the_csr_to_dense(self, text):
        got = parse_matrix_market(io.StringIO(text), dense_fill=4)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == mm(text).to_dense().tobytes()

    def test_random_file_with_duplicates(self):
        g = rng(11)
        n = 30
        rows, cols = g.integers(1, n + 1, (2, 700))
        text = "%%%%MatrixMarket matrix coordinate real general\n%d %d 700\n%s\n" % (
            n, n, "\n".join(
                "%d %d %r" % (i, j, float(v))
                for i, j, v in zip(rows, cols, g.standard_normal(700))
            ))
        got = parse_matrix_market(io.StringIO(text), dense_fill=4)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == mm(text).to_dense().tobytes()

    @pytest.mark.parametrize("distinct, dense", [(3, False), (4, True)])
    def test_fill_counts_distinct_positions(self, distinct, dense):
        # 4 x 4 at a fill of 4 needs 4 distinct positions; the 6 entries
        # repeat the first position until ``distinct`` are left
        entries = [(1, 1), (2, 2), (3, 3), (4, 4)][:distinct]
        entries += [(1, 1)] * (6 - distinct)
        text = "%%%%MatrixMarket matrix coordinate real general\n4 4 6\n%s\n" % "\n".join(
            "%d %d 1.5" % e for e in entries)
        got = parse_matrix_market(io.StringIO(text), dense_fill=4)
        assert isinstance(got, np.ndarray) == dense
        want = mm(text)
        assert want.nnz == distinct
        assert (got if dense else got.to_dense()).tobytes() == want.to_dense().tobytes()


class TestTextStream:
    """Every file function reads or writes a path or an open text stream,
    by ``text_stream``'s one rule."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda fd: parse_matrix_market(fd),
            lambda fd: write_matrix_market(np.eye(2), fd),
            lambda fd: read_csv(fd),
            lambda fd: write_csv([], fd),
        ],
        ids=["parse_matrix_market", "write_matrix_market", "read_csv", "write_csv"],
    )
    def test_file_descriptor_rejected_and_left_open(self, tmp_path, call):
        fd = os.open(tmp_path / "f", os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(ValueError, match="path or an open text stream"):
                call(fd)
            os.fstat(fd)  # raises OSError if the call closed it
        finally:
            os.close(fd)

    @pytest.mark.parametrize("target", [None, 1.5, ["a.mtx"]])
    def test_other_targets_rejected(self, target):
        for mode in ("r", "w"):
            with pytest.raises(ValueError, match="got %s" % type(target).__name__):
                with text_stream(target, mode):
                    pass

    @pytest.mark.parametrize("kind", [str, os.fsencode, pathlib.Path])
    def test_paths_opened_and_closed(self, tmp_path, kind):
        path = kind(str(tmp_path / "a.mtx"))
        write_matrix_market(np.eye(2), path)
        with text_stream(path, "r") as fh:
            assert parse_matrix_market(fh).nnz == 2
        assert fh.closed

    def test_stream_left_open(self):
        buf = io.StringIO()
        write_matrix_market(np.eye(2), buf)
        buf.seek(0)
        assert parse_matrix_market(buf).nnz == 2
        assert not buf.closed

    def test_undecodable_byte_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n")
        with pytest.raises(MatrixMarketError, match="line 3: .*non-ASCII"):
            parse_matrix_market(str(path))


class TestCsr:
    @pytest.mark.parametrize(
        "n,row_ptr,col_idx,values,fragment",
        [
            (0, [0], [], [], "dimension must be at least 1"),
            (2.0, [0, 1, 2], [0, 1], [1.0, 2.0], "dimension must be an integer"),
            (True, [0, 1], [0], [1.0], "dimension must be an integer, not a bool"),
            (2, [0, 2, 1], [0], [1.0], "nondecreasing"),
            (2, [0, 1, 2], [0, 1], [1.0], "length mismatch"),
        ],
        ids=["zero", "float", "bool", "decreasing-row-ptr", "length-mismatch"],
    )
    def test_validation_rejects_bad_structure(self, n, row_ptr, col_idx, values, fragment):
        with pytest.raises(ValueError, match=fragment):
            CsrMatrix(n, row_ptr, col_idx, values)

    def test_validation_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1], [0], [1.0])

    def test_validation_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 1], [5], [1.0])

    def test_validation_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, [0, 1], [0], [np.nan])

    def test_validation_rejects_complex(self):
        with pytest.raises(ValueError, match="real"):
            CsrMatrix(1, [0, 1], [0], [1.0 + 1.0j])

    def test_builders_reject_complex(self):
        # a cast would keep only the real parts and build a different matrix
        with pytest.raises(ValueError, match="real"):
            csr_from_coo(2, [0, 1], [0, 1], [1.0 + 1.0j, 2.0])
        with pytest.raises(ValueError, match="real"):
            csr_from_dense(np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0]]))
        # a complex dtype with zero imaginary parts is still complex input
        with pytest.raises(ValueError, match="real"):
            csr_from_dense(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [np.float64(5.0), np.ones(3), np.ones((2, 3))])
    def test_dense_builders_need_a_square_matrix(self, bad):
        with pytest.raises(ValueError, match="matrix must be square"):
            csr_from_dense(bad)
        with pytest.raises(ValueError, match="matrix must be square"):
            write_matrix_market(bad, io.StringIO())

    def test_diagonal_extraction(self):
        dense = np.array([[2.0, 1.0], [0.0, 0.0]])
        assert_allclose(csr_from_dense(dense).diagonal(), [2.0, 0.0], atol=0.0)

    @pytest.mark.parametrize(
        "row_ptr,col_idx,row",
        [
            ([0, 1, 3, 5], [0, 2, 1, 0, 1], 1),  # unsorted in row 1
            ([0, 1, 3, 5], [0, 1, 2, 1, 1], 2),  # duplicate in row 2
            ([0, 2, 2, 4], [1, 0, 2, 0], 0),  # first of two bad rows
        ],
    )
    def test_unsorted_or_duplicate_columns_name_the_row(self, row_ptr, col_idx, row):
        with pytest.raises(ValueError, match="row %d has unsorted" % row):
            CsrMatrix(3, row_ptr, col_idx, np.ones(len(col_idx)))

    def test_descending_columns_across_rows_accepted(self):
        a = CsrMatrix(3, [0, 1, 2, 3], [2, 1, 0], [1.0, 2.0, 3.0])
        assert_allclose(a.to_dense(), np.fliplr(np.diag([1.0, 2.0, 3.0])), atol=0.0)

    def test_diagonal_zero_where_no_entry_is_stored(self):
        # row 0 stores only off-diagonals, row 2 is empty, row 3 stores 0.0
        a = CsrMatrix(4, [0, 2, 4, 4, 6], [1, 3, 0, 1, 0, 3], [5.0, 6.0, 7.0, -2.0, 8.0, 0.0])
        d = a.diagonal()
        assert_allclose(d, [0.0, -2.0, 0.0, 0.0], atol=0.0)
        assert np.array_equal(d, np.diag(a.to_dense()))


    def test_frobenius_norm_is_scale_safe(self):
        # 1e300^2 overflows and 1e-300^2 underflows; the norm does neither
        vals = np.array([3.0, -4.0, 12.0])
        for scale in (1e300, 1e-300, 2.0**-1070):
            a = CsrMatrix(3, [0, 1, 2, 3], [0, 1, 2], vals * scale)
            assert a.frobenius_norm() == pytest.approx(13.0 * scale, rel=1e-15)

    def test_frobenius_norm_bits_match_numpy_in_range(self):
        a = csr_from_dense(rng(60).standard_normal((40, 40)))
        assert a.frobenius_norm() == float(np.linalg.norm(a.values))
        empty = CsrMatrix(2, [0, 0, 0], [], [])
        assert empty.frobenius_norm() == 0.0


def row_by_row(a, x):
    """Each row summed left to right from 0.0, one rounding per term."""
    expect = np.zeros(a.n)
    for i in range(a.n):
        acc = 0.0
        for k in range(a.row_ptr[i], a.row_ptr[i + 1]):
            acc += a.values[k] * x[a.col_idx[k]]
        expect[i] = acc
    return expect


def assert_same_bits(got, expect):
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def stencil_with_dense_row(m, g):
    """stencil_coo(m) with its middle row replaced by a full one."""
    n, rows, cols, vals = stencil_coo(m)
    keep = rows != n // 2
    rows = np.concatenate([rows[keep], np.full(n, n // 2)])
    cols = np.concatenate([cols[keep], np.arange(n)])
    vals = np.concatenate([vals[keep], g.standard_normal(n)])
    return csr_from_coo(n, rows, cols, vals)


class TestSpmv:
    def test_against_dense_oracle(self):
        for seed in range(10):
            g = rng(seed)
            n = int(g.integers(2, 60))
            dense = np.where(g.random((n, n)) < 0.3, g.standard_normal((n, n)), 0.0)
            a = csr_from_dense(dense)
            x = g.standard_normal(n)
            assert_allclose(spmv(a, x), dense @ x, rtol=1e-13, atol=1e-13)

    def test_linearity(self):
        g = rng(31)
        dense = np.where(g.random((25, 25)) < 0.3, g.standard_normal((25, 25)), 0.0)
        a = csr_from_dense(dense)
        x, y = g.standard_normal(25), g.standard_normal(25)
        left = spmv(a, 2.0 * x + 3.0 * y)
        right = 2.0 * spmv(a, x) + 3.0 * spmv(a, y)
        scale = np.linalg.norm(left)
        assert np.linalg.norm(left - right) <= 1e-13 * max(scale, 1.0)

    def test_empty_rows_give_zero(self):
        dense = np.zeros((3, 3))
        dense[1, 2] = 4.0
        a = csr_from_dense(dense)
        assert_allclose(spmv(a, np.ones(3)), [0.0, 4.0, 0.0], atol=0.0)

    def test_bitwise_equal_to_row_by_row_reference(self):
        g = rng(77)
        n = 300
        rows = g.integers(0, n, 2400)
        rows = rows[rows % 7 != 3]  # every seventh row stays empty
        cols = g.integers(0, n, rows.size)
        vals = g.standard_normal(rows.size) * 10.0 ** g.integers(-8, 8, rows.size)
        a = csr_from_coo(n, rows, cols, vals)
        x = g.standard_normal(n)
        got = spmv(a, x)
        assert got.dtype == np.float64
        assert_same_bits(got, row_by_row(a, x))
        assert np.all(got[3::7] == 0.0)

    def test_bitwise_with_a_dense_row_in_the_tail(self):
        g = rng(78)
        a = stencil_with_dense_row(24, g)
        assert a.slot_layout.tail_vals.size > 0
        x = g.standard_normal(a.n)
        assert_same_bits(spmv(a, x), row_by_row(a, x))

    def test_bitwise_with_signed_zero_products(self):
        g = rng(79)
        a = stencil_with_dense_row(6, g)
        # -0.0 in x gives products of both signs, and rows whose products
        # all vanish
        x = np.where(g.random(a.n) < 0.7, -0.0, 0.0)
        x[::5] = g.standard_normal(x[::5].size)
        got = spmv(a, x)
        assert_same_bits(got, row_by_row(a, x))
        assert not np.any(np.signbit(got[got == 0.0]))

    def test_inf_and_nan_in_x(self):
        g = rng(80)
        a = stencil_with_dense_row(6, g)
        x = g.standard_normal(a.n)
        x[::7] = np.inf
        x[3::11] = -np.inf
        x[5::13] = np.nan
        with np.errstate(invalid="ignore"):
            got = spmv(a, x)
            expect = row_by_row(a, x)
        # IEEE 754 leaves open which NaN an operation on two NaNs returns,
        # so NaN entries compare as NaN and every other entry bit for bit
        nan = np.isnan(expect)
        assert nan.any() and np.isinf(expect).any()
        assert np.array_equal(np.isnan(got), nan)
        assert_same_bits(got[~nan], expect[~nan])

    def test_one_by_one(self):
        a = csr_from_dense(np.array([[-2.5]]))
        assert_same_bits(spmv(a, np.array([3.0])), np.array([-7.5]))

    def test_layout_is_built_on_first_use_and_reused(self):
        g = rng(81)
        a = stencil_with_dense_row(8, g)
        assert "slot_layout" not in vars(a)
        x = g.standard_normal(a.n)
        first = spmv(a, x)
        layout = a.slot_layout
        for _ in range(3):
            assert_same_bits(spmv(a, x), first)
        assert a.slot_layout is layout
        assert_same_bits(spmv(a, 2.0 * x), row_by_row(a, 2.0 * x))

    @pytest.mark.parametrize("m", [1, 2, 5, 24])
    def test_slot_passes_bounded_by_mean_row_length(self, m):
        a = stencil_with_dense_row(m, rng(82))
        nonempty = np.count_nonzero(np.diff(a.row_ptr))
        assert len(a.slot_layout.slots) <= 2 * a.nnz / nonempty

    def test_no_stored_entries(self):
        a = CsrMatrix(4, np.zeros(5, dtype=np.int64), [], [])
        y = spmv(a, np.ones(4))
        assert y.dtype == np.float64
        assert np.array_equal(y, np.zeros(4))

    def test_identity(self):
        a = csr_from_dense(np.eye(4))
        x = rng(1).standard_normal(4)
        assert np.array_equal(spmv(a, x), x)

    def test_length_mismatch(self):
        a = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            spmv(a, np.ones(4))

    def test_complex_vector_rejected(self):
        # a cast would drop the imaginary parts and return [1, 2, 3]
        a = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError, match="must be real"):
            spmv(a, np.array([1.0 + 1.0j, 2.0, 3.0]))


class TestPreconditioner:
    def test_identity_returns_input(self):
        x = rng(0).standard_normal(5)
        assert apply_preconditioner_inverse(None, x) is x

    def test_jacobi_inverse(self):
        dense = np.diag([2.0, 4.0, 0.5])
        dense[0, 2] = 1.0
        p = jacobi_preconditioner(csr_from_dense(dense))
        assert_allclose(apply_preconditioner_inverse(p, np.ones(3)), [0.5, 0.25, 2.0])

    def test_zero_diagonal_rejected(self):
        dense = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            jacobi_preconditioner(csr_from_dense(dense))
        with pytest.raises(ValueError, match="row 1"):
            jacobi_preconditioner(dense)

    def test_jacobi_from_array_copies_the_diagonal(self):
        dense = rng(6).standard_normal((5, 5)) + 4.0 * np.eye(5)
        p = jacobi_preconditioner(dense)
        want = jacobi_preconditioner(csr_from_dense(dense))
        assert p.diag.tobytes() == want.diag.tobytes()
        # an owned copy, not a view that keeps the n x n matrix alive
        assert p.diag.base is None and p.diag.flags.writeable
        assert not np.shares_memory(p.diag, dense)

    @pytest.mark.parametrize(
        "bad", [np.ones((2, 3)), np.ones(3), np.eye(2) * (1.0 + 1.0j)]
    )
    def test_jacobi_from_array_needs_square_real_matrix(self, bad):
        with pytest.raises(ValueError):
            jacobi_preconditioner(bad)

    def test_diagonal_must_be_real_nonzero_finite(self):
        for diag in ([1.0, 0.0], [1.0, np.nan], [np.inf, 1.0], [1.0 + 1.0j, 2.0]):
            with pytest.raises(ValueError, match="jacobi preconditioner"):
                Preconditioner(np.array(diag))


class TestRandSvd:
    def test_mode1_spectrum(self):
        _, _, sigma = gen_randsvd(RandSvdSpec(6, 1e5, 1, 0))
        assert sigma[0] == 1.0
        assert_allclose(sigma[1:], 1e-5, rtol=0.0)

    def test_mode2_spectrum(self):
        _, _, sigma = gen_randsvd(RandSvdSpec(6, 1e3, 2, 0))
        assert_allclose(sigma[:-1], 1.0, rtol=0.0)
        assert sigma[-1] == pytest.approx(1e-3)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_cond_within_one_percent(self, mode):
        a, _, _ = gen_randsvd(RandSvdSpec(20, 1e5, mode, 1))
        s = np.linalg.svd(a, compute_uv=False)
        assert abs(s[0] / s[-1] / 1e5 - 1.0) <= 1e-2

    def test_mode5_log_uniform_range(self):
        _, _, sigma = gen_randsvd(RandSvdSpec(40, 1e10, 5, 7))
        assert np.all(sigma <= 1.0) and np.all(sigma >= 1e-10)
        # log-spread: values should land across several decades
        assert np.ptp(np.log10(sigma)) > 5.0

    def test_reconstruction_and_orthonormality(self):
        spec = RandSvdSpec(15, 1e4, 3, 9)
        a, v, sigma = gen_randsvd(spec)
        assert np.linalg.norm(v.T @ v - np.eye(15)) <= 1e-13
        # right singular vectors: A^T A v_k = sigma_k^2 v_k
        for k in (1, 4, 15):
            vk = right_singular_vector(v, k)
            resid = a.T @ (a @ vk) - sigma[k - 1] ** 2 * vk
            assert np.linalg.norm(resid) <= 1e-10 * sigma[0] ** 2

    def test_determinism_and_seed_sensitivity(self):
        a1, _, _ = gen_randsvd(RandSvdSpec(12, 1e3, 3, 5))
        a2, _, _ = gen_randsvd(RandSvdSpec(12, 1e3, 3, 5))
        a3, _, _ = gen_randsvd(RandSvdSpec(12, 1e3, 3, 6))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandSvdSpec(0, 10.0, 1, 0)
        with pytest.raises(ValueError):
            RandSvdSpec(5, 0.5, 1, 0)
        with pytest.raises(ValueError):
            RandSvdSpec(5, 10.0, 6, 0)

    def test_one_by_one(self):
        a, v, sigma = gen_randsvd(RandSvdSpec(1, 1e6, 3, 2))
        assert sigma.tolist() == [1.0]
        assert abs(a[0, 0]) == 1.0 and abs(v[0, 0]) == 1.0

    @pytest.mark.parametrize("n", [2.0, True])
    def test_spec_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            RandSvdSpec(n, 10.0, 3, 1)

    @pytest.mark.parametrize("kappa", [np.inf, np.nan])
    def test_spec_rejects_nonfinite_kappa(self, kappa):
        # kappa = inf would make every value but sigma_1 zero: a singular
        # matrix under a prescribed-condition spec
        with pytest.raises(ValueError, match="finite"):
            RandSvdSpec(6, kappa, 3, 1)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("seed", 2.5, "seed must be an integer"),
            ("seed", -1, "seed must be at least 0"),
            ("seed", True, "seed must be an integer"),
            ("mode", True, "mode must be an integer"),
            ("mode", 3.0, "mode must be an integer"),
            ("kappa", True, "kappa must be a real number"),
            ("kappa", "10", "kappa must be a real number"),
        ],
    )
    def test_spec_fields_checked_at_construction(self, name, value, message):
        fields = {"n": 5, "kappa": 10.0, "mode": 3, "seed": 1, name: value}
        with pytest.raises(ValueError, match=message):
            RandSvdSpec(**fields)

    def test_spec_takes_numpy_numbers(self):
        spec = RandSvdSpec(np.int64(6), np.float32(10.0), np.int32(3), np.uint64(2))
        a, _, _ = gen_randsvd(spec)
        assert a.tobytes() == gen_randsvd(RandSvdSpec(6, 10.0, 3, 2))[0].tobytes()

    def test_right_singular_vector_bounds(self):
        _, v, _ = gen_randsvd(RandSvdSpec(5, 10.0, 3, 0))
        with pytest.raises(ValueError):
            right_singular_vector(v, 0)
        with pytest.raises(ValueError):
            right_singular_vector(v, 6)
