"""Core tensor algebra: storage layout, unfoldings, and operations."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensyl import tensor as tc
from tensyl.solver import SylvesterProblem
from tensyl.tensor import DenseTensor, DimensionError

from conftest import loop_einstein_product, random_tensor


class TestIvec:
    def test_first_index_fastest(self):
        assert tc.ivec([1, 1], (4, 3)) == 1
        assert tc.ivec([2, 1], (4, 3)) == 2
        assert tc.ivec([1, 2], (4, 3)) == 5
        assert tc.ivec([4, 3], (4, 3)) == 12

    def test_known_value(self):
        assert tc.ivec([4, 3, 3], (4, 3, 3)) == 36

    def test_single_mode(self):
        assert tc.ivec([3], (5,)) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            tc.ivec([0, 1], (4, 3))
        with pytest.raises(DimensionError):
            tc.ivec([5, 1], (4, 3))
        with pytest.raises(DimensionError):
            tc.ivec([1], (4, 3))

    def test_matches_storage_position(self, rng):
        t = random_tensor(rng, (3, 2), (2, 4))
        arr = tc.to_array(t)
        for idx in np.ndindex(*t.extents):
            one_based = tuple(i + 1 for i in idx)
            pos = tc.ivec(one_based, t.extents)
            assert t.data[pos - 1] == arr[idx]


class TestDenseTensor:
    def test_data_is_read_only(self):
        t = tc.zeros((2,), (2,))
        with pytest.raises(ValueError):
            t.data[0] = 1.0

    def test_length_validation(self):
        with pytest.raises(DimensionError):
            DenseTensor((2, 2), (3,), np.zeros(11))

    def test_extent_validation(self):
        with pytest.raises(DimensionError):
            DenseTensor((2, 0), (3,), np.zeros(0))
        with pytest.raises(DimensionError):
            DenseTensor((2.5,), (3,), np.zeros(7))
        with pytest.raises(DimensionError, match="row extents"):
            DenseTensor((2.5,), (2,), range(4))

    @pytest.mark.parametrize(
        "data", [np.arange(6.0).reshape(2, 3), 1.0], ids=["matrix", "scalar"]
    )
    def test_refuses_data_that_is_not_flat(self, data):
        # A matrix is not flattened row by row; it names the constructors that take it.
        message = r"must be flat in ivec order; fold an m x n matrix with psi_inverse and a full array with from_array$"
        with pytest.raises(DimensionError, match=message):
            DenseTensor((2,), (3,), data)

    @pytest.mark.parametrize("extents", [(2.5,), (-1,)], ids=["fractional", "negative"])
    def test_zeros_applies_extent_rule(self, extents):
        # The rule, and the error, that identity applies to the same extents.
        message = re.escape(f"extents must be positive integers, got {extents}")
        for make in (lambda: tc.zeros(extents, (2,)), lambda: tc.identity(extents)):
            with pytest.raises(DimensionError, match=message):
                make()

    @pytest.mark.parametrize(
        "bad, text",
        [
            (np.nan, "entry 1 is nan, not a finite number"),
            (np.inf, "entry 1 is inf, not a finite number"),
            (-np.inf, "entry 1 is -inf, not a finite number"),
            (10**400, "entry 1: int too large to convert to float"),
        ],
        ids=["nan", "inf", "-inf", "1e400"],
    )
    def test_non_finite_entry_rejected(self, bad, text):
        # No tensor holds such an entry, so no file writer can be given one.
        with pytest.raises(ValueError, match=f"^field 'data' {text}$"):
            DenseTensor((2,), (2,), [1.0, bad, 3.0, 4.0])

    def test_properties(self):
        t = tc.zeros((2, 3), (4,))
        assert t.m == 6 and t.n == 4
        assert t.extents == (2, 3, 4)
        assert t.order == 3

    def test_equality_is_identity(self):
        # A field-wise == would compare the data arrays and raise.
        s, t = tc.zeros((2,), (2,)), tc.zeros((2,), (2,))
        assert s == s and s != t
        assert hash(s) == hash(s) and len({s, t}) == 2
        a, c = tc.identity((2,)), tc.identity((2,))
        assert SylvesterProblem(a, c, s) == SylvesterProblem(a, c, s)
        assert SylvesterProblem(a, c, s) != SylvesterProblem(a, c, t)
        assert hash(SylvesterProblem(a, c, s)) == hash(SylvesterProblem(a, c, s))

    def test_vec_and_reshape_split_copy_in_entry_order(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        for other in (tc.vec(t), t.reshape_split((6,), (2, 2))):
            assert np.array_equal(other.data, t.data)
            assert not np.shares_memory(other.data, t.data)

    def test_reshape_split_keeps_entries_and_extent_products(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        r = t.reshape_split((6,), (2, 2))
        assert np.array_equal(r.data, t.data)
        with pytest.raises(DimensionError):
            t.reshape_split((5,), (4,))


class TestArrayConversion:
    def test_round_trip(self, rng):
        arr = rng.uniform(-1, 1, (2, 3, 4, 2))
        t = tc.from_array(arr, 2)
        assert t.row_extents == (2, 3) and t.col_extents == (4, 2)
        assert np.array_equal(tc.to_array(t), arr)

    def test_from_array_bad_split(self):
        with pytest.raises(DimensionError):
            tc.from_array(np.zeros((2, 2)), 3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a, b: tc.einstein_product(a, b, 1.5), "contraction count 1.5 invalid for orders 2 and 2"),
            (lambda a, b: tc.from_array(np.zeros((2, 3)), 1.5), "row mode count 1.5 out of range for shape (2, 3)"),
        ],
        ids=["einstein_product", "from_array"],
    )
    def test_fractional_count_refused(self, rng, call, message):
        a, b = random_tensor(rng, (2,), (3,)), random_tensor(rng, (3,), (2,))
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            call(a, b)

    def test_identity_acts_as_unit(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        eye = tc.identity((2, 3))
        out = tc.einstein_product(eye, t, 2)
        assert np.allclose(out.data, t.data)


class TestEinsteinProduct:
    @pytest.mark.parametrize(
        "lead,shared,trail",
        [
            ((2,), (3,), (4,)),
            ((2, 2), (3,), (2,)),
            ((2,), (2, 2), (3,)),
            ((3, 2), (2, 2), (2, 3)),
            ((2,), (2,), (2, 2, 2)),
        ],
    )
    def test_matches_loop_oracle(self, rng, lead, shared, trail):
        a = random_tensor(rng, lead, shared)
        b = random_tensor(rng, shared, trail)
        got = tc.einstein_product(a, b, len(shared))
        want = loop_einstein_product(a, b, len(shared))
        assert got.row_extents == want.row_extents
        assert got.col_extents == want.col_extents
        assert np.allclose(got.data, want.data, atol=1e-13)

    def test_rejects_extent_mismatch(self, rng):
        a = random_tensor(rng, (2,), (3,))
        b = random_tensor(rng, (4,), (2,))
        with pytest.raises(DimensionError):
            tc.einstein_product(a, b, 1)

    def test_rejects_bad_contraction_count(self, rng):
        a = random_tensor(rng, (2,), (3,))
        b = random_tensor(rng, (3,), (2,))
        with pytest.raises(DimensionError):
            tc.einstein_product(a, b, 0)
        with pytest.raises(DimensionError):
            tc.einstein_product(a, b, 3)


class TestTransposeTraceInner:
    def test_transpose_unfolds_to_matrix_transpose(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        assert np.array_equal(tc.psi(tc.transpose(t)), tc.psi(t).T)

    def test_double_transpose(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        back = tc.transpose(tc.transpose(t))
        assert back.same_split(t)
        assert np.array_equal(back.data, t.data)

    def test_trace_requires_square_split(self, rng):
        with pytest.raises(DimensionError):
            tc.trace(random_tensor(rng, (2,), (3,)))

    def test_trace_matches_unfolding(self, rng):
        t = random_tensor(rng, (2, 3), (2, 3))
        assert tc.trace(t) == pytest.approx(np.trace(tc.psi(t)))

    def test_inner_is_trace_form(self, rng):
        a = random_tensor(rng, (2, 2), (3,))
        b = random_tensor(rng, (2, 2), (3,))
        # <a, b> = tr(b^T *_M a), contracting b^T's trailing row block with a
        via_trace = tc.trace(tc.einstein_product(tc.transpose(b), a, 2))
        got = tc.inner(a, b)
        assert got == pytest.approx(via_trace, rel=1e-12)
        assert got == pytest.approx(float(np.dot(a.data, b.data)))

    @pytest.mark.parametrize(
        "op, message",
        [
            (tc.add, "add: splits differ ((2,)x(3,) vs (3,)x(2,))"),
            (tc.subtract, "subtract: splits differ ((2,)x(3,) vs (3,)x(2,))"),
            (tc.inner, "inner: splits differ ((2,)x(3,) vs (3,)x(2,))"),
            (lambda a, b: tc.transpose(a.reshape_split((), (2, 3))),
             "transpose requires nonempty row and column blocks"),
            (lambda a, b: tc.vec(a.reshape_split((), (2, 3))), "vec requires a nonempty row block"),
        ],
        ids=["add", "subtract", "inner", "transpose", "vec"],
    )
    def test_split_errors(self, rng, op, message):
        a, b = random_tensor(rng, (2,), (3,)), random_tensor(rng, (3,), (2,))
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            op(a, b)

    def test_fro_norm_of_integer_ramp(self):
        t = DenseTensor((4, 3), (3, 3), np.arange(1.0, 109.0))
        assert tc.fro_norm(t) == pytest.approx(np.sqrt(425754.0))

    def test_inner_keeps_cross_terms_of_extreme_magnitude(self):
        # Scaling each operand by its own power of two would flush both terms to zero.
        a = DenseTensor((2,), (1,), [1.0e200, 1.0e-200])
        b = DenseTensor((2,), (1,), [1.0e-200, 1.0e200])
        assert tc.inner(a, b) == 2.0


def _column(entries):
    return DenseTensor((len(entries),), (1,), entries)


# Finite operands whose result leaves the double range, by operation.
OVERFLOWS = {
    "add": lambda: tc.add(_column([1.0e308, 1.0]), _column([1.0e308, 1.0])),
    "subtract": lambda: tc.subtract(_column([1.0e308, 1.0]), _column([-1.0e308, 1.0])),
    "scale": lambda: tc.scale(1.0e10, _column([1.0e300, 1.0])),
    "einstein_product": lambda: tc.einstein_product(
        DenseTensor((1,), (2,), [1.0e200, 1.0e200]), _column([1.0e200, 1.0e200]), 1),
    "kron": lambda: tc.kron(_column([1.0e200]), _column([1.0e200])),
    "inner": lambda: tc.inner(_column([1.0e200, 1.0]), _column([1.0e200, 1.0])),
    "trace": lambda: tc.trace(DenseTensor((2,), (2,), [1.0e308, 0.0, 0.0, 1.0e308])),
    "fro_norm": lambda: tc.fro_norm(_column([1.7e308, 1.7e308])),
}


class TestNormAndOverflow:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4096), k=st.integers(-500, 500))
    @example(seed=0, size=1, k=-500)
    @example(seed=0, size=4096, k=500)
    def test_fro_norm_is_numpy_norm_bit_for_bit(self, seed, size, k):
        data = np.ldexp(np.random.default_rng(seed).uniform(-1.0, 1.0, size), k)
        assert tc.fro_norm(_column(data)) == float(np.linalg.norm(data))

    @pytest.mark.parametrize(
        "entries",
        [[1.0e200, 1.0e200], [2.0**1000, 0.75 * 2.0**1000, 2.0**999], [2.0**-1000, 0.75 * 2.0**-1000, 2.0**-1001]],
        ids=["1e200", "2^1000", "2^-1000"],
    )
    def test_fro_norm_beyond_the_range_of_the_squares(self, entries):
        got, want = tc.fro_norm(_column(entries)), math.hypot(*entries)
        assert math.isfinite(got) and got > 0.0
        assert abs(got - want) <= math.ulp(want)

    @pytest.mark.parametrize("op", list(OVERFLOWS))
    def test_overflow_names_the_operation(self, op):
        # Under the suite's filterwarnings = ["error"], a numpy RuntimeWarning would fail the test.
        with pytest.raises(ArithmeticError, match=f"^{op} overflowed the double range$"):
            OVERFLOWS[op]()

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
    def test_scale_refuses_a_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match=f"^scale factor {factor} is not a finite number$"):
            tc.scale(factor, _column([0.0, 1.0]))


class TestUnfoldings:
    def test_psi_is_metadata_only(self, rng):
        t = random_tensor(rng, (2, 3), (2, 2))
        view = tc.psi(t)
        assert isinstance(view, np.ndarray) and view.shape == (6, 4)
        assert np.shares_memory(view, t.data)
        assert not view.flags.writeable

    def test_psi_inverse_round_trip(self, rng):
        t = random_tensor(rng, (2, 3), (2, 2))
        back = tc.psi_inverse(tc.psi(t), (2, 3), (2, 2))
        assert back.same_split(t)
        assert np.array_equal(back.data, t.data)
        # Flat data is DenseTensor's layout; psi_inverse takes the matrix only.
        with pytest.raises(DimensionError, match=r"^matrix shape \(24,\) is not the split's m x n, \(6, 4\)$"):
            tc.psi_inverse(tc.psi(t).ravel(order="F"), (2, 3), (2, 2))

    def test_psi_inverse_validates_shape(self):
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros((4, 3)), (2, 3), (2,))
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros((4, 3)), (2,), (3,))
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros(11), (2, 2), (3,))

    @pytest.mark.parametrize("entries", [np.zeros((2, 3)), np.zeros(6)], ids=["matrix", "flat"])
    def test_psi_inverse_checks_extents_first(self, entries):
        # The extents rule comes before any shape test, whatever the input's shape.
        with pytest.raises(DimensionError, match=r"^row extents must be positive integers, got \(2\.5,\)$"):
            tc.psi_inverse(entries, (2.5,), (3,))

    def test_vec_stacks_row_blocks(self, rng):
        t = random_tensor(rng, (2, 2), (3,))
        v = tc.vec(t)
        assert v.row_extents == (4,) and v.col_extents == (3,)
        assert np.array_equal(v.data, t.data)
        arr = tc.to_array(t)
        varr = tc.to_array(v)
        for i1 in range(2):
            for i2 in range(2):
                k = tc.ivec((i1 + 1, i2 + 1), (2, 2))
                assert np.array_equal(varr[k - 1], arr[i1, i2])


class TestKron:
    def test_unfolds_to_matrix_kron(self, rng):
        a = random_tensor(rng, (2,), (3,))
        b = random_tensor(rng, (2, 2), (2,))
        k = tc.kron(a, b)
        assert k.row_extents == (2, 2, 2)
        assert k.col_extents == (2, 3)
        assert np.allclose(tc.psi(k), np.kron(tc.psi(a), tc.psi(b)))

    def test_requires_nonempty_blocks(self, rng):
        a = random_tensor(rng, (2,), (3,))
        col_only = a.reshape_split((), (2, 3))
        with pytest.raises(DimensionError):
            tc.kron(a, col_only)
