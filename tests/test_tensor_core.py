"""Core tensor algebra: storage layout, unfoldings, and operations."""

import numpy as np
import pytest

from tensyl import tensor as tc
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

    def test_reshape_split_is_metadata_only(self, rng):
        t = random_tensor(rng, (2, 3), (4,))
        r = t.reshape_split((6,), (2, 2))
        assert np.array_equal(r.data, t.data)
        with pytest.raises(DimensionError):
            t.reshape_split((5,), (4,))

    def test_operators(self, rng):
        a = random_tensor(rng, (2,), (3,))
        b = random_tensor(rng, (2,), (3,))
        assert np.allclose((a + b).data, a.data + b.data)
        assert np.allclose((a - b).data, a.data - b.data)
        assert np.allclose((2.5 * a).data, 2.5 * a.data)


class TestArrayConversion:
    def test_round_trip(self, rng):
        arr = rng.uniform(-1, 1, (2, 3, 4, 2))
        t = tc.from_array(arr, 2)
        assert t.row_extents == (2, 3) and t.col_extents == (4, 2)
        assert np.array_equal(tc.to_array(t), arr)

    def test_from_array_bad_split(self):
        with pytest.raises(DimensionError):
            tc.from_array(np.zeros((2, 2)), 3)

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

    def test_fro_norm_of_integer_ramp(self):
        t = DenseTensor((4, 3), (3, 3), np.arange(1.0, 109.0))
        assert tc.fro_norm(t) == pytest.approx(np.sqrt(425754.0))


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
        flat = tc.psi_inverse(tc.psi(t).ravel(order="F"), (2, 3), (2, 2))
        assert flat.same_split(t)
        assert np.array_equal(flat.data, t.data)

    def test_psi_inverse_validates_shape(self):
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros((4, 3)), (2, 3), (2,))
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros((4, 3)), (2,), (3,))
        with pytest.raises(DimensionError):
            tc.psi_inverse(np.zeros(11), (2, 2), (3,))

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
