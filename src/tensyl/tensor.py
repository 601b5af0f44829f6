"""Dense mode-split tensors and the algebra built on the Einstein product.

A tensor carries an explicit split of its modes into a row block
``I_1 x ... x I_M`` and a column block ``J_1 x ... x J_N``.  The flat
storage follows the first-index-fastest linearization (``ivec``) over the
concatenated index, so the ``m x n`` unfolding ``psi`` is a view of the
buffer, and ``vec`` and ``reshape_split`` copy it in the same entry order.

``psi`` is the isomorphism that turns A *_M X + X *_N C = D into the matrix
Sylvester equation psi(A) psi(X) + psi(X) psi(C) = psi(D).  It returns a
read-only view through ``_unfold``, the one reshape.  Each constructor takes
one layout: flat ivec data goes to ``DenseTensor``, an m x n matrix to
``psi_inverse``, the one fold, and a full array to ``from_array``; any other
shape is refused.  Every other module unfolds and folds through these.

The package's overflow rule and its one norm live here too: the algebra's
arithmetic runs through ``_checked``, so an overflow is one ArithmeticError
naming the operation and no numpy warning, and ``_norm`` is 2^e ||2^-e v||,
exact in its scaling and so rounded as ``np.linalg.norm`` is.
"""

import sys
from dataclasses import dataclass
from math import frexp, isfinite, prod

import numpy as np


class DimensionError(ValueError):
    """Shapes or indices incompatible with the requested operation."""


def _check_extents(extents, what):
    """``extents`` as a tuple of ints, each checked before it is converted."""
    extents = tuple(extents)
    for e in extents:
        if int(e) != e or e < 1:
            raise DimensionError(f"{what} must be positive integers, got {extents}")
    return tuple(int(e) for e in extents)


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Order-(M+N) real tensor with row/column mode split and flat storage.

    ``data`` holds the entries in ivec order over the concatenated index
    (first index fastest), i.e. a Fortran-order raveling of the full
    ``row_extents + col_extents`` shape, taken in that flat form only and
    copied.  Every entry is a finite double; the constructor rejects NaN,
    infinities and integers beyond the double range with a ValueError naming
    the first such entry.  Tensors compare and hash by identity: a
    field-wise ``==`` would compare the arrays.
    """

    row_extents: tuple
    col_extents: tuple
    data: np.ndarray

    def __init__(self, row_extents, col_extents, data):
        row_extents = _check_extents(row_extents, "row extents")
        col_extents = _check_extents(col_extents, "col extents")
        try:
            flat = np.array(data, dtype=np.float64)
        except OverflowError as exc:  # an integer beyond the double range
            entries = np.asarray(data, dtype=object).reshape(-1)
            i = next(i for i, v in enumerate(entries) if abs(v) > sys.float_info.max)
            raise ValueError(f"field 'data' entry {i}: {exc}") from exc
        if flat.ndim != 1:
            raise DimensionError(f"data of shape {flat.shape} must be flat in ivec order; fold an m x n "
                                 "matrix with psi_inverse and a full array with from_array")
        expected = prod(row_extents) * prod(col_extents)
        if flat.size != expected:
            raise DimensionError(f"data length {flat.size} does not match extents "
                                 f"{row_extents} x {col_extents} (expected {expected})")
        finite = np.isfinite(flat)
        if not finite.all():
            i = finite.argmin()
            raise ValueError(f"field 'data' entry {i} is {flat[i]}, not a finite number")
        flat.flags.writeable = False
        object.__setattr__(self, "row_extents", row_extents)
        object.__setattr__(self, "col_extents", col_extents)
        object.__setattr__(self, "data", flat)

    @property
    def m(self):
        return prod(self.row_extents)

    @property
    def n(self):
        return prod(self.col_extents)

    @property
    def extents(self):
        """Concatenated mode sizes, row block first."""
        return self.row_extents + self.col_extents

    @property
    def order(self):
        return len(self.extents)

    def reshape_split(self, row_extents, col_extents):
        """The same entries under another mode split, in a copy.

        Legal whenever the extent products match; merging or splitting
        adjacent modes keeps the first-index-fastest entry order.
        """
        return DenseTensor(row_extents, col_extents, self.data)

    def same_split(self, other):
        return (
            self.row_extents == other.row_extents
            and self.col_extents == other.col_extents
        )


def ivec(indices, extents):
    """First-index-fastest linearization of a 1-based multi-index."""
    if len(indices) != len(extents) or not extents:
        raise DimensionError(f"index {indices} incompatible with extents {extents}")
    pos = 0
    stride = 1
    for i, e in zip(indices, extents):
        if int(i) != i or not 1 <= i <= e:
            raise DimensionError(f"index {indices} out of range for {extents}")
        pos += (i - 1) * stride
        stride *= e
    return pos + 1


def from_array(array, num_row_modes):
    """Build a tensor from an ndarray, splitting after ``num_row_modes`` modes."""
    array = np.asarray(array, dtype=np.float64)
    k = num_row_modes
    if int(k) != k or not 0 <= k <= array.ndim:
        raise DimensionError(f"row mode count {k} out of range for shape {array.shape}")
    k = int(k)
    return DenseTensor(array.shape[:k], array.shape[k:], array.ravel(order="F"))


def to_array(tensor):
    """Full ndarray over the concatenated modes (read-only view semantics)."""
    shape = tensor.extents if tensor.extents else (1,)
    return tensor.data.reshape(shape, order="F")


def zeros(row_extents, col_extents):
    row_extents = _check_extents(row_extents, "row extents")
    col_extents = _check_extents(col_extents, "col extents")
    return DenseTensor(row_extents, col_extents, np.zeros(prod(row_extents) * prod(col_extents)))


def zeros_like(tensor):
    return zeros(tensor.row_extents, tensor.col_extents)


def identity(extents):
    """Identity tensor on the square split ``extents x extents``."""
    extents = _check_extents(extents, "extents")
    return psi_inverse(np.eye(prod(extents)), extents, extents)


def _check_same_split(op, a, b):
    if not a.same_split(b):
        raise DimensionError(f"{op}: splits differ ({a.row_extents}x{a.col_extents} vs "
                             f"{b.row_extents}x{b.col_extents})")


@np.errstate(over="ignore", invalid="ignore")
def _checked(quantity, compute, *operands):
    """``compute(*operands)`` on finite operands; a non-finite entry is its
    overflow: an ArithmeticError naming ``quantity``, not a numpy warning."""
    result = compute(*operands)
    if not np.isfinite(result).all():
        raise ArithmeticError(f"{quantity} overflowed the double range")
    return result


def _exponent(v):
    """e with 2^(e-1) <= max |v| < 2^e, and 0 for a zero v: 2^-e v is exact
    barring underflow, and its entries lie below 1 in magnitude."""
    return frexp(max(v.max(), -v.min()))[1]


def _norm(v):
    """2-norm of v as 2^e ||2^-e v||, e from ``_exponent``: its squares neither overflow
    nor underflow, and it is bit-equal to ``np.linalg.norm`` wherever that is finite."""
    e = _exponent(v)
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


def add(a, b):
    _check_same_split("add", a, b)
    return DenseTensor(a.row_extents, a.col_extents, _checked("add", np.add, a.data, b.data))


def subtract(a, b):
    _check_same_split("subtract", a, b)
    return DenseTensor(a.row_extents, a.col_extents, _checked("subtract", np.subtract, a.data, b.data))


def scale(factor, a):
    factor = float(factor)
    if not isfinite(factor):
        raise ValueError(f"scale factor {factor} is not a finite number")
    return DenseTensor(a.row_extents, a.col_extents, _checked("scale", np.multiply, factor, a.data))


def einstein_product(a, b, num_contracted):
    """Contract the trailing ``num_contracted`` modes of ``a`` with the
    leading ``num_contracted`` modes of ``b``."""
    k = num_contracted
    if int(k) != k or not 1 <= k <= min(a.order, b.order):
        raise DimensionError(f"contraction count {k} invalid for orders {a.order} and {b.order}")
    k = int(k)
    shared = a.extents[a.order - k :]
    if shared != b.extents[:k]:
        raise DimensionError(f"contraction extents mismatch: {shared} vs {b.extents[:k]}")
    lead = a.extents[: a.order - k]
    left, right = _unfold(a.data, prod(lead)), _unfold(b.data, prod(shared))
    return psi_inverse(_checked("einstein_product", np.matmul, left, right), lead, b.extents[k:])


def transpose(a):
    """Swap the row and column blocks; unfolds to the matrix transpose."""
    if not a.row_extents or not a.col_extents:
        raise DimensionError("transpose requires nonempty row and column blocks")
    return psi_inverse(psi(a).T, a.col_extents, a.row_extents)


def trace(a):
    if a.row_extents != a.col_extents:
        raise DimensionError(f"trace requires a square split, got {a.row_extents} x {a.col_extents}")
    return float(_checked("trace", np.trace, psi(a)))


def inner(a, b):
    """Frobenius inner product <a, b> = tr(b^T * a), one BLAS dot.  Scaling
    each operand by its own power of two would flush cross terms such as
    1e200 * 1e-200 to zero, so an overflow is reported, not avoided."""
    _check_same_split("inner", a, b)
    return float(_checked("inner", np.dot, a.data, b.data))


def fro_norm(a):
    return _checked("fro_norm", _norm, a.data)


def kron(a, b):
    """Kronecker product: blocks indexed by entries of ``a``, inner operand
    ``b`` varying fastest, so that psi(kron(a, b)) = kron(psi(a), psi(b))."""
    if not (a.row_extents and a.col_extents and b.row_extents and b.col_extents):
        raise DimensionError("kron requires nonempty row and column blocks")
    return psi_inverse(
        _checked("kron", np.kron, psi(a), psi(b)),
        b.row_extents + a.row_extents,
        b.col_extents + a.col_extents,
    )


def vec(a):
    """Stack the row-block subtensors in ivec order.

    Collapses the row block to one mode of extent m; under this storage
    order the entry order is unchanged, in a copy like every tensor's.
    """
    if not a.row_extents:
        raise DimensionError("vec requires a nonempty row block")
    return DenseTensor((a.m,), a.col_extents, a.data)


def _unfold(data, rows):
    """Flat ivec ``data`` as a column-major matrix of ``rows`` rows, zero-copy."""
    return data.reshape((rows, -1), order="F")


def psi(a):
    """The m x n unfolding with entries indexed by (ivec(i), ivec(j)).

    A read-only view of ``a.data``, made by ``_unfold``, the one reshape.
    """
    return _unfold(a.data, a.m)


def psi_inverse(matrix, row_extents, col_extents):
    """Fold an m x n matrix to a tensor; the one fold.  DenseTensor checks
    the extents and the entry count before the matrix shape."""
    matrix = np.asarray(matrix)
    tensor = DenseTensor(row_extents, col_extents, matrix.ravel(order="F"))
    if matrix.shape != (tensor.m, tensor.n):
        raise DimensionError(f"matrix shape {matrix.shape} is not the split's m x n, {(tensor.m, tensor.n)}")
    return tensor
