"""Dense mode-split tensors and the algebra built on the Einstein product.

A tensor carries an explicit split of its modes into a row block
``I_1 x ... x I_M`` and a column block ``J_1 x ... x J_N``.  The flat
storage follows the first-index-fastest linearization (``ivec``) over the
concatenated index, so the ``m x n`` unfolding ``psi`` and the row-block
stacking ``vec`` are pure metadata operations on the same buffer.

``psi`` is the isomorphism that turns A *_M X + X *_N C = D into the matrix
Sylvester equation psi(A) psi(X) + psi(X) psi(C) = psi(D).  It returns a
read-only ndarray view, and ``psi_inverse`` folds a matrix (or its
column-major flat vector) back; every other module unfolds through them.
"""

import sys
from dataclasses import dataclass
from math import prod

import numpy as np


class DimensionError(ValueError):
    """Shapes or indices incompatible with the requested operation."""


def _check_extents(extents, what):
    for e in extents:
        if int(e) != e or e < 1:
            raise DimensionError(f"{what} must be positive integers, got {extents}")


@dataclass(frozen=True)
class DenseTensor:
    """Order-(M+N) real tensor with row/column mode split and flat storage.

    ``data`` holds the entries in ivec order over the concatenated index
    (first index fastest), i.e. a Fortran-order raveling of the full
    ``row_extents + col_extents`` shape.  Every entry is a finite double;
    the constructor rejects NaN, infinities and integers beyond the double
    range with a ValueError naming the first such entry.
    """

    row_extents: tuple
    col_extents: tuple
    data: np.ndarray

    def __init__(self, row_extents, col_extents, data):
        row_extents = tuple(int(e) for e in row_extents)
        col_extents = tuple(int(e) for e in col_extents)
        _check_extents(row_extents, "row extents")
        _check_extents(col_extents, "col extents")
        try:
            flat = np.asarray(data, dtype=np.float64).reshape(-1)
        except OverflowError as exc:  # an integer beyond the double range
            entries = np.asarray(data, dtype=object).reshape(-1)
            i = next(i for i, v in enumerate(entries) if abs(v) > sys.float_info.max)
            raise ValueError(f"field 'data' entry {i}: {exc}") from exc
        expected = prod(row_extents) * prod(col_extents)
        if flat.size != expected:
            raise DimensionError(
                f"data length {flat.size} does not match extents "
                f"{row_extents} x {col_extents} (expected {expected})"
            )
        finite = np.isfinite(flat)
        if not finite.all():
            i = finite.argmin()
            raise ValueError(f"field 'data' entry {i} is {flat[i]}, not a finite number")
        flat = np.array(flat, copy=True)
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
        """Reinterpret the mode split without touching the data.

        Legal whenever the extent products match; merging or splitting
        adjacent modes preserves the first-index-fastest layout.
        """
        return DenseTensor(row_extents, col_extents, self.data)

    def same_split(self, other):
        return (
            self.row_extents == other.row_extents
            and self.col_extents == other.col_extents
        )

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __rmul__(self, factor):
        return scale(factor, self)


def ivec(indices, extents):
    """First-index-fastest linearization of a 1-based multi-index."""
    if len(indices) != len(extents) or not extents:
        raise DimensionError(
            f"index {indices} incompatible with extents {extents}"
        )
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
    if not 0 <= num_row_modes <= array.ndim:
        raise DimensionError(
            f"row mode count {num_row_modes} out of range for shape {array.shape}"
        )
    return DenseTensor(
        array.shape[:num_row_modes],
        array.shape[num_row_modes:],
        array.ravel(order="F"),
    )


def to_array(tensor):
    """Full ndarray over the concatenated modes (read-only view semantics)."""
    shape = tensor.extents if tensor.extents else (1,)
    return tensor.data.reshape(shape, order="F")


def zeros(row_extents, col_extents):
    row_extents = tuple(row_extents)
    col_extents = tuple(col_extents)
    return DenseTensor(
        row_extents, col_extents, np.zeros(prod(row_extents) * prod(col_extents))
    )


def zeros_like(tensor):
    return zeros(tensor.row_extents, tensor.col_extents)


def identity(extents):
    """Identity tensor on the square split ``extents x extents``."""
    extents = tuple(extents)
    _check_extents(extents, "extents")
    m = prod(extents)
    return DenseTensor(extents, extents, np.eye(m).ravel(order="F"))


def _check_same_split(op, a, b):
    if not a.same_split(b):
        raise DimensionError(
            f"{op}: splits differ ({a.row_extents}x{a.col_extents} vs "
            f"{b.row_extents}x{b.col_extents})"
        )


def add(a, b):
    _check_same_split("add", a, b)
    return DenseTensor(a.row_extents, a.col_extents, a.data + b.data)


def subtract(a, b):
    _check_same_split("subtract", a, b)
    return DenseTensor(a.row_extents, a.col_extents, a.data - b.data)


def scale(factor, a):
    return DenseTensor(a.row_extents, a.col_extents, float(factor) * a.data)


def einstein_product(a, b, num_contracted):
    """Contract the trailing ``num_contracted`` modes of ``a`` with the
    leading ``num_contracted`` modes of ``b``."""
    k = int(num_contracted)
    if k < 1 or k > a.order or k > b.order:
        raise DimensionError(
            f"contraction count {k} invalid for orders {a.order} and {b.order}"
        )
    shared = a.extents[a.order - k :]
    if shared != b.extents[:k]:
        raise DimensionError(
            f"contraction extents mismatch: {shared} vs {b.extents[:k]}"
        )
    lead = a.extents[: a.order - k]
    trail = b.extents[k:]
    p = prod(shared)
    left = a.data.reshape((prod(lead), p), order="F")
    right = b.data.reshape((p, prod(trail)), order="F")
    return DenseTensor(lead, trail, (left @ right).ravel(order="F"))


def transpose(a):
    """Swap the row and column blocks; unfolds to the matrix transpose."""
    if not a.row_extents or not a.col_extents:
        raise DimensionError("transpose requires nonempty row and column blocks")
    return DenseTensor(a.col_extents, a.row_extents, psi(a).T.ravel(order="F"))


def trace(a):
    if a.row_extents != a.col_extents:
        raise DimensionError(
            f"trace requires a square split, got {a.row_extents} x {a.col_extents}"
        )
    return float(np.trace(psi(a)))


def inner(a, b):
    """Frobenius inner product <a, b> = tr(b^T * a)."""
    _check_same_split("inner", a, b)
    return float(np.dot(a.data, b.data))


def fro_norm(a):
    return float(np.linalg.norm(a.data))


def kron(a, b):
    """Kronecker product: blocks indexed by entries of ``a``, inner operand
    ``b`` varying fastest, so that psi(kron(a, b)) = kron(psi(a), psi(b))."""
    if not (a.row_extents and a.col_extents and b.row_extents and b.col_extents):
        raise DimensionError("kron requires nonempty row and column blocks")
    mat = np.kron(psi(a), psi(b))
    return DenseTensor(
        b.row_extents + a.row_extents,
        b.col_extents + a.col_extents,
        mat.ravel(order="F"),
    )


def vec(a):
    """Stack the row-block subtensors in ivec order.

    Collapses the row block to one mode of extent m; under this storage
    order the flat data is unchanged.
    """
    if not a.row_extents:
        raise DimensionError("vec requires a nonempty row block")
    return DenseTensor((a.m,), a.col_extents, a.data)


def psi(a):
    """The m x n unfolding with entries indexed by (ivec(i), ivec(j)).

    A read-only view of ``a.data``: the one place the layout is spelled out.
    """
    return a.data.reshape((a.m, a.n), order="F")


def psi_inverse(view, row_extents, col_extents):
    """Fold an m x n matrix, or its column-major flat vector, to a tensor."""
    entries = np.asarray(view)
    row_extents = tuple(row_extents)
    col_extents = tuple(col_extents)
    if entries.size != prod(row_extents) * prod(col_extents):
        raise DimensionError(
            f"matrix with {entries.size} entries cannot fold to "
            f"{row_extents} x {col_extents}"
        )
    if entries.ndim != 1 and (entries.ndim != 2 or entries.shape[0] != prod(row_extents)):
        raise DimensionError(
            f"matrix shape {entries.shape} does not match row extents {row_extents}"
        )
    return DenseTensor(row_extents, col_extents, entries.ravel(order="F"))
