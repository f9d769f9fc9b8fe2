"""Exact verifier matrices as integer numpy arrays over Z[zeta8][1/2].

Every entry of a verifier matrix is a Laurent polynomial in ``z_k =
e^{i*atom_k}`` (see :mod:`repro.linalg.trigpoly`) whose coefficients lie in
Q(zeta), ``zeta = e^{i*pi/4}``.  The constants of the supported gates
(``1/sqrt(2)``, ``e^{i*k*pi/4}`` and the ``1/2`` of cos and sin) are dyadic,
so every coefficient is ``(x0 + x1*zeta + x2*zeta^2 + x3*zeta^3) / 2^s``
with integers ``x_c`` and ``zeta^4 = -1``.  In that basis ``re + i*im`` with
``re = a + b*sqrt(2)`` and ``im = c + d*sqrt(2)`` has the coordinates
``(a, b + d, c, d - b)``, because ``sqrt(2) = zeta - zeta^3``.

A :class:`LaurentMatrix` of dimension ``D`` with ``M`` monomials stores

* ``monomials`` — the sorted exponent vectors (one exponent per atom) whose
  block is not all zero;
* ``array`` — one integer array of shape ``(4*D, M*D)`` over the common
  denominator ``2**shift``: rows are (output row, zeta coordinate), columns
  are (monomial, column);
* ``bound`` — the largest ``|entry|`` of ``array``.

Distinct monomials are linearly independent characters of the torus and
1, zeta, zeta^2, zeta^3 are a basis of Q(zeta) over Q, so two matrices are
equal exactly when their monomials are and their arrays agree once brought
to a common denominator — the comparison that replaces the paper's Z3 query.

Products are exact, never rounded.  They run in float64 because numpy's
integer matmul does not use BLAS; every integer below ``2**53``, partial sums
included, is exact there.  ``left @ right`` checks that the left factor's
largest row sum of ``|entries|`` times the right factor's ``bound`` stays
below ``2**53``; if not, it divides the right factor's common powers of two
out of its denominator, and if that does not suffice it computes that one
product on Python-int object arrays.  Stored arrays use the narrowest
integer dtype whose positive range holds their largest ``|entry|`` (so
negating an entry cannot overflow), and Python-int object arrays beyond
int64.
"""

from __future__ import annotations

from math import lcm
from operator import add
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.cnumber import CNumber
from repro.linalg.symmatrix import SymMatrix

#: An exponent vector: the power of each atom's ``z_k``.
Exponents = Tuple[int, ...]

#: Every integer below this is exact in float64, partial sums included.
_EXACT = 1 << 53
_INT64_MAX = (1 << 63) - 1

#: (largest value, dtype), narrowest first.
_DTYPES = (
    (127, np.int8),
    (32_767, np.int16),
    (2_147_483_647, np.int32),
    (_INT64_MAX, np.int64),
)


def _zeta_tables(power: int) -> Tuple[np.ndarray, np.ndarray]:
    """Multiplication by ``zeta^power`` as a signed permutation of the coordinates.

    Coordinate ``c'`` of ``x * zeta^power`` is ``sign[c'] * x[source[c']]``:
    ``zeta^c`` moves to ``zeta^(c + power)``, and ``zeta^4 = -1``.
    """
    source = np.array([(target - power) % 4 for target in range(4)])
    sign = np.array(
        [-1 if (c + power) % 8 >= 4 else 1 for c in source], dtype=np.int8
    )
    return source, sign


#: ``_ROTATIONS[k]`` multiplies by ``zeta^k``.
_ROTATIONS = tuple(_zeta_tables(power) for power in range(8))

#: Left multiplication by ``x`` as a 4x4 integer matrix over the coordinates:
#: entry ``[c', c]`` (the ``zeta^c'`` coordinate of ``x * zeta^c``) is
#: ``_FOLD_SIGN[c', c] * x[_FOLD_SOURCE[c', c]]``.
_FOLD_SOURCE = np.stack([_ROTATIONS[c][0] for c in range(4)], axis=1)
_FOLD_SIGN = np.stack([_ROTATIONS[c][1] for c in range(4)], axis=1)


def zeta_coordinates(value: CNumber, denominator: int) -> Tuple[int, int, int, int]:
    """The coordinates of ``value * denominator`` in the basis 1, zeta, zeta^2, zeta^3.

    ``denominator`` must be a multiple of both parts' denominators
    (``value.re.d`` and ``value.im.d``), so the coordinates are integers.
    """
    re, im = value.re, value.im
    re_scale = denominator // re.d
    im_scale = denominator // im.d
    b = re.q * re_scale
    d = im.q * im_scale
    return (re.p * re_scale, b + d, im.p * im_scale, d - b)


def _narrowest(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` (integer-valued, largest |entry| ``bound``) in its smallest dtype."""
    for largest, dtype in _DTYPES:
        if bound <= largest:
            return values.astype(dtype)
    return values.astype(object)


def _halved(values: np.ndarray, shift: int, bound: int) -> Tuple[np.ndarray, int, int]:
    """Divide the common powers of two out of ``values / 2**shift``.

    The denominator stays an integer: at most ``shift`` halvings.
    """
    if not shift or not bound:
        return values, shift, bound
    bits = int(np.bitwise_or.reduce(values, axis=None))
    halvings = min((bits & -bits).bit_length() - 1, shift)
    if not halvings:
        return values, shift, bound
    return values >> halvings, shift - halvings, bound >> halvings


def _scaled(values: np.ndarray, bound: int, doublings: int) -> np.ndarray:
    """``values * 2**doublings``, widened so that nothing overflows."""
    if not doublings:
        return values
    if bound << doublings <= _INT64_MAX:
        return values.astype(np.int64) << doublings
    return values.astype(object) * (1 << doublings)


class LaurentMatrix:
    """An exact matrix of Laurent polynomials over Z[zeta8][1/2] (see module doc)."""

    __slots__ = ("monomials", "array", "shift", "bound", "_operator")

    def __init__(
        self,
        monomials: Tuple[Exponents, ...],
        array: np.ndarray,
        shift: int,
        bound: int,
    ) -> None:
        self.monomials = monomials
        self.array = array
        self.shift = shift
        self.bound = bound
        # (folded array, largest row sum of |entries|), built on first use
        # as a left factor.
        self._operator: Optional[Tuple[np.ndarray, int]] = None

    @property
    def dim(self) -> int:
        """The matrix dimension ``D`` (``2**num_qubits``)."""
        return self.array.shape[0] // 4

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(dim: int, num_atoms: int) -> "LaurentMatrix":
        """The ``dim x dim`` identity over ``num_atoms`` atoms."""
        values = np.zeros((4 * dim, dim), dtype=np.int8)
        values[np.arange(dim) * 4, np.arange(dim)] = 1
        return LaurentMatrix(((0,) * num_atoms,), values, 0, 1)

    @staticmethod
    def from_symbolic(matrix: SymMatrix, num_atoms: int) -> "LaurentMatrix":
        """Convert a :class:`SymMatrix` whose monomials name atoms below ``num_atoms``.

        Raises:
            ValueError: if a coefficient is not dyadic in the zeta basis.
        """
        dim = matrix.num_rows
        terms = []
        denominator = 1
        for row, entries in enumerate(matrix.rows):
            for col, entry in enumerate(entries):
                for monomial, coefficient in entry.terms.items():
                    exponents = [0] * num_atoms
                    for atom, power in monomial:
                        exponents[atom] = power
                    # The coordinates' denominators divide lcm(re.d, im.d),
                    # and an odd factor of either reaches a coordinate.
                    denominator = lcm(denominator, coefficient.re.d, coefficient.im.d)
                    terms.append((tuple(exponents), row, col, coefficient))
        if denominator & (denominator - 1):
            raise ValueError(
                f"a coefficient with denominator {denominator} is not dyadic "
                "in the zeta basis"
            )
        monomials = tuple(sorted({term[0] for term in terms}))
        position = {monomial: index for index, monomial in enumerate(monomials)}
        width = len(monomials) * dim
        values = [0] * (4 * dim * width)
        for exponents, row, col, coefficient in terms:
            cell = 4 * row * width + position[exponents] * dim + col
            values[cell : cell + 4 * width : width] = zeta_coordinates(
                coefficient, denominator
            )
        bound = max(map(abs, values), default=0)
        array, shift, bound = _halved(
            np.array(values, dtype=object).reshape(4 * dim, width),
            denominator.bit_length() - 1,
            bound,
        )
        return LaurentMatrix(monomials, _narrowest(array, bound), shift, bound)

    # -- algebra -------------------------------------------------------------

    def _folded(self) -> Tuple[np.ndarray, int]:
        """This matrix as a left factor, with the zeta product table folded in.

        Rows are (monomial, output row, zeta coordinate) and columns
        (input row, zeta coordinate), so one matmul against a right factor's
        array multiplies every block pair at once.
        """
        if self._operator is None:
            dim = self.dim
            count = len(self.monomials)
            # [monomial, row, column, zeta coordinate]
            grid = self.array.reshape(dim, 4, count, dim).transpose(2, 0, 3, 1)
            # [monomial, row, column, c', c] -> rows (monomial, row, c')
            folded = (grid[..., _FOLD_SOURCE] * _FOLD_SIGN).transpose(0, 1, 3, 2, 4)
            folded = folded.reshape(count * dim * 4, dim * 4)
            # An output block sums at most one product per left monomial.
            row_sums = np.abs(folded).reshape(count, dim * 4, dim * 4).sum(axis=(0, 2))
            row_bound = int(row_sums.max())
            self._operator = (_narrowest(folded, row_bound), row_bound)
        return self._operator

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """The exact product ``self @ other`` (see the module docstring)."""
        dim = self.dim
        rows = 4 * dim
        if not self.monomials or not other.monomials:
            return LaurentMatrix((), np.zeros((rows, 0), dtype=np.int8), 0, 0)
        operator, row_bound = self._folded()
        values, shift, bound = other.array, other.shift, other.bound
        if row_bound * bound >= _EXACT:
            values, shift, bound = _halved(values, shift, bound)
        if row_bound * bound < _EXACT:
            product = operator.astype(np.float64) @ values.astype(np.float64)
        else:
            product = operator.astype(object) @ values.astype(object)

        if len(self.monomials) == 1:
            # One left monomial shifts every right monomial alike, so the
            # product is already in layout and in order.
            (left,) = self.monomials
            keys = [tuple(map(add, left, right)) for right in other.monomials]
            stacked = product
        else:
            sums: Dict[Exponents, np.ndarray] = {}
            for left_index, left in enumerate(self.monomials):
                band = product[left_index * rows : (left_index + 1) * rows]
                for right_index, right in enumerate(other.monomials):
                    key = tuple(map(add, left, right))
                    block = band[:, right_index * dim : (right_index + 1) * dim]
                    total = sums.get(key)
                    sums[key] = block if total is None else total + block
            keys = sorted(sums)
            stacked = np.concatenate([sums[key] for key in keys], axis=1)
        # The largest |entry| of each monomial block; all-zero blocks drop.
        block_bounds = np.abs(stacked).max(axis=0).reshape(len(keys), dim).max(axis=1).tolist()
        if 0 in block_bounds:
            kept = [index for index, block in enumerate(block_bounds) if block]
            keys = [keys[index] for index in kept]
            stacked = stacked.reshape(rows, -1, dim)[:, kept, :].reshape(rows, -1)
            block_bounds = [block_bounds[index] for index in kept]
        stacked_bound = int(max(block_bounds, default=0))
        return LaurentMatrix(
            tuple(keys),
            _narrowest(stacked, stacked_bound),
            self.shift + shift,
            stacked_bound,
        )

    def equals_scaled(
        self, other: "LaurentMatrix", zeta_power: int, exponents: Sequence[int]
    ) -> bool:
        """Check ``zeta^zeta_power * z^exponents * self == other`` exactly."""
        if len(self.monomials) != len(other.monomials):
            return False
        for mine, theirs in zip(self.monomials, other.monomials):
            if tuple(map(add, mine, exponents)) != theirs:
                return False
        doublings = other.shift - self.shift
        left_doublings = max(doublings, 0)
        right_doublings = max(-doublings, 0)
        # A signed permutation keeps the largest |entry|: a cheap reject.
        if self.bound << left_doublings != other.bound << right_doublings:
            return False
        rotated = self.array
        if zeta_power % 8:
            source, sign = _ROTATIONS[zeta_power % 8]
            grid = rotated.reshape(self.dim, 4, -1)
            rotated = (grid[:, source, :] * sign[None, :, None]).reshape(rotated.shape)
        return bool(
            np.array_equal(
                _scaled(rotated, self.bound, left_doublings),
                _scaled(other.array, other.bound, right_doublings),
            )
        )
