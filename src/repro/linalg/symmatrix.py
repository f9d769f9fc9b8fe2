"""Dense symbolic matrices over trig polynomials.

The verifier composes embedded gate matrices by matrix multiplication and
compares two circuit matrices up to a symbolic phase factor.  Matrices here
are small — ``2^q x 2^q`` with ``q <= 4`` in all experiments — so a simple
dense row-major representation is adequate.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.linalg.cnumber import CNumber
from repro.linalg.trigpoly import TrigPoly

# TrigPoly values are never mutated, so every zero entry of a product can
# share one instance; products of gate matrices are mostly zeros, and a
# fresh object per zero would dominate the verifier's matrix cache.
_ZERO = TrigPoly.zero()


class SymMatrix:
    """A dense matrix whose entries are :class:`TrigPoly` values."""

    __slots__ = ("rows", "num_rows", "num_cols")

    def __init__(self, rows: Sequence[Sequence[TrigPoly]]) -> None:
        self.rows: List[List[TrigPoly]] = [list(row) for row in rows]
        self.num_rows = len(self.rows)
        self.num_cols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.num_cols:
                raise ValueError("ragged rows in SymMatrix")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(size: int) -> "SymMatrix":
        return SymMatrix(
            [
                [TrigPoly.one() if i == j else TrigPoly.zero() for j in range(size)]
                for i in range(size)
            ]
        )

    @staticmethod
    def from_entries(entries: Sequence[Sequence[object]]) -> "SymMatrix":
        """Build a matrix from entries coercible to :class:`TrigPoly`."""
        rows = []
        for row in entries:
            converted = []
            for entry in row:
                if isinstance(entry, TrigPoly):
                    converted.append(entry)
                elif isinstance(entry, CNumber):
                    converted.append(TrigPoly.constant(entry))
                else:
                    converted.append(TrigPoly.constant(entry))  # type: ignore[arg-type]
            rows.append(converted)
        return SymMatrix(rows)

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, index: tuple[int, int]) -> TrigPoly:
        row, col = index
        return self.rows[row][col]

    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "SymMatrix") -> "SymMatrix":
        if self.num_cols != other.num_rows:
            raise ValueError(
                f"shape mismatch: {self.shape()} @ {other.shape()}"
            )
        other_rows = other.rows
        result = []
        for left_row in self.rows:
            # Gate matrices are mostly zeros: walk only the nonzero entries
            # of the left row instead of the whole inner dimension.
            nonzero = [(k, left) for k, left in enumerate(left_row) if left.terms]
            row = []
            for j in range(other.num_cols):
                acc = None
                for k, left in nonzero:
                    right = other_rows[k][j]
                    if not right.terms:
                        continue
                    product = left * right
                    acc = product if acc is None else acc + product
                row.append(_ZERO if acc is None else acc)
            result.append(row)
        return SymMatrix(result)

    def equals_scaled(self, other: "SymMatrix", scalar: TrigPoly | CNumber) -> bool:
        """Check ``scalar * self == other`` without materializing the product.

        Zero entries are compared directly (skipping the polynomial
        multiplication — gate matrices are mostly zeros) and the scan exits
        on the first mismatch, which makes rejecting wrong phase candidates
        cheap in the verifier's hot loop.
        """
        if self.shape() != other.shape():
            return False
        poly = scalar if isinstance(scalar, TrigPoly) else TrigPoly.constant(scalar)
        for self_row, other_row in zip(self.rows, other.rows):
            for entry, expected in zip(self_row, other_row):
                if entry.is_zero():
                    if not expected.is_zero():
                        return False
                elif poly * entry != expected:
                    return False
        return True

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in addition")
        return SymMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.num_cols)]
                for i in range(self.num_rows)
            ]
        )

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in subtraction")
        return SymMatrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.num_cols)]
                for i in range(self.num_rows)
            ]
        )

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.rows for entry in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if self.shape() != other.shape():
            return False
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.num_rows)
            for j in range(self.num_cols)
        )

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self.rows))

    def __repr__(self) -> str:
        return f"SymMatrix({self.num_rows}x{self.num_cols})"

    def __str__(self) -> str:
        lines = []
        for row in self.rows:
            lines.append("[" + ", ".join(str(entry) for entry in row) + "]")
        return "\n".join(lines)
