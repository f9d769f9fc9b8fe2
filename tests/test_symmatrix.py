"""Tests for symbolic matrices over trig polynomials."""

import pytest

from repro.linalg.cnumber import CNumber
from repro.linalg.symmatrix import SymMatrix
from repro.linalg.trigpoly import TrigPoly, exp_i_multiple
from repro.verifier.trig import embed_symbolic


def constant_matrix(values):
    return SymMatrix.from_entries(
        [[CNumber(v) for v in row] for row in values]
    )


class TestConstruction:
    def test_identity(self):
        identity = SymMatrix.identity(2)
        assert identity[0, 0] == TrigPoly.one()
        assert identity[0, 1] == TrigPoly.zero()

    def test_zeros(self):
        zeros = constant_matrix([[0, 0, 0], [0, 0, 0]])
        assert zeros.shape() == (2, 3)
        assert zeros.is_zero()
        assert not SymMatrix.identity(2).is_zero()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            SymMatrix([[TrigPoly.one()], [TrigPoly.one(), TrigPoly.zero()]])


class TestAlgebra:
    def test_matmul_matches_integer_matrices(self):
        a = constant_matrix([[1, 2], [3, 4]])
        b = constant_matrix([[5, 6], [7, 8]])
        product = a @ b
        expected = constant_matrix([[19, 22], [43, 50]])
        assert product == expected

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            SymMatrix.identity(2) @ SymMatrix.identity(3)

    def test_identity_is_neutral(self):
        x = constant_matrix([[1, 2], [3, 4]])
        assert SymMatrix.identity(2) @ x == x
        assert x @ SymMatrix.identity(2) == x

    # The verifier forms Kronecker products with the identity by embedding
    # a gate matrix into the full space.
    def test_tensor_product_of_identities(self):
        assert embed_symbolic(SymMatrix.identity(2), [0], 2) == SymMatrix.identity(4)
        assert embed_symbolic(SymMatrix.identity(4), [1, 0], 2) == SymMatrix.identity(4)

    def test_tensor_product_values(self):
        x = constant_matrix([[0, 1], [1, 0]])
        result = embed_symbolic(x, [0], 2)
        # X (x) I swaps the two 2x2 blocks.
        assert result[0, 2] == TrigPoly.one()
        assert result[1, 3] == TrigPoly.one()
        assert result[0, 0] == TrigPoly.zero()

    def test_scalar_mul(self):
        i_times_identity = SymMatrix.from_entries(
            [[CNumber(0, 1), CNumber(0)], [CNumber(0), CNumber(0, 1)]]
        )
        assert SymMatrix.identity(2).equals_scaled(i_times_identity, CNumber(0, 1))
        assert not SymMatrix.identity(2).equals_scaled(i_times_identity, CNumber(1))
        assert SymMatrix.identity(2).equals_scaled(
            SymMatrix.identity(2), TrigPoly.one()
        )

    def test_add_sub(self):
        x = constant_matrix([[1, 0], [0, 1]])
        assert (x + x) - x == x

    def test_unitarity_of_symbolic_rz(self):
        # diag(z^-1, z) times its adjoint diag(z, z^-1) is I symbolically.
        rz = SymMatrix(
            [
                [exp_i_multiple(-1, 0), TrigPoly.zero()],
                [TrigPoly.zero(), exp_i_multiple(1, 0)],
            ]
        )
        rz_dagger = SymMatrix(
            [
                [exp_i_multiple(1, 0), TrigPoly.zero()],
                [TrigPoly.zero(), exp_i_multiple(-1, 0)],
            ]
        )
        assert rz @ rz_dagger == SymMatrix.identity(2)

    def test_equality_and_hash(self):
        assert SymMatrix.identity(2) == SymMatrix.identity(2)
        assert hash(SymMatrix.identity(2)) == hash(SymMatrix.identity(2))
        assert SymMatrix.identity(2) != constant_matrix([[0, 0], [0, 0]])
