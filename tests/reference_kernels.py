"""Bit-loop gate kernels: an independent reference for the numpy ones.

The kernels walk the statevector with explicit bit arithmetic instead of
the reshape/moveaxis route :mod:`repro.semantics.simulator` takes, so
they compute the same amplitudes through different floating-point
operations.  The batched kernel additionally specializes 1- and 2-qubit
gates, which reorders the arithmetic per output amplitude, so it agrees
with the numpy kernels to a tolerance, not bit for bit.

Bit convention (matching :mod:`repro.semantics.simulator`): qubit 0 is the
*most significant* bit of the computational-basis index, so qubit ``q``
lives at bit position ``num_qubits - 1 - q``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _apply_gate_kernel(
    state: np.ndarray, matrix: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` gate at bit positions ``shifts``.

    ``shifts[i]`` is the bit position of the gate's i-th operand qubit.  For
    every global index the local row is gathered from the target bits, and
    the output amplitude is the matrix row dotted with the amplitudes at the
    indices obtained by substituting every local column into those bits.
    """
    num_targets = shifts.shape[0]
    dim = state.shape[0]
    block = 1 << num_targets
    out = np.empty_like(state)
    for index in range(dim):
        row = 0
        for i in range(num_targets):
            row = (row << 1) | ((index >> shifts[i]) & 1)
        acc = complex(0.0, 0.0)
        for col in range(block):
            j = index
            for i in range(num_targets):
                bit = (col >> (num_targets - 1 - i)) & 1
                j = (j & ~(1 << shifts[i])) | (bit << shifts[i])
            acc = acc + matrix[row, col] * state[j]
        out[index] = acc
    return out


def _apply_gate_batch_kernel(
    states: np.ndarray, matrix: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Apply one gate to a ``(num_states, 2**q)`` stack.

    The 1- and 2-qubit bodies enumerate each ``2^k``-tuple of coupled
    amplitudes once, with unrolled arithmetic; wider gates fall back to
    the generic per-index loop.
    """
    num_states = states.shape[0]
    dim = states.shape[1]
    num_targets = shifts.shape[0]
    out = np.empty_like(states)
    if num_targets == 1:
        s0 = shifts[0]
        mask = 1 << s0
        low_mask = mask - 1
        m00 = matrix[0, 0]
        m01 = matrix[0, 1]
        m10 = matrix[1, 0]
        m11 = matrix[1, 1]
        for b in range(num_states):
            for base in range(dim >> 1):
                i0 = ((base >> s0) << (s0 + 1)) | (base & low_mask)
                i1 = i0 | mask
                a0 = states[b, i0]
                a1 = states[b, i1]
                out[b, i0] = m00 * a0 + m01 * a1
                out[b, i1] = m10 * a0 + m11 * a1
    elif num_targets == 2:
        s0 = shifts[0]
        s1 = shifts[1]
        m0 = 1 << s0
        m1 = 1 << s1
        lo = min(s0, s1)
        hi = max(s0, s1)
        lo_mask = (1 << lo) - 1
        hi_mask = (1 << hi) - 1
        for b in range(num_states):
            for base in range(dim >> 2):
                t = ((base >> lo) << (lo + 1)) | (base & lo_mask)
                t = ((t >> hi) << (hi + 1)) | (t & hi_mask)
                indices = (t, t | m1, t | m0, t | m0 | m1)
                amps = [states[b, i] for i in indices]
                for row, i in enumerate(indices):
                    out[b, i] = (
                        matrix[row, 0] * amps[0]
                        + matrix[row, 1] * amps[1]
                        + matrix[row, 2] * amps[2]
                        + matrix[row, 3] * amps[3]
                    )
    else:
        for b in range(num_states):
            out[b] = _apply_gate_kernel(states[b], matrix, shifts)
    return out


def _shifts_for(qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    return np.array([num_qubits - 1 - q for q in qubits], dtype=np.int64)


def apply_gate_reference(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """One gate on one state through the bit-loop kernel."""
    return _apply_gate_kernel(
        np.asarray(state, dtype=np.complex128),
        np.asarray(matrix, dtype=np.complex128),
        _shifts_for(qubits, num_qubits),
    )


def apply_gate_batch_reference(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """One gate on a stack of states through the specialized batch kernel."""
    return _apply_gate_batch_kernel(
        np.asarray(states, dtype=np.complex128),
        np.asarray(matrix, dtype=np.complex128),
        _shifts_for(qubits, num_qubits),
    )
