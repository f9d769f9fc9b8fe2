"""Numeric circuit semantics via dense unitary / statevector simulation.

The semantics of a circuit over ``q`` qubits is a ``2^q x 2^q`` unitary
obtained from the gate matrices by matrix multiplication and tensor products
(Section 2 of the paper).  This module evaluates that semantics numerically
for a given assignment of the symbolic parameters; it is used by the
fingerprinting machinery, by the phase-factor candidate search, and by tests
that cross-check the exact symbolic semantics.

Qubit-ordering convention: qubit 0 is the *most significant* bit of the
computational-basis index, matching the tensor-product order
``U_{q0} (x) U_{q1} (x) ...`` used throughout the paper's examples.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.ir.circuit import Circuit, Instruction


def instruction_unitary(inst: Instruction, param_values: Sequence[float] | Mapping[int, float] = ()) -> np.ndarray:
    """Return the gate matrix of one instruction with parameters evaluated."""
    angles = [angle.to_float(param_values) for angle in inst.params]
    return inst.gate.numeric(angles)


def expand_to_qubits(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a gate matrix acting on ``qubits`` into the full Hilbert space.

    ``matrix`` is a ``2^d x 2^d`` unitary whose d qubit operands are, in
    order, ``qubits``; the result is the ``2^n x 2^n`` unitary acting as the
    gate on those qubits and as identity elsewhere.

    Implemented as ``kron(matrix, I)`` followed by an axis permutation, so
    the embedding stays inside vectorized numpy with no per-entry loop.
    """
    num_targets = len(qubits)
    if matrix.shape != (1 << num_targets, 1 << num_targets):
        raise ValueError("matrix shape does not match number of target qubits")
    dim = 1 << num_qubits
    other_qubits = [q for q in range(num_qubits) if q not in qubits]
    # kron orders the row/column bits as (*qubits, *other_qubits); moveaxis
    # then permutes each qubit's row and column axis to its global position.
    full = np.kron(
        np.asarray(matrix, dtype=complex),
        np.eye(1 << len(other_qubits), dtype=complex),
    )
    order = list(qubits) + other_qubits
    tensor = full.reshape([2] * (2 * num_qubits))
    sources = list(range(2 * num_qubits))
    destinations = [order[i] for i in range(num_qubits)] + [
        num_qubits + order[i] for i in range(num_qubits)
    ]
    tensor = np.moveaxis(tensor, sources, destinations)
    return np.ascontiguousarray(tensor).reshape(dim, dim)


def circuit_unitary(
    circuit: Circuit, param_values: Sequence[float] | Mapping[int, float] = ()
) -> np.ndarray:
    """Return the full unitary matrix of a circuit (small circuits only).

    Gates are applied to all columns of the identity at once by reshaping the
    accumulated unitary into a rank-(q+1) tensor, which keeps the work inside
    vectorized numpy instead of the per-entry embedding of
    :func:`expand_to_qubits`.
    """
    num_qubits = circuit.num_qubits
    dim = 1 << num_qubits
    unitary = np.eye(dim, dtype=complex)
    for inst in circuit.instructions:
        gate_matrix = instruction_unitary(inst, param_values)
        qubits = inst.qubits
        tensor = unitary.reshape([2] * num_qubits + [dim])
        tensor = np.moveaxis(tensor, list(qubits), range(len(qubits)))
        moved_shape = tensor.shape
        tensor = tensor.reshape(1 << len(qubits), -1)
        # Exact: one (2^k, 2^k) @ (2^k, rest) product — this IS the
        # reference accumulation order every other path must reproduce.
        tensor = gate_matrix @ tensor  # repro: allow(nondeterministic-reduction)
        tensor = tensor.reshape(moved_shape)
        tensor = np.moveaxis(tensor, range(len(qubits)), list(qubits))
        unitary = tensor.reshape(dim, dim)
    return unitary


def apply_circuit(
    circuit: Circuit,
    state: np.ndarray,
    param_values: Sequence[float] | Mapping[int, float] = (),
) -> np.ndarray:
    """Apply a circuit to a statevector without forming the full unitary.

    This is the path the fingerprinting machinery uses: it is linear in the
    number of gates and in the state dimension rather than quadratic, which
    matters when RepGen fingerprints hundreds of thousands of circuits.
    """
    num_qubits = circuit.num_qubits
    if state.shape != (1 << num_qubits,):
        raise ValueError("state dimension does not match circuit qubit count")
    current = np.array(state, dtype=complex)
    for inst in circuit.instructions:
        gate_matrix = instruction_unitary(inst, param_values)
        current = apply_gate(current, gate_matrix, inst.qubits, num_qubits)
    return current


def apply_circuit_batch(
    circuit: Circuit,
    states: np.ndarray,
    param_values: Sequence[float] | Mapping[int, float] = (),
) -> np.ndarray:
    """Apply a circuit to a ``(num_states, 2**q)`` stack of statevectors.

    Each gate matrix is evaluated once for the whole stack, so a run over
    k states pays the per-gate dispatch once instead of k times; row i is
    bit-identical to ``apply_circuit(circuit, states[i], param_values)``.
    """
    num_qubits = circuit.num_qubits
    if states.ndim != 2 or states.shape[1] != (1 << num_qubits):
        raise ValueError(
            "states must be a (num_states, 2**num_qubits) stacked array"
        )
    current = np.array(states, dtype=complex)
    for inst in circuit.instructions:
        gate_matrix = instruction_unitary(inst, param_values)
        current = apply_gate_batch(current, gate_matrix, inst.qubits, num_qubits)
    return current


def apply_gate(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a small gate matrix to selected qubits of a statevector."""
    tensor = state.reshape([2] * num_qubits)
    axes = list(qubits)
    # Move the target axes to the front, apply the matrix, move them back.
    tensor = np.moveaxis(tensor, axes, range(len(axes)))
    front_shape = tensor.shape
    tensor = tensor.reshape(1 << len(axes), -1)
    # Exact: the per-state reference kernel — same shapes as the unitary
    # path above, and the yardstick the batched kernel is tested against.
    tensor = matrix @ tensor  # repro: allow(nondeterministic-reduction)
    tensor = tensor.reshape(front_shape)
    tensor = np.moveaxis(tensor, range(len(axes)), axes)
    return tensor.reshape(-1)


def apply_gate_batch(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply one gate matrix to a ``(num_states, 2**q)`` stack of statevectors.

    Bit-identical to calling :func:`apply_gate` on every row: the stack
    rides along as a leading broadcast axis, so ``np.matmul`` performs one
    ``(2^k, 2^k) @ (2^k, rest)`` product per state — the exact shapes (and
    hence the exact floating-point operations) of the per-state path —
    while the Python-level dispatch (reshape bookkeeping, one matmul call)
    is paid once for the whole batch.
    """
    num_states = states.shape[0]
    if num_states == 1:
        # Degenerate batch: go straight through the per-state kernel on a
        # view of the single row — no stacked-copy round trip.
        return apply_gate(states[0], matrix, qubits, num_qubits)[None]
    tensor = states.reshape([num_states] + [2] * num_qubits)
    axes = [q + 1 for q in qubits]
    tensor = np.moveaxis(tensor, axes, range(1, len(axes) + 1))
    front_shape = tensor.shape
    tensor = tensor.reshape(num_states, 1 << len(axes), -1)
    # Exact: the batch is a leading broadcast axis, so numpy performs one
    # (2^k, 2^k) @ (2^k, rest) product per state — the exact shapes (hence
    # the exact float ops) of apply_gate; asserted bit-identical by
    # tests/test_batched.py.
    tensor = np.matmul(matrix, tensor)  # repro: allow(nondeterministic-reduction)
    tensor = tensor.reshape(front_shape)
    tensor = np.moveaxis(tensor, range(1, len(axes) + 1), axes)
    return tensor.reshape(num_states, -1)


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Return a Haar-ish random normalized statevector."""
    dim = 1 << num_qubits
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def unitaries_equal_up_to_phase(
    left: np.ndarray, right: np.ndarray, tol: float = 1e-8
) -> bool:
    """Numerically check ``left = e^{i beta} right`` for some real beta."""
    if left.shape != right.shape:
        return False
    # Find the entry of right with the largest magnitude to fix the phase.
    index = np.unravel_index(np.argmax(np.abs(right)), right.shape)
    if abs(right[index]) < tol:
        return np.allclose(left, right, atol=tol)
    phase = left[index] / right[index]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return np.allclose(left, phase * right, atol=tol)


def circuits_equivalent_numeric(
    circuit_a: Circuit,
    circuit_b: Circuit,
    num_trials: int = 2,
    seed: int = 7,
    tol: float = 1e-8,
) -> bool:
    """Numerically test equivalence up to a global phase on random parameters.

    This is *not* a proof (that is the verifier's job); it is used as a fast
    screen and inside tests as an independent cross-check of the symbolic
    verdicts.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    rng = np.random.default_rng(seed)
    num_params = max(
        [p + 1 for p in circuit_a.used_params() | circuit_b.used_params()] or [0]
    )
    for _ in range(num_trials):
        params = list(rng.uniform(-np.pi, np.pi, size=num_params))
        left = circuit_unitary(circuit_a, params)
        right = circuit_unitary(circuit_b, params)
        if not unitaries_equal_up_to_phase(left, right, tol=tol):
            return False
    return True


def _num_params_of(circuit_a: Circuit, circuit_b: Circuit) -> int:
    return max(
        [p + 1 for p in circuit_a.used_params() | circuit_b.used_params()] or [0]
    )


def circuits_equivalent_statevector(
    circuit_a: Circuit,
    circuit_b: Circuit,
    *,
    num_trials: int = 2,
    seed: int = 7,
    tol: float = 1e-8,
) -> bool:
    """Random-state equivalence screen that scales linearly in the dimension.

    Unlike :func:`circuits_equivalent_numeric` this never forms a full
    unitary: both circuits are applied to random statevectors and the
    results compared up to a global phase via ``| <a|b> | = 1`` (both are
    normalized images of the same unit vector), so it stays cheap on wide
    circuits.  It is the per-trial reference that
    :func:`circuits_equivalent_statevector_batched`, the screen the
    :class:`repro.api.Superoptimizer` facade runs, must agree with.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    rng = np.random.default_rng(seed)
    num_params = _num_params_of(circuit_a, circuit_b)
    for _ in range(num_trials):
        params = list(rng.uniform(-np.pi, np.pi, size=max(num_params, 1)))
        psi = random_state(circuit_a.num_qubits, rng)
        image_a = apply_circuit(circuit_a, psi, params)
        image_b = apply_circuit(circuit_b, psi, params)
        if abs(abs(np.vdot(image_a, image_b)) - 1.0) > tol:
            return False
    return True


def equivalence_trial_inputs(
    num_qubits: int,
    num_params: int,
    *,
    num_trials: int = 2,
    seed: int = 7,
) -> tuple[list[float], np.ndarray]:
    """One shared parameter draw plus a ``(num_trials, 2**q)`` state stack.

    The parameters are drawn once and every trial state is drawn afterwards
    from the same seeded stream, so all trials of one circuit ride a single
    :func:`apply_circuit_batch` call instead of one ``apply_circuit`` per
    trial.
    """
    rng = np.random.default_rng(seed)
    params = list(rng.uniform(-np.pi, np.pi, size=max(num_params, 1)))
    states = np.stack([random_state(num_qubits, rng) for _ in range(num_trials)])
    return params, states


def circuits_equivalent_statevector_batched(
    circuit_a: Circuit,
    circuit_b: Circuit,
    *,
    num_trials: int = 2,
    seed: int = 7,
    tol: float = 1e-8,
) -> bool:
    """The random-state equivalence screen over one state stack per circuit.

    The batched restructure of :func:`circuits_equivalent_statevector`:
    parameters are drawn once and shared by every trial (see
    :func:`equivalence_trial_inputs`), so each circuit is applied to all
    trial states in one :func:`apply_circuit_batch` call.  The draws differ
    from the per-trial path's (params per trial there, once here), so the
    float streams are not comparable — but the *verdict* agrees, which
    ``tests/test_backends.py`` pins over equivalent and inequivalent pairs.
    It is the output screen of every :class:`repro.api.Superoptimizer` run.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    params, states = equivalence_trial_inputs(
        circuit_a.num_qubits,
        _num_params_of(circuit_a, circuit_b),
        num_trials=num_trials,
        seed=seed,
    )
    images_a = apply_circuit_batch(circuit_a, states, params)
    images_b = apply_circuit_batch(circuit_b, states, params)
    # Row i of each stack is the image of the same unit input state, so
    # equivalence up to a global phase means |<a_i|b_i>| = 1 per trial.
    for image_a, image_b in zip(images_a, images_b):
        if abs(abs(np.vdot(image_a, image_b)) - 1.0) > tol:
            return False
    return True
