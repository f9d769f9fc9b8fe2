"""Pluggable statevector-simulation backends.

The fingerprint loop and the numeric screens spend essentially all of their
time applying small gate matrices to statevectors.  This module abstracts
that hot path behind a :class:`SimulatorBackend` protocol — ``apply_gate``,
``apply_circuit``, ``circuit_unitary``, ``random_state``, plus the batched
multi-state API ``apply_gate_batch`` / ``apply_circuit_batch`` /
``inner_product_batch`` operating on ``(num_states, 2**q)`` stacks — with a
registry of interchangeable implementations:

* ``"numpy"`` — the reference implementation (the exact code path the seed
  revision used, so fingerprint hash keys stay bit-identical), and the only
  backend the library registers.

Further backends registered here are selected by name through
:class:`repro.api.RunConfig` (``backend=...``) or passed directly to
:class:`~repro.semantics.fingerprint.FingerprintContext`.

The random inputs (``random_state``) are deliberately *not* backend
specific: every backend inherits the numpy implementation so that all
backends fingerprint against the same |psi0>, |psi1>.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.ir.circuit import Circuit
from repro.semantics import simulator as _numpy_sim
from repro.semantics.simulator import instruction_unitary, random_state

#: The always-available reference backend.
DEFAULT_BACKEND = "numpy"


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend's runtime dependency is missing."""


class SimulatorBackend:
    """Base class / protocol for statevector-simulation backends.

    Subclasses must implement :meth:`apply_gate`; the circuit-level and
    batched multi-state operations have generic implementations in terms of
    it.  ``name`` is the registry key and appears in fingerprint specs and
    run reports.

    The batched API (:meth:`apply_gate_batch`, :meth:`apply_circuit_batch`,
    :meth:`inner_product_batch`) operates on a ``(num_states, 2**q)``
    stacked array so one call amortizes per-gate dispatch over the whole
    stack.  ``batch_bit_identical`` declares whether a backend's batched
    kernels perform the exact floating-point operations of its per-state
    path (the generic loop trivially does; a fused compiled kernel may
    reorder arithmetic) — consumers that cache results by hash key use it
    to decide whether batched and per-state runs may share a namespace.
    """

    name: str = "abstract"
    #: How the batched API is implemented: "per-state" (generic loop),
    #: "vectorized" (numpy broadcast) or "jit" (compiled kernel).
    batch_kind: str = "per-state"
    #: Whether the batched kernels are bit-identical to the per-state path.
    batch_bit_identical: bool = True

    def apply_gate(
        self,
        state: np.ndarray,
        matrix: np.ndarray,
        qubits: Sequence[int],
        num_qubits: int,
    ) -> np.ndarray:
        """Apply a small gate matrix to selected qubits of a statevector."""
        raise NotImplementedError

    def apply_circuit(
        self,
        circuit: Circuit,
        state: np.ndarray,
        param_values: Sequence[float] | Mapping[int, float] = (),
    ) -> np.ndarray:
        """Apply a circuit to a statevector gate by gate."""
        num_qubits = circuit.num_qubits
        if state.shape != (1 << num_qubits,):
            raise ValueError("state dimension does not match circuit qubit count")
        current = np.array(state, dtype=complex)
        for inst in circuit.instructions:
            gate_matrix = instruction_unitary(inst, param_values)
            current = self.apply_gate(current, gate_matrix, inst.qubits, num_qubits)
        return current

    def circuit_unitary(
        self,
        circuit: Circuit,
        param_values: Sequence[float] | Mapping[int, float] = (),
    ) -> np.ndarray:
        """Full unitary of a circuit, built by evolving every basis state.

        All ``2^q`` basis states ride through :meth:`apply_circuit_batch` in
        one stack, so the per-gate dispatch is paid once per gate instead of
        once per gate per column.  Note this primitive always batches — it
        is not governed by the fingerprint-path ``REPRO_BATCHED`` knob — so
        on a backend whose batch kernels are not bit-identical the
        floats may differ by ulps from per-column ``apply_circuit`` calls;
        callers needing the per-state arithmetic evolve columns themselves.
        """
        dim = 1 << circuit.num_qubits
        basis = np.eye(dim, dtype=complex)
        return self.apply_circuit_batch(circuit, basis, param_values).T.copy()

    # -- batched multi-state operations --------------------------------------

    def apply_gate_batch(
        self,
        states: np.ndarray,
        matrix: np.ndarray,
        qubits: Sequence[int],
        num_qubits: int,
    ) -> np.ndarray:
        """Apply one gate matrix to a ``(num_states, 2**q)`` stack of states.

        The generic implementation loops :meth:`apply_gate` over the rows —
        trivially bit-identical to the per-state path; fast backends
        override with a fused kernel.
        """
        if states.shape[0] == 1:
            # Degenerate batch: operate on a view of the single row so no
            # stacked copy is allocated on the way in or out.
            return self.apply_gate(states[0], matrix, qubits, num_qubits)[None]
        return np.stack(
            [self.apply_gate(state, matrix, qubits, num_qubits) for state in states]
        )

    def apply_circuit_batch(
        self,
        circuit: Circuit,
        states: np.ndarray,
        param_values: Sequence[float] | Mapping[int, float] = (),
    ) -> np.ndarray:
        """Apply a circuit to a stack of statevectors, gate by gate.

        Each gate matrix is evaluated once for the whole stack, so a run
        over k states pays the per-gate dispatch once instead of k times.
        """
        num_qubits = circuit.num_qubits
        if states.ndim != 2 or states.shape[1] != (1 << num_qubits):
            raise ValueError(
                "states must be a (num_states, 2**num_qubits) stacked array"
            )
        current = np.array(states, dtype=complex)
        for inst in circuit.instructions:
            gate_matrix = instruction_unitary(inst, param_values)
            current = self.apply_gate_batch(
                current, gate_matrix, inst.qubits, num_qubits
            )
        return current

    def inner_product_batch(self, bra: np.ndarray, states: np.ndarray) -> np.ndarray:
        """``<bra|state_i>`` for every row of a ``(num_states, dim)`` stack.

        The generic implementation performs one ``np.vdot`` per row — the
        exact operation (and float result) of the per-state path.  A BLAS
        matrix-vector product would reorder the accumulation, so backends
        may only override this with a kernel when they also declare
        ``batch_bit_identical = False``.
        """
        return np.array([np.vdot(bra, state) for state in states], dtype=complex)

    def random_state(self, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
        """Haar-ish random state — shared across backends (see module doc)."""
        return random_state(num_qubits, rng)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(SimulatorBackend):
    """The reference backend: vectorized numpy (bit-identical to the seed).

    Its batched gate kernel broadcasts the stack through one ``np.matmul``
    whose per-state slices have the exact shapes of the per-state path, so
    batching is bit-identical here (``batch_bit_identical`` stays True and
    fingerprint hash keys do not depend on whether batching is enabled).
    """

    name = "numpy"
    batch_kind = "vectorized"
    batch_bit_identical = True

    def apply_gate(self, state, matrix, qubits, num_qubits):
        return _numpy_sim._apply_gate_to_state(state, matrix, qubits, num_qubits)

    def apply_gate_batch(self, states, matrix, qubits, num_qubits):
        return _numpy_sim._apply_gate_to_state_batch(
            states, matrix, qubits, num_qubits
        )

    def apply_circuit(self, circuit, state, param_values=()):
        return _numpy_sim.apply_circuit(circuit, state, param_values)

    def circuit_unitary(self, circuit, param_values=()):
        return _numpy_sim.circuit_unitary(circuit, param_values)


# -- registry ----------------------------------------------------------------

#: name -> zero-argument factory.  Factories may raise
#: :class:`BackendUnavailableError` when their dependency is missing.
_FACTORIES: Dict[str, Callable[[], SimulatorBackend]] = {}
#: name -> instantiated backend (backends are stateless, so one each).
_INSTANCES: Dict[str, SimulatorBackend] = {}


def register_backend(
    name: str, factory: Callable[[], SimulatorBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``."""
    key = name.lower()
    if key in _FACTORIES and not replace:
        raise ValueError(f"simulator backend {name!r} is already registered")
    # Registration happens at import time (this module registers numpy
    # below; tests registering fakes run parent-side before any pool exists),
    # so the registry is identical in every process at fork.
    _FACTORIES[key] = factory  # repro: allow(mutable-module-global)
    _INSTANCES.pop(key, None)  # repro: allow(mutable-module-global)


def get_backend(name: str | SimulatorBackend = DEFAULT_BACKEND) -> SimulatorBackend:
    """Resolve a backend by name (or pass an instance through unchanged)."""
    if isinstance(name, SimulatorBackend):
        return name
    key = str(name).lower()
    if key in _INSTANCES:
        return _INSTANCES[key]
    factory = _FACTORIES.get(key)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown simulator backend {name!r} (registered: {known})")
    backend = factory()
    # Memoizing an instance is safe across forks: backends are stateless by
    # contract (same inputs -> bit-identical outputs in every process), so a
    # worker memoizing its own copy cannot diverge from the parent's.
    _INSTANCES[key] = backend  # repro: allow(mutable-module-global)
    return backend


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its dependencies are importable."""
    try:
        get_backend(name)
    except (KeyError, BackendUnavailableError):
        return False
    return True


def available_backends() -> List[str]:
    """Registered backend names whose dependencies are present, sorted."""
    return sorted(name for name in _FACTORIES if backend_available(name))


def registered_backends() -> List[str]:
    """All registered backend names, available or not, sorted."""
    return sorted(_FACTORIES)


def circuits_equivalent_statevector(
    circuit_a: Circuit,
    circuit_b: Circuit,
    *,
    backend: str | SimulatorBackend = DEFAULT_BACKEND,
    num_trials: int = 2,
    seed: int = 7,
    tol: float = 1e-8,
) -> bool:
    """Random-state equivalence screen that scales linearly in the dimension.

    Unlike :func:`repro.semantics.simulator.circuits_equivalent_numeric`
    this never forms a full unitary: both circuits are applied to random
    statevectors and the results compared up to a global phase via
    ``| <a|b> | = 1`` (both are normalized images of the same unit vector),
    so it stays cheap on wide circuits.  It is the per-trial reference
    that :func:`circuits_equivalent_statevector_batched`, the screen the
    :class:`repro.api.Superoptimizer` facade runs, must agree with.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    resolved = get_backend(backend)
    rng = np.random.default_rng(seed)
    num_params = max(
        [p + 1 for p in circuit_a.used_params() | circuit_b.used_params()] or [0]
    )
    for _ in range(num_trials):
        params = list(rng.uniform(-np.pi, np.pi, size=max(num_params, 1)))
        psi = resolved.random_state(circuit_a.num_qubits, rng)
        image_a = resolved.apply_circuit(circuit_a, psi, params)
        image_b = resolved.apply_circuit(circuit_b, psi, params)
        if abs(abs(np.vdot(image_a, image_b)) - 1.0) > tol:
            return False
    return True


def equivalence_trial_inputs(
    num_qubits: int,
    num_params: int,
    *,
    num_trials: int = 2,
    seed: int = 7,
    backend: str | SimulatorBackend = DEFAULT_BACKEND,
) -> tuple[List[float], np.ndarray]:
    """One shared parameter draw plus a ``(num_trials, 2**q)`` state stack.

    The shared-draw restructure of the output-verification screen: instead
    of drawing fresh parameters per trial (which forces one
    ``apply_circuit`` per trial state), the parameters are drawn once and
    every trial state is drawn afterwards from the same seeded stream — so
    all trials of one circuit ride a single
    :meth:`SimulatorBackend.apply_circuit_batch` call.
    """
    resolved = get_backend(backend)
    rng = np.random.default_rng(seed)
    params = list(rng.uniform(-np.pi, np.pi, size=max(num_params, 1)))
    states = np.stack(
        [resolved.random_state(num_qubits, rng) for _ in range(num_trials)]
    )
    return params, states


def circuits_equivalent_statevector_batched(
    circuit_a: Circuit,
    circuit_b: Circuit,
    *,
    backend: str | SimulatorBackend = DEFAULT_BACKEND,
    num_trials: int = 2,
    seed: int = 7,
    tol: float = 1e-8,
) -> bool:
    """The random-state equivalence screen over batched multi-state kernels.

    Semantically the batched restructure of
    :func:`circuits_equivalent_statevector`: parameters are drawn once and
    shared by every trial (see :func:`equivalence_trial_inputs`), so each
    circuit is applied to all trial states in one
    :meth:`~SimulatorBackend.apply_circuit_batch` call instead of one
    ``apply_circuit`` per trial.  The draws differ from the per-trial
    path's (params per trial there, once here), so the float streams are
    not comparable — but the *verdict* agrees, which is what
    ``tests/test_backends.py`` pins over equivalent and inequivalent
    pairs.  It is the output screen of every
    :class:`repro.api.Superoptimizer` run.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    num_params = max(
        [p + 1 for p in circuit_a.used_params() | circuit_b.used_params()] or [0]
    )
    params, states = equivalence_trial_inputs(
        circuit_a.num_qubits,
        num_params,
        num_trials=num_trials,
        seed=seed,
        backend=backend,
    )
    resolved = get_backend(backend)
    images_a = resolved.apply_circuit_batch(circuit_a, states, params)
    images_b = resolved.apply_circuit_batch(circuit_b, states, params)
    # Row i of each stack is the image of the same unit input state, so
    # equivalence up to a global phase means |<a_i|b_i>| = 1 per trial.
    for image_a, image_b in zip(images_a, images_b):
        if abs(abs(np.vdot(image_a, image_b)) - 1.0) > tol:
            return False
    return True


register_backend("numpy", NumpyBackend)
