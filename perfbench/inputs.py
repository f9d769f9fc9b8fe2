"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from the workload
seed, as plain QASM text or plain numbers, so the same seed always gives
the same inputs and the program never sees the seed itself.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Tuple

#: Nam gate-set rotations are drawn from multiples of pi/4 (the T-like
#: angles Clifford+T circuits lower to), so rotation merging and the
#: rewrite rules have something to combine.
_RZ_ANGLES = ("pi/4", "pi/2", "3*pi/4", "pi", "5*pi/4", "3*pi/2", "7*pi/4")


def seeded_rng(workload: str, seed: int, stream: str = "") -> random.Random:
    """An RNG private to one (workload, seed, stream) triple."""
    return random.Random(f"{workload}:{seed}:{stream}")


def fingerprint_seed(seed: int) -> int:
    """RepGen's fingerprint seed for a ``gen-cold`` workload seed."""
    return seeded_rng("gen-cold", seed, "fingerprint").randrange(1, 2**31)


def random_nam_qasm(rng: random.Random, num_qubits: int, num_gates: int) -> str:
    """A random circuit over the Nam gate set (h, x, rz, cx) as QASM."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    for _ in range(num_gates):
        draw = rng.random()
        if draw < 0.4:
            control, target = rng.sample(range(num_qubits), 2)
            lines.append(f"cx q[{control}], q[{target}];")
        elif draw < 0.65:
            lines.append(f"h q[{rng.randrange(num_qubits)}];")
        elif draw < 0.75:
            lines.append(f"x q[{rng.randrange(num_qubits)}];")
        else:
            angle = rng.choice(_RZ_ANGLES)
            lines.append(f"rz({angle}) q[{rng.randrange(num_qubits)}];")
    return "\n".join(lines) + "\n"


def reformat_qasm(rng: random.Random, qasm: str) -> str:
    """The same circuit with different whitespace and comment lines.

    The service keys its memo on canonical QASM, so a reformatted repeat
    must still hit it; the edits stay inside what the QASM reader accepts
    (whole-line comments, blank lines, spacing around tokens).
    """
    out: List[str] = [f"// request variant {rng.randrange(10**9)}"]
    for line in qasm.splitlines():
        if rng.random() < 0.2:
            out.append("")
        if rng.random() < 0.1:
            out.append(f"// note {rng.randrange(1000)}")
        if "," in line and not line.startswith("include"):
            line = line.replace(", ", "," if rng.random() < 0.5 else " ,  ")
        out.append(" " * rng.randrange(4) + line + " " * rng.randrange(3))
    return "\n".join(out) + "\n"


def request_stream(
    seed: int, hot_count: int, hot_every: int, num_qubits: int, num_gates: int
) -> Iterator[Tuple[str, int, str]]:
    """Endless seeded ``serve-mixed`` requests: ``(kind, hot_index, qasm)``.

    ``kind`` is ``"hot"`` for a reformatted repeat of hot circuit
    ``hot_index`` and ``"fresh"`` (``hot_index`` -1) for a new random one.
    Every ``hot_every``-th request is hot, so the hit share of a run does
    not depend on the seed; the seed picks the circuits and formatting.
    """
    rng = seeded_rng("serve-mixed", seed, "stream")
    hot = hot_circuits(seed, hot_count, num_qubits, num_gates)
    for position in itertools.count(1):
        if position % hot_every == 0:
            index = rng.randrange(hot_count)
            yield "hot", index, reformat_qasm(rng, hot[index])
        else:
            yield "fresh", -1, random_nam_qasm(rng, num_qubits, num_gates)


def hot_circuits(
    seed: int, count: int, num_qubits: int, num_gates: int
) -> List[str]:
    """The ``serve-mixed`` hot set, submitted once during set-up."""
    rng = seeded_rng("serve-mixed", seed, "hot")
    return [random_nam_qasm(rng, num_qubits, num_gates) for _ in range(count)]


def search_circuits(seed: int, count: int) -> List[str]:
    """The seeded random 5-qubit, 60-gate Nam circuits of ``search-warm``."""
    rng = seeded_rng("search-warm", seed, "random")
    return [random_nam_qasm(rng, 5, 60) for _ in range(count)]
