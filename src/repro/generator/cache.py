"""Persistent on-disk cache for generated ECC sets (``.repro_cache/``).

Generation is fully deterministic in (gate set, n, q, m, seed), so its
output can be cached across processes and experiment reruns.  This module
stores ``ECCSet`` payloads (and full ``RepGen`` results) as JSON blobs in a
cache directory, keyed by a SHA-256 content hash over

    (schema version, kind, gate-set name, gate list, n, q, m, seed)

Layout (all files directly under the cache directory)::

    .repro_cache/
        repgen_nam_n3_q3_m2_s20220433_<hash12>.json   # full generator results
        pruned_nam_n3_q3_m2_s20220433_<hash12>.json   # pruned ECC sets

The human-readable prefix is cosmetic; only the 12-hex-digit content hash
is authoritative.  Changing any key field — or bumping ``SCHEMA_VERSION``
when the serialization format changes — changes the hash, so stale blobs
are simply never looked up.

A blob is one header line, ``{"schema": 4, "key": "<content hash>",
"sha256": "<body digest>"}``, followed by the body's JSON text.  The body is
serialized once, and the digest is taken over exactly those bytes, so a
load checks the sum over the bytes it read and then parses the body once.

The body lists each distinct instruction once and every circuit as indices
into that list::

    {"instructions": [{"gate": "rz", "qubits": [0],
                       "params": [{"pi": "0", "coeffs": {"0": "1"}}]}, ...],
     "ecc_set": {"num_qubits": 3, "num_params": 2,
                 "eccs": [[[3, [0, 5]], [3, [2]]], ...]},
     "representatives": [[3, []], [3, [0]], ...],    # repgen blobs only
     "stats": {...}}                                  # repgen blobs only

A table entry is :func:`~repro.generator.ecc.instruction_to_payload` of
the instruction, in first-use order; a circuit is ``[num_qubits, [table
indices]]``.  A set of a few thousand circuits names a few dozen distinct
instructions, so a load parses and checks each of those once instead of
once per occurrence.  Decoding still goes through the checking
constructors (:func:`~repro.generator.ecc.instruction_from_payload` and
:class:`~repro.ir.circuit.Circuit`), so a body naming an unknown gate, a
wrong qubit or parameter count, a qubit out of range or a missing table
entry is a miss like any other unusable blob.

Robustness contract: a cache *read* never raises.  Truncated, corrupted,
mismatched or otherwise unreadable blobs produce a ``RuntimeWarning`` and a
miss, and the caller regenerates (and overwrites the bad blob).  The body
checksum detects silent bit-rot, and
writes go through a temp file + ``os.replace`` so a crashed writer cannot
leave a half-written blob under the final name.  A failed validation is
retried with one immediate re-read first: a *transient* bad read (partial
read race with a concurrent rewrite) heals on the retry and counts
``cache.reread``; only when the re-read fails too is the blob declared
bit-rot (``cache.corrupt``) and regenerated.  Internally validation
failures are :class:`repro.errors.CacheCorruption`, so transient I/O and
real corruption stay distinguishable; none of it escapes ``load``.

Fault injection (``REPRO_FAULTS``, see :mod:`repro.faults`): site ``cache``
supports ``corrupt_blob`` (the blob about to be read is bit-flipped on
disk — persistent, both read attempts fail) and ``torn_read`` (one read
attempt sees truncated text — transient, the re-read succeeds).

An :class:`ECCCache` takes its directory and an ``enabled`` flag as plain
values and never reads the environment; a disabled cache is a no-op
(every load misses, every store is skipped).  The callers pass the
``cache_dir``/``cache_enabled`` fields of their
:class:`~repro.api.GenerationConfig`, which :meth:`RunConfig.from_env
<repro.api.RunConfig.from_env>` fills from ``REPRO_CACHE_DIR`` and
``REPRO_CACHE_DISABLE``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.errors import CacheCorruption
from repro.generator.ecc import (
    ECC,
    ECCSet,
    instruction_from_payload,
    instruction_to_payload,
)
from repro.generator.repgen import GeneratorResult, GeneratorStats
from repro.ir.circuit import Circuit
from repro.ir.gatesets import GateSet
from repro.perf import NULL_RECORDER, PerfRecorder

#: Bump whenever the serialized payload or key derivation changes shape.
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class CacheKey:
    """The identity of one cached generation artifact."""

    #: "repgen" (full generator result) or "pruned" (pruned ECC set).
    kind: str
    gate_set: str
    gates: tuple
    n: int
    q: int
    m: int
    seed: int
    #: SHA-256 of the canonical JSON of :meth:`fields`, computed once.
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canonical = json.dumps(self.fields(), sort_keys=True)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_digest", digest)

    def fields(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "gate_set": self.gate_set,
            "gates": list(self.gates),
            "n": self.n,
            "q": self.q,
            "m": self.m,
            "seed": self.seed,
        }

    def content_hash(self) -> str:
        return self._digest

    def filename(self) -> str:
        return (
            f"{self.kind}_{self.gate_set}_n{self.n}_q{self.q}"
            f"_m{self.m}_s{self.seed}_{self.content_hash()[:12]}.json"
        )


def cache_key(
    kind: str, gate_set: GateSet, n: int, q: int, m: int, seed: int
) -> CacheKey:
    """Build the cache key for a generation run's configuration."""
    return CacheKey(
        kind=kind,
        gate_set=gate_set.name.lower(),
        gates=tuple(gate_set.gate_names()),
        n=int(n),
        q=int(q),
        m=int(m),
        seed=int(seed),
    )


def _flip_byte_on_disk(path: Path) -> None:
    """Invert one mid-file byte (the ``corrupt_blob`` injected fault).

    Persistent by design: unlike a torn read, the flipped byte survives the
    re-read, so the load must take the bit-rot path and regenerate.
    """
    try:
        data = path.read_bytes()
        if data:
            mid = len(data) // 2
            path.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :])
    except OSError:  # pragma: no cover - fault best-effort, read handles it
        pass


class ECCCache:
    """Corruption-tolerant JSON blob store for generation artifacts."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        enabled: bool = True,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        self.perf = perf if perf is not None else NULL_RECORDER

    def path_for(self, key: CacheKey) -> Path:
        return self.directory / key.filename()

    # -- raw blob layer ------------------------------------------------------

    def load(self, key: CacheKey) -> Optional[dict]:
        """Return the cached body for ``key``, or None (never raises).

        A failed read is retried once immediately: a transient partial read
        (e.g. racing a concurrent rewrite of the same deterministic blob)
        heals on the second attempt and counts ``cache.reread``; a blob
        that fails twice is real bit-rot, counts ``cache.corrupt``, and
        misses so the caller regenerates over it.
        """
        if not self.enabled:
            self.perf.count("cache.disabled_loads")
            return None
        path = self.path_for(key)
        try:
            if not path.exists():
                self.perf.count("cache.misses")
                return None
        except OSError:
            self.perf.count("cache.misses")
            return None
        if faults.fire("cache", ("corrupt_blob",)) is not None:
            _flip_byte_on_disk(path)
        last_error: Optional[Exception] = None
        for attempt in range(2):
            try:
                body = self._read_validated(path, key)
            except Exception as error:  # noqa: BLE001 — contract: never crash
                last_error = error
                if attempt == 0:
                    self.perf.count("cache.reread")
            else:
                self.perf.count("cache.hits")
                return body
        self.perf.count("cache.corrupt")
        warnings.warn(
            f"ignoring unusable cache blob {path} ({last_error}); regenerating",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    def _read_validated(self, path: Path, key: CacheKey) -> dict:
        """One read + validation pass; raises :class:`CacheCorruption`."""
        data = path.read_bytes()
        if faults.fire("cache", ("torn_read",)) is not None:
            data = data[: len(data) // 2]
        header_line, newline, body_bytes = data.partition(b"\n")
        if not newline:
            raise CacheCorruption("no header line")
        try:
            header = json.loads(header_line)
        except ValueError as error:
            raise CacheCorruption(f"undecodable header ({error})") from error
        if not isinstance(header, dict):
            raise CacheCorruption("header is not a JSON object")
        if header.get("schema") != SCHEMA_VERSION:
            raise CacheCorruption(
                f"schema {header.get('schema')!r} != {SCHEMA_VERSION}"
            )
        if header.get("key") != key.content_hash():
            raise CacheCorruption("key hash does not match (stale blob)")
        if header.get("sha256") != hashlib.sha256(body_bytes).hexdigest():
            raise CacheCorruption("body checksum mismatch")
        try:
            return json.loads(body_bytes)
        except ValueError as error:
            raise CacheCorruption(f"undecodable body ({error})") from error

    def store(self, key: CacheKey, body: dict) -> Optional[Path]:
        """Atomically write a blob; returns its path (None when disabled)."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        # The body's one serialization: the checksum covers these bytes.
        # json.dump always takes the pure-Python encoder, the one-shot
        # json.dumps the C one (same text).
        body_bytes = json.dumps(body).encode("utf-8")
        header = (
            f'{{"schema": {SCHEMA_VERSION}, "key": "{key.content_hash()}", '
            f'"sha256": "{hashlib.sha256(body_bytes).hexdigest()}"}}\n'
        )
        tmp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=path.name, suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("ascii"))
                handle.write(body_bytes)
            os.replace(tmp_name, path)
        except OSError as error:
            # A read-only or full cache directory must not break generation
            # — and a failed write must not leave a .tmp orphan behind (CI
            # would persist it into the actions/cache archive forever).
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            warnings.warn(
                f"could not write cache blob {path} ({error})",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self.perf.count("cache.stores")
        return path

    # -- typed layers --------------------------------------------------------

    def load_ecc_set(self, key: CacheKey) -> Optional[ECCSet]:
        body = self.load(key)
        if body is None:
            return None
        try:
            return _decode_body(body)[0]
        except Exception as error:  # noqa: BLE001
            self._undecodable(key, error)
            return None

    def store_ecc_set(self, key: CacheKey, ecc_set: ECCSet) -> Optional[Path]:
        return self.store(key, _encode_body(ecc_set))

    def load_generator_result(self, key: CacheKey) -> Optional[GeneratorResult]:
        """Rebuild a full :class:`~repro.generator.repgen.GeneratorResult`."""
        body = self.load(key)
        if body is None:
            return None
        try:
            ecc_set, decode = _decode_body(body)
            representatives = [decode(row) for row in body["representatives"]]
            stored = dict(body["stats"])
            rounds = stored.pop("rounds", [])
            perf = dict(stored.pop("perf", {}))
            perf["cache.warm_hit"] = perf.get("cache.warm_hit", 0) + 1
            stats = GeneratorStats(rounds=list(rounds), perf=perf, **stored)
        except Exception as error:  # noqa: BLE001
            self._undecodable(key, error)
            return None
        self.perf.count("cache.result_hits")
        return GeneratorResult(ecc_set, stats, representatives)

    def store_generator_result(
        self, key: CacheKey, result: GeneratorResult
    ) -> Optional[Path]:
        stats = result.stats.as_dict()
        stats["rounds"] = list(result.stats.rounds)
        body = _encode_body(result.ecc_set, result.representatives)
        body["stats"] = stats
        return self.store(key, body)

    def _undecodable(self, key: CacheKey, error: Exception) -> None:
        self.perf.count("cache.corrupt")
        warnings.warn(
            f"cache blob for {key.filename()} does not deserialize "
            f"({error}); regenerating",
            RuntimeWarning,
            stacklevel=3,
        )


# -- body codec ------------------------------------------------------------------


def _encode_body(
    ecc_set: ECCSet, representatives: Optional[Sequence[Circuit]] = None
) -> dict:
    """The body of ``ecc_set`` (and of a run's representatives, if given)."""
    payloads: List[dict] = []
    indices: Dict[tuple, int] = {}

    def row(circuit: Circuit) -> list:
        entries = []
        for inst in circuit.instructions:
            sort_key = inst.sort_key()
            index = indices.get(sort_key)
            if index is None:
                index = indices[sort_key] = len(payloads)
                payloads.append(instruction_to_payload(inst))
            entries.append(index)
        return [circuit.num_qubits, entries]

    # ``payloads`` grows as rows are encoded, representatives' included.
    body: dict = {
        "instructions": payloads,
        "ecc_set": {
            "num_qubits": ecc_set.num_qubits,
            "num_params": ecc_set.num_params,
            "eccs": [[row(circuit) for circuit in ecc] for ecc in ecc_set],
        },
    }
    if representatives is not None:
        body["representatives"] = [row(circuit) for circuit in representatives]
    return body


def _decode_body(body: dict) -> Tuple[ECCSet, Callable[[list], Circuit]]:
    """The body's ECC set, and the decoder of its other circuit rows.

    Each table entry is built once, through the checking constructor; a
    row's circuit shares the entries it indexes.  Raises on any fault.
    """
    table = [instruction_from_payload(payload) for payload in body["instructions"]]
    payload = body["ecc_set"]
    num_params = payload["num_params"]

    def decode(row: list) -> Circuit:
        num_qubits, entries = row
        if entries and min(entries) < 0:
            raise IndexError(f"instruction index {min(entries)} is negative")
        return Circuit(num_qubits, [table[index] for index in entries], num_params)

    eccs = [ECC(decode(row) for row in ecc_rows) for ecc_rows in payload["eccs"]]
    return ECCSet(eccs, payload["num_qubits"], num_params), decode
