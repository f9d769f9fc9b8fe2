"""Golden values pinning RepGen's output, byte for byte.

Generation has one code path, so these digests are its identity gate: a
hot-path change to enumeration, fingerprinting, verification, ECC insertion
or pruning must leave every ``ECCSet.to_json`` below unchanged.  The values
were recorded with the default seed and the disk cache off; the raw (3, 3)
digests equal ``perfbench``'s ``GEN_EXPECTED``.  A mismatch on another
interpreter is a determinism bug, not a reason to loosen the pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.config import GenerationConfig
from repro.api.facade import build_ecc_set, clear_memory_caches, run_generation


# (gate set, n, q, candidates considered, raw ECCs, sha256 of the raw
# ``ECCSet.to_json``, pruned ECCs, sha256 of the pruned ``ECCSet.to_json``).
# IBM (2, 2) is the one row over the three-parameter ``u2``/``u3`` symbolic
# matrices, and the one whose pruning minimizes over 4! parameter
# permutations: its 3,785 raw ECCs simplify and prune to 74.
GOLDEN = [
    (
        "nam", 2, 2, 204, 53,
        "7a6500dbbe4374286014bd51281774ff1080aef4c3541da0640d8dc220822243",
        12,
        "0bce8e167540688ac08078cd36bf8edaaf0456a741c8f44740fd17bfb83a6f05",
    ),
    (
        "nam", 3, 3, 4783, 562,
        "2b29fae5618d1b3d58231ef5d572b8e66119b8604d32da4b6cba68d5b5227bff",
        65,
        "0075baa5a43f7242e78457433aad7ff92dcf9d0555bcd21bcd92c4cc4c3443ca",
    ),
    (
        "nam", 3, 2, 1059, 127,
        "be400cc0985c04c84132986bc424d1725184cc02dfb763791edc59f4f25b2ce1",
        35,
        "3e73d5acb3abada316f59c80e289448157c40bddf47dbf9a0162106d6210723b",
    ),
    (
        "rigetti", 2, 2, 239, 73,
        "c6acc6774ae99be45b9fed7b66f81be435f0b44807f439ede9487068dd8fa0a3",
        14,
        "c001ca1f0d1c7d9e9405bbcfd3c2274664c9389f6315f699cdb5d7807d1b8df3",
    ),
    (
        "rigetti", 3, 2, 1048, 132,
        "59738f96b8e210ff14e1c91c05404e56bdbc65daef9b839841fca2644d89a475",
        16,
        "7aec12eb6056a4d73c52105936ce2a55044b00a744c19d75552a4d36111e5bfd",
    ),
    (
        "rigetti", 3, 3, 3715, 466,
        "7f4a3297822aec0ba902bac85b19ee70493d727584683aef0e9d7d8bf6de49ee",
        21,
        "e07c188639e20f0d6e5043b54bcc47a38a853a9b9e0ef4c4716f7bc9976eff65",
    ),
    (
        "ibm", 2, 2, 12230, 3785,
        "7d94e4ba3359de8c6eafc79fe74198bce3d242b38072480bac41f93fe2840a26",
        74,
        "8954468be14f51fe4f36e89051b2228b40a0202f2c758ba5d32723154ae1e9cf",
    ),
]


def _digest(ecc_set):
    return hashlib.sha256(ecc_set.to_json().encode()).hexdigest()


@pytest.fixture
def fresh_memo():
    """Generate from scratch, and leave no memo entry for later tests."""
    clear_memory_caches()
    yield
    clear_memory_caches()


@pytest.mark.parametrize(
    "gate_set, n, q, candidates, raw_eccs, raw_digest, pruned_eccs, pruned_digest",
    GOLDEN,
    ids=[f"{row[0]}-n{row[1]}-q{row[2]}" for row in GOLDEN],
)
def test_generation_output_is_pinned(
    fresh_memo, gate_set, n, q, candidates, raw_eccs, raw_digest,
    pruned_eccs, pruned_digest,
):
    raw = run_generation(
        gate_set, GenerationConfig(n=n, q=q, cache_enabled=False, prune=False)
    )
    assert raw.stats.circuits_considered == candidates
    assert len(raw.ecc_set) == raw_eccs
    assert _digest(raw.ecc_set) == raw_digest
    if pruned_eccs is None:
        return

    # The memo keeps the raw set just checked, so this prunes it rather
    # than generating it again.
    pruned = build_ecc_set(
        gate_set, GenerationConfig(n=n, q=q, cache_enabled=False, prune=True)
    )
    assert len(pruned) == pruned_eccs
    assert _digest(pruned) == pruned_digest


@pytest.mark.parametrize("gate_set", ["nam", "rigetti"])
@pytest.mark.parametrize("seed", [1, 12345])
def test_raw_output_does_not_depend_on_the_fingerprint_seed(
    fresh_memo, gate_set, seed
):
    # The seed picks the random inputs fingerprints bucket by; the classes
    # are proved symbolically, so the ECC set is the default seed's.
    _, n, q, candidates, raw_eccs, raw_digest, _, _ = next(
        row for row in GOLDEN if row[:3] == (gate_set, 3, 3)
    )
    raw = run_generation(
        gate_set,
        GenerationConfig(n=n, q=q, seed=seed, cache_enabled=False, prune=False),
    )
    assert raw.stats.circuits_considered == candidates
    assert len(raw.ecc_set) == raw_eccs
    assert _digest(raw.ecc_set) == raw_digest
