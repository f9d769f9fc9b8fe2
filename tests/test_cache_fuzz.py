"""Property tests for the cache's corruption tolerance (hypothesis-driven).

The robustness contract of :meth:`repro.generator.cache.ECCCache.load` is
absolute: *no* on-disk state may make a cache read raise.  Hypothesis
mutates a pristine generator-result blob — truncation, bit flips, byte
deletion/insertion, or wholesale garbage — and every mutation must produce
either the original result or a clean miss (warning + regeneration), with
the regenerated ECC JSON byte-identical to the pristine one's.

The deterministic companions cover the injected-fault flavors directly:
``torn_read`` (a transient partial read racing a concurrent rewrite) heals
on the immediate re-read and counts ``cache.reread``; ``corrupt_blob``
(persistent bit-rot) fails both attempts, counts ``cache.corrupt``, and
forces a byte-identical regeneration.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.api import GenerationConfig, clear_memory_caches, run_generation
from repro.api.facade import _generation_key
from repro.faults import FaultPlan
from repro.generator import RepGen
from repro.generator.cache import ECCCache
from repro.ir.gatesets import NAM
from repro.perf import PerfRecorder


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


def _generation(cache):
    return GenerationConfig(n=1, q=2, num_params=2, cache_dir=str(cache.directory))


def _regenerate(cache):
    """The caller's recovery path: the facade loads the blob and, on a
    miss, generates and stores over it (past the in-process memo)."""
    clear_memory_caches()
    try:
        return run_generation(NAM, _generation(cache))
    finally:
        clear_memory_caches()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One stored n=1 generator result: (cache, key, blob path, bytes, json)."""
    cache = ECCCache(tmp_path_factory.mktemp("fuzz") / "cache")
    result = RepGen(NAM, num_qubits=2, num_params=2).generate(1)
    key = _generation_key("repgen", NAM, _generation(cache))
    path = cache.store_generator_result(key, result)
    assert path is not None
    return {
        "cache": cache,
        "key": key,
        "path": path,
        "blob": path.read_bytes(),
        "ecc_json": result.ecc_set.to_json(),
    }


# Mutations are generated against blob *positions* scaled at run time, so
# the strategies stay independent of the pristine blob's exact size.
_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.floats(0.0, 1.0)),
    st.tuples(st.just("insert"), st.floats(0.0, 1.0), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("garbage"), st.binary(max_size=64)),
)


def _mutate(blob: bytes, mutation) -> bytes:
    kind = mutation[0]
    if kind == "garbage":
        return mutation[1]  # the whole file is replaced
    position = int(mutation[1] * (len(blob) - 1)) if len(blob) > 1 else 0
    if kind == "truncate":
        return blob[:position]
    if kind == "flip":
        return (
            blob[:position]
            + bytes([blob[position] ^ mutation[2]])
            + blob[position + 1 :]
        )
    if kind == "delete":
        return blob[:position] + blob[position + 1 :]
    assert kind == "insert"
    return blob[:position] + mutation[2] + blob[position:]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=_mutations)
def test_mutated_blobs_never_raise_and_regeneration_is_byte_identical(
    pristine, mutation
):
    cache, key, path = pristine["cache"], pristine["key"], pristine["path"]
    path.write_bytes(_mutate(pristine["blob"], mutation))
    try:
        with warnings.catch_warnings():
            # Misses warn; the property under test is "never raises".
            warnings.simplefilter("ignore", RuntimeWarning)
            loaded = cache.load_generator_result(key)
            if loaded is not None:
                # Only a mutation that left the envelope checksum-valid
                # (e.g. a full-length truncation) may serve a hit — and
                # then it must be the original, not a scrambled variant.
                assert loaded.ecc_set.to_json() == pristine["ecc_json"]
            else:
                # The caller's recovery path: regenerate over the bad blob.
                regenerated = _regenerate(cache)
                assert regenerated.ecc_set.to_json() == pristine["ecc_json"]
    finally:
        path.write_bytes(pristine["blob"])


class TestInjectedReadFaults:
    def test_torn_read_heals_on_reread(self, pristine):
        perf = PerfRecorder()
        cache = ECCCache(pristine["cache"].directory, perf=perf)
        faults.set_fault_plan(FaultPlan.from_string("torn_read:cache"))
        loaded = cache.load_generator_result(pristine["key"])
        assert loaded is not None
        assert loaded.ecc_set.to_json() == pristine["ecc_json"]
        snapshot = perf.snapshot()
        assert snapshot.get("cache.reread") == 1
        assert "cache.corrupt" not in snapshot

    def test_corrupt_blob_forces_byte_identical_regeneration(
        self, pristine, tmp_path
    ):
        # A private copy: the injected corruption persists on disk.
        perf = PerfRecorder()
        cache = ECCCache(tmp_path / "cache", perf=perf)
        copy = cache.directory / pristine["path"].name
        copy.parent.mkdir(parents=True)
        copy.write_bytes(pristine["blob"])
        faults.set_fault_plan(FaultPlan.from_string("corrupt_blob:cache"))
        with pytest.warns(RuntimeWarning, match="unusable cache blob"):
            assert cache.load_generator_result(pristine["key"]) is None
        snapshot = perf.snapshot()
        assert snapshot.get("cache.corrupt") == 1
        assert snapshot.get("cache.reread") == 1  # the first attempt retried
        faults.set_fault_plan(None)
        # Regeneration reads the still-rotten blob once more (warns), then
        # overwrites it.
        with pytest.warns(RuntimeWarning, match="unusable cache blob"):
            regenerated = _regenerate(cache)
        assert regenerated.ecc_set.to_json() == pristine["ecc_json"]
        # The regeneration overwrote the rotten blob: the next load hits.
        assert cache.load_generator_result(pristine["key"]) is not None

    def test_concurrent_rewrite_race_stays_consistent(self, pristine, tmp_path):
        # A reader racing a writer of the same deterministic blob: one torn
        # attempt, then the (atomically replaced) blob reads clean.  This is
        # exactly what two simultaneous CI jobs sharing a cache dir do.
        cache = ECCCache(tmp_path / "cache")
        copy = cache.directory / pristine["path"].name
        copy.parent.mkdir(parents=True)
        copy.write_bytes(pristine["blob"])
        faults.set_fault_plan(FaultPlan.from_string("torn_read:cache:1"))
        loaded = cache.load_generator_result(pristine["key"])
        assert loaded is not None
        assert loaded.ecc_set.to_json() == pristine["ecc_json"]
