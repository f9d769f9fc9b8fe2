"""Tests for the persistent .repro_cache/ ECC store (repro.generator.cache).

Two contracts matter: *invalidation* — any change to the configuration that
determines generation output must change the content hash and miss — and
*corruption tolerance* — an unreadable blob is a warning plus a
regeneration, never a crash.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from repro.api import GenerationConfig, RunConfig, clear_memory_caches, run_generation
from repro.envconfig import CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR
from repro.generator import RepGen
from repro.generator.cache import ECCCache, SCHEMA_VERSION, cache_key
from repro.ir.gatesets import GateSet, NAM, RIGETTI
from repro.perf import PerfRecorder


@pytest.fixture(scope="module")
def nam_result():
    return RepGen(NAM, num_qubits=2, num_params=2).generate(2)


@pytest.fixture()
def cache(tmp_path):
    # The store never reads the environment: it is enabled even where the
    # surrounding environment (e.g. the cold-cache CI job) disables caching.
    return ECCCache(tmp_path / "cache")


@pytest.fixture()
def fresh_memo():
    clear_memory_caches()
    yield
    clear_memory_caches()


def _run_generation(cache):
    """The facade's generation of the Nam (2, 2) set through ``cache``'s
    directory, past the in-process memo."""
    clear_memory_caches()
    return run_generation(
        NAM,
        GenerationConfig(n=2, q=2, num_params=2, cache_dir=str(cache.directory)),
    )


BASE_KEY_ARGS = dict(kind="repgen", gate_set=NAM, n=2, q=2, m=2, seed=20220433)


def _key(**overrides):
    args = dict(BASE_KEY_ARGS)
    args.update(overrides)
    return cache_key(
        args["kind"], args["gate_set"], args["n"], args["q"], args["m"], args["seed"]
    )


def _split_blob(path):
    """A blob's parsed header line and its body text."""
    header_line, body_text = path.read_text(encoding="utf-8").split("\n", 1)
    return json.loads(header_line), body_text


def _write_blob(path, header, body_text):
    path.write_text(json.dumps(header) + "\n" + body_text, encoding="utf-8")


class TestKeyInvalidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "pruned"},
            {"gate_set": RIGETTI},
            {"n": 3},
            {"q": 3},
            {"m": 3},
            {"seed": 1},
        ],
        ids=["kind", "gate_set", "n", "q", "m", "seed"],
    )
    def test_every_field_changes_the_hash(self, overrides):
        assert _key(**overrides).content_hash() != _key().content_hash()

    def test_gate_list_is_part_of_the_key(self):
        # Same name, different gates: a user redefining "nam" must miss.
        modified = GateSet("nam", ["h", "x", "rz", "cz"], num_params=2)
        assert (
            _key(gate_set=modified).content_hash() != _key().content_hash()
        )

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        baseline = _key().content_hash()
        monkeypatch.setattr("repro.generator.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert _key().content_hash() != baseline

    def test_changed_key_misses(self, cache, nam_result):
        cache.store_generator_result(_key(), nam_result)
        assert cache.load_generator_result(_key(seed=1)) is None
        assert cache.load_generator_result(_key(n=3)) is None
        assert cache.load_generator_result(_key()) is not None


class TestRoundTrip:
    def test_generator_result_roundtrip(self, cache, nam_result):
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        assert path is not None and path.exists()
        restored = cache.load_generator_result(key)
        assert restored is not None
        assert restored.ecc_set.to_json() == nam_result.ecc_set.to_json()
        assert [c.sequence_key() for c in restored.representatives] == [
            c.sequence_key() for c in nam_result.representatives
        ]
        stats = restored.stats
        assert stats.circuits_considered == nam_result.stats.circuits_considered
        assert stats.num_eccs == nam_result.stats.num_eccs
        assert stats.rounds == nam_result.stats.rounds
        assert stats.perf.get("cache.warm_hit") == 1

    def test_repgen_warm_hit_skips_generation(
        self, cache, nam_result, fresh_memo, monkeypatch
    ):
        runs = []
        generate = RepGen.generate

        def counted(self, *args, **kwargs):
            runs.append(self)
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(RepGen, "generate", counted)
        cold = _run_generation(cache)
        warm = _run_generation(cache)
        assert warm.ecc_set.to_json() == cold.ecc_set.to_json()
        assert warm.ecc_set.to_json() == nam_result.ecc_set.to_json()
        assert warm.stats.perf.get("cache.warm_hit") == 1
        # Only the cold run generated (and verified).
        assert len(runs) == 1 and runs[0].verifier.stats.checks > 0

    def test_run_generation_loads_the_stored_result(
        self, cache, fresh_memo, monkeypatch
    ):
        # The facade, not RepGen, finds a warm hit: with generation
        # forbidden, a cache filled by an earlier run still answers.
        stored = _run_generation(cache)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("RepGen.generate ran on a warm cache")

        monkeypatch.setattr(RepGen, "generate", forbidden)
        loaded = _run_generation(cache)
        assert loaded is not stored
        assert loaded.ecc_set.to_json() == stored.ecc_set.to_json()
        assert loaded.stats.perf.get("cache.warm_hit") == 1
        assert "cache" not in inspect.signature(RepGen.generate).parameters

    def test_ecc_set_roundtrip(self, cache, nam_result):
        key = _key(kind="pruned")
        cache.store_ecc_set(key, nam_result.ecc_set)
        restored = cache.load_ecc_set(key)
        assert restored is not None
        assert restored.to_json() == nam_result.ecc_set.to_json()

    def test_blob_text_is_one_shot_json_of_its_envelope(self, cache, nam_result):
        # A blob is a header line and then json.dumps(body): the body text
        # is exactly what the default encoder gives for the body read back,
        # and the header's sha256 is taken over those bytes.
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        header, body_text = _split_blob(path)
        assert header == {
            "schema": SCHEMA_VERSION,
            "key": key.content_hash(),
            "sha256": hashlib.sha256(body_text.encode("utf-8")).hexdigest(),
        }
        assert body_text == json.dumps(json.loads(body_text))

    def test_body_is_serialized_once(self, cache, nam_result, monkeypatch):
        # A store dumps the body once; a load checks the sum over the bytes
        # it read and parses them, with no dumps on either side.
        key = _key()
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        cache.store_generator_result(key, nam_result)
        assert len(calls) == 1
        calls.clear()
        assert cache.load_generator_result(key) is not None
        assert calls == []


class TestCorruptionTolerance:
    def test_truncated_blob_warns_and_misses(self, cache, nam_result):
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(RuntimeWarning, match="regenerating"):
            assert cache.load_generator_result(key) is None

    def test_garbage_blob_warns_and_misses(self, cache, nam_result):
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        path.write_text("not json at all {")
        with pytest.warns(RuntimeWarning):
            assert cache.load(key) is None

    def test_checksum_mismatch_warns_and_misses(self, cache, nam_result):
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        header, body_text = _split_blob(path)
        body = json.loads(body_text)
        body["stats"]["num_eccs"] = 99999  # silent bit-rot
        _write_blob(path, header, json.dumps(body))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert cache.load(key) is None

    def test_wrong_schema_warns_and_misses(self, cache, nam_result):
        key = _key()
        path = cache.store_generator_result(key, nam_result)
        header, body_text = _split_blob(path)
        header["schema"] = SCHEMA_VERSION - 1
        _write_blob(path, header, body_text)
        with pytest.warns(RuntimeWarning, match="schema"):
            assert cache.load(key) is None

    def test_corrupt_blob_triggers_regeneration_not_crash(self, cache, fresh_memo):
        key = cache_key("repgen", NAM, 2, 2, 2, 20220433)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("corrupt")
        with pytest.warns(RuntimeWarning):
            result = _run_generation(cache)
        assert result.stats.num_eccs > 0
        # The bad blob was overwritten by the fresh result.
        assert cache.load_generator_result(key) is not None

    def test_unwritable_directory_warns_but_generation_succeeds(
        self, tmp_path, nam_result
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        cache = ECCCache(blocker)  # mkdir() will fail
        with pytest.warns(RuntimeWarning, match="could not write"):
            assert cache.store_generator_result(_key(), nam_result) is None

    def test_perf_counters(self, tmp_path, nam_result):
        perf = PerfRecorder()
        cache = ECCCache(tmp_path / "cache", perf=perf)
        key = _key()
        assert cache.load(key) is None
        cache.store_generator_result(key, nam_result)
        assert cache.load(key) is not None
        assert perf.value("cache.misses") == 1
        assert perf.value("cache.stores") == 1
        assert perf.value("cache.hits") == 1


def _cache_from_env(**overrides):
    """The store a facade run opens for ``RunConfig.from_env(...)``."""
    generation = RunConfig.from_env(**overrides).generation
    return ECCCache(generation.cache_dir, enabled=generation.cache_enabled)


def _first_entry(body, gate):
    return next(entry for entry in body["instructions"] if entry["gate"] == gate)


def _first_nonempty_row(body):
    return next(
        row[1] for ecc_rows in body["ecc_set"]["eccs"] for row in ecc_rows if row[1]
    )


def _unknown_gate(body):
    _first_entry(body, "h")["gate"] = "not_a_gate"


def _qubit_out_of_range(body):
    _first_entry(body, "h")["qubits"] = [2]


def _wrong_param_count(body):
    entry = _first_entry(body, "rz")
    entry["params"] = entry["params"] * 2


def _index_past_the_end(body):
    _first_nonempty_row(body)[0] = len(body["instructions"])


def _negative_index(body):
    _first_nonempty_row(body)[0] = -1


class TestIndexedBody:
    """A body lists each distinct instruction once and every circuit as
    indices into that table; decoding still checks what it builds."""

    def test_each_distinct_instruction_is_stored_once(self, cache, nam_result):
        path = cache.store_generator_result(_key(), nam_result)
        body = json.loads(_split_blob(path)[1])
        table = [json.dumps(entry, sort_keys=True) for entry in body["instructions"]]
        assert len(set(table)) == len(table)
        circuits = [c for ecc in nam_result.ecc_set for c in ecc]
        circuits += nam_result.representatives
        distinct = {inst.sort_key() for c in circuits for inst in c.instructions}
        assert len(table) == len(distinct)
        rows = [row for ecc_rows in body["ecc_set"]["eccs"] for row in ecc_rows]
        rows += body["representatives"]
        assert {i for _, indices in rows for i in indices} == set(range(len(table)))

    def test_storing_twice_gives_identical_bytes(self, tmp_path, nam_result):
        first = ECCCache(tmp_path / "a").store_generator_result(_key(), nam_result)
        second = ECCCache(tmp_path / "b").store_generator_result(_key(), nam_result)
        assert first.read_bytes() == second.read_bytes()

    def test_decoded_circuits_share_their_table_entries(self, cache, nam_result):
        key = _key()
        cache.store_generator_result(key, nam_result)
        restored = cache.load_generator_result(key)
        circuits = [c for ecc in restored.ecc_set for c in ecc]
        circuits += restored.representatives
        entries = {}
        for circuit in circuits:
            for inst in circuit.instructions:
                assert entries.setdefault(inst.sort_key(), inst) is inst

    @pytest.mark.parametrize(
        "fault, reason",
        [
            pytest.param(_unknown_gate, "unknown gate", id="unknown_gate"),
            pytest.param(
                _qubit_out_of_range, "out of range for circuit", id="qubit_range"
            ),
            pytest.param(_wrong_param_count, "takes 1 parameters", id="param_count"),
            pytest.param(_index_past_the_end, "index out of range", id="index_past_end"),
            pytest.param(_negative_index, "is negative", id="negative_index"),
        ],
    )
    def test_a_body_the_decoder_rejects_is_a_miss(
        self, cache, fresh_memo, fault, reason
    ):
        stored = _run_generation(cache)
        key = cache_key("repgen", NAM, 2, 2, 2, 20220433)
        path = cache.path_for(key)
        header, body_text = _split_blob(path)
        body = json.loads(body_text)
        fault(body)
        # A well-formed envelope: only the decoder can catch the fault.
        body_text = json.dumps(body)
        header["sha256"] = hashlib.sha256(body_text.encode("utf-8")).hexdigest()
        _write_blob(path, header, body_text)

        perf = PerfRecorder()
        with pytest.warns(RuntimeWarning, match=f"does not deserialize.*{reason}"):
            assert ECCCache(cache.directory, perf=perf).load_generator_result(key) is None
        assert perf.value("cache.corrupt") == 1
        assert perf.value("cache.hits") == 1

        with pytest.warns(RuntimeWarning, match="does not deserialize"):
            regenerated = _run_generation(cache)
        assert regenerated.stats.perf.get("cache.corrupt") == 1
        assert "cache.warm_hit" not in regenerated.stats.perf
        assert regenerated.ecc_set.to_json() == stored.ecc_set.to_json()
        # The regeneration overwrote the bad blob.
        reloaded = cache.load_generator_result(key)
        assert reloaded.ecc_set.to_json() == stored.ecc_set.to_json()


class TestDisabling:
    def test_env_var_disables(self, tmp_path, nam_result, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "1")
        cache = _cache_from_env(cache_dir=str(tmp_path / "cache"))
        assert not cache.enabled
        key = _key()
        assert cache.store_generator_result(key, nam_result) is None
        assert cache.load_generator_result(key) is None
        assert not (tmp_path / "cache").exists()

    def test_explicit_enabled_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "1")
        assert _cache_from_env(cache_enabled=True).enabled
        # The store itself never reads the variable.
        assert ECCCache(tmp_path).enabled

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "elsewhere"))
        assert _cache_from_env().directory == tmp_path / "elsewhere"
