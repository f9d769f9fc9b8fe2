"""Tests for ECC data structures, RepGen, pruning and brute-force counting."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generator import (
    ECC,
    ECCSet,
    RepGen,
    characteristic,
    count_possible_circuits,
    prune_common_subcircuits,
    simplify_ecc_set,
)
from repro.generator.pruning import _ecc_key_up_to_param_permutation
from repro.ir import Circuit
from repro.ir.gatesets import CLIFFORD_T, IBM, NAM, RIGETTI, GateSet
from repro.ir.params import Angle, ParamSpec
from repro.semantics.simulator import circuits_equivalent_numeric


class TestECC:
    def test_representative_is_precedence_minimal(self):
        big = Circuit(1).h(0).h(0)
        small = Circuit(1).x(0)
        ecc = ECC([big, small])
        assert ecc.representative == small
        assert ecc.others() == [big]

    def test_duplicate_sequences_are_not_added_twice(self):
        ecc = ECC()
        assert ecc.add(Circuit(1).h(0))
        assert not ecc.add(Circuit(1).h(0))
        assert len(ecc) == 1

    def test_num_transformations(self):
        ecc = ECC([Circuit(1), Circuit(1).h(0).h(0), Circuit(1).z(0).z(0)])
        assert ecc.num_transformations() == 6

    def test_empty_ecc_has_no_representative(self):
        with pytest.raises(ValueError):
            ECC().representative

    def test_contains(self):
        ecc = ECC([Circuit(1).h(0)])
        assert Circuit(1).h(0) in ecc
        assert Circuit(1).x(0) not in ecc


class TestECCSet:
    def test_counts(self):
        ecc_set = ECCSet(
            [ECC([Circuit(1), Circuit(1).h(0).h(0)]), ECC([Circuit(1).x(0)])],
            num_qubits=1,
        )
        assert ecc_set.num_circuits() == 3
        assert ecc_set.num_transformations() == 2
        assert len(ecc_set.non_singleton()) == 1

    def test_json_roundtrip(self, nam_ecc_q2_n2):
        text = nam_ecc_q2_n2.to_json()
        restored = ECCSet.from_json(text)
        assert restored.num_circuits() == nam_ecc_q2_n2.num_circuits()
        assert restored.num_transformations() == nam_ecc_q2_n2.num_transformations()

    def test_json_roundtrip_is_exact_for_parametric_circuits(self, nam_ecc_q2_n3):
        """Property: from_json(to_json(s)) reproduces every representative,
        fingerprint key and class membership of a parametric ECC set.

        Cached .repro_cache/ blobs are trusted as if freshly generated, so
        this round trip must be *exact*, not merely equivalent.
        """
        from repro.semantics.fingerprint import FingerprintContext

        original = nam_ecc_q2_n3
        restored = ECCSet.from_json(original.to_json())
        assert len(restored) == len(original)
        assert restored.num_qubits == original.num_qubits
        assert restored.num_params == original.num_params
        contexts: dict = {}
        for ecc_a, ecc_b in zip(original, restored):
            # Identical class membership, in order, including exact angles.
            assert [c.sequence_key() for c in ecc_a] == [
                c.sequence_key() for c in ecc_b
            ]
            assert ecc_a.representative.sequence_key() == ecc_b.representative.sequence_key()
            for circuit_a, circuit_b in zip(ecc_a, ecc_b):
                assert circuit_a == circuit_b
                assert circuit_a.num_params == circuit_b.num_params
                # Identical fingerprint hash keys under a fresh context.
                q = circuit_a.num_qubits
                context = contexts.setdefault(
                    q, FingerprintContext(q, original.num_params)
                )
                assert context.hash_key(circuit_a) == context.hash_key(circuit_b)
        # Reserialization is byte-stable (required for content hashing).
        assert restored.to_json() == original.to_json()

    def test_json_is_canonical_in_coefficient_order(self):
        """Equal angles must serialize to identical bytes regardless of the
        insertion order of their coefficient dicts."""
        from fractions import Fraction

        from repro.ir.params import Angle

        forward = Angle(Fraction(1, 2), {0: Fraction(1), 1: Fraction(2)})
        backward = Angle(Fraction(1, 2), {1: Fraction(2), 0: Fraction(1)})
        assert forward == backward
        set_a = ECCSet(
            [ECC([Circuit(1, num_params=2).rz(0, forward)])], 1, 2
        )
        set_b = ECCSet(
            [ECC([Circuit(1, num_params=2).rz(0, backward)])], 1, 2
        )
        assert set_a.to_json() == set_b.to_json()


class TestRepGen:
    def test_characteristic_matches_paper_for_nam_q3(self):
        assert RepGen(NAM, num_qubits=3).characteristic() == 27

    def test_characteristic_matches_paper_for_rigetti_q3(self):
        assert RepGen(RIGETTI, num_qubits=3).characteristic() == 30

    def test_characteristic_helper_agrees(self):
        assert characteristic(NAM, 3) == RepGen(NAM, num_qubits=3).characteristic()
        assert characteristic(IBM, 3) == RepGen(IBM, num_qubits=3).characteristic()

    @pytest.mark.parametrize(
        "gate_set", [NAM, IBM, RIGETTI, CLIFFORD_T], ids=lambda g: g.name
    )
    def test_sigma_is_fixed_by_m(self, gate_set):
        # Sigma is ParamSpec(m) on both sides: RepGen's enumeration and the
        # brute-force count of Table 6 agree for every built-in gate set.
        for q in (2, 3):
            assert RepGen(gate_set, q).characteristic() == characteristic(gate_set, q)

    def test_constructors_reject_param_spec(self):
        # m alone fixes Sigma (and with it the cache key), so neither the
        # gate set nor the generator takes a specification of its own.
        spec = ParamSpec(2, allow_double=False, allow_sum=False)
        with pytest.raises(TypeError, match="param_spec"):
            GateSet("rzonly", ["rz"], 2, param_spec=spec)
        with pytest.raises(TypeError, match="param_spec"):
            RepGen(NAM, num_qubits=1, param_spec=spec)

    def test_generated_classes_contain_only_equivalent_circuits(self, nam_ecc_q2_n2):
        for ecc in nam_ecc_q2_n2:
            representative = ecc.representative
            for other in ecc.others():
                assert circuits_equivalent_numeric(representative, other)

    def test_known_identities_are_discovered(self, nam_ecc_q2_n3):
        """The (3, 2) Nam ECC set must contain H·H = I and the Rz merge."""
        reps = {tuple(i.gate.name for i in ecc.representative.instructions): ecc for ecc in nam_ecc_q2_n3}
        # H H should be in the class of the empty circuit.
        empty_classes = [ecc for ecc in nam_ecc_q2_n3 if len(ecc.representative) == 0]
        assert empty_classes, "the empty-circuit class must be present"
        empty_members = {
            tuple(inst.gate.name for inst in circuit.instructions)
            for circuit in empty_classes[0]
        }
        assert ("h", "h") in empty_members
        assert ("cx", "cx") in empty_members
        # An Rz-merging class must exist (rz rz ~ rz).
        assert any(
            len(ecc.representative) == 1
            and ecc.representative[0].gate.name == "rz"
            and any(len(c) == 2 for c in ecc)
            for ecc in nam_ecc_q2_n3
        )

    def test_stats_populated(self):
        generator = RepGen(NAM, num_qubits=1, num_params=2)
        result = generator.generate(2)
        assert result.stats.circuits_considered > 0
        assert result.stats.num_representatives > 0
        assert result.stats.total_time > 0
        assert result.stats.verification_time >= 0
        assert len(result.stats.rounds) == 2
        assert result.num_transformations == result.ecc_set.num_transformations()

    @pytest.mark.parametrize("param", ["workers", "chunk_timeout", "chunk_retries"])
    def test_pool_parameters_are_gone(self, param):
        # Generation is serial: a caller still passing a pool knob fails
        # loudly instead of silently running serially.
        with pytest.raises(TypeError, match=param):
            RepGen(NAM, num_qubits=2, **{param: 2})

    def test_monotone_growth_with_n(self):
        small = RepGen(NAM, num_qubits=2).generate(1).ecc_set.num_transformations()
        large = RepGen(NAM, num_qubits=2).generate(2).ecc_set.num_transformations()
        assert large >= small


class TestPruning:
    def test_simplification_removes_unused_qubits(self, nam_ecc_q2_n2):
        simplified = simplify_ecc_set(nam_ecc_q2_n2)
        for ecc in simplified:
            used = set()
            for circuit in ecc:
                used |= circuit.used_qubits()
            # After simplification, used qubits are exactly 0..k-1.
            assert used == set(range(len(used)))

    def test_simplification_reduces_or_preserves_class_count(self, nam_ecc_q2_n2):
        simplified = simplify_ecc_set(nam_ecc_q2_n2)
        assert len(simplified) <= len(nam_ecc_q2_n2)

    def test_common_subcircuit_pruning_reduces_circuits(self, nam_ecc_q2_n2):
        simplified = simplify_ecc_set(nam_ecc_q2_n2)
        pruned = prune_common_subcircuits(simplified)
        assert pruned.num_circuits() <= simplified.num_circuits()
        # No class in the pruned set shares a boundary gate with its rep.
        for ecc in pruned:
            assert len(ecc) >= 2

    def test_pruned_classes_remain_equivalent(self, nam_ecc_q2_n3):
        pruned = prune_common_subcircuits(simplify_ecc_set(nam_ecc_q2_n3))
        for ecc in list(pruned)[:10]:
            rep = ecc.representative
            for other in ecc.others():
                assert circuits_equivalent_numeric(rep, other)


def _rebuilt_key(ecc):
    """The class key as pruning used to compute it: rebuild the class with
    its parameters renamed under every permutation and take the least
    canonical key."""
    used = sorted(set().union(*(circuit.used_params() for circuit in ecc)))
    if len(used) <= 1:
        return ecc.canonical_key()
    return min(
        ECC(
            circuit.substitute_params(
                {old: Angle.param(new) for old, new in zip(used, permutation)}
            )
            for circuit in ecc
        ).canonical_key()
        for permutation in itertools.permutations(used)
    )


_IBM_EXPRESSIONS = ParamSpec(IBM.num_params).expressions()


@st.composite
def _ibm_instructions(draw, num_qubits):
    gate = draw(st.sampled_from(["u1", "u2", "u3", "cx"]))
    if gate == "cx":
        return gate, draw(st.permutations(range(num_qubits)))[:2], []
    arity = {"u1": 1, "u2": 2, "u3": 3}[gate]
    params = [
        draw(st.sampled_from(_IBM_EXPRESSIONS))
        + Angle.pi(Fraction(draw(st.integers(-3, 4)), 4))
        for _ in range(arity)
    ]
    return gate, [draw(st.integers(0, num_qubits - 1))], params


@st.composite
def _ibm_eccs(draw):
    """An ECC of random IBM circuits whose angles are Sigma expressions over
    4 parameters plus multiples of pi/4 (the members need not be
    equivalent: the key does not look at semantics)."""
    num_qubits = draw(st.integers(2, 3))
    circuits = []
    for _ in range(draw(st.integers(1, 4))):
        circuit = Circuit(num_qubits, num_params=IBM.num_params)
        for gate, qubits, params in draw(
            st.lists(_ibm_instructions(num_qubits), max_size=3)
        ):
            circuit.append(gate, qubits, params)
        circuits.append(circuit)
    return ECC(circuits)


class TestParamPermutationKey:
    """Pruning renames parameters inside sequence keys instead of
    rebuilding each class under every permutation; the keys must agree."""

    @pytest.mark.parametrize("raw", ["nam_raw_n3_q3", "rigetti_raw_n3_q3"])
    def test_matches_the_rebuild_on_every_raw_class(self, request, raw):
        ecc_set = request.getfixturevalue(raw)
        for ecc in ecc_set:
            assert _ecc_key_up_to_param_permutation(
                ecc, ecc_set.num_params
            ) == _rebuilt_key(ecc)

    @settings(max_examples=200, deadline=None)
    @given(ecc=_ibm_eccs())
    def test_matches_the_rebuild_on_random_ibm_classes(self, ecc):
        assert _ecc_key_up_to_param_permutation(ecc, IBM.num_params) == _rebuilt_key(
            ecc
        )


class TestBruteForceCounts:
    def test_possible_circuits_matches_paper_nam_n2_q3(self):
        # Table 6: 604 possible circuits for Nam, n=2, q=3.
        assert count_possible_circuits(NAM, 2, 3) == 604

    def test_possible_circuits_matches_paper_nam_n3_q3(self):
        # Table 6: 11,404 possible circuits for Nam, n=3, q=3.
        assert count_possible_circuits(NAM, 3, 3) == 11404

    def test_characteristic_values_match_paper(self):
        # Section 7.4 / Table 8: ch = 27 (Nam), 30 (Rigetti) at q=3;
        # ch for q=1,2,4 on Nam are 7, 16, 40.
        assert characteristic(NAM, 1) == 7
        assert characteristic(NAM, 2) == 16
        assert characteristic(NAM, 4) == 40
        assert characteristic(RIGETTI, 3) == 30

    def test_count_with_n1_is_characteristic_plus_empty(self):
        assert count_possible_circuits(NAM, 1, 3) == characteristic(NAM, 3) + 1

    def test_repgen_considers_fewer_than_possible(self):
        generator = RepGen(NAM, num_qubits=2, num_params=2)
        result = generator.generate(2)
        assert result.stats.circuits_considered < count_possible_circuits(NAM, 2, 2)

    def test_single_use_restriction_lowers_count(self):
        unrestricted = count_possible_circuits(
            NAM, 3, 2, param_spec=ParamSpec(2, single_use=False)
        )
        restricted = count_possible_circuits(NAM, 3, 2)
        assert restricted < unrestricted
