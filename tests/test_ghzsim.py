"""Tests for the desk-scale statevector verifier."""

import itertools
import math

import numpy as np
import pytest

from qcka_cad import ghzsim
from qcka_cad.ghzsim import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    cad_delayed_measurement_distances,
    cad_delayed_measurement_equivalence,
    cad_record_distribution,
    compose,
    ghz_state,
    hadamard_expansion_check,
    hadamard_transform,
    key_min_entropy_check,
    key_min_entropy_checks,
    random_pure_state,
    x_basis_parity_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector([1.0, 0.0, 0.0])

    def test_qubit_cap(self):
        # Every input is one qubit past the cap; each is rejected before
        # its amplitudes are built.
        assert DEFAULT_QUBIT_CAP == 20
        with pytest.raises(ValueError, match="cap"):
            StateVector(np.broadcast_to(0.0, 1 << 21))
        with pytest.raises(ValueError, match="cap"):
            ghz_state(20, [0] * 20, 0)
        with pytest.raises(ValueError, match="cap"):
            random_pure_state(21, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cap"):
            ghz_state(10, [0] * 10, 0).tensor(ghz_state(9, [0] * 9, 0))

    def test_amplitudes_read_only(self):
        s = ghz_state(1, "0", 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_tensor_orders_left_first(self):
        zero = StateVector([1.0, 0.0])
        one = StateVector([0.0, 1.0])
        st = zero.tensor(one)  # |01>
        assert st.amplitudes[0b01] == 1.0


class TestGhzState:
    def test_bell_plus(self):
        amps = ghz_state(1, "0", 0).amplitudes
        assert amps[0b00] == pytest.approx(INV_SQRT2)
        assert amps[0b11] == pytest.approx(INV_SQRT2)
        assert amps[0b01] == 0.0 and amps[0b10] == 0.0

    def test_bell_minus(self):
        amps = ghz_state(1, "0", 1).amplitudes
        assert amps[0b00] == pytest.approx(INV_SQRT2)
        assert amps[0b11] == pytest.approx(-INV_SQRT2)

    def test_three_qubit_block_uses_bitwise_complement(self):
        # Correlation word 01, phase 0: (|001> + |110>)/sqrt(2).
        amps = ghz_state(2, "01", 0).amplitudes
        assert amps[0b001] == pytest.approx(INV_SQRT2)
        assert amps[0b110] == pytest.approx(INV_SQRT2)
        assert np.count_nonzero(amps) == 2

    def test_orthonormal_basis_exhaustive(self):
        for p in (1, 2, 3):
            basis = [
                ghz_state(p, bits, y).amplitudes
                for bits in itertools.product((0, 1), repeat=p)
                for y in (0, 1)
            ]
            gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
            assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ghz_state(0, "", 0)
        with pytest.raises(ValueError):
            ghz_state(1, "0", 2)
        with pytest.raises(ValueError):
            ghz_state(2, "0", 0)  # wrong correlation-word length


class TestParityDistribution:
    def test_point_mass_on_phase_bit_exhaustive(self):
        for p in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=p):
                for y in (0, 1):
                    dist = x_basis_parity_distribution(ghz_state(p, bits, y))
                    assert dist[y] == pytest.approx(1.0, abs=1e-12)
                    assert dist[1 - y] == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_beyond_sixteen_qubits(self):
        # Indices of 17 and 18 qubits have set bits above bit 15.
        for p in (16, 17):
            for y in (0, 1):
                dist = x_basis_parity_distribution(ghz_state(p, [0] * p, y))
                assert dist[y] == pytest.approx(1.0, abs=1e-12)
                assert dist[1 - y] == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_state_is_uniform(self):
        for k in range(1, 6):
            amps = np.zeros(1 << k)
            amps[0] = 1.0
            dist = x_basis_parity_distribution(StateVector(amps))
            assert dist[0] == pytest.approx(0.5, abs=1e-12)
            assert dist[1] == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for k in (2, 5, 9):
            dist = x_basis_parity_distribution(random_pure_state(k, rng))
            assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-10)


class TestHadamardTransform:
    def test_involution(self):
        rng = np.random.default_rng(11)
        s = random_pure_state(6, rng)
        twice = hadamard_transform(hadamard_transform(s))
        assert np.allclose(twice.amplitudes, s.amplitudes, atol=1e-12)

    def test_preserves_normalization(self):
        rng = np.random.default_rng(12)
        for k in (1, 4, 10):
            t = hadamard_transform(random_pure_state(k, rng))
            assert abs(np.vdot(t.amplitudes, t.amplitudes).real - 1.0) < 1e-10


class TestHadamardExpansion:
    def test_true_for_all_small_blocks(self):
        for p in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=p):
                for y in (0, 1):
                    assert hadamard_expansion_check(p, bits, y)

    def test_rejects_corrupted_state(self):
        amps = ghz_state(2, "10", 1).amplitudes.copy()
        amps[0] += 1e-3
        amps /= np.linalg.norm(amps)
        assert not hadamard_expansion_check(2, "10", 1, StateVector(amps))

    def test_rejects_wrong_label(self):
        state = ghz_state(2, "10", 1)
        assert not hadamard_expansion_check(2, "10", 0, state)
        assert not hadamard_expansion_check(2, "11", 1, state)


class TestSieveEquivalence:
    def test_noiseless_round_accepts_with_equal_keys(self):
        state = compose(ghz_state(1, "0", 0), ghz_state(1, "0", 0))
        assert cad_delayed_measurement_equivalence(1, 1, state) <= 1e-10
        dist = cad_record_distribution(1, 1, state)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        for (parities, kept), prob in dist.items():
            assert parities[0] == parities[1]  # accepted
            assert kept[0] == kept[1]  # identical kept bits

    def test_mismatched_correlation_forces_reject(self):
        state = compose(ghz_state(1, "1", 0), ghz_state(1, "0", 0))
        assert cad_delayed_measurement_equivalence(1, 1, state) <= 1e-10
        for order in ("direct", "delayed"):
            dist = cad_record_distribution(1, 1, state, order=order)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            for (parities, kept) in dist:
                assert parities[0] != parities[1]  # every record rejects
                assert kept == ()

    def test_random_states_give_identical_records(self):
        rng = np.random.default_rng(31)
        for p, rounds in ((1, 1), (2, 1), (1, 2)):
            for _ in range(20):
                state = random_pure_state(2 * rounds * (p + 1), rng)
                tv = cad_delayed_measurement_equivalence(p, rounds, state)
                assert tv <= 1e-9

    def test_records_match_basis_enumeration(self):
        # Both orders share one masking path, so check it against the sieve
        # applied by hand to every basis index of the documented layout.
        rng = np.random.default_rng(41)
        for p, rounds in ((1, 1), (2, 1), (1, 2)):
            parties = p + 1
            blocks = rounds * parties
            k = 2 * blocks
            for _ in range(5):
                state = random_pure_state(k, rng)
                expect = {}
                for idx, amp in enumerate(state.amplitudes):
                    bits = [(idx >> (k - pos)) & 1 for pos in range(1, k + 1)]
                    left, right = bits[:blocks], bits[blocks:]
                    parities = tuple(a ^ b for a, b in zip(left, right))
                    kept = ()
                    for base in range(0, blocks, parties):
                        if len(set(parities[base:base + parties])) == 1:
                            kept += tuple(left[base:base + parties])
                    record = (parities, kept)
                    expect[record] = expect.get(record, 0.0) + abs(amp) ** 2
                for order in ("direct", "delayed"):
                    dist = cad_record_distribution(p, rounds, state, order=order)
                    assert dist.keys() == expect.keys()
                    for record, prob in expect.items():
                        assert dist[record] == pytest.approx(prob, abs=1e-12)

    def test_layout_validation(self):
        state = ghz_state(1, "0", 0)
        with pytest.raises(ValueError, match="layout|qubits"):
            cad_delayed_measurement_equivalence(1, 1, state)

    def test_ancilla_cap(self):
        # Four parties over two rounds: 16 system qubits plus 8 ancillas.
        rng = np.random.default_rng(3)
        state = random_pure_state(16, rng)
        with pytest.raises(ValueError, match="16 qubits \\+ 8 ancillas.*cap"):
            cad_delayed_measurement_equivalence(3, 2, state)


class TestKeyMinEntropy:
    def test_single_block_single_word(self):
        hmin, bound = key_min_entropy_check(1, 1, ["0"])
        assert bound == 1.0
        assert hmin == pytest.approx(1.0, abs=1e-9)

    def test_full_word_set_gives_vacuous_bound(self):
        hmin, bound = key_min_entropy_check(2, 1, ["00", "01", "10", "11"])
        assert bound == 0.0
        assert hmin >= -1e-12

    def test_repetition_pair(self):
        hmin, bound = key_min_entropy_check(2, 1, ["00", "11"])
        assert bound == 1.0
        assert hmin >= bound - 1e-9

    def test_duplicates_are_deduplicated(self):
        a = key_min_entropy_check(2, 1, ["00", "00", "11"])
        b = key_min_entropy_check(2, 1, ["00", "11"])
        assert a == b

    def test_random_sets_respect_bound(self):
        rng = np.random.default_rng(17)
        for n, p in ((2, 1), (3, 1), (2, 2)):
            for _ in range(10):
                size = int(rng.integers(1, 2**n + 1))
                picks = rng.choice(2**n, size=size, replace=False)
                words = [format(int(w), f"0{n}b") for w in sorted(picks)]
                hmin, bound = key_min_entropy_check(n, p, words)
                assert hmin >= bound - 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            key_min_entropy_check(2, 1, [])
        with pytest.raises(ValueError, match="length"):
            key_min_entropy_check(2, 1, ["0"])
        with pytest.raises(ValueError, match="cap"):
            key_min_entropy_check(7, 2, ["0000000"])


class TestBatchedKernels:
    """Batches, one chunk and one past a chunk, equal the batch of one bit for bit."""

    @pytest.mark.parametrize("p, rounds", [(1, 1), (2, 1), (1, 2)])
    def test_sieve_batches_match_batch_of_one(self, p, rounds):
        blocks = rounds * (p + 1)
        chunk = ghzsim._chunk_size(8 << (3 * blocks))  # the delayed register
        rng = np.random.default_rng(100 * p + rounds)
        states = [random_pure_state(2 * blocks, rng) for _ in range(chunk + 1)]
        for order in ("direct", "delayed"):
            single = [ghzsim._sieve_key_probs(p, rounds, [s], order)[0] for s in states]
            for count in (1, chunk, chunk + 1):
                batch = ghzsim._sieve_key_probs(p, rounds, states[:count], order)
                assert batch.shape == (count, 1 << (2 * blocks))
                assert all(np.array_equal(b, s) for b, s in zip(batch, single))
        single = [cad_delayed_measurement_equivalence(p, rounds, s) for s in states]
        for count in (1, chunk, chunk + 1):
            batch = cad_delayed_measurement_distances(p, rounds, iter(states[:count]))
            assert batch.tolist() == single[:count]

    @pytest.mark.parametrize("n, p", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    def test_min_entropy_batches_match_batch_of_one(self, n, p):
        chunk = ghzsim._chunk_size(16 << (n * (p + 1)))  # the superposition
        rng = np.random.default_rng(10 * n + p)
        everything = [format(w, f"0{n}b") for w in range(2**n)]
        sets = [everything, everything[:1] * 3, everything[::-1] + everything[:2]]
        while len(sets) < chunk + 1:  # random sets, duplicates included
            picks = rng.integers(0, 2**n, size=int(rng.integers(1, 2**n + 3)))
            sets.append([everything[w] for w in picks])
        single = [key_min_entropy_check(n, p, words) for words in sets]
        for count in (1, chunk, chunk + 1):
            assert key_min_entropy_checks(n, p, iter(sets[:count])) == single[:count]

    def test_empty_batches(self):
        assert cad_delayed_measurement_distances(1, 1, []).shape == (0,)
        assert key_min_entropy_checks(2, 1, []) == []

    def test_cached_tables_are_read_only(self):
        for table in (ghzsim._sieve_keys(1, 2), ghzsim._delayed_sources(4),
                      ghzsim._head_vectors(3)):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_chunks_stay_within_the_byte_budget(self):
        for qubits in range(1, 21):
            nbytes = 16 << qubits
            size = ghzsim._chunk_size(nbytes)
            assert size >= 1 and (size == 1 or size * nbytes <= ghzsim._CHUNK_BYTES)
        assert ghzsim._chunk_size(8 << 12) == 16  # the (1, 2) sieve's delayed register


class TestRandomPureState:
    def test_normalized_and_reproducible(self):
        a = random_pure_state(5, np.random.default_rng(9))
        b = random_pure_state(5, np.random.default_rng(9))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.vdot(a.amplitudes, a.amplitudes).real - 1.0) < 1e-12
