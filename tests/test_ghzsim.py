"""Tests for the desk-scale statevector verifier."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qcka_cad import ghzsim, verify
from qcka_cad.bitcore import BitString
from qcka_cad.ghzsim import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    cad_delayed_measurement_equivalence,
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


def _chunk(nbytes):
    """Inputs per chunk of a batched kernel when each adds ``nbytes`` to its
    largest temporary."""
    return max(1, ghzsim._CHUNK_BYTES // nbytes)


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
            ghz_state(20, 0, 0)
        with pytest.raises(ValueError, match="cap"):
            random_pure_state(21, np.random.default_rng(0))
        with pytest.raises(ValueError, match="21 qubits exceeds the qubit cap"):
            compose(ghz_state(10, 0, 0), ghz_state(9, 0, 0))

    def test_amplitudes_read_only(self):
        s = ghz_state(1, 0, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_layouts_and_dtypes_give_the_same_amplitudes(self):
        # Bit for bit the C-order complex128 copy of the input.
        amps = random_pure_state(3, np.random.default_rng(5)).amplitudes
        grid = amps.reshape(2, 4)
        fortran = np.asfortranarray(grid)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        for given in (amps.tolist(), grid, fortran,
                      np.array([0.5, 0.5j, -0.5, 0.5], dtype=np.complex64)):
            expect = np.asarray(given).astype(np.complex128).ravel()
            state = StateVector(given)
            assert state.amplitudes.dtype == np.complex128
            assert state.amplitudes.tobytes() == expect.tobytes()
            assert state.qubit_count == expect.size.bit_length() - 1

    def test_caller_array_stays_writable_and_unshared(self):
        given = np.array(ghzsim.ghz_states(2, [1], [0])[0])
        state = StateVector(given)
        assert given.flags.writeable
        assert not np.shares_memory(given, state.amplitudes)
        given[1] = 0.0
        assert state.amplitudes[1] == INV_SQRT2

    def test_tensor_orders_left_first(self):
        zero = StateVector([1.0, 0.0])
        one = StateVector([0.0, 1.0])
        assert compose(zero, one).amplitudes[0b01] == 1.0  # |01>
        assert compose(one, zero, one).amplitudes[0b101] == 1.0
        assert compose(one).amplitudes[1] == 1.0
        with pytest.raises(ValueError, match="at least one state"):
            compose()


class TestGhzState:
    def test_bell_plus(self):
        amps = ghz_state(1, 0, 0).amplitudes
        assert amps[0b00] == pytest.approx(INV_SQRT2)
        assert amps[0b11] == pytest.approx(INV_SQRT2)
        assert amps[0b01] == 0.0 and amps[0b10] == 0.0

    def test_bell_minus(self):
        amps = ghz_state(1, 0, 1).amplitudes
        assert amps[0b00] == pytest.approx(INV_SQRT2)
        assert amps[0b11] == pytest.approx(-INV_SQRT2)

    def test_three_qubit_block_uses_bitwise_complement(self):
        # Correlation word 01, phase 0: (|001> + |110>)/sqrt(2).
        amps = ghz_state(2, 0b01, 0).amplitudes
        assert amps[0b001] == pytest.approx(INV_SQRT2)
        assert amps[0b110] == pytest.approx(INV_SQRT2)
        assert np.count_nonzero(amps) == 2

    def test_orthonormal_basis_exhaustive(self):
        for p in (1, 2, 3):
            basis = [ghz_state(p, x, y).amplitudes for x, y in _labels(p)]
            gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
            assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ghz_state(0, 0, 0)
        with pytest.raises(ValueError):
            ghz_state(1, 0, 2)
        with pytest.raises(ValueError):
            ghz_state(2, 4, 0)  # beyond the two-bit words
        # A word spelled as bits is a 2-D word array: the message names the
        # words, and only a real length mismatch blames the phase bits.
        for call in (lambda: ghz_state(2, [0, 1], 0),
                     lambda: ghzsim.ghz_states(2, [[0, 1]], [0])):
            with pytest.raises(ValueError, match="indices must be a 1-D array, got 2-D"):
                call()
        with pytest.raises(ValueError, match="need one phase bit per correlation word"):
            ghzsim.ghz_states(2, [0, 1], [0])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            ghzsim.ghz_states(1, [0.7], [0])  # not word 0
        with pytest.raises(ValueError, match="integers"):
            ghzsim.hadamard_expansion_checks(1, [1.9], [0.0])  # not word 1
        with pytest.raises(ValueError, match="integers"):
            ghzsim.ghz_states(2, [1], [1.0])
        with pytest.raises(ValueError, match="integers"):
            ghz_state(1, "1", 0)  # a word spelled as bits
        assert ghzsim.ghz_states(1, [], []).shape == (0, 4)
        assert ghzsim.hadamard_expansion_checks(1, [], []).shape == (0,)
        assert np.array_equal(ghzsim.ghz_states(1, np.array([1], dtype=np.uint8), [True]),
                              ghzsim.ghz_states(1, [1], [1]))  # bools and unsigned are integers

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_word_forms_agree(self, p):
        # A word is its index, as a Python or a numpy integer; bits are no word.
        for index in range(1 << p):
            bits = format(index, f"0{p}b")
            expect = ghzsim.ghz_states(p, [index], [1])[0]
            hmin = key_min_entropy_check(p, 1, [index])
            for word in (index, np.int64(index), np.uint8(index)):
                assert np.array_equal(ghz_state(p, word, 1).amplitudes, expect)
                assert hadamard_expansion_check(p, word, 1)
                assert not hadamard_expansion_check(p, word, 0, ghz_state(p, index, 1))
                assert key_min_entropy_check(p, 1, [word]) == hmin
            for word in (bits, BitString(bits), [int(b) for b in bits],
                         np.array([int(b) for b in bits], dtype=np.uint8)):
                for call in (lambda: ghz_state(p, word, 1),
                             lambda: hadamard_expansion_check(p, word, 1),
                             lambda: key_min_entropy_check(p, 1, [word])):
                    with pytest.raises(ValueError):
                        call()
        with pytest.raises(ValueError, match=f"indices must lie in \\[0, 2\\*\\*{p}\\)"):
            ghz_state(p, 1 << p, 0)
        with pytest.raises(ValueError, match="integers"):
            hadamard_expansion_check(p, "2" * p, 0)
        with pytest.raises(ValueError, match="word index .0+. is not an integer"):
            key_min_entropy_check(p, 1, ["0" * p])


class TestParityDistribution:
    def test_point_mass_on_phase_bit_exhaustive(self):
        for p in (1, 2, 3):
            for x, y in _labels(p):
                dist = x_basis_parity_distribution(ghz_state(p, x, y))
                assert dist[y] == pytest.approx(1.0, abs=1e-12)
                assert dist[1 - y] == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_beyond_sixteen_qubits(self):
        # Indices of 17 and 18 qubits have set bits above bit 15.
        for p in (16, 17):
            for y in (0, 1):
                dist = x_basis_parity_distribution(ghz_state(p, 0, y))
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
            for x, y in _labels(p):
                assert hadamard_expansion_check(p, x, y)

    def test_rejects_corrupted_state(self):
        amps = ghz_state(2, 0b10, 1).amplitudes.copy()
        amps[0] += 1e-3
        amps /= np.linalg.norm(amps)
        assert not hadamard_expansion_check(2, 0b10, 1, StateVector(amps))

    def test_rejects_wrong_label(self):
        state = ghz_state(2, 0b10, 1)
        assert not hadamard_expansion_check(2, 0b10, 0, state)
        assert not hadamard_expansion_check(2, 0b11, 1, state)


class TestSieveEquivalence:
    def test_noiseless_round_accepts_with_equal_keys(self):
        state = compose(ghz_state(1, 0, 0), ghz_state(1, 0, 0))
        assert cad_delayed_measurement_equivalence(1, 1, state) <= 1e-10

    def test_mismatched_correlation_forces_reject(self):
        state = compose(ghz_state(1, 1, 0), ghz_state(1, 0, 0))
        assert cad_delayed_measurement_equivalence(1, 1, state) <= 1e-10

    def test_random_states_give_identical_records(self):
        rng = np.random.default_rng(31)
        for p, rounds in ((1, 1), (2, 1), (1, 2)):
            for _ in range(20):
                state = random_pure_state(2 * rounds * (p + 1), rng)
                tv = cad_delayed_measurement_equivalence(p, rounds, state)
                assert tv <= 1e-9

    def test_tables_match_basis_enumeration(self):
        # Place P[L, L ^ R] = |psi[L, R]|^2 by hand for every basis index of
        # the documented layout: Left bits high, Right bits low.
        rng = np.random.default_rng(41)
        for p, rounds in ((1, 1), (2, 1), (1, 2)):
            blocks = rounds * (p + 1)
            size = 1 << blocks
            for _ in range(5):
                state = random_pure_state(2 * blocks, rng)
                probs = np.abs(state.amplitudes) ** 2
                expect = np.zeros((size, size))
                for idx, prob in enumerate(probs):
                    left, right = idx >> blocks, idx & (size - 1)
                    expect[left, left ^ right] = prob
                for cells in (ghzsim._direct_cells, ghzsim._delayed_cells):
                    assert np.array_equal(probs[cells(blocks)], expect)

    def test_layout_validation(self):
        state = ghz_state(1, 0, 0)
        with pytest.raises(ValueError, match="layout|qubits"):
            cad_delayed_measurement_equivalence(1, 1, state)
        with pytest.raises(ValueError, match="6 qubits, sieve layout needs 4"):
            cad_delayed_measurement_equivalence(1, 1, StateVector(np.ones(64) / 8.0))

    @pytest.mark.parametrize("p, rounds", [(0, 1), (1, 0), (-1, 1), (1, -1), (0, 0)])
    def test_sieve_layout_needs_a_party_and_a_round(self, p, rounds):
        # (0, 1) would take a 2-qubit state as a one-party "sieve" with TV 0.
        for qubits in (2, 4):
            with pytest.raises(ValueError, match="^need p >= 1 and rounds >= 1$"):
                cad_delayed_measurement_equivalence(p, rounds, ghz_state(qubits - 1, 0, 0))

    @pytest.mark.parametrize("blocks", [2, 3, 4, 6])
    def test_cell_map_matches_register_sum(self, blocks):
        # The delayed table read from the whole register: gather every entry
        # of the system-plus-ancilla register, then sum out the Right bits.
        rng = np.random.default_rng(blocks)
        amps = np.stack([random_pure_state(2 * blocks, rng).amplitudes for _ in range(3)])
        count, size = len(amps), 1 << blocks
        padded = np.zeros((count, size * size + 1))
        padded[:, :-1] = np.abs(amps) ** 2
        probs = padded[:, ghzsim._delayed_sources(blocks).ravel()]
        expect = probs.reshape(count, size, size, size).sum(axis=2)
        assert np.array_equal((np.abs(amps) ** 2)[:, ghzsim._delayed_cells(blocks)], expect)
        assert ghzsim._delayed_cells(blocks).dtype == np.intp

    def test_cold_six_block_map_stays_small(self):
        # The register holds source indices up to 2**12, so it is uint16:
        # an intp register (2 MB, copied once per CNOT) peaked at 4.6 MB.
        ghzsim._delayed_cells.cache_clear()
        tracemalloc.start()
        try:
            cells = ghzsim._delayed_cells(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert ghzsim._delayed_sources(6).dtype == np.uint16
        assert np.array_equal(cells, ghzsim._direct_cells(6))

    def test_cell_map_needs_one_source_per_cell(self):
        sources = ghzsim._delayed_sources(2).copy()
        zero = len(sources) ** 2
        assert np.array_equal(ghzsim._cell_map(sources), ghzsim._delayed_cells(2))
        (live,) = np.flatnonzero(sources[0, :, 0] != zero)
        for r, source in ((live ^ 1, sources[0, live, 0]), (live, zero)):  # two sources, none
            broken = sources.copy()
            broken[0, r, 0] = source
            with pytest.raises(ValueError, match="exactly one source"):
                ghzsim._cell_map(broken)

    def test_ancilla_cap(self):
        # Four parties over two rounds: 16 system qubits plus 8 ancillas.
        rng = np.random.default_rng(3)
        state = random_pure_state(16, rng)
        with pytest.raises(ValueError, match="16 qubits \\+ 8 ancillas.*cap"):
            cad_delayed_measurement_equivalence(3, 2, state)


class TestKeyMinEntropy:
    def test_single_block_single_word(self):
        hmin, bound = key_min_entropy_check(1, 1, [0])
        assert bound == 1.0
        assert hmin == pytest.approx(1.0, abs=1e-9)

    def test_full_word_set_gives_vacuous_bound(self):
        hmin, bound = key_min_entropy_check(2, 1, [0b00, 0b01, 0b10, 0b11])
        assert bound == 0.0
        assert hmin >= -1e-12

    def test_repetition_pair(self):
        hmin, bound = key_min_entropy_check(2, 1, [0b00, 0b11])
        assert bound == 1.0
        assert hmin >= bound - 1e-9

    def test_duplicates_are_deduplicated(self):
        a = key_min_entropy_check(2, 1, [0b00, 0b00, 0b11])
        b = key_min_entropy_check(2, 1, [0b00, 0b11])
        assert a == b

    def test_random_sets_respect_bound(self):
        rng = np.random.default_rng(17)
        for n, p in ((2, 1), (3, 1), (2, 2)):
            for _ in range(10):
                size = int(rng.integers(1, 2**n + 1))
                picks = rng.choice(2**n, size=size, replace=False)
                hmin, bound = key_min_entropy_check(n, p, sorted(picks))
                assert hmin >= bound - 1e-9

    def test_bound_is_tight_on_every_set(self):
        # P(x) is proportional to |sum_{y in J} (-1)^(x.y)|^2, which peaks at
        # x = 0 where every phase adds: hmin = n - log2|J| up to rounding.
        count, worst = 0, {}
        for n in (1, 2, 3):
            sets = [list(itertools.compress(range(2**n), keep))
                    for keep in itertools.product((0, 1), repeat=2**n) if any(keep)]
            for p in (1, 2):
                gaps = [hmin - bound for hmin, bound in key_min_entropy_checks(n, p, sets)]
                assert max(map(abs, gaps)) <= 1e-15
                count, worst[n, p] = count + len(gaps), min(gaps)
        assert count == 546
        assert worst[3, 1] == -4.440892098500626e-16

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            key_min_entropy_check(2, 1, [])
        with pytest.raises(ValueError, match="is not an integer in"):
            key_min_entropy_check(2, 1, ["0"])
        with pytest.raises(ValueError, match="is not an integer in"):
            key_min_entropy_check(2, 1, [0.0])
        with pytest.raises(ValueError, match="cap"):
            key_min_entropy_check(7, 2, [0])


class TestBatchedKernels:
    """Batches, one chunk and one past a chunk, equal the batch of one bit for bit."""

    @pytest.mark.parametrize("n, p", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    def test_min_entropy_batches_match_batch_of_one(self, n, p):
        chunk = _chunk(16 << (n * (p + 1)))  # the superposition
        rng = np.random.default_rng(10 * n + p)
        everything = list(range(2**n))
        sets = [everything, everything[:1] * 3, everything[::-1] + everything[:2]]
        while len(sets) < chunk + 1:  # random sets, duplicates included
            picks = rng.integers(0, 2**n, size=int(rng.integers(1, 2**n + 3)))
            sets.append(picks.tolist())
        single = [key_min_entropy_check(n, p, words) for words in sets]
        for count in (1, chunk, chunk + 1):
            assert key_min_entropy_checks(n, p, sets[:count]) == single[:count]

    def test_empty_batches(self):
        assert key_min_entropy_checks(2, 1, []) == []

    def test_cached_tables_are_read_only(self):
        for table in (ghzsim._direct_cells(4), ghzsim._delayed_cells(4),
                      ghzsim._head_vectors(3)):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_min_entropy_kernel_stays_within_the_byte_budget(self):
        # All 255 non-empty sets at (3, 2): 255 superpositions of 2**9
        # amplitudes are 2 MB unchunked (a 3.2 MB peak), 0.5 MB a chunk.
        sets = [list(itertools.compress(range(8), keep))
                for keep in itertools.product((0, 1), repeat=8) if any(keep)]
        assert _chunk(16 << 9) == 64
        ghzsim._head_vectors(3)
        tracemalloc.start()
        try:
            results = key_min_entropy_checks(3, 2, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 255
        assert peak < 1_500_000

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (1, 4), (3, 1), (2, 2), (1, 6),
                                      (4, 1), (3, 2)])
    def test_row_norms_of_superpositions_match_norm(self, n, p):
        # The min-entropy kernel's broadcast superpositions, 2**2 .. 2**9 amplitudes.
        k = n * (p + 1)
        chunk = _chunk(16 << k)
        rng = np.random.default_rng(k)
        heads = ghzsim._head_vectors(n)[rng.integers(0, 2**n, size=(chunk + 1, 3))].sum(axis=1)
        block_axes = ((2,) + (1,) * p) * n
        rows = np.broadcast_to(heads.reshape((-1,) + block_axes), (chunk + 1,) + (2,) * k)
        rows = rows.astype(np.complex128, order="C").reshape(chunk + 1, -1)
        for count in (1, chunk, chunk + 1):
            expect = [np.linalg.norm(row) for row in rows[:count]]
            assert ghzsim._row_norms(rows[:count]).tolist() == expect

    @pytest.mark.parametrize("qubits", [4, 6, 8])
    def test_row_norms_of_draws_match_norm(self, qubits):
        chunk = _chunk(48 << qubits)
        draws = np.random.default_rng(qubits).standard_normal((chunk + 1, 2, 1 << qubits))
        rows = draws[:, 0] + 1j * draws[:, 1]
        for count in (1, chunk, chunk + 1):
            expect = [np.linalg.norm(row) for row in rows[:count]]
            assert ghzsim._row_norms(rows[:count]).tolist() == expect
        for view in (rows[::2, ::3], np.broadcast_to(rows[0], (3, rows.shape[1]))):
            assert ghzsim._row_norms(view).tolist() == [np.linalg.norm(row) for row in view]


class TestRandomPureState:
    def test_normalized_and_reproducible(self):
        a = random_pure_state(5, np.random.default_rng(9))
        b = random_pure_state(5, np.random.default_rng(9))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.vdot(a.amplitudes, a.amplitudes).real - 1.0) < 1e-12

    @pytest.mark.parametrize("qubits", [1, 3, 4, 6, 8, 12])
    def test_draws_match_reference(self, qubits):
        # Each call reads the stream where the previous one stopped.
        rng, reference = np.random.default_rng(qubits), np.random.default_rng(qubits)
        for _ in range(20):
            re, im = reference.standard_normal((2, 1 << qubits))
            vec = re + 1j * im
            expect = vec / np.linalg.norm(vec)
            assert random_pure_state(qubits, rng).amplitudes.tobytes() == expect.tobytes()


def _reference_hadamard(amps):
    """The all-qubit Hadamard of one amplitude vector, one axis at a time."""
    k = amps.size.bit_length() - 1
    a = amps.reshape((2,) * k)
    for axis in range(k):
        plus = a.take(0, axis=axis) + a.take(1, axis=axis)
        minus = a.take(0, axis=axis) - a.take(1, axis=axis)
        a = np.stack((plus, minus), axis=axis)
    return a.reshape(-1) / math.sqrt(2.0) ** k


def _reference_expansion(p, x, y):
    """The expected all-Hadamard expansion of one GHZ label, outcome by outcome."""
    bits = [int(b) for b in format(x, f"0{p}b")]
    expected = np.zeros(2 << p, dtype=np.complex128)
    for c in itertools.product((0, 1), repeat=p):
        c0 = y ^ (sum(c) & 1)
        sign = (-1.0) ** (sum(a & b for a, b in zip(c, bits)) & 1)
        expected[(c0 << p) | int("".join(map(str, c)), 2)] = sign * 2.0 ** (-p / 2.0)
    return expected


def _labels(p):
    """Every (word index, phase bit) label of a (p+1)-qubit GHZ block."""
    return [(x, y) for x in range(1 << p) for y in (0, 1)]


class TestBulkInputs:
    """Stacked inputs built in bulk equal inputs built one at a time, bit for bit."""

    def test_draw_arguments_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one qubit"):
            random_pure_state(0, rng)
        with pytest.raises(ValueError, match="cap"):
            random_pure_state(21, rng)
        # Neither rejected call drew from the stream.
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_array_input_checked_as_state_vector(self):
        rng = np.random.default_rng(1)
        states = [random_pure_state(4, rng) for _ in range(3)]
        good = np.stack([s.amplitudes for s in states])
        assert ghzsim.x_basis_parity_distributions(good).tolist() == [
            list(x_basis_parity_distribution(s).values()) for s in states]
        bad = good.copy()
        bad[2] *= 1.001
        kernel = ghzsim.x_basis_parity_distributions
        for call in (lambda: kernel(bad), lambda: StateVector(bad[2])):
            with pytest.raises(ValueError, match="not normalized"):
                call()
        with pytest.raises(ValueError, match="power of two"):
            kernel(np.ones((2, 12)) / math.sqrt(12))
        with pytest.raises(ValueError, match="2-D"):
            kernel(good[0])
        with pytest.raises(ValueError, match="2-D array"):  # states as arrays only
            kernel(states)
        with pytest.raises(ValueError, match="cap"):
            kernel(np.broadcast_to(0.0, (1, 1 << 21)))

    # A NaN squared norm compares False with any tolerance; it is no state.
    @pytest.mark.parametrize("call", [
        lambda: StateVector([math.nan, 0.0]),
        lambda: cad_delayed_measurement_equivalence(1, 1, StateVector(np.full(16, math.nan))),
        lambda: ghzsim.x_basis_parity_distributions([[math.nan, 0]]),
        lambda: ghzsim.hadamard_expansion_checks(1, [0], [0], [[math.nan, 0, 0, 0]]),
    ], ids=["StateVector", "sieve-equivalence", "parity-distributions", "expansion-checks"])
    def test_nan_amplitudes_rejected(self, call):
        with pytest.raises(ValueError, match="state not normalized"):
            call()

    @pytest.mark.parametrize("n, p", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    def test_index_parity_sets_match_word_sets(self, n, p):
        # Every container of word indices is the set of its distinct indices.
        rng = np.random.default_rng(7 * n + p)
        for _ in range(20):
            picks = [int(w) for w in rng.integers(0, 2**n, size=int(rng.integers(1, 2**n + 3)))]
            expect = key_min_entropy_check(n, p, sorted(set(picks)))
            assert key_min_entropy_check(n, p, picks) == expect
            assert key_min_entropy_check(n, p, np.array(picks)) == expect
            assert key_min_entropy_check(n, p, set(picks)) == expect
            assert key_min_entropy_check(n, p, [np.uint8(w) for w in picks[::-1]]) == expect
            with pytest.raises(ValueError, match="is not an integer in"):
                key_min_entropy_check(n, p, [BitString(format(w, f"0{n}b")) for w in picks])

    def test_index_parity_sets_checked(self):
        with pytest.raises(ValueError, match="index 4"):
            key_min_entropy_check(2, 1, [0, 4])
        with pytest.raises(ValueError, match="index -1"):
            key_min_entropy_check(2, 1, [-1])

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_ghz_family_matches_single_states(self, p):
        labels = _labels(p)
        words, ys = zip(*labels)
        family = ghzsim.ghz_states(p, words, ys)
        for row, (index, y) in zip(family, labels):
            assert np.array_equal(row, ghz_state(p, index, y).amplitudes)
            expect = np.zeros(2 << p)
            expect[index] = 1.0 / math.sqrt(2.0)
            expect[(1 << p) | (index ^ ((1 << p) - 1))] = (-1.0) ** y / math.sqrt(2.0)
            assert np.array_equal(row, expect)
        with pytest.raises(ValueError, match="bit"):
            ghzsim.ghz_states(p, [0], [2])
        with pytest.raises(ValueError, match="indices"):
            ghzsim.ghz_states(p, [1 << p], [0])

    @pytest.mark.parametrize("qubits", [1, 3, 6])
    def test_batched_hadamard_matches_one_axis_at_a_time(self, qubits):
        rng = np.random.default_rng(qubits)
        states = np.stack([random_pure_state(qubits, rng).amplitudes for _ in range(9)])
        dist = ghzsim.x_basis_parity_distributions(states)
        for row, amps in zip(dist, states):
            transformed = _reference_hadamard(amps)
            assert np.array_equal(hadamard_transform(StateVector(amps)).amplitudes, transformed)
            probs = np.abs(transformed) ** 2
            parity = np.array([bin(i).count("1") & 1 for i in range(probs.size)])
            assert row.tolist() == pytest.approx([probs[parity == 0].sum(),
                                                  probs[parity == 1].sum()], abs=1e-15)
            single = x_basis_parity_distribution(StateVector(amps))
            assert row.tolist() == [single[0], single[1]]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_expansion_checks_match_reference(self, p):
        labels = _labels(p)
        words, ys = zip(*labels)
        assert ghzsim.hadamard_expansion_checks(p, words, ys).all()
        # Perturbations of the order of atol: some labels pass, some fail.
        rng = np.random.default_rng(2)
        family = ghzsim.ghz_states(p, words, ys)
        noisy = family + 2e-10 * rng.random(family.shape) * (rng.random(family.shape) < 0.3)
        noisy /= np.linalg.norm(noisy, axis=1)[:, None]
        passed = []
        for states in (noisy, family[::-1]):
            got = ghzsim.hadamard_expansion_checks(p, words, ys, states)
            expect = [np.allclose(_reference_hadamard(amps), _reference_expansion(p, x, y),
                                  atol=1e-10, rtol=0.0)
                      for amps, (x, y) in zip(states, labels)]
            assert got.tolist() == expect
            assert got.tolist() == [hadamard_expansion_check(p, x, y, StateVector(amps))
                                    for amps, (x, y) in zip(states, labels)]
            passed.append(sum(expect))
        assert 0 < passed[0] < len(labels) and passed[1] == 0


class TestBatteryMatchesSingleInputs:
    """The battery's checks equal the same checks built from single-input functions."""

    def test_ghz_checks(self):
        parity = orthonormal = 0.0
        failing = 0
        for p in (1, 2, 3):
            basis = [(x, y, ghz_state(p, x, y)) for x, y in _labels(p)]
            for x, y, state in basis:
                dist = x_basis_parity_distribution(state)
                parity = max(parity, abs(dist[y] - 1.0), dist[1 - y])
                failing += not hadamard_expansion_check(p, x, y)
                for x2, y2, state2 in basis:
                    expect = 1.0 if (x, y) == (x2, y2) else 0.0
                    overlap = abs(np.vdot(state.amplitudes, state2.amplitudes))
                    orthonormal = max(orthonormal, abs(overlap - expect))
        assert verify.check_parity_exact().margin == parity
        assert verify.check_orthonormality().margin == orthonormal
        assert verify.check_expansion().margin == failing == 0

    def test_sieve_equivalence(self, monkeypatch):
        compared = {"_direct_cells": [], "_delayed_cells": []}
        for name, seen in compared.items():
            original = getattr(ghzsim, name)
            monkeypatch.setattr(ghzsim, name,
                                lambda blocks, seen=seen, original=original:
                                seen.append(blocks) or original(blocks))
        result = verify.check_sieve_equivalence()
        assert compared == {"_direct_cells": [2, 3, 4, 6], "_delayed_cells": [2, 3, 4, 6]}
        worst = 0.0
        for p, rounds in ((1, 1), (2, 1), (1, 2)):
            basis = np.eye(1 << (2 * rounds * (p + 1)))
            worst = max(worst, *(cad_delayed_measurement_equivalence(p, rounds, StateVector(row))
                                 for row in basis))
        # The 6-block layouts, (2, 2) and (1, 3), where a basis state has 12 qubits.
        for index in range(4096):
            state = np.zeros(4096)
            state[index] = 1.0
            worst = max(worst, cad_delayed_measurement_equivalence(2, 2, StateVector(state)))
        assert result.margin == worst == 0.0
        assert result.detail == ("max TV distance over every state: direct and delayed cell "
                                 "maps equal entry for entry at 2/3/4/6 blocks")

    def test_sieve_equivalence_catches_two_swapped_cells(self, monkeypatch):
        # The basis state that feeds a swapped cell lands whole in another
        # cell of one table: TV 1, the largest there is.
        original = ghzsim._delayed_cells
        for p, rounds in ((2, 1), (2, 2)):
            blocks = rounds * (p + 1)

            def swapped(b, blocks=blocks):
                cells = original(b)
                if b == blocks:
                    cells = cells.copy()
                    cells[5, [2, 6]] = cells[5, [6, 2]]
                return cells

            monkeypatch.setattr(ghzsim, "_delayed_cells", swapped)
            result = verify.check_sieve_equivalence()
            assert (result.status, result.margin) == ("FAIL", 1.0)
            state = np.zeros(1 << (2 * blocks))
            state[original(blocks)[5, 2]] = 1.0
            assert cad_delayed_measurement_equivalence(p, rounds, StateVector(state)) == 1.0

    def test_key_min_entropy(self, monkeypatch):
        seen = _spy(monkeypatch, "key_min_entropy_checks", consume=list)
        result = verify.check_key_min_entropy()
        calls = list(seen)  # the single-input checks below call the spy too
        configs = [(n, p) for p in (1, 2) for n in (1, 2, 3)] + [(4, 1)]
        assert [args[:2] for args, _ in calls] == configs
        for (n, _), (args, _) in zip(configs[:-1], calls):
            assert args[2] == [list(itertools.compress(range(2**n), keep))
                               for keep in itertools.product((0, 1), repeat=2**n) if any(keep)]
        # At n = 4: the Hamming balls of radius <= 2 about every center, every
        # affine hyperplane and every 2-dimensional subspace, found by search.
        family = calls[-1][0][2]
        balls = {frozenset(w for w in range(16) if bin(c ^ w).count("1") <= k)
                 for c in range(16) for k in (0, 1, 2)}
        halves = {frozenset(w for w in range(16) if bin(a & w).count("1") % 2 == b)
                  for a in range(1, 16) for b in (0, 1)}
        planes = {frozenset(s) for s in itertools.combinations(range(16), 4)
                  if 0 in s and all(x ^ y in s for x in s for y in s)}
        assert (len(balls), len(halves), len(planes)) == (48, 30, 35)
        assert all(words == sorted(words) for words in family)
        assert len(family) == 113 and set(map(frozenset, family)) == balls | halves | planes
        assert sum(len(args[2]) for args, _ in calls) == 546 + 113
        worst = 0.0
        for (n, p, word_sets), results in calls:
            singles = [key_min_entropy_check(n, p, words) for words in word_sets]
            assert results == singles
            worst = max(worst, *(abs(hmin - bound) for hmin, bound in singles))
        assert result.margin == worst == 8.881784197001252e-16

    def test_key_min_entropy_is_two_sided(self, monkeypatch):
        # Weighting word 0 twice makes P(x) flatter on every set that holds
        # it and another word, so hmin rises above n - log2|J|.
        original = ghzsim._head_vectors

        def scaled(n):
            heads = original(n).copy()
            heads[0] *= 2.0
            return heads

        monkeypatch.setattr(ghzsim, "_head_vectors", scaled)
        seen = _spy(monkeypatch, "key_min_entropy_checks", consume=list)
        result = verify.check_key_min_entropy()
        gaps = [hmin - bound for _, results in seen for hmin, bound in results]
        assert len(gaps) == 546 + 113
        assert min(gaps) >= -1e-9  # the one-sided check would pass
        assert (result.status, result.margin) == ("FAIL", max(gaps))
        assert result.margin > 0.1


class TestParitySetDecoder:
    """The min-entropy kernel's decoding of parity sets into word indices
    checks every set, in whichever chunk it falls."""

    @pytest.mark.parametrize("bad, first", [
        ([0, 4], 4), ([-1], -1), ([], None), (["0"], "0"), ([0.0], 0.0),
        ([np.True_], np.True_), ([np.array(1)], np.array(1)), ([1, 2**70], 2**70),
        ([5, "x"], 5), ([np.uint64(2**64 - 1)], np.uint64(2**64 - 1)),
    ], ids=repr)
    def test_bad_set_in_a_later_chunk(self, bad, first):
        n, p = 2, 2
        message = ("empty parity-word set" if first is None
                   else f"word index {first!r} is not an integer in [0, 2**{n})")
        chunk = _chunk(16 << (n * (p + 1)))
        sets = [[0, 3]] * (chunk + 1) + [bad, [1]]
        for call in (lambda: key_min_entropy_check(n, p, bad),
                     lambda: key_min_entropy_checks(n, p, sets)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_integer_types_mix(self):
        words = [np.uint64(1), np.int64(2), True, np.uint8(1)]
        assert key_min_entropy_checks(2, 1, [words, [3]]) == [
            key_min_entropy_check(2, 1, [1, 2]), key_min_entropy_check(2, 1, [3])]


def _spy(monkeypatch, name, consume=None):
    """Record the arguments and result of each call to a ghzsim kernel."""
    seen = []
    original = getattr(ghzsim, name)

    def spy(first, second, inputs):
        inputs = consume(inputs) if consume else inputs
        result = original(first, second, inputs)
        seen.append(((first, second, inputs), result))
        return result

    monkeypatch.setattr(ghzsim, name, spy)
    return seen
