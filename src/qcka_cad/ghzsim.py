"""Desk-scale dense statevector engine for GHZ-state verification.

This module exists to check, by exact linear algebra on small instances,
the handful of quantum facts the key-rate analysis relies on:

* a Hadamard-basis measurement of a GHZ state has all-qubit parity equal
  to the state's phase bit,
* the all-Hadamard expansion of a GHZ state has uniform magnitudes, a
  parity constraint on the support, and signs given by the inner product
  with the correlation word,
* announcing two-bit parities via CNOTs onto ancillas and measuring later
  is equivalent to measuring first and XOR-ing classically (the delayed
  measurement form of the two-block sieve),
* a uniform superposition of GHZ words drawn from a restricted parity set
  leaves at least ``n - log2|set|`` bits of min-entropy in the first-qubit
  measurement.

Everything is computed by exact marginalization of squared amplitudes,
never by sampling, so the checks are deterministic.  States are dense
complex vectors with a hard qubit cap (default 14); within a GHZ block,
qubit 1 belongs to the first party and qubits 2..p+1 to the others.
Qubit 1 is the most significant bit of the amplitude index.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .bitcore import BitString

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "StateVector",
    "ghz_state",
    "compose",
    "random_pure_state",
    "hadamard_transform",
    "x_basis_parity_distribution",
    "hadamard_expansion_check",
    "cad_record_distribution",
    "cad_delayed_measurement_equivalence",
    "key_min_entropy_check",
]

DEFAULT_QUBIT_CAP = 14

_NORM_ATOL = 1e-10


class StateVector:
    """Dense, normalized pure state over ``qubit_count`` qubits.

    Amplitudes are indexed with qubit 1 as the most significant bit, so
    ``amplitudes[0b10...]`` is the coefficient of |1 0 ...>.  Instances
    are immutable; operations return new states.
    """

    __slots__ = ("_amps", "_k")

    def __init__(self, amplitudes, *, cap: int = DEFAULT_QUBIT_CAP):
        arr = np.asarray(amplitudes, dtype=np.complex128).ravel().copy()
        if arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"amplitude count {arr.size} is not a power of two >= 2")
        k = arr.size.bit_length() - 1
        if k > cap:
            raise ValueError(f"{k} qubits exceeds the configured cap of {cap}")
        norm_sq = float(np.vdot(arr, arr).real)
        if abs(norm_sq - 1.0) > _NORM_ATOL:
            raise ValueError(f"state not normalized: |amps|^2 = {norm_sq!r}")
        arr.setflags(write=False)
        self._amps = arr
        self._k = k

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude vector."""
        return self._amps

    @property
    def qubit_count(self) -> int:
        return self._k

    def tensor(self, other: "StateVector", *, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        """Tensor product, with this state's qubits first."""
        if self._k + other._k > cap:
            raise ValueError(
                f"{self._k} + {other._k} qubits exceeds the configured cap of {cap}"
            )
        return StateVector(np.kron(self._amps, other._amps), cap=cap)

    def __repr__(self) -> str:
        return f"StateVector(qubits={self._k})"


def _as_bit_array(x: "BitString | str | Iterable[int]", length: int | None = None) -> np.ndarray:
    if isinstance(x, BitString):
        arr = x.to_array()
    elif isinstance(x, str):
        arr = BitString(x).to_array()
    else:
        arr = np.asarray(list(x), dtype=np.uint8)
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
    if length is not None and arr.size != length:
        raise ValueError(f"expected {length} bits, got {arr.size}")
    return arr


def _bits_to_index(bits: np.ndarray) -> int:
    # MSB-first packing, matching the qubit-1-is-MSB convention.
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def ghz_state(p: int, x, y: int, *, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """The (p+1)-qubit GHZ basis state (|0,x> + (-1)^y |1,~x>)/sqrt(2).

    ``x`` is the p-bit correlation word carried by the trailing qubits and
    ``y`` the phase bit; ``~x`` is the bitwise complement of ``x``.
    """
    if p < 1:
        raise ValueError("need at least one trailing qubit (p >= 1)")
    if y not in (0, 1):
        raise ValueError("y must be a bit")
    if p + 1 > cap:
        raise ValueError(f"{p + 1} qubits exceeds the configured cap of {cap}")
    bits = _as_bit_array(x, p)
    amps = np.zeros(1 << (p + 1), dtype=np.complex128)
    amps[_bits_to_index(bits)] = 1.0 / math.sqrt(2.0)
    amps[(1 << p) | _bits_to_index(bits ^ 1)] = (-1.0) ** y / math.sqrt(2.0)
    return StateVector(amps, cap=cap)


def compose(*states: StateVector, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Tensor product of several states, left to right."""
    if not states:
        raise ValueError("compose needs at least one state")
    out = states[0]
    for s in states[1:]:
        out = out.tensor(s, cap=cap)
    return out


def random_pure_state(
    qubit_count: int, rng: np.random.Generator, *, cap: int = DEFAULT_QUBIT_CAP
) -> StateVector:
    """Haar-like random pure state from normalized complex Gaussians."""
    if qubit_count < 1:
        raise ValueError("need at least one qubit")
    if qubit_count > cap:
        raise ValueError(f"{qubit_count} qubits exceeds the configured cap of {cap}")
    dim = 1 << qubit_count
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(vec / np.linalg.norm(vec), cap=cap)


def hadamard_transform(state: StateVector) -> StateVector:
    """Apply a Hadamard to every qubit (exact basis change)."""
    k = state.qubit_count
    a = state.amplitudes.reshape((2,) * k)
    for axis in range(k):
        plus = a.take(0, axis=axis) + a.take(1, axis=axis)
        minus = a.take(0, axis=axis) - a.take(1, axis=axis)
        a = np.stack((plus, minus), axis=axis)
    return StateVector(a.reshape(-1) / math.sqrt(2.0) ** k, cap=max(k, DEFAULT_QUBIT_CAP))


def _index_parity(idx: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each non-negative int64 index (XOR fold)."""
    v = idx.astype(np.int64)
    v ^= v >> 32
    v ^= v >> 16
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return (v & 1).astype(np.int64)


def x_basis_parity_distribution(state: StateVector) -> dict:
    """Distribution of the XOR of all qubits measured in the Hadamard basis.

    Returns ``{0: prob, 1: prob}`` computed by exact marginalization.
    """
    probs = np.abs(hadamard_transform(state).amplitudes) ** 2
    parity = _index_parity(np.arange(probs.size))
    p1 = float(probs[parity == 1].sum())
    p0 = float(probs[parity == 0].sum())
    return {0: p0, 1: p1}


def hadamard_expansion_check(
    p: int, x, y: int, state: StateVector | None = None, *, atol: float = 1e-10
) -> bool:
    """Check the all-Hadamard expansion of a GHZ state.

    Expands ``state`` (default: the GHZ state for ``(x, y)``) in the
    Hadamard basis and verifies that every nonzero coefficient has
    magnitude 2^{-p/2}, lives on outcomes whose leading bit equals ``y``
    XOR the parity of the trailing bits, and carries sign (-1)^{c.x}
    where c ranges over the trailing bits.
    """
    bits = _as_bit_array(x, p)
    if state is None:
        state = ghz_state(p, bits, y)
    if state.qubit_count != p + 1:
        raise ValueError("state size does not match p")
    transformed = hadamard_transform(state).amplitudes
    expected = np.zeros_like(transformed)
    scale = 2.0 ** (-p / 2.0)
    for c in itertools.product((0, 1), repeat=p):
        c_arr = np.asarray(c, dtype=np.uint8)
        c0 = y ^ (int(c_arr.sum()) & 1)
        sign = (-1.0) ** (int(np.dot(c_arr, bits)) & 1)
        expected[(c0 << p) | _bits_to_index(c_arr)] = sign * scale
    return bool(np.allclose(transformed, expected, atol=atol, rtol=0.0))


# ---------------------------------------------------------------------------
# Two-bit parity sieve, direct vs delayed measurement order
# ---------------------------------------------------------------------------
#
# Qubit layout for a sieve instance with r rounds and p+1 parties:
# positions 1 .. r(p+1) hold the Left blocks (round-major, party 0 first),
# positions r(p+1)+1 .. 2r(p+1) the Right blocks.  In the delayed order,
# one parity ancilla per (party, round) is appended after the system in
# the same round-major order.


def _bit_at(idx: np.ndarray, k: int, pos: int) -> np.ndarray:
    return (idx >> (k - pos)) & 1


def _apply_cnot(amps: np.ndarray, k: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(amps.size)
    tmask = 1 << (k - target)
    sel = _bit_at(idx, k, control) == 1
    perm = np.where(sel, idx ^ tmask, idx)
    return amps[perm]


def _sieve_key_probs(p: int, rounds: int, state: StateVector, order: str, cap: int) -> np.ndarray:
    """Dense probability vector over packed (parities, masked kept bits) keys."""
    parties = p + 1
    blocks = rounds * parties
    system = 2 * blocks
    if state.qubit_count != system:
        raise ValueError(
            f"state has {state.qubit_count} qubits, sieve layout needs {system}"
        )

    def left_pos(j, i):
        return (i - 1) * parties + j + 1

    def right_pos(j, i):
        return blocks + left_pos(j, i)

    if order == "direct":
        k = system
        probs = np.abs(state.amplitudes) ** 2
        idx = np.arange(probs.size)
        parity_bits = [
            _bit_at(idx, k, left_pos(j, i)) ^ _bit_at(idx, k, right_pos(j, i))
            for i in range(1, rounds + 1)
            for j in range(parties)
        ]
        left_bits = [
            _bit_at(idx, k, left_pos(j, i))
            for i in range(1, rounds + 1)
            for j in range(parties)
        ]
    elif order == "delayed":
        k = system + blocks
        if k > cap:
            raise ValueError(f"{system} qubits + {blocks} ancillas exceeds the cap of {cap}")
        amps = np.zeros(1 << k, dtype=np.complex128)
        amps[np.arange(state.amplitudes.size) << blocks] = state.amplitudes
        for i in range(1, rounds + 1):
            for j in range(parties):
                anc = system + (i - 1) * parties + j + 1
                amps = _apply_cnot(amps, k, left_pos(j, i), anc)
                amps = _apply_cnot(amps, k, right_pos(j, i), anc)
        probs = np.abs(amps) ** 2
        idx = np.arange(probs.size)
        parity_bits = [
            _bit_at(idx, k, system + (i - 1) * parties + j + 1)
            for i in range(1, rounds + 1)
            for j in range(parties)
        ]
        left_bits = [
            _bit_at(idx, k, left_pos(j, i))
            for i in range(1, rounds + 1)
            for j in range(parties)
        ]
    else:
        raise ValueError(f"unknown measurement order {order!r}")

    # A round is accepted when every party reports the same parity as
    # party 0; kept bits outside accepted rounds are zeroed so that the
    # packed key identifies the record uniquely.
    parity_int = np.zeros(probs.size, dtype=np.int64)
    left_int = np.zeros(probs.size, dtype=np.int64)
    accept_mask = np.zeros(probs.size, dtype=np.int64)
    for b, (pb, lb) in enumerate(zip(parity_bits, left_bits)):
        parity_int |= pb.astype(np.int64) << b
        left_int |= lb.astype(np.int64) << b
    for i in range(1, rounds + 1):
        base = (i - 1) * parties
        ref = parity_bits[base]
        acc = np.ones(probs.size, dtype=bool)
        for j in range(1, parties):
            acc &= parity_bits[base + j] == ref
        round_mask = ((1 << parties) - 1) << base
        accept_mask |= np.where(acc, round_mask, 0)
    key = (parity_int << blocks) | (left_int & accept_mask)
    return np.bincount(key, weights=probs, minlength=1 << (2 * blocks))


def _decode_sieve_key(key: int, p: int, rounds: int) -> tuple:
    parties = p + 1
    blocks = rounds * parties
    parity_int = key >> blocks
    kept_int = key & ((1 << blocks) - 1)
    parities = tuple((parity_int >> b) & 1 for b in range(blocks))
    kept = []
    for i in range(rounds):
        base = i * parties
        if all(parities[base + j] == parities[base] for j in range(parties)):
            kept.extend((kept_int >> (base + j)) & 1 for j in range(parties))
    return parities, tuple(kept)


def cad_record_distribution(
    p: int,
    rounds: int,
    state: StateVector,
    *,
    order: str = "direct",
    cap: int = DEFAULT_QUBIT_CAP,
) -> dict:
    """Joint distribution of parity announcements and kept key bits.

    ``order="direct"`` measures every qubit in Z and applies the sieve
    classically; ``order="delayed"`` first writes each party's two-bit
    parity onto an ancilla with two CNOTs, measures the ancillas, then
    measures the kept qubits.  Records are ``(parities, kept)`` tuples,
    both round-major with party 0 first; ``kept`` contains every party's
    Left-qubit outcome for accepted rounds only.
    """
    dense = _sieve_key_probs(p, rounds, state, order, cap)
    return {
        _decode_sieve_key(int(key), p, rounds): float(prob)
        for key, prob in enumerate(dense)
        if prob > 0.0
    }


def cad_delayed_measurement_equivalence(
    p: int, rounds: int, state: StateVector, *, cap: int = DEFAULT_QUBIT_CAP
) -> float:
    """Total variation distance between the direct and delayed sieve records."""
    direct = _sieve_key_probs(p, rounds, state, "direct", cap)
    delayed = _sieve_key_probs(p, rounds, state, "delayed", cap)
    return 0.5 * float(np.abs(direct - delayed).sum())


def key_min_entropy_check(
    n: int,
    p: int,
    parity_words: Iterable,
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> tuple:
    """Min-entropy of first-qubit outcomes for a restricted GHZ superposition.

    Builds the uniform superposition of n-block GHZ products whose per-block
    phase bits range over ``parity_words`` (a set of n-bit words) and whose
    correlation words range over everything, measures the first qubit of
    each block in Z, and returns ``(hmin, n - log2(set size))``.  The first
    component is computed by exact marginalization; callers assert it is at
    least the second.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    words = sorted({str(w if isinstance(w, BitString) else BitString(w)) for w in parity_words})
    if not words:
        raise ValueError("empty parity-word set")
    if any(len(w) != n for w in words):
        raise ValueError(f"every parity word must have length {n}")
    k = n * (p + 1)
    if k > cap:
        raise ValueError(f"{k} qubits exceeds the configured cap of {cap}")

    amps = np.zeros(1 << k, dtype=np.complex128)
    for y in words:
        for x_bits in itertools.product((0, 1), repeat=p * n):
            blocks = [
                ghz_state(p, x_bits[i * p : (i + 1) * p], int(y[i]), cap=cap)
                for i in range(n)
            ]
            amps += compose(*blocks, cap=cap).amplitudes
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, cap=cap)

    probs = np.abs(state.amplitudes.reshape((2,) * k)) ** 2
    kept_axes = {i * (p + 1) for i in range(n)}
    traced = tuple(ax for ax in range(k) if ax not in kept_axes)
    marginal = probs.sum(axis=traced)
    hmin = -math.log2(float(marginal.max()))
    bound = n - math.log2(len(words))
    return hmin, bound
