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
  measurement form of the two-block sieve): both orders give the same
  joint distribution of Left bits and parities,
* a uniform superposition of GHZ words drawn from a restricted parity set
  leaves at least ``n - log2|set|`` bits of min-entropy in the first-qubit
  measurement.

Everything is computed by exact marginalization of squared amplitudes,
never by sampling, so the checks are deterministic.  The kernels take a
batch in one format: states as the rows of a 2-D amplitude array, GHZ
labels as integer word indices (first bit most significant) and phase
bits, parity sets as the rows of a 2-D ``bool`` membership array, one
column per word index.  ``_stacked`` is the one check that amplitudes
form states: a power-of-two row size within the cap of
``DEFAULT_QUBIT_CAP`` = 20 qubits (16 MiB per row), checked before
anything is converted, and squared norms within 1e-10 of 1.  A
StateVector is a checked, read-only copy of one row, and a single-input
kernel gives the bits of its batch kernel on a batch of one.  Row norms
are batched BLAS dots, bit for bit ``np.linalg.norm``; the all-qubit
Hadamard is a radix-2 butterfly between two buffers, scaled once.  The
min-entropy kernel never builds a superposition: summed over correlation
words, each GHZ block is its first qubit times a uniform trailing
register, so the first-qubit marginal is the normalized square of 2**n
real amplitudes per parity set (one ``einsum`` adds them in ascending
word order), and p drops out.  The sieve check gathers both orders' tables
from one square of the state through read-only cell maps built once per
layout (the delayed one by running its CNOTs on indices).  Within a GHZ
block, qubit 1 belongs to the first party and qubits 2..p+1 to the
others.  Qubit 1 is the most significant bit of the amplitude index, so
in the ``(2,) * k`` axis view every kernel works on, qubit q is axis q - 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "StateVector",
    "ghz_state",
    "ghz_states",
    "compose",
    "random_pure_state",
    "hadamard_transform",
    "x_basis_parity_distribution",
    "x_basis_parity_distributions",
    "hadamard_expansion_check",
    "hadamard_expansion_checks",
    "cad_delayed_measurement_equivalence",
    "key_min_entropy_check",
    "key_min_entropy_checks",
]

DEFAULT_QUBIT_CAP = 20

_NORM_ATOL = 1e-10


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_cap(k: int, what: str | None = None) -> None:
    if k > DEFAULT_QUBIT_CAP:
        raise ValueError(f"{what or f'{k} qubits'} exceeds the qubit cap of {DEFAULT_QUBIT_CAP}")


class StateVector:
    """Dense, normalized pure state over ``qubit_count`` qubits.

    Amplitudes are indexed with qubit 1 as the most significant bit, so
    ``amplitudes[0b10...]`` is the coefficient of |1 0 ...>.  Instances
    are immutable; operations return new states.
    """

    __slots__ = ("_amps", "_k")

    def __init__(self, amplitudes):
        # A copy, so the caller's array is neither shared nor frozen.
        self._amps = _read_only(_stacked(np.reshape(amplitudes, (1, -1)))[0].copy())
        self._k = self._amps.size.bit_length() - 1

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude vector."""
        return self._amps

    @property
    def qubit_count(self) -> int:
        return self._k

    def __repr__(self) -> str:
        return f"StateVector(qubits={self._k})"


def _stacked(states) -> np.ndarray:
    """A 2-D array of amplitude rows as complex rows, each checked to be a
    state: a power-of-two size >= 2 within the qubit cap, checked before
    any conversion, and a squared norm within ``_NORM_ATOL`` of 1."""
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError(f"expected a 2-D array of amplitude rows, got {states.ndim} dimensions")
    size = states.shape[1]
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude count {size} is not a power of two >= 2")
    _check_cap(size.bit_length() - 1)
    amps = states.astype(np.complex128, copy=False)
    re, im = amps.real, amps.imag
    norm_sq = np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)
    off = norm_sq[~(np.abs(norm_sq - 1.0) <= _NORM_ATOL)]  # NaN is off too
    if off.size:
        raise ValueError(f"state not normalized: |amps|^2 = {float(off[0])!r}")
    return amps


def _checked_labels(p: int, words, ys) -> tuple:
    """GHZ labels as index arrays: correlation-word indices and phase bits."""
    if p < 1:
        raise ValueError("need at least one trailing qubit (p >= 1)")
    _check_cap(p + 1)
    words, ys = np.asarray(words), np.asarray(ys)
    if words.ndim != 1:
        raise ValueError(f"correlation-word indices must be a 1-D array, got {words.ndim}-D")
    if words.shape != ys.shape:
        raise ValueError("need one phase bit per correlation word")
    if words.size and (words.dtype.kind not in "biu" or ys.dtype.kind not in "biu"):
        raise ValueError("correlation-word indices and phase bits must be integers")
    if np.any((ys != 0) & (ys != 1)):
        raise ValueError("y must be a bit")
    if np.any((words < 0) | (words >= 1 << p)):
        raise ValueError(f"correlation-word indices must lie in [0, 2**{p})")
    return words.astype(np.intp), ys.astype(np.intp)


def ghz_states(p: int, words, ys) -> np.ndarray:
    """Amplitudes of (p+1)-qubit GHZ basis states, one row per label.

    Row i is :func:`ghz_state` for the correlation word whose index (its
    first bit most significant) is ``words[i]`` and the phase bit ``ys[i]``.
    """
    words, ys = _checked_labels(p, words, ys)
    rows, half = np.arange(words.size), 1.0 / math.sqrt(2.0)
    amps = np.zeros((words.size, 2 << p), dtype=np.complex128)
    amps[rows, words] = half
    amps[rows, (1 << p) | (words ^ ((1 << p) - 1))] = np.where(ys == 1, -half, half)
    return amps


def ghz_state(p: int, x: int, y: int) -> StateVector:
    """The (p+1)-qubit GHZ basis state (|0,x> + (-1)^y |1,~x>)/sqrt(2).

    ``x`` is the index of the p-bit correlation word on the trailing qubits
    and ``y`` the phase bit; ``~x`` is the bitwise complement of ``x``.
    """
    return StateVector(ghz_states(p, [x], [y])[0])


def compose(*states: StateVector) -> StateVector:
    """Tensor product of several states, left to right."""
    if not states:
        raise ValueError("compose needs at least one state")
    _check_cap(sum(s.qubit_count for s in states))
    return StateVector(functools.reduce(np.kron, [s.amplitudes for s in states]))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit: its BLAS dots, batched by ``matmul``."""
    re, im = rows.real[:, None], rows.imag[:, None]
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel()


def random_pure_state(qubit_count: int, rng: np.random.Generator) -> StateVector:
    """Haar-like random pure state from normalized complex Gaussians."""
    if qubit_count < 1:
        raise ValueError("need at least one qubit")
    _check_cap(qubit_count)
    amps = np.empty(1 << qubit_count, dtype=np.complex128)
    amps.real, amps.imag = rng.standard_normal((2, 1 << qubit_count))
    amps /= _row_norms(amps[None])
    return StateVector(amps)


def _hadamard(amps: np.ndarray) -> np.ndarray:
    """Each row of ``amps`` with a Hadamard applied to every qubit."""
    count, size = amps.shape
    k = size.bit_length() - 1
    # Qubit 1 first, between two buffers and scaled once at the end: the
    # same sums in the same order as stacking (a0 + a1, a0 - a1) per axis.
    bufs, src = [np.empty((count, size), dtype=np.complex128) for _ in range(2)], amps
    for axis in range(k):
        shape = (count, 1 << axis, 2, size >> (axis + 1))
        a, out = src.reshape(shape), bufs[axis & 1].reshape(shape)
        np.add(a[:, :, 0], a[:, :, 1], out=out[:, :, 0])
        np.subtract(a[:, :, 0], a[:, :, 1], out=out[:, :, 1])
        src = bufs[axis & 1]
    src /= math.sqrt(2.0) ** k
    return src


def hadamard_transform(state: StateVector) -> StateVector:
    """Apply a Hadamard to every qubit (exact basis change)."""
    return StateVector(_hadamard(state.amplitudes[None])[0])


def x_basis_parity_distributions(states) -> np.ndarray:
    """:func:`x_basis_parity_distribution` of each state, as rows (P(0), P(1))."""
    probs = np.abs(_hadamard(_stacked(states))) ** 2
    # Fold one qubit at a time: even/odd hold the mass whose folded qubits
    # have even/odd parity, indexed by the qubits not yet folded.
    half = probs.shape[1] // 2
    even, odd = probs[:, :half], probs[:, half:]
    while half > 1:
        half //= 2
        even, odd = even[:, :half] + odd[:, half:], odd[:, :half] + even[:, half:]
    return np.concatenate((even, odd), axis=1)


def x_basis_parity_distribution(state: StateVector) -> dict:
    """Distribution of the XOR of all qubits measured in the Hadamard basis.

    Returns ``{0: prob, 1: prob}`` computed by exact marginalization.
    """
    even, odd = x_basis_parity_distributions(state.amplitudes[None])[0]
    return {0: float(even), 1: float(odd)}


@functools.lru_cache(maxsize=None)
def _parities(p: int) -> np.ndarray:
    """The parity of each p-bit word index, as a read-only row."""
    return _read_only(np.array([bin(w).count("1") & 1 for w in range(1 << p)]))


def hadamard_expansion_checks(p: int, words, ys, states=None) -> np.ndarray:
    """:func:`hadamard_expansion_check` of each label, as a bool array.

    Label i is the correlation-word index ``words[i]`` (its first bit most
    significant) and the phase bit ``ys[i]``; ``states`` (default: the GHZ
    states of the labels) holds one amplitude row per label.
    """
    words, ys = _checked_labels(p, words, ys)
    amps = ghz_states(p, words, ys) if states is None else _stacked(states)
    if amps.shape != (words.size, 2 << p):
        raise ValueError("state size does not match p")
    c, parity = np.arange(1 << p), _parities(p)
    signs = np.where(parity[words[:, None] & c], -1.0, 1.0) * 2.0 ** (-p / 2.0)
    expected = np.zeros_like(amps)
    expected[np.arange(words.size)[:, None], ((ys[:, None] ^ parity) << p) | c] = signs
    # np.isclose(atol=1e-10, rtol=0) on the finite rows _stacked admits.
    return (np.abs(_hadamard(amps) - expected) <= 1e-10).all(axis=1)


def hadamard_expansion_check(p: int, x: int, y: int, state: StateVector | None = None) -> bool:
    """Check the all-Hadamard expansion of a GHZ state.

    Expands ``state`` (default: the GHZ state of word index ``x`` and phase
    bit ``y``) in the Hadamard basis and verifies that every nonzero
    coefficient has magnitude 2^{-p/2}, lives on outcomes whose leading
    bit equals ``y`` XOR the parity of the trailing bits, and carries sign
    (-1)^{c.x} where c ranges over the trailing bits, every coefficient to
    within an absolute 1e-10.
    """
    states = None if state is None else state.amplitudes[None]
    return bool(hadamard_expansion_checks(p, [x], [y], states)[0])


# ---------------------------------------------------------------------------
# Two-bit parity sieve, direct vs delayed measurement order
# ---------------------------------------------------------------------------
#
# Qubit layout for a sieve instance with r rounds and p+1 parties:
# positions 1 .. r(p+1) hold the Left blocks (round-major, party 0 first),
# positions r(p+1)+1 .. 2r(p+1) the Right blocks.  In the delayed order,
# one parity ancilla per (party, round) is appended after the system in
# the same round-major order.  Block b (0-based, round-major) is thus
# axis b on the Left, axis r(p+1) + b on the Right and axis 2r(p+1) + b
# for its ancilla, and bit blocks-1-b of a packed Left or parity word.
#
# Each order's cell map depends only on the layout, so it is built once per
# layout (a handful, bounded by the qubit cap) and kept read-only.


def _apply_cnot(a: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT on the axis view: flip the target axis of the control=1 slice."""
    out = a.copy()
    one = (slice(None),) * control + (1,)
    out[one] = np.flip(a[one], axis=target - (target > control))
    return out


def _delayed_sources(blocks: int) -> np.ndarray:
    """Where each amplitude of the delayed-order register comes from.

    Entry ``[l, r, a]`` of the register (Left, Right and ancilla bits),
    after the parity CNOTs, is system amplitude ``sources[l, r, a]`` with
    every ancilla in |0>; the index ``2**(2 * blocks)`` stands for a zero
    amplitude.  A CNOT only moves amplitudes, so running the circuit on
    indices gives the same register as running it on amplitudes.
    """
    system = 2 * blocks  # the smallest dtype that holds the zero index 2**system
    sources = np.full((1 << system, 1 << blocks), 1 << system, np.min_scalar_type(1 << system))
    sources[:, 0] = np.arange(1 << system)
    sources = sources.reshape((2,) * (system + blocks))
    for b in range(blocks):
        sources = _apply_cnot(sources, b, system + b)
        sources = _apply_cnot(sources, blocks + b, system + b)
    return sources.reshape((1 << blocks,) * 3)


def _cell_map(sources: np.ndarray) -> np.ndarray:
    """The one source in each ``[Left, ancilla]`` cell of ``_delayed_sources``."""
    live = sources != len(sources) ** 2
    if not (live.sum(axis=1) == 1).all():
        raise ValueError("a delayed-table cell does not have exactly one source")
    return _read_only(np.where(live, sources, 0).sum(axis=1, dtype=np.intp))


@functools.lru_cache(maxsize=None)
def _delayed_cells(blocks: int) -> np.ndarray:
    """The system amplitude that lands in each cell of the delayed table."""
    return _cell_map(_delayed_sources(blocks))


@functools.lru_cache(maxsize=None)
def _direct_cells(blocks: int) -> np.ndarray:
    """The system amplitude in each cell of the direct table, where each
    parity is XOR-ed after measurement: ``P[l, l ^ r] = |psi[l, r]|^2``."""
    left = np.arange(1 << blocks)[:, None]
    return _read_only((left << blocks) | (left ^ np.arange(1 << blocks)))


def cad_delayed_measurement_equivalence(p: int, rounds: int, state: StateVector) -> float:
    """Total variation distance between the direct and delayed sieve orders.

    It is taken between the two joint tables ``P[Left bits, parity bits]``,
    so it depends on (p, rounds) only through the block count
    ``rounds * (p + 1)``.  A sieve record (the parities and the accepted
    rounds' Left bits) is a function of a table cell, so the distance
    bounds the TV distance between the two orders' records.
    """
    if p < 1 or rounds < 1:
        raise ValueError("need p >= 1 and rounds >= 1")
    blocks = rounds * (p + 1)
    system = 2 * blocks
    _check_cap(system + blocks, f"{system} qubits + {blocks} ancillas")
    if state.qubit_count != system:
        raise ValueError(f"state has {state.qubit_count} qubits, sieve layout needs {system}")
    # Each cell of either table receives one squared modulus.
    probs = np.abs(state.amplitudes) ** 2
    gap = probs[_direct_cells(blocks)] - probs[_delayed_cells(blocks)]
    return float(0.5 * np.abs(gap).sum())


# ---------------------------------------------------------------------------
# Min-entropy of a restricted GHZ superposition
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _head_vectors(n: int) -> np.ndarray:
    """Row y: the first qubits of n GHZ blocks with phase word y, summed
    over correlation words."""
    # Summed over its correlation word, a GHZ block is
    # (|0> + (-1)^y |1>) (x) sum_x |x> / sqrt(2): the phase bit lives on the
    # first qubit alone and the trailing qubits are uniform.
    heads = np.empty((2**n, 2**n))
    for y, bits in enumerate(itertools.product((0, 1), repeat=n)):
        heads[y] = functools.reduce(
            np.kron, [np.array([1.0, (-1.0) ** b]) / math.sqrt(2.0) for b in bits]
        )
    return _read_only(heads)


def _check_sizes(n: int, p: int) -> None:
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    _check_cap(n * (p + 1))


def key_min_entropy_checks(n: int, p: int, member) -> tuple:
    """:func:`key_min_entropy_check` for each parity set, as two float arrays
    ``(hmin, bound)``.

    ``member`` is a 2-D ``bool`` array with one row per set and one column
    per n-bit word: entry ``[s, w]`` is True iff word index w is in set s.
    """
    _check_sizes(n, p)
    member = np.asarray(member)
    if member.ndim != 2:
        raise ValueError(f"parity sets must be a 2-D membership array, got {member.ndim}-D")
    if member.dtype != bool:
        raise ValueError(f"parity-set membership must be bool, got {member.dtype}")
    if member.shape[1] != 1 << n:
        raise ValueError(f"membership rows need 2**{n} columns, got {member.shape[1]}")
    sizes = member.sum(axis=1)
    if not sizes.all():
        raise ValueError("empty parity-word set")
    # einsum adds each set's heads in ascending word order from zero at any
    # batch size; 1.0 * head is exact and a word outside the set adds a zero.
    heads = np.einsum("sw,wx->sx", member.astype(float), _head_vectors(n))
    # The superposition is heads (x) uniform, so the first-qubit marginal
    # is heads**2 / |heads|**2: the trailing qubits sum out exactly.
    heads *= heads
    return -np.log2(heads.max(axis=1) / heads.sum(axis=1)), n - np.log2(sizes)


def key_min_entropy_check(n: int, p: int, parity_words: Iterable) -> tuple:
    """Min-entropy of first-qubit outcomes for a restricted GHZ superposition.

    Builds the uniform superposition of n-block GHZ products whose per-block
    phase bits range over ``parity_words`` (n-bit word indices, first bit
    most significant) and whose correlation words range over everything,
    measures the first qubit of each block in Z, and returns
    ``(hmin, n - log2(set size))``.  The first component is computed by
    exact marginalization; callers assert it is at least the second.

    The superposition factors into the n first qubits times a uniform
    register on the trailing ones, so the result does not depend on ``p``,
    which only sets the ``n * (p + 1)`` qubits the cap is checked against.
    A word is checked by type before it indexes anything, since numpy
    would take a ``bool_`` or a 0-d array for an index.
    """
    _check_sizes(n, p)
    member = np.zeros((1, 1 << n), dtype=bool)
    for w in parity_words:
        if not isinstance(w, (int, np.integer)) or not 0 <= w < 1 << n:
            raise ValueError(f"word index {w!r} is not an integer in [0, 2**{n})")
        member[0, int(w)] = True  # a bool index would select the whole row
    hmin, bound = key_min_entropy_checks(n, p, member)
    return float(hmin[0]), float(bound[0])
