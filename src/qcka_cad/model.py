"""The analytic model: protocol parameters, i.i.d. noise, and its closed forms.

Everything here is plain ``math``: the parameter records shared by the
key-rate engine and the simulator, and the expectations of the test
statistic, the sieve acceptance probability and the post-sieve error
rates under the i.i.d. channel model.  The noise model is an X-basis
flip with probability ``x_error`` per round half, and an independent
Z-basis flip with probability ``z_errors[j]`` per round half between
the reference party and party j+1.
"""

from __future__ import annotations

import sys
from collections import namedtuple

__all__ = [
    "NoiseModel",
    "ProtocolParams",
    "analytic_qx",
    "analytic_pa",
    "postcad_error_rates",
]

# namedtuple's _replace builds its copy with _make, which skips __new__;
# the records below route it through their validating constructors.
_validated_make = classmethod(lambda cls, iterable: cls(*iterable))


class NoiseModel(namedtuple("NoiseModel", "x_error z_errors")):
    """X-basis flip rate and per-party Z-basis flip rates, all in [0, 1/2]."""

    __slots__ = ()

    def __new__(cls, x_error: float, z_errors):
        z_errors = tuple(float(z) for z in z_errors)
        if not 0.0 <= x_error <= 0.5:
            raise ValueError("x_error must lie in [0, 0.5]")
        if not z_errors:
            raise ValueError("at least one Z-error rate is required")
        if any(not 0.0 <= z <= 0.5 for z in z_errors):
            raise ValueError("every z_error must lie in [0, 0.5]")
        return tuple.__new__(cls, (x_error, z_errors))

    _make = _validated_make


class ProtocolParams(namedtuple("ProtocolParams", "bobs half_signals test_size epsilon seed")):
    """Public protocol parameters.

    ``half_signals`` is N, half the total signal count: the protocol
    consumes 2N signals arranged as N two-round blocks.  ``test_size``
    blocks are measured in X for testing, the remaining N - test_size in
    Z for key material.
    """

    __slots__ = ()

    def __new__(cls, bobs: int, half_signals: int, test_size: int, epsilon: float,
                seed: int = 0):
        if bobs < 1:
            raise ValueError("need at least one non-reference party")
        if test_size < 1:
            raise ValueError("test size must be positive")
        if 2 * test_size >= half_signals:
            raise ValueError("test size must satisfy m < N/2")
        # Below the smallest normal float, 1/epsilon overflows in the key length.
        if not sys.float_info.min <= epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [{sys.float_info.min!r}, 1)")
        return tuple.__new__(cls, (bobs, half_signals, test_size, epsilon, seed))

    _make = _validated_make

    @property
    def key_blocks(self) -> int:
        """Number of key blocks n = N - m."""
        return self.half_signals - self.test_size

    @property
    def total_signals(self) -> int:
        return 2 * self.half_signals


def analytic_qx(x_error: float) -> float:
    """Expected X-basis block error rate 2Q(1-Q) for per-half flip rate Q."""
    if not 0.0 <= x_error <= 0.5:
        raise ValueError("x_error must lie in [0, 0.5]")
    return 2.0 * x_error * (1.0 - x_error)


def analytic_pa(z_errors) -> float:
    """Expected sieve acceptance probability: prod_j (QZ_j^2 + (1-QZ_j)^2)."""
    z_errors = tuple(z_errors)
    if not z_errors:
        raise ValueError("at least one Z-error rate is required")
    out = 1.0
    for z in z_errors:
        out *= z * z + (1.0 - z) * (1.0 - z)
    return out


def postcad_error_rates(z_errors, formula: str = "conservative") -> tuple:
    """Per-party kept-bit error rates after the sieve.

    ``"independent"`` is the exact conditional rate under the i.i.d.
    noise model, QZ_j^2 / (QZ_j^2 + (1-QZ_j)^2): conditioning on party
    j's own parity match only, since the other parties' noise is
    independent of party j's bits.  ``"conservative"`` divides by the
    full acceptance probability instead, QZ_j^2 / p_a, which is larger
    whenever there are two or more parties with noise; the published
    evaluation uses this variant.  The two coincide for a single party.
    Both are undefined, and rejected, when p_a is 0: no block is kept.
    """
    z_errors = tuple(z_errors)
    pa = analytic_pa(z_errors)
    if pa == 0.0:  # the product can underflow from 1075 parties on
        raise ValueError("no blocks accepted (pa = 0)")
    if formula == "conservative":
        return tuple(z * z / pa for z in z_errors)
    if formula == "independent":
        return tuple(z * z / (z * z + (1.0 - z) * (1.0 - z)) for z in z_errors)
    raise ValueError(f"unknown post-sieve error formula {formula!r}")
