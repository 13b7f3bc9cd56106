"""Monte Carlo simulation of the protocol under i.i.d. noise.

One trial simulates the classical shadow of a full protocol execution:
the X-basis test statistic over the sampled blocks, Z-basis raw keys for
the remaining blocks, and the two-bit parity sieve that accepts a block
only when every party announces the same parity.  The channel model is
the i.i.d. one of :mod:`qcka_cad.model`: an X-basis flip with
probability ``x_error`` per round half, and an independent Z-basis flip
with probability ``z_errors[j]`` per round half between the reference
party and party j+1.

That independence is the only assumption the simulator uses.  It makes
blocks exchangeable and parties independent, so a trial is fully
described by a few counts, and :func:`run_trial` draws those counts
directly: O(p) binomial draws per trial, with time and memory
independent of the signal count.  Per-block probabilities come from
enumerating each party's four (left, right) flip pairs and applying the
sieve rule to them in code, never from the closed forms
(:func:`analytic_qx`, :func:`analytic_pa`, :func:`postcad_error_rates`,
re-exported here from :mod:`qcka_cad.model` with the parameter records)
that the simulator is used to cross-check.  Neither the reference
party's raw bits nor the protocol's initial random permutation affects
any count, so neither is drawn.

Trials use counter-based Philox streams keyed on (seed, trial index), so
any subset of trials can be reproduced independently.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates

__all__ = [
    "NoiseModel",
    "ProtocolParams",
    "TrialOutcome",
    "FieldStats",
    "analytic_qx",
    "analytic_pa",
    "postcad_error_rates",
    "run_trial",
    "aggregate",
]


class TrialOutcome(namedtuple(
        "TrialOutcome", "qx_observed accepted rejected postcad_error keys_equal_fraction")):
    """Statistics of one simulated execution.

    ``postcad_error`` holds each party's disagreement rate with the
    reference party on the kept bits; it is NaN when no block survived
    the sieve, as is ``keys_equal_fraction``.
    """

    __slots__ = ()


def _trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def _flip_patterns(rate: float):
    """Each (left, right) flip pair of one two-round block, with its probability."""
    for left in (0, 1):
        for right in (0, 1):
            yield left, right, (rate if left else 1.0 - rate) * (rate if right else 1.0 - rate)


def run_trial(params: ProtocolParams, noise: NoiseModel, trial_index: int = 0) -> TrialOutcome:
    """Simulate one execution and return its sifted-key statistics.

    Draws the test-error count, the accepted-block count, each party's
    kept-bit disagreement count and the all-equal count; no per-block
    array is built.  Counts are int64 inside numpy, so ``ValueError`` is
    raised for 2**63 or more test or key blocks.  Error correction and
    privacy amplification are accounting-only in the key-rate analysis
    and are not executed here.
    """
    if len(noise.z_errors) != params.bobs:
        raise ValueError(
            f"noise model has {len(noise.z_errors)} Z rates for {params.bobs} parties"
        )
    m, n = params.test_size, params.key_blocks
    if max(m, n) >= 2**63:
        raise ValueError("the simulator needs fewer than 2**63 test and key blocks")
    rng = _trial_generator(params.seed, trial_index)

    # A test block counts as an error when exactly one of its halves flipped.
    block_error = sum(prob for left, right, prob in _flip_patterns(noise.x_error) if left ^ right)
    qx_observed = int(rng.binomial(m, block_error)) / m

    # Party j passes the sieve when its two flips leave the reference
    # parity intact; its kept (left) bit then disagrees when both flipped.
    sieve = []
    for z in noise.z_errors:
        passed = [(left, prob) for left, right, prob in _flip_patterns(z) if not left ^ right]
        pass_prob = sum(prob for _, prob in passed)
        sieve.append((pass_prob, sum(prob for left, prob in passed if left) / pass_prob))

    # A block is accepted when every party passes: thin n party by party.
    n_a = n
    for pass_prob, _ in sieve:
        n_a = int(rng.binomial(n_a, pass_prob))

    # Given acceptance, parties disagree independently.  Track the blocks
    # where every party so far agrees with the reference and the rest.
    agreeing, rest, disagreements = n_a, 0, []
    for _, disagree_prob in sieve:
        newly = int(rng.binomial(agreeing, disagree_prob))
        disagreements.append(newly + int(rng.binomial(rest, disagree_prob)))
        agreeing, rest = agreeing - newly, rest + newly

    if n_a == 0:
        postcad = (math.nan,) * params.bobs
        keys_equal = math.nan
    else:
        postcad = tuple(d / n_a for d in disagreements)
        keys_equal = agreeing / n_a

    return TrialOutcome(
        qx_observed=qx_observed,
        accepted=n_a,
        rejected=n - n_a,
        postcad_error=postcad,
        keys_equal_fraction=keys_equal,
    )


class FieldStats(namedtuple("FieldStats", "mean std stderr")):
    """Mean, sample standard deviation, and standard error of one field.

    ``std`` and ``stderr`` are None for a single trial.
    """

    __slots__ = ()


def aggregate(outcomes) -> dict:
    """Field-wise statistics over a sequence of trial outcomes.

    Returns a dict keyed by field name ("qx_observed", "accepted",
    "rejected", "postcad_error_1".., "keys_equal_fraction"); std and
    stderr are None for a single trial.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no trials to aggregate")
    bobs = len(outcomes[0].postcad_error)
    columns = {
        "qx_observed": [t.qx_observed for t in outcomes],
        "accepted": [float(t.accepted) for t in outcomes],
        "rejected": [float(t.rejected) for t in outcomes],
    }
    for j in range(bobs):
        columns[f"postcad_error_{j + 1}"] = [t.postcad_error[j] for t in outcomes]
    columns["keys_equal_fraction"] = [t.keys_equal_fraction for t in outcomes]

    stats = {}
    count = len(outcomes)
    for name, values in columns.items():
        # Deviations from the first value keep identical trials exact:
        # their mean is that value and their spread is zero.
        arr = np.asarray(values, dtype=float)
        deviations = arr - arr[0]
        mean = float(arr[0] + deviations.mean())
        if count > 1:
            std = float(deviations.std(ddof=1))
            stderr = std / math.sqrt(count)
        else:
            std = stderr = None
        stats[name] = FieldStats(mean=mean, std=std, stderr=stderr)
    return stats
