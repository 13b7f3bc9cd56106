"""Exercise the statevector verifier behind the security analysis.

Four desk-scale checks, all by exact marginalization (no sampling):

  1. measuring every qubit of a GHZ state in the Hadamard basis yields
     outcomes whose XOR equals the state's phase bit, deterministically;
  2. the all-Hadamard expansion of a GHZ state has uniform magnitudes
     2^{-p/2} on a parity-constrained support with signs (-1)^{c.x};
  3. announcing two-bit parities through CNOT ancillas and measuring
     later is equivalent to measuring first and XOR-ing classically
     (zero total-variation distance between the two joint Left-bit/parity
     distributions, including on random entangled inputs);
  4. a uniform superposition of GHZ words with phase bits restricted to
     a set J keeps at least n - log2|J| bits of min-entropy in the
     first-qubit measurement.
"""

import numpy as np

from qcka_cad.ghzsim import (
    cad_delayed_measurement_distances,
    ghz_states,
    hadamard_expansion_checks,
    key_min_entropy_checks,
    random_pure_states,
    x_basis_parity_distributions,
)


def all_labels(p):
    """Every (word index, phase bit) label of a (p+1)-qubit GHZ block."""
    words = np.repeat(np.arange(1 << p), 2)
    return words, np.tile([0, 1], 1 << p)


def main():
    print("1. Hadamard-basis parity equals the phase bit")
    for p in (1, 2, 3):
        words, ys = all_labels(p)
        dist = x_basis_parity_distributions(ghz_states(p, words, ys))
        worst = np.abs(dist[np.arange(ys.size), ys] - 1.0).max()
        print(f"   p={p}: exhaustive over all (x, y), max deviation {worst:.2e}")

    print()
    print("2. all-Hadamard expansion structure")
    checked = sum(int(hadamard_expansion_checks(p, *all_labels(p)).sum()) for p in (1, 2, 3))
    print(f"   {checked} GHZ states verified against the explicit expansion")

    print()
    print("3. parity sieve: direct vs delayed measurement order")
    zero, one = ghz_states(1, [0, 1], [0, 0])
    clean, crossed = cad_delayed_measurement_distances(
        1, 1, np.stack([np.kron(zero, zero), np.kron(one, zero)]))
    print(f"   ideal round:      TV = {clean:.1e}")
    print(f"   crossed round:    TV = {crossed:.1e}")
    rng = np.random.default_rng(123)
    # Two rounds of a two-party sieve.
    worst = max(cad_delayed_measurement_distances(1, 2, block).max()
                for block in random_pure_states(8, 50, rng))
    print(f"   50 random pure 8-qubit inputs: max TV = {worst:.1e}")

    print()
    print("4. min-entropy of restricted GHZ superpositions")
    for n, p, words in (
        (1, 1, ["0"]),
        (2, 1, ["00", "11"]),
        (2, 1, ["00", "01", "10", "11"]),
        (3, 1, ["000", "011", "101"]),
        (2, 2, ["01", "10"]),
    ):
        ((hmin, bound),) = key_min_entropy_checks(n, p, [[int(w, 2) for w in words]])
        print(f"   n={n} p={p} |J|={len(set(words))}: "
              f"hmin = {hmin:.4f} >= bound = {bound:.4f}")


if __name__ == "__main__":
    main()
