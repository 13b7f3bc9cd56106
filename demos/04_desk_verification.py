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

import itertools

import numpy as np

from qcka_cad import (
    cad_delayed_measurement_equivalence,
    compose,
    ghz_state,
    hadamard_expansion_check,
    key_min_entropy_check,
    random_pure_state,
    x_basis_parity_distribution,
)


def main():
    print("1. Hadamard-basis parity equals the phase bit")
    for p in (1, 2, 3):
        worst = 0.0
        for bits in itertools.product((0, 1), repeat=p):
            for y in (0, 1):
                dist = x_basis_parity_distribution(ghz_state(p, bits, y))
                worst = max(worst, abs(dist[y] - 1.0))
        print(f"   p={p}: exhaustive over all (x, y), max deviation {worst:.2e}")

    print()
    print("2. all-Hadamard expansion structure")
    checked = sum(
        hadamard_expansion_check(p, bits, y)
        for p in (1, 2, 3)
        for bits in itertools.product((0, 1), repeat=p)
        for y in (0, 1)
    )
    print(f"   {checked} GHZ states verified against the explicit expansion")

    print()
    print("3. parity sieve: direct vs delayed measurement order")
    clean = compose(ghz_state(1, "0", 0), ghz_state(1, "0", 0))
    print(f"   ideal round:      TV = {cad_delayed_measurement_equivalence(1, 1, clean):.1e}")
    crossed = compose(ghz_state(1, "1", 0), ghz_state(1, "0", 0))
    print(f"   crossed round:    TV = {cad_delayed_measurement_equivalence(1, 1, crossed):.1e}")
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        state = random_pure_state(8, rng)  # two rounds of a two-party sieve
        worst = max(worst, cad_delayed_measurement_equivalence(1, 2, state))
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
        hmin, bound = key_min_entropy_check(n, p, words)
        print(f"   n={n} p={p} |J|={len(set(words))}: "
              f"hmin = {hmin:.4f} >= bound = {bound:.4f}")


if __name__ == "__main__":
    main()
