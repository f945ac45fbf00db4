"""Formation estimates and the converse rate bound they feed.

The entanglement of formation is bounded from above over pure-state
decompositions.  On two qubits the bound is Wootters' optimal decomposition,
printed beside the closed form ``wootters_eof``; larger states are searched
by annealing, as the two-copy probe's 4 x 4 state is.  Feeding the
estimate through energy-constrained continuity yields a lower bound on the
ebit rate any faithful dilution protocol must pay, shown here sharpening
as the tolerated error shrinks.
"""

import numpy as np

from entcost import (
    BipartiteState,
    converse_bound,
    eof_estimate,
    harmonic_oscillator,
    regularized_probe,
    stream,
    wootters_eof,
)


def bell_density() -> BipartiteState:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return BipartiteState(2, 2, m)


def main() -> None:
    bell = bell_density()
    sep = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    rng = stream(42, 0)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    mixed = g @ g.conj().T
    mixed = BipartiteState(2, 2, mixed / np.trace(mixed).real)

    print("formation upper bounds against Wootters' closed form (bits):")
    for name, rho in (("maximally entangled pair", bell),
                      ("classically correlated", sep),
                      ("random rank-2 two-qubit", mixed)):
        est = eof_estimate(rho, seed=3)
        print(f"  {name:>26}: {est.upper_bound_bits:.12f} "
              f"(Wootters {wootters_eof(rho):.12f}, restarts={est.restarts})")

    one_copy, two_copy = regularized_probe(mixed, n_max=2, restarts=4,
                                           iterations=1500, seed=3)
    print(f"\nregularized probe: one copy {one_copy:.8f} "
          f"(Wootters {wootters_eof(mixed):.8f}), "
          f"two copies per copy {two_copy:.8f}")

    ladder = harmonic_oscillator()
    print("\nconverse bound for the maximally entangled target, unit rate,")
    print("four copies, harmonic energy constraint:")
    print(f"{'epsilon':>9}  {'continuity':>11}  {'offset':>9}  {'rate bound':>11}")
    for eps in (1e-2, 1e-3, 1e-4, 1e-7):
        rep = converse_bound(bell, 1.0, eps, ladder, 4)
        print(f"{eps:>9.0e}  {rep.continuity_term_bits:11.6f}  "
              f"{rep.g_term_bits:9.6f}  {rep.rate_lower_bound:11.6f}")


if __name__ == "__main__":
    main()
