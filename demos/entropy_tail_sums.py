"""Entropy of a spectrum three ways, plus the tail sums behind it.

The direct formula -sum p log2 p, the closed-form tail-sum integral, and a
numerical quadrature of the same integral must agree to high precision; the
tail sums also telescope back to the spectrum.
"""

import numpy as np

from entcost import (
    Spectrum,
    entropy_integral_closed_form,
    entropy_integral_quadrature,
    tail_sums,
    von_neumann_entropy,
)


def main() -> None:
    spectra = {
        "pure": Spectrum(np.array([1.0])),
        "biased pair": Spectrum(np.array([0.8, 0.2])),
        "geometric-ish": Spectrum(np.array([0.5, 0.25, 0.15, 0.1])),
        "uniform-8": Spectrum(np.full(8, 0.125)),
    }
    print(f"{'spectrum':>14}  {'direct':>18}  {'closed form':>18}  {'quadrature':>18}")
    for name, spec in spectra.items():
        direct = von_neumann_entropy(spec)
        closed = entropy_integral_closed_form(spec)
        quad = entropy_integral_quadrature(spec)
        print(f"{name:>14}  {direct:18.15f}  {closed:18.15f}  {quad:18.15f}")

    spec = spectra["geometric-ish"]
    tails = tail_sums(spec, len(spec) + 1)
    print("\ntail sums for", np.round(spec.values, 4))
    print(f"{'k':>3}  {'tail_k':>10}")
    for k, t in enumerate(tails):
        print(f"{k:>3}  {t:10.6f}")
    recovered = -np.diff(tails)
    print("telescoping recovers the spectrum:",
          bool(np.allclose(recovered, spec.values, atol=1e-15)))


if __name__ == "__main__":
    main()
