"""Finite-truncation toolkit for entanglement cost calculations.

The package works at "desk scale": every infinite-dimensional object is
replaced by an explicit finite truncation with an accounted-for tail, and
every asymptotic statement by a finite-n computation whose error terms are
reported rather than hidden.

Capabilities, by module:

- ``spectra``: probability spectra (sorted, with declared tail mass, of
  total mass 1), bipartite pure and mixed states, Schmidt decompositions,
  ensembles, trace distance of matrices.
- ``entropy``: entropy in bits, the g function, the suffix sums (tail
  sums) of a spectrum, and an integral representation of entropy evaluated
  in closed form and by quadrature.
- ``typicality``: weak and strong typical sets, exact (a type-class
  census of at most ``MAX_TYPES`` types for the weak set, a program over
  the symbols for the strong one, of at most ``MAX_TYPES`` terms where the
  types are more; both read only symbols of positive probability) or Monte
  Carlo mass estimates.
- ``dilution``: entanglement dilution traces (ebits, classical bits, error)
  for pure and mixed targets, curtailed binomial mixing, and a converse
  rate bound combining formation estimates with energy-constrained
  continuity.
- ``eof``: entanglement of formation upper bounds over decompositions,
  Wootters' optimal one on two qubits and an annealed search elsewhere, a
  two-copy regularization probe, and the exact two-qubit value from
  Wootters' concurrence.
- ``gibbs``: diagonal Hamiltonians with exact geometric tails, Gibbs
  spectra, max-entropy-at-energy curves, and the one-sided continuity
  bound they induce.
- ``majorization``: tail-sum margins of product Kraus channels on pure
  states, the average marginal entropy they cannot raise, Schur-Horn
  frame tests, and randomized sweeps.
- ``rng``: counter-based splittable random streams so results never depend
  on call order.

Fixed limits and probe grids are module constants, not parameters:
``typicality.MAX_TYPES``, ``typicality.MAX_SAMPLES``, ``eof.MAX_RANK``,
``eof.MAX_RESTARTS``, ``eof.MAX_ITERATIONS``, ``eof.MAX_ENSEMBLE_SIZE``,
``majorization.MAX_TRIALS``, ``majorization.MAX_DIM``, the tolerances
``majorization.MARGIN_ATOL``, ``OPERATOR_ATOL``, ``ENTROPY_ATOL`` and
``COMPLETENESS_ATOL``, and ``gibbs.DEFAULT_BETA_GRID``.

One argument rule, checked in ``spectra`` alone: an integer argument (size,
count, cutoff, level, seed) is a Python or NumPy integer in its range, never
a bool or a float, else ``ValueError``; a real argument (slack, error,
energy, inverse temperature, tolerance) is a Python or NumPy real in its
interval, never a bool or NaN, else the error its site raises:
``ValueError``, or ``InvariantViolation`` for a Gibbs energy and an affine
tail; a matrix is finite, non-empty and of its shape, else
``InvariantViolation``.
"""

from .dilution import (
    ConverseReport,
    DilutionTrace,
    MixedDilutionPoint,
    binary_mixing_error,
    converse_bound,
    curtailed_binomial_pmf,
    curtailed_binomial_sample,
    dilution_sweep,
    mixed_dilution_rate,
    pure_dilution,
)
from .entropy import (
    binary_entropy,
    entropy_integral_closed_form,
    entropy_integral_quadrature,
    g_function,
    tail_sums,
    von_neumann_entropy,
)
from .eof import (
    EofEstimate,
    eof_estimate,
    eof_pure,
    eof_surrogate_for_copies,
    regularized_probe,
    wootters_eof,
)
from .gibbs import (
    AffineTail,
    DiagonalHamiltonian,
    GibbsPoint,
    beta_of_energy,
    gibbs_hypothesis_check,
    gibbs_point,
    gibbs_state,
    hamiltonian_for_spectrum,
    harmonic_oscillator,
    max_entropy_at_energy,
    mean_energy_density,
    one_sided_continuity_bound,
    sublinearity_probe,
)
from .majorization import (
    MajorizationReport,
    ProductKrausInstrument,
    SweepReport,
    apply_instrument,
    entropy_monotonicity_check,
    majorization_condition_check,
    majorization_sweep,
    random_product_instrument,
    schur_horn_check,
    tail_sum_operator_inequality,
)
from .rng import stream
from .spectra import (
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    ensemble_average,
    partial_trace,
    random_density_state,
    random_pure_state,
    schmidt_decompose,
    tensor_state,
    trace_distance,
)
from .typicality import (
    SourceDistribution,
    TypicalReport,
    aep_bounds_check,
    is_weakly_typical,
    strong_typical_mass,
    type_count,
    weak_typical_census,
    weak_typical_mass,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTail",
    "BipartiteState",
    "ConverseReport",
    "DiagonalHamiltonian",
    "DilutionTrace",
    "Ensemble",
    "EofEstimate",
    "GibbsPoint",
    "InvariantViolation",
    "MajorizationReport",
    "MixedDilutionPoint",
    "ProductKrausInstrument",
    "PureBipartite",
    "SourceDistribution",
    "Spectrum",
    "SweepReport",
    "TypicalReport",
    "aep_bounds_check",
    "apply_instrument",
    "beta_of_energy",
    "binary_entropy",
    "binary_mixing_error",
    "converse_bound",
    "curtailed_binomial_pmf",
    "curtailed_binomial_sample",
    "dilution_sweep",
    "ensemble_average",
    "entropy_integral_closed_form",
    "entropy_integral_quadrature",
    "entropy_monotonicity_check",
    "eof_estimate",
    "eof_pure",
    "eof_surrogate_for_copies",
    "g_function",
    "gibbs_hypothesis_check",
    "gibbs_point",
    "gibbs_state",
    "hamiltonian_for_spectrum",
    "harmonic_oscillator",
    "is_weakly_typical",
    "majorization_condition_check",
    "majorization_sweep",
    "max_entropy_at_energy",
    "mean_energy_density",
    "mixed_dilution_rate",
    "one_sided_continuity_bound",
    "partial_trace",
    "pure_dilution",
    "random_density_state",
    "random_product_instrument",
    "random_pure_state",
    "regularized_probe",
    "schmidt_decompose",
    "schur_horn_check",
    "stream",
    "strong_typical_mass",
    "sublinearity_probe",
    "tail_sum_operator_inequality",
    "tail_sums",
    "tensor_state",
    "trace_distance",
    "type_count",
    "von_neumann_entropy",
    "weak_typical_census",
    "weak_typical_mass",
    "wootters_eof",
]
