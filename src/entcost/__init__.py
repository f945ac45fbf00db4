"""Finite-truncation toolkit for entanglement cost calculations.

The package works at "desk scale": every infinite-dimensional object is
replaced by an explicit finite truncation with an accounted-for tail, and
every asymptotic statement by a finite-n computation whose error terms are
reported rather than hidden.

Capabilities, by module:

- ``spectra``: sorted spectra with declared tail mass, bipartite pure and
  mixed states, Schmidt decompositions, ensembles, trace distance.
- ``entropy``: entropy in bits, the g function, tail-sum tables, and an
  integral representation of entropy evaluated in closed form and by
  quadrature.
- ``typicality``: weak and strong typical sets with exact type-class
  census or Monte Carlo mass estimates.
- ``dilution``: entanglement dilution traces (ebits, classical bits, error)
  for pure and mixed targets, curtailed binomial mixing, and a converse
  rate bound combining formation estimates with energy-constrained
  continuity.
- ``eof``: entanglement of formation upper bounds by annealed search over
  purification isometries, plus a two-copy regularization probe.
- ``gibbs``: diagonal Hamiltonians with exact geometric tails, Gibbs
  spectra, max-entropy-at-energy curves, and the one-sided continuity
  bound they induce.
- ``majorization``: tail-sum dominance checks for product Kraus
  instruments, Schur-Horn frame tests, and randomized sweeps.
- ``rng``: counter-based splittable random streams so results never depend
  on call order.
"""

from .dilution import (
    ConverseReport,
    DilutionTrace,
    MixedDilutionPoint,
    additivity_check,
    binary_mixing_error,
    converse_bound,
    curtailed_binomial_pmf,
    curtailed_binomial_sample,
    dilution_sweep,
    mixed_dilution_rate,
    pure_dilution,
)
from .entropy import (
    TailSumTable,
    binary_entropy,
    entropy_integral_closed_form,
    entropy_integral_quadrature,
    entropy_tail_uncertainty,
    g_function,
    tail_sum,
    tail_sums,
    von_neumann_entropy,
)
from .eof import (
    EofEstimate,
    dilution_rate_upper_bound,
    eof_estimate,
    eof_pure,
    eof_surrogate_for_copies,
    regularized_probe,
)
from .gibbs import (
    AffineTail,
    DiagonalHamiltonian,
    GibbsPoint,
    SeriesWeights,
    beta_of_energy,
    gibbs_hypothesis_check,
    gibbs_point,
    gibbs_state,
    hamiltonian_for_spectrum,
    harmonic_oscillator,
    max_entropy_at_energy,
    max_mean_energy,
    mean_energy_density,
    n_copy_gibbs_entropy,
    one_sided_continuity_bound,
    series_weights,
    state_mean_energy,
    sublinearity_probe,
)
from .majorization import (
    CompletenessOperator,
    MajorizationReport,
    ProductKrausInstrument,
    SweepReport,
    TailDominanceResult,
    apply_instrument,
    completeness_operator,
    entropy_monotonicity_check,
    majorization_condition_check,
    majorization_sweep,
    random_product_instrument,
    schur_horn_check,
    spectrum_tail_sums,
    tail_dominance_entropy_check,
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
    state_trace_distance,
    tensor_power_state,
    tensor_pure,
    tensor_state,
    trace_distance,
)
from .typicality import (
    SourceDistribution,
    TypicalReport,
    aep_bounds_check,
    is_weakly_typical,
    sequence_rate_bits,
    strong_typical_mass,
    type_count,
    weak_typical_census,
    weak_typical_mass,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTail",
    "BipartiteState",
    "CompletenessOperator",
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
    "SeriesWeights",
    "SourceDistribution",
    "Spectrum",
    "SweepReport",
    "TailDominanceResult",
    "TailSumTable",
    "TypicalReport",
    "additivity_check",
    "aep_bounds_check",
    "apply_instrument",
    "beta_of_energy",
    "binary_entropy",
    "binary_mixing_error",
    "completeness_operator",
    "converse_bound",
    "curtailed_binomial_pmf",
    "curtailed_binomial_sample",
    "dilution_rate_upper_bound",
    "dilution_sweep",
    "ensemble_average",
    "entropy_integral_closed_form",
    "entropy_integral_quadrature",
    "entropy_monotonicity_check",
    "entropy_tail_uncertainty",
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
    "max_mean_energy",
    "mean_energy_density",
    "mixed_dilution_rate",
    "n_copy_gibbs_entropy",
    "one_sided_continuity_bound",
    "partial_trace",
    "pure_dilution",
    "random_density_state",
    "random_product_instrument",
    "random_pure_state",
    "regularized_probe",
    "schmidt_decompose",
    "schur_horn_check",
    "sequence_rate_bits",
    "series_weights",
    "spectrum_tail_sums",
    "state_mean_energy",
    "state_trace_distance",
    "strong_typical_mass",
    "stream",
    "sublinearity_probe",
    "tail_dominance_entropy_check",
    "tail_sum",
    "tail_sum_operator_inequality",
    "tail_sums",
    "tensor_power_state",
    "tensor_pure",
    "tensor_state",
    "trace_distance",
    "type_count",
    "von_neumann_entropy",
    "weak_typical_census",
    "weak_typical_mass",
]
