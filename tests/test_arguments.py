"""The argument rule: every integer a public function takes is a Python or
NumPy integer in its range, never a bool or a float; every real is a Python
or NumPy real in its interval, never a bool or NaN; and every raw matrix is
finite.  Each row of the first table names one integer parameter; before
the rule, 2.0 and True ran as the integers they round to, 2.5 was
truncated or ended in a raw TypeError, and a NaN matrix could read as an
answer.  Each row of the second names one real parameter; before the rule,
True ran as 1.0, a string ended in a raw TypeError, and NaN slipped past
rtol and the energy grid."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from entcost import (
    AffineTail,
    BipartiteState,
    DilutionTrace,
    Ensemble,
    InvariantViolation,
    SourceDistribution,
    Spectrum,
    aep_bounds_check,
    beta_of_energy,
    binary_entropy,
    binary_mixing_error,
    converse_bound,
    curtailed_binomial_pmf,
    curtailed_binomial_sample,
    dilution_sweep,
    eof_estimate,
    eof_surrogate_for_copies,
    g_function,
    gibbs_point,
    gibbs_state,
    harmonic_oscillator,
    is_weakly_typical,
    majorization_sweep,
    max_entropy_at_energy,
    mean_energy_density,
    mixed_dilution_rate,
    one_sided_continuity_bound,
    pure_dilution,
    random_density_state,
    random_product_instrument,
    random_pure_state,
    regularized_probe,
    schmidt_decompose,
    schur_horn_check,
    stream,
    strong_typical_mass,
    sublinearity_probe,
    tail_sum_operator_inequality,
    tail_sums,
    trace_distance,
    type_count,
    weak_typical_census,
    weak_typical_mass,
)
from entcost.entropy import _entropy_tail_uncertainty
from entcost.spectra import _checked_real

DIST = SourceDistribution([0.7, 0.3])
SPEC = Spectrum(np.array([0.7, 0.3]))
TAILED = Spectrum(np.array([0.5, 0.4]), tail_mass=0.1)
# a 2 x 3 state of rank 2: no closed form, so every estimate option is used
RHO_23 = random_density_state(stream(5, 1), 2, 3, rank=2).matrix
RHO_22 = random_density_state(stream(5, 2), 2, 2, rank=2).matrix
MIXED = Ensemble(np.array([0.5, 0.3, 0.2]),
                 tuple(random_pure_state(stream(5, 3 + i), 2, 2) for i in range(3)))
FAST = {"restarts": 1, "iterations": 20}


def _eof(**options):
    # a fresh state each call, so no estimate is shared between two calls
    return eof_estimate(BipartiteState(2, 3, RHO_23), **{**FAST, **options}).upper_bound_bits


def _state(dim_a, dim_b, matrix):
    s = BipartiteState(dim_a, dim_b, matrix)
    return s.dim_a, s.dim_b, s.matrix.tolist()


def _draws(gen):
    return gen.random(4).tolist()


# (parameter name, call taking the value, a valid value, a value out of
# range or None where every integer is in range)
INTEGERS = [
    ("n", lambda v: weak_typical_mass(DIST, v, 0.1), 10, 0),
    ("n", lambda v: strong_typical_mass(DIST, v, 0.1), 10, 0),
    ("n", lambda v: weak_typical_census(DIST, v, 0.1), 10, 0),
    ("n", lambda v: aep_bounds_check(DIST, v, 0.1), 10, 0),
    ("samples", lambda v: weak_typical_mass(DIST, 10, 0.1, mode="mc", samples=v), 50,
     0),
    ("seed", lambda v: weak_typical_mass(DIST, 10, 0.1, mode="mc", samples=50, seed=v), 3,
     None),
    ("n", lambda v: type_count(v, 3), 4, -1),
    ("k", lambda v: type_count(4, v), 3, 0),
    ("n", lambda v: dilution_sweep(SPEC, 0.1, [5, v]), 10, 0),
    ("n", lambda v: pure_dilution(SPEC, 0.1, v), 10, 0),
    ("n_cut", lambda v: mixed_dilution_rate(MIXED, v), 1, -1),
    ("n", lambda v: binary_mixing_error(0.3, 0.1, v), 10, 0),
    ("n", lambda v: curtailed_binomial_pmf(0.3, 0.1, v)[1].tolist(), 10, 0),
    ("size", lambda v: curtailed_binomial_sample(0.3, 0.2, 10, size=v).tolist(), 3, -1),
    ("seed", lambda v: curtailed_binomial_sample(0.3, 0.2, 10, 3, seed=v).tolist(), 3,
     None),
    ("n", lambda v: converse_bound(BipartiteState(2, 2, RHO_22), 1.0, 0.01,
                                   harmonic_oscillator(4), v, **FAST), 2, 0),
    ("restarts", lambda v: _eof(restarts=v), 1, -1),
    ("iterations", lambda v: _eof(iterations=v), 20, -1),
    ("ensemble_size", lambda v: _eof(ensemble_size=v), 4, 257),
    ("seed", lambda v: _eof(seed=v), 3, None),
    ("n_max", lambda v: regularized_probe(BipartiteState(2, 2, RHO_22), v, **FAST), 1, 3),
    ("n", lambda v: eof_surrogate_for_copies(BipartiteState(2, 3, RHO_23), v, **FAST), 2,
     0),
    ("trials", lambda v: majorization_sweep(v, 3, 1), 2, 0),
    ("max_dim", lambda v: majorization_sweep(2, v, 1), 3, 1),
    ("seed", lambda v: majorization_sweep(2, 3, v), 1, None),
    ("dim_a", lambda v: random_product_instrument(stream(1, 1), v, 2).ls.tolist(), 2, 0),
    ("branches_a", lambda v: random_product_instrument(stream(1, 1), 2, 2, v).ls.tolist(),
     2, 4),
    ("branches_b", lambda v: random_product_instrument(stream(1, 1), 2, 2, 2, v).ms.tolist(),
     2, 0),
    ("n_top", lambda v: tail_sum_operator_inequality(np.eye(2), np.eye(2), np.eye(2), v),
     1, -1),
    ("levels", lambda v: harmonic_oscillator(v).energies.tolist(), 3, 0),
    ("count", lambda v: tail_sums(SPEC, v).tolist(), 3, -1),
    ("dim_bound", lambda v: _entropy_tail_uncertainty(TAILED, v), 4, 0),
    ("dim_a", lambda v: _state(v, 2, np.eye(4) / 4), 2, 0),
    ("dim_b", lambda v: _state(2, v, np.eye(4) / 4), 2, 0),
    ("dim_b", lambda v: random_pure_state(stream(1, 2), 2, v).amplitudes.tolist(), 2, 0),
    ("dim_a", lambda v: random_density_state(stream(1, 2), v, 2).matrix.tolist(), 2, 0),
    ("rank", lambda v: random_density_state(stream(1, 2), 2, 2, v).matrix.tolist(), 2, 5),
    ("seed", lambda v: _draws(stream(v, 1)), 2, None),
    ("stream path entry", lambda v: _draws(stream(2, v)), 1, -1),
    ("n", lambda v: DilutionTrace(v, 3, 0.1), 4, 0),
    ("ebits", lambda v: DilutionTrace(4, v, 0.1), 3, -1),
    ("threads", lambda v: majorization_sweep(2, 3, 1, threads=v), 1, 0),
]


@pytest.mark.parametrize("name, call, valid, out_of_range", INTEGERS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(INTEGERS)])
def test_each_integer_parameter_takes_only_integers_in_its_range(
        name, call, valid, out_of_range):
    bad = [2.5, float(valid), True] + ([] if out_of_range is None else [out_of_range])
    for value in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer") as caught:
            call(value)
        # a bad argument is the caller's fault, not a broken invariant
        assert not isinstance(caught.value, InvariantViolation), value
    assert call(np.int64(valid)) == call(valid)


def test_a_seed_may_be_any_integer_and_negative_seeds_keep_their_64_bit_mapping():
    assert _draws(stream(-1, 3)) == _draws(stream(2 ** 64 - 1, 3))
    assert _draws(stream(2 ** 70 + 5, 3)) == _draws(stream(5, 3))


@pytest.mark.parametrize("name, call, value, shown", [
    ("n", lambda v: type_count(v, 2), -10 ** 5000, "an integer of 16610 bits"),
    ("levels", harmonic_oscillator, -10 ** 5000, "an integer of 16610 bits"),
    ("trials", lambda v: majorization_sweep(v, 3, 1), 10 ** 5000, "an integer of 16610 bits"),
    ("n", lambda v: type_count(v, 2), Fraction(10 ** 5000, 3), "a Fraction too long to print"),
], ids=["type_count", "harmonic_oscillator", "majorization_sweep", "fraction"])
def test_a_value_too_long_to_print_is_shown_by_a_stand_in(name, call, value, shown):
    # repr refuses an integer of more than 4 300 digits, so the message once
    # named no parameter
    with pytest.raises(ValueError, match=f"^{name} must be an integer.*, got {shown}$"):
        call(value)


LADDER = harmonic_oscillator(4)


def _converse(r, epsilon):
    return converse_bound(BipartiteState(2, 2, RHO_22), r, epsilon, LADDER, 2, **FAST)


# (parameter name, call taking the value, a valid value, a value out of its
# interval, the class of error the call raises)
REALS = [
    ("delta", lambda v: is_weakly_typical(DIST, [0, 1, 0], v), 0.5, -0.1, ValueError),
    ("delta", lambda v: weak_typical_mass(DIST, 10, v), 0.1, -0.1, ValueError),
    ("delta", lambda v: strong_typical_mass(DIST, 10, v), 0.1, -0.1, ValueError),
    ("delta", lambda v: weak_typical_census(DIST, 10, v), 0.1, -0.1, ValueError),
    ("delta", lambda v: aep_bounds_check(DIST, 10, v), 0.1, -0.1, ValueError),
    ("bound_delta", lambda v: aep_bounds_check(DIST, 10, 0.1, v), 0.05, -0.05, ValueError),
    ("delta", lambda v: dilution_sweep(SPEC, v, [5, 10]), 0.1, math.inf, ValueError),
    ("delta", lambda v: pure_dilution(SPEC, v, 10), 0.1, -0.1, ValueError),
    ("p0", lambda v: binary_mixing_error(v, 0.1, 10), 0.3, 1.0, ValueError),
    ("xi", lambda v: curtailed_binomial_pmf(0.3, v, 10)[1].tolist(), 0.1, 0.0, ValueError),
    ("r", lambda v: _converse(v, 0.01), 1.0, -1.0, ValueError),
    ("epsilon", lambda v: _converse(1.0, v), 0.01, 0.0, ValueError),
    ("x", binary_entropy, 0.3, 1.5, ValueError),
    ("x", g_function, 0.5, -1.0, ValueError),
    ("beta", lambda v: gibbs_point(LADDER, v), 1.0, 0.0, ValueError),
    ("beta", lambda v: gibbs_state(LADDER, v).values.tolist(), 1.0, math.inf, ValueError),
    ("epsilon", lambda v: one_sided_continuity_bound(LADDER, 1.0, v), 0.01, 1.5, ValueError),
    ("energy", lambda v: beta_of_energy(LADDER, v), 1.0, -1.0, InvariantViolation),
    ("energy", lambda v: max_entropy_at_energy(LADDER, v), 1.0, -1.0, InvariantViolation),
    ("energy", lambda v: one_sided_continuity_bound(LADDER, v, 0.01), 1.0, -1.0,
     InvariantViolation),
    ("rtol", lambda v: beta_of_energy(LADDER, 1.0, rtol=v), 1e-10, 0.0, ValueError),
    ("a", lambda v: AffineTail(v, 0.0), 1.0, 0.0, InvariantViolation),
    ("b", lambda v: AffineTail(1.0, v), 0.0, math.inf, InvariantViolation),
    ("energy_grid entry", lambda v: sublinearity_probe(LADDER, [1e-3, v, 10.0]), 0.1, -0.1,
     ValueError),
]


@pytest.mark.parametrize("name, call, valid, out_of_range, error", REALS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(REALS)])
def test_each_real_parameter_takes_only_reals_in_its_interval(
        name, call, valid, out_of_range, error):
    for value in [math.nan, True, str(valid), out_of_range]:
        with pytest.raises(error, match=f"^{re.escape(name)} = ") as caught:
            call(value)
        # each site keeps its class: InvariantViolation where it raised one
        assert isinstance(caught.value, InvariantViolation) == (error is InvariantViolation)
    assert call(np.float64(valid)) == call(valid)


def test_a_real_is_returned_as_a_float_and_its_interval_ends_are_open_or_closed():
    assert type(_checked_real(np.float32(0.5), "x", 0.0, 1.0)) is float
    assert _checked_real(np.int64(1), "x", 0.0, 1.0) == 1.0
    assert _checked_real(0.0, "x", 0.0, 1.0, "[)") == 0.0
    assert _checked_real(math.inf, "x", 0.0, math.inf) == math.inf
    for value, hi, ends in [(1.0, 1.0, "[)"), (0.0, 1.0, "(]"), (math.inf, math.inf, "[)")]:
        with pytest.raises(ValueError, match="^x = "):
            _checked_real(value, "x", 0.0, hi, ends)
    # an integer beyond the float range is out of range, not an OverflowError,
    # even one too long for repr
    with pytest.raises(ValueError, match="^x = "):
        _checked_real(10 ** 400, "x", 0.0, math.inf)
    with pytest.raises(InvariantViolation, match="^a = a number beyond the float range"):
        AffineTail(10 ** 5000, 0.0)
    with pytest.raises(InvariantViolation) as caught:
        _checked_real(math.nan, "x", 0.0, 1.0, error=InvariantViolation)
    assert str(caught.value) == ("x = nan lies outside [0.0, 1.0]: it must be a real number, "
                                 "never a bool or NaN")


NAN = np.array([[math.nan, 0.0], [0.0, 1.0]])
INF = np.array([[1.0, 0.0], [0.0, math.inf]])
FRAME = np.eye(2)[:1]

# (label, call taking a matrix with a non-finite entry)
MATRICES = [
    # a NaN x read 0.0: eigvalsh returned [0, -0]
    ("trace_distance x", lambda m: trace_distance(m, np.eye(2))),
    ("trace_distance y", lambda m: trace_distance(np.eye(2), m)),
    ("schur_horn_check matrix", lambda m: schur_horn_check(m, FRAME)),
    ("schur_horn_check vectors", lambda m: schur_horn_check(np.eye(2), m)),
    ("tail_sum_operator_inequality a", lambda m: tail_sum_operator_inequality(
        m, np.eye(2), np.eye(2), 1)),
    ("tail_sum_operator_inequality b", lambda m: tail_sum_operator_inequality(
        np.eye(2), m, np.eye(2), 1)),
    ("tail_sum_operator_inequality k", lambda m: tail_sum_operator_inequality(
        np.eye(2), np.eye(2), m, 1)),
    ("mean_energy_density", lambda m: mean_energy_density(harmonic_oscillator(4), m)),
]


@pytest.mark.parametrize("matrix", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("label, call", MATRICES, ids=[row[0] for row in MATRICES])
def test_a_matrix_argument_with_a_non_finite_entry_is_an_invariant_error(label, call, matrix):
    with pytest.raises(InvariantViolation, match="must be finite"):
        call(matrix)


@pytest.mark.parametrize("call", [
    lambda: trace_distance(np.eye(2), np.eye(3)),
    lambda: tail_sum_operator_inequality(np.eye(3), np.eye(2), np.eye(2), 1),
    lambda: schur_horn_check(np.ones((2, 3)), FRAME),
    lambda: schmidt_decompose(np.zeros((0, 2))),
])
def test_a_matrix_argument_of_the_wrong_shape_is_an_invariant_error(call):
    with pytest.raises(InvariantViolation, match="non-empty"):
        call()
