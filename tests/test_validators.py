"""Every residual validator rejects a non-finite residual.

A test written `worst > tol` is false for NaN, so a field with NaN entries
would pass it; each validator below must raise instead.
"""

import numpy as np
import pytest

from gencourant import expr as ex
from gencourant import gconn, gtb
from gencourant import riemann as rm
from gencourant import tensors as tn
from gencourant.errors import (
    DomainError,
    NotAntisymmetric,
    NotClosed,
    NotPositiveDefinite,
    NotTwistedPoisson,
    SingularB,
)
from gencourant.expr import chart
from gencourant.tensors import DOWN, UP, TensorField

C2 = chart("x y", seed=5, num_points=8)
C4 = chart("x y z w", seed=5, num_points=8)
NAN = ex.Const(float("nan"))


def on(c, k):
    """k times the first coordinate of chart c: a NaN field for k = NaN."""
    return ex.mul(k, c.coord(0))


def skew(c, variance, entry):
    return TensorField(c, variance, [[ex.ZERO, entry], [ex.neg(entry), ex.ZERO]])


def metric(k):
    return TensorField(C2, (DOWN, DOWN), [[ex.add(1.0, on(C2, k)), ex.ZERO], [ex.ZERO, ex.ONE]])


def full(c, variance, entry):
    comps = np.empty((c.dim,) * len(variance), dtype=object)
    comps.reshape(-1)[:] = [entry] * comps.size
    return TensorField(c, variance, comps)


def jets(field):
    return tn.field_jets(field.comps, field.chart)


def values(field):
    return tn.values_at(field.comps, field.chart.sample_points())


def value_jets(field):
    """The 2-jet of a field whose values are those of ``field`` and whose
    partials are zero: its values reach the validator even where they are
    not finite."""
    v = values(field)
    zeros = lambda *shape: np.zeros(v.shape[:-1] + shape + v.shape[-1:])  # noqa: E731
    return tn.Jet(v, zeros(2)), tn.Jet(zeros(2), zeros(2, 2))


PTS2 = C2.sample_points()
THETA = jets(skew(C2, (UP, UP), ex.ONE))[0]

CASES = {
    "check-antisymmetric": (
        lambda k: tn.check_antisymmetric(values(skew(C2, (DOWN, DOWN), on(C2, k))), PTS2),
        NotAntisymmetric,
    ),
    "metric-inverse": (lambda k: rm.christoffel(*value_jets(metric(k)), C2), DomainError),
    "positive-definite": (
        lambda k: gtb.check_positive_definite(metric(k).evaluate_points(PTS2), PTS2),
        NotPositiveDefinite,
    ),
    "closedness": (
        lambda k: gtb.check_closed(values(tn.exterior_derivative(
            tn.form_from_wedge_coeffs(C4, 3, {(0, 1, 2): ex.mul(k, C4.coord(3))}))), C4.sample_points()),
        NotClosed,
    ),
    "theta-inverts-b": (
        lambda k: gtb.theta_from_b(*value_jets(skew(C2, (DOWN, DOWN), ex.add(1.0, on(C2, k)))), PTS2),
        SingularB,
    ),
    "twisted-poisson": (
        lambda k: gtb.validate_twisted_poisson(THETA, values(full(C2, (DOWN,) * 3, on(C2, k))), PTS2),
        NotTwistedPoisson,
    ),
    "numeric-stage": (lambda k: tn.finite("stage", values(metric(k)), PTS2), DomainError),
    "params-antisymmetry": (
        lambda k: gconn.validate_params(value_jets(full(C2, (UP,) * 3, on(C2, k)))[0],
                                        value_jets(tn.zeros(C2, (DOWN,) * 3))[0]),
        NotAntisymmetric,
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES))
def test_validator_rejects_nan(name):
    build, error = CASES[name]
    build(ex.ZERO)  # the same validator accepts the field with k = 0
    with pytest.raises(error):
        build(NAN)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["metric-inverse", "positive-definite"])
def test_metric_validator_rejects_an_infinite_entry_without_a_warning(name):
    # the finiteness test comes before the symmetry test, whose m - m.T would
    # warn on inf - inf
    build, error = CASES[name]
    with pytest.raises(error):
        build(ex.Const(float("inf")))
