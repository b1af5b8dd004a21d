"""Every residual validator rejects a non-finite residual.

A test written `worst > tol` is false for NaN, so a field with NaN entries
would pass it; each validator below must raise instead.
"""

import numpy as np
import pytest

from gencourant import expr as ex
from gencourant import gconn, gtb, streff
from gencourant import tensors as tn
from gencourant.errors import (
    DomainError,
    NotAntisymmetric,
    NotClosed,
    NotPositiveDefinite,
    SingularB,
)
from gencourant.expr import chart
from gencourant.scene import from_upper

C2 = chart("x y", seed=5, num_points=8)
C4 = chart("x y z w", seed=5, num_points=8)
NAN = ex.Const(float("nan"))


def on(c, k):
    """k times the first coordinate of chart c: a NaN field for k = NaN."""
    return ex.mul(k, c.coord(0))


def skew(entry):
    return from_upper(2, 2, {(0, 1): entry})


def metric(k):
    return np.array([[ex.add(1.0, on(C2, k)), ex.ZERO], [ex.ZERO, ex.ONE]], dtype=object)


def full(c, rank, entry):
    return np.full((c.dim,) * rank, entry, dtype=object)


def values(field, c=C2):
    return tn.values_at(field, c.sample_points())


def value_jets(field):
    """The 2-jet of a field on C2 whose values are those of ``field`` and
    whose partials are zero: its values reach the validator even where they
    are not finite."""
    v = values(field)
    zeros = lambda *shape: np.zeros(v.shape[:-1] + shape + v.shape[-1:])  # noqa: E731
    return tn.Jet(v, zeros(2)), tn.Jet(zeros(2), zeros(2, 2))


def d_of(H):
    """dH of the Expr array of a 3-form on C4.  numpy's object add reports
    the NaN that a NaN coefficient folds to, which is not the validator's."""
    with np.errstate(all="ignore"):
        return tn.d_of_partials(tn.partials(H, C4), 3)


PTS2 = C2.sample_points()

CASES = {
    "check-antisymmetric": (
        lambda k: tn.check_antisymmetric(values(skew(on(C2, k))), PTS2),
        NotAntisymmetric,
    ),
    # the one inversion of g (riemann.christoffel) reads the metric that the
    # load validates, once
    "metric-inverse": (lambda k: streff.Background(C2, metric(k), tn.zeros_array((2, 2)), 0.0),
                       DomainError),
    "positive-definite": (
        lambda k: gtb.check_positive_definite(np.moveaxis(values(metric(k)), -1, 0), PTS2),
        NotPositiveDefinite,
    ),
    "closedness": (
        lambda k: gtb.check_closed(values(d_of(from_upper(4, 3, {(0, 1, 2): ex.mul(k, C4.coord(3))})),
                                          C4), C4.sample_points()),
        NotClosed,
    ),
    "theta-inverts-b": (
        lambda k: gtb.theta_from_b(*value_jets(skew(ex.add(1.0, on(C2, k)))), PTS2),
        SingularB,
    ),
    "numeric-stage": (lambda k: tn.finite("stage", values(metric(k)), PTS2), DomainError),
    "params-antisymmetry": (
        lambda k: gconn.validate_params(value_jets(full(C2, 3, on(C2, k)))[0],
                                        value_jets(tn.zeros_array((2,) * 3))[0]),
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
