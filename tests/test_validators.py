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
    NotAntisymmetric,
    NotClosed,
    NotPositiveDefinite,
    NotTwistedPoisson,
    SingularB,
    SlotError,
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


def christoffel_with(k):
    coeffs = np.empty((2, 2, 2), dtype=object)
    coeffs.reshape(-1)[:] = [ex.ZERO] * 8
    coeffs[0, 0, 1] = on(C2, k)
    g = tn.euclidean_metric(C2)
    return rm.Christoffel(C2, coeffs, g, g)


THETA = skew(C2, (UP, UP), ex.ONE)

CASES = {
    "check-antisymmetric": (
        lambda k: tn.check_antisymmetric(skew(C2, (DOWN, DOWN), on(C2, k))),
        NotAntisymmetric,
    ),
    "metric-inverse": (lambda k: tn.metric_inverse(metric(k)), SlotError),
    "positive-definite": (lambda k: gtb._check_positive_definite(metric(k)), NotPositiveDefinite),
    "closedness": (
        lambda k: gtb.check_closed(
            tn.form_from_wedge_coeffs(C4, 3, {(0, 1, 2): ex.mul(k, C4.coord(3))})
        ),
        NotClosed,
    ),
    "theta-inverts-b": (
        lambda k: gtb.theta_matrix_from_b(skew(C2, (DOWN, DOWN), ex.add(1.0, on(C2, k)))),
        SingularB,
    ),
    "twisted-poisson": (
        lambda k: gtb.validate_twisted_poisson(THETA, full(C2, (DOWN,) * 3, on(C2, k))),
        NotTwistedPoisson,
    ),
    "christoffel-symmetry": (christoffel_with, SlotError),
    "params-antisymmetry": (
        lambda k: gconn.validate_params(full(C2, (UP,) * 3, on(C2, k)), tn.zeros(C2, (DOWN,) * 3)),
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
