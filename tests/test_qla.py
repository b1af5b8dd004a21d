"""Exact-arithmetic checks for the zero-anchor (quadratic Lie algebra) case."""

import itertools
from fractions import Fraction

import pytest

from oracles import (
    InvalidLieAlgebra,
    QuadraticLieAlgebra,
    qla_compat_residual,
    qla_lc,
    qla_torsion,
)


def so3_so3():
    """so(3) (+) so(3) with pairing +delta on the first factor and -delta on
    the second; the positive subspace is the first factor."""
    d = 6
    eps = {}
    for i, j, k in itertools.permutations(range(3)):
        sign = 1 if (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] else -1
        eps[(i, j, k)] = sign
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j, k), sign in eps.items():
        c[k][i][j] = sign            # first factor
        c[3 + k][3 + i][3 + j] = sign  # second factor
    pairing = [[0] * d for _ in range(d)]
    for i in range(3):
        pairing[i][i] = 1
        pairing[3 + i][3 + i] = -1
    vplus = [[1 if j == i else 0 for j in range(d)] for i in range(3)]
    return QuadraticLieAlgebra(d, c, pairing, vplus)


def abelian(dim=4):
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    pairing = [[0] * dim for _ in range(dim)]
    half = dim // 2
    for i in range(dim):
        pairing[i][i] = 1 if i < half else -1
    vplus = [[1 if j == i else 0 for j in range(dim)] for i in range(half)]
    return QuadraticLieAlgebra(dim, c, pairing, vplus)


def test_abelian_connection_vanishes():
    qla = abelian()
    gamma = qla_lc(qla)
    assert all(
        gamma[c][a][b] == 0
        for c in range(qla.dim) for a in range(qla.dim) for b in range(qla.dim)
    )


def test_so3_so3_torsion_free_exact():
    qla = so3_so3()
    gamma = qla_lc(qla)
    T = qla_torsion(qla, gamma)
    assert all(
        T[a][b][c] == 0
        for a in range(6) for b in range(6) for c in range(6)
    )


def test_so3_so3_pairing_compatibility_exact():
    qla = so3_so3()
    gamma = qla_lc(qla)
    res = qla_compat_residual(qla, gamma)
    assert all(
        res[a][b][c] == 0
        for a in range(6) for b in range(6) for c in range(6)
    )


def test_so3_so3_preserves_eigenspaces_exact():
    qla = so3_so3()
    gamma = qla_lc(qla)
    # mixing components between the factors must vanish: Gamma^c_{ab} = 0
    # whenever b and c lie in different factors
    for a in range(6):
        for b in range(3):
            for c in range(3, 6):
                assert gamma[c][a][b] == 0
        for b in range(3, 6):
            for c in range(3):
                assert gamma[c][a][b] == 0


def test_so3_connection_is_nonzero():
    gamma = qla_lc(so3_so3())
    values = {gamma[c][a][b] for a in range(6) for b in range(6) for c in range(6)}
    assert Fraction(1, 3) in values or Fraction(-1, 3) in values


def test_invalid_lie_algebra_reports_axiom():
    c = [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]]  # [b0,b1] = b0: not Jacobi? check axioms
    # structure constants c[k][i][j]: set [b0,b1] = b0
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][1] = 1
    c[0][1][0] = -1
    pairing = [[1, 0], [0, -1]]
    vplus = [[1, 0]]
    # this solvable algebra has no invariant pairing of this form
    with pytest.raises(InvalidLieAlgebra) as err:
        QuadraticLieAlgebra(2, c, pairing, vplus)
    assert "invariant" in str(err.value)

    bad_sym = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    bad_sym[0][0][1] = 1  # missing the antisymmetric partner
    with pytest.raises(InvalidLieAlgebra) as err:
        QuadraticLieAlgebra(2, bad_sym, pairing, vplus)
    assert "antisymmetric" in str(err.value)

    with pytest.raises(InvalidLieAlgebra) as err:
        so3 = so3_so3()
        QuadraticLieAlgebra(6, so3.structure, so3.pairing, [[0, 0, 0, 1, 0, 0]])
    assert "positive" in str(err.value)


def test_jacobi_violation_detected():
    # e0 x e1 = e2, e1 x e2 = e0, e2 x e0 = e0 (breaks Jacobi)
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[2][0][1], c[2][1][0] = 1, -1
    c[0][1][2], c[0][2][1] = 1, -1
    c[0][2][0], c[0][0][2] = 1, -1
    with pytest.raises(InvalidLieAlgebra) as err:
        QuadraticLieAlgebra(3, c, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0]])
    assert "Jacobi" in str(err.value)
