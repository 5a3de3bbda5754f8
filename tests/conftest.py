from fractions import Fraction as Q

import pytest

from metaracah import Context, Params
from metaracah.matrices import RationalMatrix


@pytest.fixture
def p5():
    return Params(N=5, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))


@pytest.fixture
def p3():
    return Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))


@pytest.fixture
def rho():
    return Q(1, 13)


@pytest.fixture
def p_other():
    # second set with negative parameters, away from every registry zero
    return Params(N=4, alpha=Q(-5, 7), beta=Q(3, 11), zeta=Q(-2, 5))


@pytest.fixture
def rho_other():
    return Q(4, 9)


@pytest.fixture
def ctx3(p3, rho):
    return Context(p3, rho)


@pytest.fixture
def ctx5(p5, rho):
    return Context(p5, rho)


@pytest.fixture
def ctx_other(p_other, rho_other):
    return Context(p_other, rho_other)


@pytest.fixture
def products(monkeypatch):
    """The shapes of the right factors of the matrix-by-matrix products
    formed while the test runs, one per product; a scalar multiple is not
    a product.  Clear the list to count from a later point."""
    shapes = []
    mul = RationalMatrix.__mul__

    def counted(self, other):
        if isinstance(other, RationalMatrix):
            shapes.append(other.shape)
        return mul(self, other)

    monkeypatch.setattr(RationalMatrix, "__mul__", counted)
    return shapes
