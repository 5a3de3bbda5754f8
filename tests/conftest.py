from fractions import Fraction as Q

import pytest

from metaracah import Context, FParams, Params


@pytest.fixture
def p5():
    return Params(N=5, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))


@pytest.fixture
def p3():
    return Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))


@pytest.fixture
def fp():
    return FParams(rho=Q(1, 13))


@pytest.fixture
def p_other():
    # second set with negative parameters, away from every registry zero
    return Params(N=4, alpha=Q(-5, 7), beta=Q(3, 11), zeta=Q(-2, 5))


@pytest.fixture
def fp_other():
    return FParams(rho=Q(4, 9))


@pytest.fixture
def ctx3(p3, fp):
    return Context(p3, fp)


@pytest.fixture
def ctx5(p5, fp):
    return Context(p5, fp)


@pytest.fixture
def ctx_other(p_other, fp_other):
    return Context(p_other, fp_other)
