import numpy as np
import pytest

from bloomsim.core import default_params


@pytest.fixture
def params_case1():
    """Extinction regime without hypolimnion phosphorus (R0 = 0)."""
    return default_params(r=0.7, P_h=0.0)


@pytest.fixture
def params_case2():
    """Subthreshold regime: R0 just below one."""
    return default_params(r=0.7, P_h=0.2)


@pytest.fixture
def params_case3():
    """Persistent regime: R0 above one, positive equilibrium exists."""
    return default_params(r=1.0, P_h=0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def edge_values():
    """Doubles whose text form is easy to get wrong: signed zeros, the
    smallest subnormal, magnitudes near the exponent limits, and nan."""
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
        np.nan, 1.0 / 3.0, -2.5e6, 7.0,
    ])
