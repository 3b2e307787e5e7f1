import numpy as np
import pytest

import kklab
from kklab.kk import _at_infinity

STD_PARAMS = kklab.LorentzOscillatorParams(omega_p=1.0, omega_res=1.0, gamma_d=0.1)


def interior_mask(grid: kklab.FrequencyGrid) -> np.ndarray:
    """Nodes outside the top and bottom half-decade of the grid."""
    nu = grid.values
    return (nu >= nu[0] * np.sqrt(10.0)) & (nu <= nu[-1] / np.sqrt(10.0))


def lorentz_closed_form(omega, omega_p=1.0, omega_res=1.0, gamma_d=0.1):
    return 1.0 + (omega_p ** 2 / 2.0) / (omega_res ** 2 - omega ** 2 - 1j * gamma_d * omega)


@pytest.fixture(autouse=True)
def fresh_results():
    """An empty transform result cache before and after every test: the
    cache is process state, and a test must run the transforms it calls, not
    read what an earlier test left."""
    _at_infinity.cache_clear()
    yield _at_infinity
    _at_infinity.cache_clear()


@pytest.fixture(scope="session")
def std_grid():
    return kklab.FrequencyGrid.log_spaced(1e-2, 1e2, 2048, kklab.GridUnit.NORMALIZED)


@pytest.fixture(scope="session")
def std_lorentz(std_grid):
    return kklab.lorentz_index(STD_PARAMS, std_grid)


@pytest.fixture(scope="session")
def std_transform(std_lorentz):
    return kklab.kk_re_from_im(std_lorentz)
