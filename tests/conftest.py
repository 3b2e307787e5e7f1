"""Shared oracles and fixtures: closed forms, the Lorentz spectrum on given
nodes (:func:`lorentz_on`), the operators' rule in 40 digits and the standard
spectrum. ``tools/gate_sweep.py`` imports ``gaussian_closed_form`` and
``interior_mask`` from here."""

import numpy as np
import pytest

import kklab
from kklab.kk import _at_infinity
from kklab.pvquad import _cubic_weights, _stencil, local_cubic_value, simpson_weights

STD_PARAMS = kklab.LorentzOscillatorParams(omega_p=1.0, omega_res=1.0, gamma_d=0.1)


def interior_mask(grid: kklab.FrequencyGrid) -> np.ndarray:
    """Nodes outside the top and bottom half-decade of the grid."""
    nu = grid.values
    return (nu >= nu[0] * np.sqrt(10.0)) & (nu <= nu[-1] / np.sqrt(10.0))


def lorentz_closed_form(omega, omega_p=1.0, omega_res=1.0, gamma_d=0.1):
    return 1.0 + (omega_p ** 2 / 2.0) / (omega_res ** 2 - omega ** 2 - 1j * gamma_d * omega)


def lorentz_on(nu, path=None, sigma=0.0):
    """The Lorentz spectrum on the nodes nu, plus white noise of ``sigma``
    on both parts (drawn from ``np.random.default_rng(nu.size)``), read back
    from a CSV file at ``path`` when one is given."""
    idx = lorentz_closed_form(nu)
    noise = sigma * np.random.default_rng(nu.size).standard_normal((2, nu.size))
    spec = kklab.ComplexIndexSpectrum(kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED),
                                      idx.real + noise[0], idx.imag + noise[1])
    if path is None:
        return spec
    kklab.save_spectrum(spec, path)
    return kklab.load_spectrum(path)


def gaussian_closed_form(omega, amplitude, centre, width):
    """A Gaussian absorption line, odd in omega, and its Kramers-Kronig pair
    (King, *Hilbert Transforms*, 2009), with F Dawson's integral:

        Im n = A [exp(-((omega - centre)/s)^2) - exp(-((omega + centre)/s)^2)],
        Re n - 1 = (2A / sqrt(pi)) [F((omega + centre)/s) - F((omega - centre)/s)].

    Its Im n decays faster than any power law, and Re n - 1 as
    -2 A s centre / (sqrt(pi) omega^2)."""
    from scipy.special import dawsn

    below, above = (omega - centre) / width, (omega + centre) / width
    re = 1.0 + (2.0 * amplitude / np.sqrt(np.pi)) * (dawsn(above) - dawsn(below))
    return re + 1j * amplitude * (np.exp(-below ** 2) - np.exp(-above ** 2))


def rule_in_40_digits(nu, g, poles, h=None):
    """The operators' rule at each pole w of ``poles``, with every quotient
    and sum taken in 40 digits: the full Simpson sum of (g - g(w)) / (nu - w),
    plus h / (nu + w) when ``h`` is given, plus the log term
    g(w) ln|(nu[-1] - w)/(nu[0] - w)|. A pole on a node takes g's value
    there, and that node takes the stencil slope of g - g(w) in place of the
    first quotient; a pole between nodes takes the local cubic's value and
    no slope. The Simpson and slope weights are the operators' own floats.
    Skips the test when mpmath is missing."""
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    values = []
    with mpmath.workdps(40):
        x, gs, full = ([mpf(v) for v in arr] for arr in (nu, g, simpson_weights(nu)))
        hs = None if h is None else [mpf(v) for v in h]
        for pole in poles:
            k = np.flatnonzero(nu == pole)
            w = mpf(pole)
            g_w = gs[k[0]] if k.size else mpf(local_cubic_value(nu, g, pole))
            terms = [w_j * (g_j - g_w) / (x_j - w)
                     for j, (w_j, g_j, x_j) in enumerate(zip(full, gs, x)) if j not in k]
            if hs is not None:
                terms += [w_j * h_j / (x_j + w) for w_j, h_j, x_j in zip(full, hs, x)]
            if k.size:
                sl = _stencil(nu, pole)
                slope_w = _cubic_weights(nu[sl, None], np.array([pole]), slope=True)[:, 0]
                terms += [full[k[0]] * mpf(s) * (gs[i] - g_w)
                          for s, i in zip(slope_w, range(sl.start, sl.stop))]
            log = mpmath.log(abs((x[-1] - w) / (x[0] - w)))
            values.append(float(mpmath.fsum(terms) + g_w * log))
    return np.array(values)


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
