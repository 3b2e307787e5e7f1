"""The FFT path of the folded operator against the blocked operator.

``pv_folded_at_nodes`` takes the far part of its sums by FFT when its poles
form a geometric block and calls ``pv_at_nodes`` otherwise. Both run here on
the operands of the operator's four callers, built as kk builds them
(:func:`_operands`): re-from-im, im-from-re, and kk_subtracted's K at w0 and
its D(w), which fold the full-axis integrand onto the same operator at twice
the band span. The grids are the extended grids of log-spaced Lorentz
spectra that went through a CSV file. 2896 and 5793 nodes give an odd and an
even extended node count, 2897 an even one, so Simpson's Cartwright last
interval is covered; 2048 and 4096 nodes give the narrowest direct bands,
4 and 8 nodes, and 8192 nodes the band furthest below kk_subtracted's,
16 nodes against 32; a 2048-node grid that samples omega = 0 starts the
pole block above it. Values must agree to 1e-12 absolute.
Error estimates must agree to 1e-3 relative where the blocked estimate is
at least 1e-12 of the largest |value|: below that both are rounding noise. Both take
|full - half| as one sum against the full-minus-half Simpson weights, so
what separates them is FFT rounding and the far pairs' bound on the rounding
floor. An unbracketed pole block is refused on either path, and every caller
takes the FFT path exactly on the grids that have one. The FFT path's
per-grid plan cache must give warm calls the bits of cold ones, share one
plan between the odd and the even transform of a spectrum, key on the
grid's exact bytes, stay within its bound and hold nothing for a grid that
runs the blocked operator, and every plan member, at either band span, must
keep the bits of a build by the plan's first, masked formulas. Last, both
paths are held to the same discrete rule summed in 40 digits, on every row
of small grids and sampled rows of large ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kklab
from kklab import ComplexIndexSpectrum, FrequencyGrid, GridUnit
from kklab.kk import _HEAD_NODES, _TOP_EXTENSION_NODES, _at_infinity, _extend_axis
from kklab.pvquad import (_PLAN_CACHE_SIZE, _folded_plan, _geometric_log_ratio, pv_at_nodes,
                          pv_folded_at_nodes)
from kklab.pvquad import (_BAND_SPAN, _FFT_BAND, _FOLDED_BAND_SPAN, _band, _estimator_weights,
                          _finish, _top_plan, _top_sums, _TopPlan,
                          difference_quotient, simpson_estimate, simpson_weights)
from conftest import lorentz_closed_form, lorentz_on, rule_in_40_digits

VALUE_ATOL = 1e-12
ERROR_RTOL = 1e-3
ERROR_LEVEL = 1e-12  # relative to max |value|: estimates below are rounding noise
IM_INF = 1e-3
FLOOR_SLACK = 8.0


# samples omega = 0 below a log grid, as tools/lib_digests.py's ZERO_GRID does
ZERO_GRID = np.r_[0.0, np.geomspace(1e-2, 1e2, 2047)]
W0S = (0.0, 0.5, 2.0)


def _full_axis_kernel(spec, w0):
    """The full axis of kk_subtracted at w0 and K(nu) = [Im G(nu) -
    Im G(w0)]/(nu - w0) on it, with the extended half axis."""
    nu_e, g_e, _, _ = _extend_axis(spec.grid.values, spec.im, "odd", None, subtracted=True)
    nu_full = np.concatenate([-nu_e[:0:-1], nu_e])
    g_full = np.concatenate([-g_e[:0:-1], g_e])
    kern = difference_quotient(nu_full, g_full, w0, (lorentz_closed_form(w0) - 1.0).imag)
    return nu_full, kern, nu_e


def _operands(spec, caller):
    """pv_folded_at_nodes' arguments (nu_e, a, b, lo, hi, span) as kk builds
    them for ``caller``: "re-from-im" (a = Im n, b = -IM_INF), "im-from-re"
    (a = 0, b = Re n - 1), or kk_subtracted's "K w0" (a = K(nu) - K(-nu),
    b = K(nu) + K(-nu), :func:`_full_axis_kernel`) and "D" (a = 1, b = -1) at
    _BAND_SPAN. The poles are the nodes from _HEAD_NODES to the top extension."""
    nu = spec.grid.values
    kind, *w0 = caller.split()
    if kind == "re-from-im":
        nu_e, g_e, _, _ = _extend_axis(nu, spec.im, "odd", None)
        a, b, span = g_e, -IM_INF, _FOLDED_BAND_SPAN
    elif kind == "im-from-re":
        nu_e, g_e, _, _ = _extend_axis(nu, spec.re - 1.0, "even", None)
        a, b, span = 0.0, g_e, _FOLDED_BAND_SPAN
    elif kind == "K":
        _, kern, nu_e = _full_axis_kernel(spec, float(*w0))
        k_pos, k_neg = kern[nu_e.size - 1:], kern[nu_e.size - 1::-1]
        a, b, span = k_pos - k_neg, k_pos + k_neg, _BAND_SPAN
    else:  # "D"
        nu_e = _extend_axis(nu, spec.im, "odd", None, subtracted=True)[0]
        a, b, span = 1.0, -1.0, _BAND_SPAN
    return nu_e, a, b, _HEAD_NODES, nu_e.size - _TOP_EXTENSION_NODES, span


def _split(nu, a, b):
    """The singular part g = (a + b)/2 and the pole-free h = (a - b)/2."""
    a, b = (np.broadcast_to(np.asarray(x, dtype=float), nu.shape) for x in (a, b))
    return 0.5 * (a + b), 0.5 * (a - b)


def _blocked(nu_e, a, b, lo, hi, span=None):
    """The blocked operator on pv_folded_at_nodes' arguments; it has no band."""
    return pv_at_nodes(nu_e, *_split(nu_e, a, b), lo, hi)


def _subtracted(spec, w0):
    """kk_subtracted of G = n - 1 at w0, G(w0) from the closed form."""
    g0 = lorentz_closed_form(w0) - 1.0
    g = ComplexIndexSpectrum(spec.grid, spec.re - 1.0, spec.im)
    return kklab.kk_subtracted(g, w0, g0.real, g0.imag, on_collision="continuity")


def _assert_matches_blocked(args):
    """The FFT path on pv_folded_at_nodes' arguments ``args`` against the
    blocked operator: values to VALUE_ATOL, and error estimates to ERROR_RTOL
    on the resolved rows, which must be most of them."""
    values, errors = pv_folded_at_nodes(*args)
    ref_values, ref_errors = _blocked(*args)
    np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=VALUE_ATOL)
    assert np.all(np.isfinite(errors)) and np.all(errors >= 0.0)
    resolved = ref_errors >= ERROR_LEVEL * np.max(np.abs(ref_values))
    assert np.count_nonzero(resolved) > 0.5 * resolved.size
    np.testing.assert_allclose(errors[resolved], ref_errors[resolved], rtol=ERROR_RTOL)


@pytest.fixture(scope="module", params=[(2896, 0.0), (2897, 0.0), (5793, 0.0),
                                        (2896, 3e-7), (2897, 3e-7), (5793, 3e-7),
                                        (2048, 0.0), (2048, 3e-7), (4096, 0.0), (4096, 3e-7),
                                        (8192, 0.0), (8192, 3e-7), ("0+2048", 0.0)],
                ids=lambda p: f"{p[0]}-sigma{p[1]:g}")
def csv_lorentz(request, tmp_path_factory):
    n, sigma = request.param
    nu = ZERO_GRID if n == "0+2048" else np.geomspace(1e-2, 1e2, n)
    return lorentz_on(nu, tmp_path_factory.mktemp("csv") / "lorentz.csv", sigma)


@pytest.mark.parametrize("direction", ["re-from-im", "im-from-re"])
def test_fft_path_matches_blocked_operator(csv_lorentz, direction):
    _assert_matches_blocked(_operands(csv_lorentz, direction))


MEMBERS = st.sampled_from(["array", "scalar", "zero"])


def _member(kind, rng, size):
    """A bounded random a or b: an array, a scalar or 0."""
    if kind == "array":
        return rng.uniform(-1.0, 1.0, size)
    return float(rng.uniform(-1.0, 1.0)) if kind == "scalar" else 0.0


@settings(max_examples=12, deadline=None)
@given(poles=st.integers(4 * _FFT_BAND, 2920),
       pads=st.tuples(st.integers(2, 40), st.integers(2, 40)),
       decades=st.floats(1.0, 6.0), kinds=st.tuples(MEMBERS, MEMBERS, MEMBERS, MEMBERS),
       scale=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fft_path_is_linear_and_matches_blocked_operator(poles, pads, decades, kinds,
                                                         scale, seed):
    # random data, not smooth, on a geometric grid of 132-3000 nodes whose
    # outer nodes are the outside columns: the band, the split and the
    # columns all count
    nodes = poles + sum(pads)
    nu = np.geomspace(1e-2, 1e-2 * 10.0 ** decades, nodes)
    lo, hi = pads[0], pads[0] + poles
    assert _geometric_log_ratio(nu[lo:hi]) is not None
    rng = np.random.default_rng(seed)
    a1, b1, a2, b2 = (_member(kind, rng, nodes) for kind in kinds)
    alpha, beta = scale
    one = pv_folded_at_nodes(nu, a1, b1, lo, hi)[0]
    two = pv_folded_at_nodes(nu, a2, b2, lo, hi)[0]
    both = pv_folded_at_nodes(nu, alpha * np.asarray(a1) + beta * np.asarray(a2),
                              alpha * np.asarray(b1) + beta * np.asarray(b2), lo, hi)[0]
    np.testing.assert_allclose(both, alpha * one + beta * two, rtol=0.0, atol=VALUE_ATOL)
    np.testing.assert_allclose(one, _blocked(nu, a1, b1, lo, hi)[0], rtol=0.0, atol=VALUE_ATOL)


@pytest.mark.parametrize("direction", ["re-from-im", "im-from-re"])
def test_grid_off_geometric_runs_blocked_operator(direction):
    nu = np.geomspace(1e-2, 1e2, 2896)
    nu[1::2] *= 1.0 + 1e-9
    args = _operands(lorentz_on(nu), direction)
    for got, want in zip(pv_folded_at_nodes(*args), _blocked(*args)):
        np.testing.assert_array_equal(got, want)


def test_blocked_branch_keeps_the_lowest_rows_of_the_split(monkeypatch, tmp_path):
    # im-from-re on a 16384-node CSV grid, its block forced off the FFT
    # path: the blocked branch sums the split quotients too, so rows 2-13,
    # where the folded quotient (nu a + w b)/(nu + w) lost digits, agree
    # with the FFT path (both within 1e-13 of a long-double evaluation)
    spec = lorentz_on(np.geomspace(1e-2, 1e2, 16384), tmp_path / "lorentz.csv")
    args = _operands(spec, "im-from-re")
    fft_values = pv_folded_at_nodes(*args)[0]
    monkeypatch.setattr(kklab.pvquad, "_geometric_log_ratio", lambda x: None)
    blocked_values = pv_folded_at_nodes(*args)[0]
    np.testing.assert_allclose(blocked_values[2:14], fft_values[2:14], rtol=0.0, atol=2e-13)


def _long_double_row(nu, g, h, k):
    """Row k of pv_at_nodes' rule in long double: the full Simpson sum of
    (g - g(w)) / (nu - w) + h / (nu + w), w = nu[k], with the cubic slope of
    g plus h(w) / 2w at the pole node, plus the log term
    g(w) ln|(nu[-1] - w)/(nu[0] - w)|. The Simpson weights are the
    operator's; the slope weights sum to 0 to long-double rounding."""
    x, g, h = (np.asarray(v, dtype=np.longdouble) for v in (nu, g, h))
    w = x[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (g - g[k]) / (x - w) + h / (x + w)
    xs = x[k - 2:k + 2]
    fs = g[k - 2:k + 2]
    q[k] = h[k] / (2 * w)
    for j in range(4):
        for m in set(range(4)) - {j}:
            term = 1.0 / (xs[j] - xs[m])
            for i in set(range(4)) - {j, m}:
                term = term * (w - xs[i]) / (xs[j] - xs[i])
            q[k] += term * fs[j]
    weights = simpson_weights(nu).astype(np.longdouble)
    return np.sum(weights * q) + g[k] * np.log(abs((x[-1] - w) / (x[0] - w)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double on this platform")
def test_lowest_pole_rows_keep_their_digits(tmp_path):
    # im-from-re on a 16384-node CSV grid: the stencils of rows 0-1 reach the
    # head nodes nu_0/4 and nu_0/2, so their slope weights are about 1e5;
    # summed against g itself rather than g - g(w) they magnified its
    # rounding to 4e-12-5e-12 on either path
    spec = lorentz_on(np.geomspace(1e-2, 1e2, 16384), tmp_path / "lorentz.csv")
    nu_e, a, b, lo, hi, _ = _operands(spec, "im-from-re")
    g, h = _split(nu_e, a, b)
    want = [_long_double_row(nu_e, g, h, lo + k) for k in range(2)]
    for got in (pv_folded_at_nodes(nu_e, a, b, lo, hi)[0][:2],
                pv_at_nodes(nu_e, g, h, lo, lo + 2)[0]):
        assert np.max(np.abs(got - np.array(want))) <= 1e-13


def test_grid_near_geometric_agrees_with_blocked_operator():
    # nodes up to 5e-14 off the progression: the FFT path would be 5.5e-12
    # off here, so such a grid must not count as geometric
    nu = np.geomspace(1e-2, 1e2, 16384)
    nu *= 1.0 + 5e-14 * np.random.default_rng(16384).uniform(-1.0, 1.0, nu.size)
    args = _operands(lorentz_on(nu), "re-from-im")
    np.testing.assert_allclose(pv_folded_at_nodes(*args)[0], _blocked(*args)[0],
                               rtol=0.0, atol=VALUE_ATOL)


def test_far_floor_bounds_the_rounding_floor(monkeypatch, csv_lorentz):
    # with a rounding unit of 1 the error estimate is nearly all floor; the
    # FFT path's floor bounds the blocked operator's exact one from above
    # (the |kernels| against |a| and |b|), row by row, and stays within a
    # small factor of it
    monkeypatch.setattr(kklab.pvquad, "_EPS", 1.0)
    for direction in ("re-from-im", "im-from-re"):
        args = _operands(csv_lorentz, direction)
        errors, ref_errors = pv_folded_at_nodes(*args)[1], _blocked(*args)[1]
        assert np.all(errors >= ref_errors * (1.0 - 1e-9))
        assert np.all(errors <= FLOOR_SLACK * ref_errors)


@pytest.fixture
def fresh_plans():
    """An empty plan cache before and after the test, so its hit and miss
    counts start at zero. The geometric decision and the band are taken on
    every call, outside the cache, and the band is part of a plan's key.
    The transform result cache is cleared too: a transform served from it
    builds or looks up no plan."""
    _folded_plan.cache_clear()
    _at_infinity.cache_clear()
    yield _folded_plan
    _folded_plan.cache_clear()
    _at_infinity.cache_clear()


def _bits(arrays):
    return [x.tobytes() for x in arrays]


@pytest.mark.parametrize("direction", ["re-from-im", "im-from-re"])
def test_warm_plan_gives_the_bits_of_a_cold_one(csv_lorentz, fresh_plans, direction):
    nu_e, *rest = _operands(csv_lorentz, direction)
    pv_folded_at_nodes(nu_e, *rest)
    # another array with the same values finds the plan
    warm = pv_folded_at_nodes(nu_e.copy(), *rest)
    assert fresh_plans.cache_info()[:2] == (1, 1)  # (hits, misses)
    fresh_plans.cache_clear()
    assert _bits(warm) == _bits(pv_folded_at_nodes(nu_e.copy(), *rest))


def test_odd_and_even_transforms_share_a_plan(std_lorentz, fresh_plans):
    kklab.kk_re_from_im(std_lorentz)
    assert fresh_plans.cache_info()[:2] == (0, 1)
    kklab.kk_im_from_re(std_lorentz)
    assert fresh_plans.cache_info()[:2] == (1, 1)


def _assert_plan_read_only(spec, plans, span):
    nu_e, _, _, lo, hi, _ = _operands(spec, "re-from-im")
    log_r = _geometric_log_ratio(nu_e[lo:hi])
    size, *arrays, top = plans(nu_e.tobytes(), lo, hi, log_r, _band(log_r, span))
    assert isinstance(top, _TopPlan)
    arrays += [x for x in top if isinstance(x, np.ndarray)]
    # 6 of the FFT path, 5 of the top extension's: w/c of the series
    # rows, weights, series kernels of both signs, nu_j - w and nu_j + w
    assert size >= 2 * (hi - lo) - 1 and len(arrays) == 11
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0
    assert plans.cache_info().currsize == 1


def test_plan_arrays_are_read_only(std_lorentz, fresh_plans):
    # the plan of the folded transforms' band
    _assert_plan_read_only(std_lorentz, fresh_plans, _FOLDED_BAND_SPAN)


def test_subtracted_plan_arrays_are_read_only(std_lorentz, fresh_plans):
    # the plan of kk_subtracted's wider band
    _assert_plan_read_only(std_lorentz, fresh_plans, _BAND_SPAN)


def _reference_plan(nu, lo, hi, log_r, band):
    """_folded_plan's members by their first formulas: the estimator weights
    stacked from a scattered half grid, the slope weights summed on (N, 4)
    stencils with every difference taken afresh, the kernel rows filled
    through masks over the whole FFT length, and conv_nu multiplied by a
    fancy-indexed copy of its kernel rows."""
    ci = np.append(np.arange(0, nu.size - 1, 2), nu.size - 1)
    full, half = simpson_weights(nu), np.zeros(nu.size)
    half[ci] = simpson_weights(nu[ci])
    h = np.diff(nu)
    weights = np.stack([full, full - half, 0.5 * (np.append(h, 0.0) + np.insert(h, 0, 0.0))])
    hits = np.arange(lo, hi)
    xs, poles = nu[hits[:, None] + np.arange(-2, 2)], nu[hits]
    slope_w = np.zeros(xs.shape)
    for j in range(4):
        for m in range(4):
            if m == j:
                continue
            term = 1.0 / (xs[:, j] - xs[:, m])
            for k in range(4):
                if k != j and k != m:
                    term = term * (poles - xs[:, k]) / (xs[:, j] - xs[:, k])
            slope_w[:, j] += term
    n = hi - lo
    size = 1 << (2 * n - 2).bit_length()
    m = np.arange(size)
    m[n:] -= size
    x = log_r * m
    inside = np.abs(m) < n
    far = (np.abs(m) > band) & inside
    near = inside & ~far & (m != 0)
    kernels = np.zeros((6, size))
    with np.errstate(over="ignore"):
        kernels[0, far] = -1.0 / np.expm1(2.0 * x[far])
        kernels[1, far] = -0.5 / np.sinh(x[far])
        kernels[2, far] = -1.0 / np.expm1(x[far])
    kernels[0, near] = 0.5 / (1.0 + np.exp(x[near]))
    kernels[1, near] = -kernels[0, near]
    kernels[3:] = np.abs(kernels[:3])
    kernels = np.fft.rfft(kernels)
    over_nu = weights[:, lo:hi] / nu[lo:hi]
    conv_nu = np.fft.irfft(np.fft.rfft(over_nu, size) * kernels[[2, 2, 5]], size)
    return (size, weights, slope_w, kernels[[0, 1, 3, 4]], over_nu, conv_nu[:, :n],
            np.log(np.abs((nu[-1] - poles) / (nu[0] - poles))), _top_plan(nu, weights, lo, hi))


def _same_bits(got, want) -> bool:
    """Equal types, shapes and bytes, member by member through tuples."""
    if isinstance(want, tuple):
        return (type(got) is type(want) and len(got) == len(want)
                and all(_same_bits(g, w) for g, w in zip(got, want)))
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.fixture(scope="module", params=["csv 2896", "log 4096", "csv 16384", "0+log 2048"])
def plan_grid(request, tmp_path_factory):
    """A Lorentz spectrum on a 4-decade log grid, read back from CSV for
    "csv"; "0+log" samples omega = 0 below it, as tools/lib_digests.py's
    ZERO_GRID does."""
    kind, n = request.param.split()
    if kind == "0+log":
        return lorentz_on(ZERO_GRID)
    nu = np.geomspace(1e-2, 1e2, int(n))
    return lorentz_on(nu, tmp_path_factory.mktemp("csv") / "l.csv" if kind == "csv" else None)


@pytest.mark.parametrize("span", [_FOLDED_BAND_SPAN, _BAND_SPAN], ids=["folded", "subtracted"])
def test_plan_members_keep_their_bits(plan_grid, fresh_plans, span):
    nu_e, _, _, lo, hi, _ = _operands(plan_grid, "re-from-im")
    log_r = _geometric_log_ratio(nu_e[lo:hi])
    args = nu_e, lo, hi, log_r, _band(log_r, span)
    got, want = _folded_plan(nu_e.tobytes(), *args[1:]), _reference_plan(*args)
    for i, (member, ref) in enumerate(zip(got, want)):
        assert _same_bits(member, ref), f"plan member {i}"
    # the lowest stencil reaches the head nodes: slope weights over 1e4
    assert np.max(np.abs(got[2][0])) > 1e4


def test_grid_one_ulp_off_builds_its_own_plan(std_lorentz, fresh_plans):
    nu_e, a, b, lo, hi, _ = _operands(std_lorentz, "re-from-im")
    pv_folded_at_nodes(nu_e, a, b, lo, hi)
    nudged = nu_e.copy()
    nudged[lo + 1000] = np.nextafter(nudged[lo + 1000], np.inf)
    values = pv_folded_at_nodes(nudged, a, b, lo, hi)[0]
    info = fresh_plans.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    np.testing.assert_allclose(values, _blocked(nudged, a, b, lo, hi)[0],
                               rtol=0.0, atol=VALUE_ATOL)


def test_cache_holds_only_plans(fresh_plans):
    # a batch alternating between two log grids and two linear grids: the
    # linear grids run the blocked operator and take no slot, so the two
    # plans survive every round
    grids = [*_log_grids([600, 700]),
             *(FrequencyGrid.linear(0.5, 100.0, n, GridUnit.NORMALIZED) for n in (600, 700))]
    spectra = [lorentz_on(grid.values) for grid in grids]
    for _ in range(3):
        _at_infinity.cache_clear()  # every round runs the operator again
        for spec in spectra:
            kklab.kk_re_from_im(spec)
    info = fresh_plans.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


def test_plan_cache_stays_bounded(fresh_plans):
    for n in range(200, 200 + _PLAN_CACHE_SIZE + 2):
        nu = np.geomspace(1e-2, 1e2, n)
        pv_folded_at_nodes(nu, 1.0 / (1.0 + nu ** 2), 0.0, 2, n - 2)
    info = fresh_plans.cache_info()
    assert info.misses == _PLAN_CACHE_SIZE + 2
    assert info.currsize == info.maxsize == _PLAN_CACHE_SIZE


def _refuse(*args):
    raise AssertionError("blocked operator called")


@pytest.mark.parametrize("lo, hi", [(1, 298), (2, 299)], ids=["lo 1", "hi M-1"])
@pytest.mark.parametrize("geometric", [True, False], ids=["fft", "blocked"])
def test_unbracketed_block_raises(monkeypatch, fresh_plans, geometric, lo, hi):
    # every pole needs two nodes on each side on either path; a refused
    # block on the FFT path leaves no plan behind
    nu = np.geomspace(1e-2, 1e2, 300)
    if geometric:
        monkeypatch.setattr(kklab.pvquad, "pv_at_nodes", _refuse)
    else:
        nu[1::2] *= 1.0 + 1e-9
    with pytest.raises(kklab.PoleLocationError, match="bracketed"):
        pv_folded_at_nodes(nu, 1.0 / (1.0 + nu ** 2), 0.0, lo, hi)
    if geometric:
        assert fresh_plans.cache_info().currsize == 0


def _log_grids(sizes, lo=1e-2, hi=1e2):
    return [FrequencyGrid.log_spaced(lo, hi, n, GridUnit.NORMALIZED) for n in sizes]


# the node counts of the benchmark's log grids: cli_large's and audit_batch's
# 2048-16384 ladder, and audit_batch's one-off grids of 2896 nodes +- 2 %
LADDER = (2048, 2896, 4096, 5793, 8192, 11585, 16384)
ONE_OFF = range(2839, 2956)


def _grid_band(grid, span):
    return _band(_geometric_log_ratio(grid.values), span)


def test_band_spans_a_fixed_node_ratio():
    # the band reaches nu_(k+B) / nu_k >= exp(span) in the fewest nodes, up
    # to _FFT_BAND: the 4-decade ladder from 2048 nodes, where a fixed band
    # would be 32, and the one-off grids around 2896 nodes. kk_subtracted's
    # span, then the folded transforms', half of it: 16384 nodes reach it at
    # the cap
    for span, ladder, one_off in ((_BAND_SPAN, [8, 12, 16, 23, 32, 32, 32], {11, 12}),
                                  (_FOLDED_BAND_SPAN, [4, 6, 8, 12, 16, 23, 32], {6})):
        assert [_grid_band(grid, span) for grid in _log_grids(LADDER)] == ladder
        assert {_grid_band(grid, span) for grid in _log_grids(ONE_OFF)} == one_off
        for log_r in np.geomspace(1e-5, 10.0, 200):
            band = _band(log_r, span)
            assert 1 <= band <= _FFT_BAND
            assert band == _FFT_BAND or (band * log_r >= span > (band - 1) * log_r)


PATH_GRIDS = pytest.mark.parametrize("grids, fast, via_csv", [
    (_log_grids([128]), True, False),
    (_log_grids([127]), False, False),
    ([FrequencyGrid.linear(0.5, 100.0, 512, GridUnit.NORMALIZED)], False, False),
    (_log_grids(LADDER), True, False),
    (_log_grids(LADDER), True, True),
    (_log_grids(ONE_OFF), True, False),
    (_log_grids([4096], 1e-3, 1e3), True, True),
], ids=["log 128", "log 127", "lin 512", "ladder", "ladder csv", "one-off", "log 1e-3 csv"])


def _assert_path_follows(monkeypatch, tmp_path, grids, fast, via_csv, transforms):
    # the FFT path needs a geometric block of at least four bands of poles
    monkeypatch.setattr(kklab.pvquad, "pv_at_nodes", _refuse)
    for grid in grids:
        spec = lorentz_on(grid.values, tmp_path / "s.csv" if via_csv else None)
        for transform in transforms:
            if fast:
                result = transform(spec)
                assert np.all(np.isfinite(result.spectrum.re))
                assert np.all(np.isfinite(result.error_estimate))
            else:
                with pytest.raises(AssertionError, match="blocked operator"):
                    transform(spec)


@PATH_GRIDS
def test_path_follows_the_grid(monkeypatch, fresh_plans, tmp_path, grids, fast, via_csv):
    _assert_path_follows(monkeypatch, tmp_path, grids, fast, via_csv,
                         [kklab.kk_re_from_im, kklab.kk_im_from_re])


@PATH_GRIDS
def test_subtracted_path_follows_the_grid(monkeypatch, fresh_plans, tmp_path,
                                          grids, fast, via_csv):
    # kk_subtracted at each w0, on the same grid sets
    _assert_path_follows(monkeypatch, tmp_path, grids, fast, via_csv,
                         [lambda spec, w0=w0: _subtracted(spec, w0) for w0 in W0S])


# --- the direct part, bit for bit ---------------------------------------------

def _column_loop(nu, a, b, lo, hi, span=_FOLDED_BAND_SPAN):
    """The FFT path of pv_folded_at_nodes with its direct part summed one
    member at a time, at the band span ``span``. The folded integrand is
    split by partial fractions,

        f_k(nu) / (nu - w) = g(nu) / (nu - w) + h(nu) / (nu + w),

    g = (a + b)/2 and h = (a - b)/2: on its own node the pole row takes the
    stencil slope of g, summed against g - g(w), plus h(w) / 2w, the
    pole-free part's exact value. For every band offset m the node k + m on row k, then the
    node k on row k + m, each takes the quotient (g(nu_j) - g(w)) / (nu_j - w)
    of its own nu - w, out to the grid's band _band(ln r, span); the
    pole-free h part of the band is in the plan's kernels. Then one head node at a time takes
    (g(nu_j) - g(w)) / (nu_j - w) + h(nu_j) / (nu_j + w), with its own
    nu - w and nu + w, and last the top-extension nodes add their sums from
    _top_sums, which test_top_sums_match_a_column_loop checks. The reference
    whose bits the direct part keeps."""
    a = np.broadcast_to(np.asarray(a, dtype=float), nu.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), nu.shape)
    g, h = 0.5 * (a + b), 0.5 * (a - b)
    log_r = _geometric_log_ratio(nu[lo:hi])
    assert log_r is not None
    size, weights, slope_w, kernels, over_nu, conv_nu, logs, top = _folded_plan(
        nu.tobytes(), lo, hi, log_r, _band(log_r, span))
    n, w = hi - lo, nu[lo:hi]
    f_at = g[lo:hi]

    stencil = np.arange(lo, hi)[:, None] + np.arange(-2, 2)
    slope = np.sum((g[stencil] - f_at[:, None]) * slope_w, axis=1) + h[lo:hi] / (2.0 * w)
    sums = weights[:, lo:hi] * np.stack([slope, slope, np.abs(slope)])

    def add(j, k, q):
        sums[:2, k] += weights[:2, j] * q
        sums[2, k] += weights[2, j] * np.abs(q)

    def band(j, k):
        add(j, k, (g[j] - f_at[k]) / (nu[j] - w[k]))

    for m in range(1, _band(log_r, span) + 1):
        band(slice(lo + m, hi), slice(0, n - m))
        band(slice(lo, hi - m), slice(m, n))
    for j in range(lo):
        col = slice(j, j + 1)
        add(col, slice(None), (g[col] - f_at) / (nu[col] - w) + h[col] / (nu[col] + w))
    sums += _top_sums(g, h, lo, hi, top)

    products = np.zeros((3, kernels.shape[1]), dtype=complex)
    for d, kind in ((a[lo:hi], 0), (b[lo:hi], 1)):
        if np.any(d):
            rows = over_nu * np.stack([d, d, np.abs(d)])
            products += np.fft.rfft(rows, size) * kernels[[kind, kind, kind + 2]]
    conv = np.fft.irfft(products, size)[:, :n]
    sums[:2] += conv[:2] - f_at * conv_nu[:2]
    sums[2] += np.maximum(conv[2], 0.0) + np.abs(f_at) * np.maximum(conv_nu[2], 0.0)
    return _finish(*sums, f_at * logs)


@pytest.fixture(scope="module", params=["csv 16384", "log 2896"])
def direct_part_spectrum(request, tmp_path_factory):
    if request.param == "csv 16384":
        path = tmp_path_factory.mktemp("csv") / "lorentz.csv"
        return lorentz_on(np.geomspace(1e-2, 1e2, 16384), path)
    return lorentz_on(np.geomspace(1e-2, 1e2, 2896))


@pytest.mark.parametrize("transform", [
    kklab.kk_re_from_im,
    kklab.kk_im_from_re,
    lambda s: kklab.kk_subtracted_at_infinity(s, 1.01, 1e-3),  # a and b both nonzero
    lambda s: _subtracted(s, 0.5),  # at its own span, and D's a = 1, b = -1
], ids=["re-from-im", "im-from-re", "at-infinity", "subtracted"])
def test_direct_part_keeps_the_bits_of_the_column_loop(monkeypatch, fresh_plans,
                                                        direct_part_spectrum, transform):
    got = transform(direct_part_spectrum)
    monkeypatch.setattr(kklab.kk, "pv_folded_at_nodes", _column_loop)
    _at_infinity.cache_clear()  # the reference runs the column loop, not a cached result
    want = transform(direct_part_spectrum)
    assert (_bits([got.spectrum.re, got.spectrum.im, got.error_estimate])
            == _bits([want.spectrum.re, want.spectrum.im, want.error_estimate]))


# --- the top extension by its moments -------------------------------------------

def _top_loop(nu, lo, hi, g, h):
    """_top_sums one column at a time, over the nodes nu[hi:]: the (3, n)
    sums of pv_at_nodes' quotient, and for the full and full-minus-half
    rows the sum of the |terms| that the moments add, W_j times
    g_j / (nu_j - w), g(w) / (nu_j - w) and h_j / (nu_j + w)."""
    weights = _estimator_weights(nu)
    w, f_at = nu[lo:hi], g[lo:hi]
    sums, scale = np.zeros((3, w.size)), np.zeros((2, w.size))
    for j in range(hi, nu.size):
        q = (g[j] - f_at) / (nu[j] - w) + h[j] / (nu[j] + w)
        size = (abs(g[j]) + np.abs(f_at)) / np.abs(nu[j] - w) + abs(h[j]) / np.abs(nu[j] + w)
        sums[:2] += weights[:2, j, None] * q
        sums[2] += weights[2, j] * np.abs(q)
        scale += np.abs(weights[:2, j, None]) * size
    return weights, sums, scale


def _check_top_sums(nu, lo, hi, g, h):
    weights, want, scale = _top_loop(nu, lo, hi, g, h)
    got = _top_sums(g, h, lo, hi, _top_plan(nu, weights, lo, hi))
    assert np.all(np.abs(got[:2] - want[:2]) <= 1e-14 * scale)
    # the floor's upper bound, at or above the exact trapezoid sum of |q|
    assert np.all(got[2] >= want[2] * (1.0 - 1e-12))
    return got


@pytest.mark.parametrize("caller", ["re-from-im", "im-from-re", "K 0.5"],
                         ids=["re-from-im", "im-from-re", "subtracted"])
def test_top_sums_match_a_column_loop(direct_part_spectrum, caller):
    # both regimes on each grid: the rows up to a quarter of the lowest top
    # node take the series, the rows above it the quotient block; re-from-im
    # has Im n(inf) = 1e-3, so g_j and g(w) nearly cancel on the upper rows;
    # kk_subtracted's g = K(nu) and h = -K(-nu) at w0 = 0.5
    nu, a, b, lo, hi, _ = _operands(direct_part_spectrum, caller)
    series = nu[lo:hi] <= 0.25 * nu[hi]
    assert 0 < np.count_nonzero(series) < hi - lo
    _check_top_sums(nu, lo, hi, *_split(nu, a, b))


@pytest.mark.parametrize("decades, unit, powers", [
    (0.55, 1.0, []), (3.0, 1.0, [8, 15, 29]), (3.0, 1e15, [8, 15, 29]), (6.0, 1.0, [5, 8, 15, 29]),
], ids=["no series row", "3 decades", "3 decades in rad/s", "6 decades"])
def test_top_sums_from_one_grid_step_above_the_block(decades, unit, powers):
    # the top nodes are the block's next two, so the lowest is one grid step
    # above the highest pole; under 0.6 decade no row takes the series. At
    # 1e15-1e18 the powers nu_j^(p+1) alone would overflow. Each block of
    # series rows spans w/c down to its largest one's square and takes the
    # powers that one needs: over 6 decades, w/c from 3e-6 to 1/4, the rows
    # fill four blocks.
    nu = unit * np.geomspace(1.0, 10.0 ** decades, 300)
    lo, hi = 2, nu.size - 2
    rng = np.random.default_rng(300)
    g, h = rng.uniform(-1.0, 1.0, (2, nu.size))
    assert np.any(nu[lo:hi] <= 0.25 * nu[hi]) == (decades > 0.6)
    top = _top_plan(nu, _estimator_weights(nu), lo, hi)
    assert [p for _, _, p in top.blocks] == powers
    assert np.all(np.isfinite(_check_top_sums(nu, lo, hi, g, h)))


def test_top_sums_in_small_blocks(monkeypatch):
    # a cap of 100 elements splits the 458 series rows into 57 blocks of
    # 100 // powers rows, the lowest one short: from 16 rows of 6 powers
    # near the bottom to 3 rows of 29 at the top; and the 90 rows above,
    # against 50 top nodes, into blocks of 2
    monkeypatch.setattr(kklab.pvquad, "_BLOCK_ELEMENTS", 100)
    nu = np.geomspace(1e-2, 1e2, 600)
    g, h = np.random.default_rng(600).uniform(-1.0, 1.0, (2, nu.size))
    _check_top_sums(nu, 2, 550, g, h)


# --- the subtracted relation, folded onto the half axis --------------------------

@pytest.fixture(scope="module")
def csv_subtracted_grids(tmp_path_factory):
    """CSV Lorentz spectra on 4-decade log grids of 2048, 2896, 4096, 5793
    and 8192 nodes: direct bands of 8, 12, 16, 23 and 32 nodes at
    kk_subtracted's span. At 2896 and 5793 nodes the FFT length is not 2n
    but the next power of two above it."""
    path = tmp_path_factory.mktemp("csv") / "lorentz.csv"
    return [lorentz_on(np.geomspace(1e-2, 1e2, n), path)
            for n in (2048, 2896, 4096, 5793, 8192)]


@pytest.mark.parametrize("caller", [*(f"K {w0}" for w0 in W0S), "D"], ids=[*map(str, W0S), "D"])
def test_subtracted_path_matches_blocked_operator(csv_subtracted_grids, caller):
    # K's operands at each w0, and D's, a = 1 and b = -1, at kk_subtracted's span
    for spec in csv_subtracted_grids:
        _assert_matches_blocked(_operands(spec, caller))


def test_warm_subtracted_plan_gives_the_bits_of_a_cold_one(std_lorentz, fresh_plans):
    # each call builds or finds K's plan, and D's call finds it
    cold = _subtracted(std_lorentz, 0.5)
    warm = _subtracted(std_lorentz, 0.5)
    assert fresh_plans.cache_info()[:2] == (3, 1)  # (hits, misses)
    assert (_bits([cold.spectrum.re, cold.error_estimate])
            == _bits([warm.spectrum.re, warm.error_estimate]))


def test_subtracted_shares_the_bounded_plan_cache(fresh_plans):
    # on these grids kk_subtracted's band is twice the folded transforms',
    # so each grid takes two plans of the one cache
    for n in range(2048, 2048 + _PLAN_CACHE_SIZE):
        spec = lorentz_on(np.geomspace(1e-2, 1e2, n))
        _subtracted(spec, 0.5)
        kklab.kk_re_from_im(spec)
    info = fresh_plans.cache_info()
    assert info.misses == 2 * _PLAN_CACHE_SIZE
    assert info.currsize == info.maxsize == _PLAN_CACHE_SIZE


def test_non_geometric_subtracted_takes_no_plan_slot(fresh_plans):
    for grid in (*_log_grids([127]), FrequencyGrid.linear(0.5, 100.0, 512, GridUnit.NORMALIZED)):
        _subtracted(lorentz_on(grid.values), 0.5)
    info = fresh_plans.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_zero_frequency_row_takes_the_scalar_rule(monkeypatch, fresh_plans):
    # kk_subtracted takes a sampled w = 0 by pv_integrate's rule on the full
    # axis, at the pole 0 of K, and the positive nodes on the FFT path; the
    # blocked operator runs on none of them. The reference runs the
    # positive nodes blocked.
    spec = lorentz_on(ZERO_GRID)
    monkeypatch.setattr(kklab.kk, "pv_folded_at_nodes", lambda *args: _blocked(*args[:5]))
    ref = _subtracted(spec, 0.5)
    monkeypatch.undo()
    nu_full, kern, _ = _full_axis_kernel(spec, 0.5)
    scalar = kklab.pv_integrate(kklab.PoleIntegrand(nu_full, kern, 0.0))
    rows = []

    def recording(q, nu, *offset):
        rows.append(simpson_estimate(q, nu, *offset))
        return rows[-1]

    monkeypatch.setattr(kklab.kk, "simpson_estimate", recording)
    monkeypatch.setattr(kklab.pvquad, "pv_at_nodes", _refuse)
    result = _subtracted(spec, 0.5)
    assert rows == [(scalar.value, scalar.error_estimate)]
    assert fresh_plans.cache_info().currsize == 1
    assert result.spectrum.re[0] == ref.spectrum.re[0]
    assert result.error_estimate[0] == (0.5 / np.pi) * scalar.error_estimate
    # the rows carry (w - w0) / pi times the operator's values
    np.testing.assert_allclose(result.spectrum.re, ref.spectrum.re, rtol=0.0,
                               atol=VALUE_ATOL * spec.grid.values[-1])
    np.testing.assert_allclose(result.error_estimate, ref.error_estimate, rtol=ERROR_RTOL)


# --- the folded rule in 40 digits -----------------------------------------------

@pytest.fixture(scope="module", params=[128, 300, 2048, 4096, 8192])
def csv_lorentz_rows(request, tmp_path_factory):
    """A CSV Lorentz spectrum and the rows checked on it: every row on the
    small grids, 128 nodes being the FFT path's least pole block; on the
    large ones 8 evenly spaced, the block's ends included, and the
    resonance's centre and half-width points (omega_res 1, gamma / 2 =
    0.05)."""
    n = request.param
    spec = lorentz_on(np.geomspace(1e-2, 1e2, n), tmp_path_factory.mktemp("csv") / "l.csv")
    if n <= 300:
        return spec, np.arange(n)
    resonance = np.searchsorted(spec.grid.values, [0.95, 1.0, 1.05])
    return spec, np.unique(np.r_[np.linspace(0, n - 1, 8).astype(int), resonance])


@pytest.mark.parametrize("caller", ["re-from-im", "im-from-re", "K 0", "K 0.5"],
                         ids=["re-from-im", "im-from-re", "subtracted", "subtracted 0.5"])
def test_folded_rows_match_the_rule_in_40_digits(csv_lorentz_rows, caller):
    # the FFT path and the blocked operator against the rule they both
    # round: on the folded transforms the FFT path sat up to 1.0e-13 off it
    # at the resonance and 2.4e-14 elsewhere, the blocked operator 6.1e-15.
    # kk_subtracted's data, g = K(nu) and h = -K(-nu), at w0 = 0 and 0.5:
    # at 8192 nodes and w0 = 0.5 the FFT path sat up to 3.2e-13 off it on
    # these rows, the blocked operator 1.6e-14. Over every row the FFT path
    # sat 5.0e-13 off the blocked operator at kk_subtracted's span and
    # 1.52e-12 at the folded transforms' half of it, 4 values past
    # VALUE_ATOL. That gap is why kk_subtracted keeps the wider span. On
    # every row of the 128- and 300-node grids the FFT path sat up to
    # 2.9e-14 off the rule, the blocked operator 1.1e-14.
    spec, rows = csv_lorentz_rows
    nu_e, a, b, lo, hi, span = _operands(spec, caller)
    assert _geometric_log_ratio(nu_e[lo:hi]) is not None  # the FFT path runs
    g, h = _split(nu_e, a, b)
    want = rule_in_40_digits(nu_e, g, nu_e[lo + rows], h)
    # the blocked operator on each row as a block of one
    for got in (pv_folded_at_nodes(nu_e, a, b, lo, hi, span)[0][rows],
                np.concatenate([pv_at_nodes(nu_e, g, h, k, k + 1)[0] for k in lo + rows])):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=VALUE_ATOL)
