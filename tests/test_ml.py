"""Mittag-Leffler evaluation against closed forms and a scaled-erfc oracle.

The half-order identity E_{1/2,1}(z) = exp(z^2) erfc(-z) ties every
evaluation regime to scipy's independently implemented Faddeeva function.
High-precision reference values were frozen from a 50-digit arbitrary
precision evaluation of the defining series.
"""

import cmath
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc, rgamma, wofz

from fraccauchy import DomainError, mittag_leffler, ml, ml_array


def half_order_oracle(z: complex) -> complex:
    return wofz(-1j * z)


def test_exponential_identity():
    assert abs(mittag_leffler(1.0, 1.0, 1.0) - np.e) < 1e-10


def test_cosine_identity():
    assert abs(mittag_leffler(2.0, 1.0, -1.0) - np.cos(1.0)) < 1e-10


def test_erfc_identity():
    assert abs(mittag_leffler(0.5, 1.0, -1.0) - np.e * erfc(1.0)) < 1e-8


def test_value_at_zero():
    for beta in (0.4, 1.0, 2.3):
        assert abs(mittag_leffler(0.7, beta, 0.0) - rgamma(beta)) < 1e-15


def test_sine_identity():
    # E_{2,2}(-x^2) = sin(x)/x
    x = 2.0
    assert abs(mittag_leffler(2.0, 2.0, -(x**2)) - np.sin(x) / x) < 1e-12


def test_expm1_identity():
    # E_{1,2}(z) = (e^z - 1)/z, including far into the left half-axis
    for z in (-0.5, -8.0, -30.0, 2.0):
        assert abs(mittag_leffler(1.0, 2.0, z) - np.expm1(z) / z) < 1e-12


def test_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml_array(-0.5, 1.0, np.array([1.0]))


# frozen 50-digit series references (real parts; all imaginary parts zero)
FROZEN_REFERENCES = [
    (0.5, 1.0, -4.0, 0.13699945762506138989),
    (0.8, 1.2, -25.0, 0.018475815484895934751),
    (0.25, 0.8, -2.2, 0.22065306527725585187),
    (0.75, 1.5, -6.0, 0.13467403898001362041),
    (1.5, 1.5, -20.0, 0.0061985012468613419281),
]


@pytest.mark.parametrize("alpha,beta,z,ref", FROZEN_REFERENCES)
def test_frozen_high_precision_values(alpha, beta, z, ref):
    assert abs(mittag_leffler(alpha, beta, z) - ref) < 2e-10


@pytest.mark.parametrize(
    "radius", [0.5, 2.0, 4.0, 4.4, 4.8, 5.2, 8.0, 20.0, 50.0]
)
def test_half_order_oracle_across_regimes(radius):
    # frac = 0.5 is the Stokes ray |arg z| = alpha pi
    for frac in (1.0, 0.85, 0.65, 0.5, 0.35, 0.1, 0.0):
        z = radius * np.exp(1j * np.pi * frac)
        ref = half_order_oracle(z)
        if not np.isfinite(abs(ref)) or abs(ref) > 1e12:
            continue
        got = mittag_leffler(0.5, 1.0, z)
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-2)


@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    beta=st.floats(min_value=0.3, max_value=2.2),
    re=st.floats(min_value=-3.5, max_value=2.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
)
def test_beta_recurrence(alpha, beta, re, im):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
    z = complex(re, im)
    lhs = mittag_leffler(alpha, beta, z)
    rhs = rgamma(beta) + z * mittag_leffler(alpha, alpha + beta, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("x", [1.0, 6.0, 12.0, 25.0, 50.0])
def test_root_splitting_consistency(x):
    # E_{a,b}(z) as the average of the two half-order evaluations
    a, b = 0.8, 1.2
    direct = mittag_leffler(a, b, -x)
    r = complex(-x) ** 0.5
    split = 0.5 * (mittag_leffler(a / 2, b, r) + mittag_leffler(a / 2, b, -r))
    assert abs(direct - split) < 1e-10 * max(1.0, abs(direct))


def test_vectorized_matches_scalar():
    zs = np.array([-0.5, -5.0, -19.5, -30.0, 1.0 + 2.0j, 0.0])
    va = ml_array(0.5, 1.3, zs)
    vs = np.array([mittag_leffler(0.5, 1.3, z) for z in zs])
    assert np.max(np.abs(va - vs)) < 1e-12


def test_non_finite_arguments_give_nan():
    zs = np.array([np.nan, np.inf, complex(np.nan, 1.0), -np.inf])
    assert np.all(np.isnan(ml_array(0.5, 1.0, zs)))


def test_monotone_relaxation_profile():
    # E_alpha(-x) is completely monotone on x >= 0 for alpha in (0, 1]
    x = np.linspace(0.0, 40.0, 200)
    vals = ml_array(0.6, 1.0, -x).real
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 1e-14)


def _sweep_points():
    rng = np.random.default_rng(20261018)
    points = [(1.3, 0.5, -24.9 + 19.2j)]  # once lost to root-averaging cancellation
    for _ in range(375):
        alpha = rng.uniform(0.25, 2.0)
        beta = rng.uniform(0.3, 2.5)
        x = rng.uniform(0.0, min(100.0, 50.0 ** (1.0 / alpha)))
        points.append((alpha, beta, x**alpha * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    return points


def test_accuracy_sweep_against_mpmath(ml_series):
    # documented target: 1e-10, absolute where |E| <= 1 and relative above
    errors = []
    for a, b, z in _sweep_points():
        ref = ml_series(a, b, z)
        errors.append((abs(mittag_leffler(a, b, z) - ref) / max(1.0, abs(ref)), (a, b, z)))
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] < 1e-10, worst


# ---------------------------------------------------------------------------
# kernel rays: many x on one argument, as c_beta_path asks for them

def _ray_reference(ml_series, alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) to about 30 digits with mpmath.

    E = P - sum_k z^(-k) / Gamma(beta - alpha k), where P sums the pole
    terms (1/alpha) s^(1-beta) e^s, s = x e^(i phi), x = |z|^(1/alpha),
    phi = (arg z + 2 pi k) / alpha with |phi| < pi (poles on the branch cut,
    on Stokes rays, add less than e^-x).  The algebraic asymptotic series,
    summed until its terms are negligible or up to k = x / alpha, is then off
    by less than about e^-x, so it serves where that is below e^-35 of
    max(1, |P|); elsewhere the `ml_series` fixture does.
    """
    mp = pytest.importorskip("mpmath")
    x = abs(z) ** (1.0 / alpha)
    phis = [(cmath.phase(z) + 2 * math.pi * k) / alpha for k in range(-2, 3)]
    with mp.workdps(30):
        total = mp.mpc(0)
        for phi in (p for p in phis if abs(p) < math.pi):
            s = x * mp.expj(phi)
            total += s ** (1 - mp.mpf(beta)) * mp.exp(s) / alpha
        size = max(1.0, float(abs(total)))
        if x + math.log(size) < 35:
            return ml_series(alpha, beta, z)
        w, tiny = mp.mpc(z), 1e-30 * max(size, abs(z) ** -1)
        power, last = mp.mpc(1), 0
        for k, c in _asymptotic_coefficients(mp, alpha, beta):
            if k > x / alpha:
                break
            power /= w ** (k - last)
            last = k
            term = c * power
            total -= term
            if abs(term) < tiny:
                break
        return complex(total)


@functools.lru_cache(maxsize=None)
def _asymptotic_coefficients(mp, alpha: float, beta: float):
    """(k, 1/Gamma(beta - alpha k)) for k = 1..100 where that is not zero."""
    with mp.workdps(30):
        pairs = [(k, mp.rgamma(mp.mpf(beta) - mp.mpf(alpha) * k)) for k in range(1, 101)]
    return [(k, c) for k, c in pairs if c != 0]


def _kernel_rays(rho: float):
    """(theta, x) of the decaying, advection, Stokes and growth rays.

    The Stokes ray |theta| = rho pi is taken mod 2 pi; for rho = 1 and 2 it
    is the decaying and the growth ray.  Where a pole term grows, x <= 200.
    """
    stokes = math.remainder(rho * math.pi, 2 * math.pi)
    for theta in dict.fromkeys((math.pi, float(np.angle(-(30.0**2 + 30.0j))), stokes, 0.0)):
        phis = [(theta + 2 * math.pi * k) / rho for k in range(-2, 3)]
        grows = any(abs(p) < math.pi and math.cos(p) > 0 for p in phis)
        yield theta, np.geomspace(4.01, 200.0 if grows else 1e16, 256)


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 2.0])
def test_kernel_rays_against_mpmath(ml_series, rho):
    # one call per ray, as c_beta_path makes it: the points share windows
    worst = []
    for theta, x in _kernel_rays(rho):
        z = x**rho * np.exp(1j * theta)
        got = ml_array(rho, 1.0, z)
        ref = np.array([_ray_reference(ml_series, rho, 1.0, complex(v)) for v in z])
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        worst.append((float(err.max()), theta, float(x[np.argmax(err)])))
    assert max(worst)[0] < 1e-12, worst


def _kernel_path(c: complex, rho: float, n: int) -> np.ndarray:
    """-c t^rho over a graded rule on (0, 1], as a kernel path evaluates it."""
    t = np.linspace(0.0, 1.0, n + 1)[1:] ** 2
    return -c * t**rho


def test_values_do_not_depend_on_the_other_points_of_a_call():
    rho = 0.5
    z = _kernel_path(900.0 + 30.0j, rho, 5000)
    whole = ml_array(rho, 1.0, z)
    thirds = np.concatenate([ml_array(rho, 1.0, part) for part in np.array_split(z, 3)])
    backwards = ml_array(rho, 1.0, z[::-1])[::-1]
    mixed = np.empty(3 * z.size, dtype=complex)
    mixed[0::3] = z
    mixed[1::3] = _kernel_path(4000.0, rho, 5000)
    mixed[2::3] = _kernel_path(-2.0 + 100.0j, rho, 5000)
    woven = ml_array(rho, 1.0, mixed)[0::3]
    for other in (thirds, backwards, woven):
        assert other.tobytes() == whole.tobytes()


def test_ray_memory_is_bounded_by_its_blocks():
    z = _kernel_path(900.0 + 30.0j, 0.5, 65536)
    ml_array(0.5, 1.0, z[:8])  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        ml_array(0.5, 1.0, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_series_values_do_not_depend_on_the_other_points_of_a_call():
    # x <= 4 near the negative axis: each point alone, and all of them with
    # a point at x = 3.99, whose late stop once kept its neighbours summing
    rng = np.random.default_rng(20261018)
    for alpha in (0.5, 0.9, 1.5, 2.0):
        for beta in (0.5, 1.0, 1.5):
            x = rng.uniform(0.0, 4.0, 200)
            z = x**alpha * np.exp(1j * (np.pi - rng.uniform(0.0, 0.3, 200)))
            alone = np.array([ml_array(alpha, beta, z[i : i + 1])[0] for i in range(z.size)])
            far = 3.99**alpha * np.exp(0.99j * np.pi)
            together = ml_array(alpha, beta, np.append(z, far))[:-1]
            assert together.tobytes() == alone.tobytes(), (alpha, beta)


def test_single_point_calls_match_a_whole_kernel_path():
    # series and contour points of one kernel path, each in a call of its own
    z = _kernel_path(900.0 + 30.0j, 0.5, 400)
    whole = ml_array(0.5, 1.0, z)
    alone = np.array([ml_array(0.5, 1.0, z[i : i + 1])[0] for i in range(z.size)])
    scalar = np.array([mittag_leffler(0.5, 1.0, v) for v in z])
    assert alone.tobytes() == whole.tobytes()
    assert scalar.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "alpha,z",
    [(0.25, -1e200), (0.5, -1e300), (0.5, 1e300 * cmath.exp(0.3j * math.pi))],
)
def test_finite_arguments_whose_x_overflows(alpha, z):
    # x = |z|^(1/alpha) overflows; no pole term e^(x s*) with Re s* >= 0
    # lives on these rays, so E is its algebraic asymptotic series
    mp = pytest.importorskip("mpmath")
    for beta in (1.0, 1.7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml_array(alpha, beta, np.array([z]))[0]
        with mp.workdps(30):
            w = mp.mpc(z)
            a, b = mp.mpf(alpha), mp.mpf(beta)
            ref = complex(-mp.fsum(w**-k * mp.rgamma(b - a * k) for k in range(1, 8)))
        assert abs(got - ref) <= 1e-14 * abs(ref), (beta, got, ref)


@pytest.mark.parametrize(
    "alpha, z",
    [(1e-4, -1.0), (2e-4, -1.0), (1e-3, -3.0), (1e-4, 2j), (0.002, -3.0), (0.0099, -1.5)],
)
def test_alpha_below_the_floor_raises(alpha, z):
    # the series stops at its term limit unconverged (E_{1e-4,1}(-1) read
    # 0.24997 against 0.499986) and the contour's algebraic tail is too
    # short (E_{1e-3,1}(-3) read 0.25913 against 0.24989): both paths raise
    with pytest.raises(DomainError, match="below 0.01"):
        ml_array(alpha, 1.0, np.array([z]))


def test_kernel_with_tiny_rho_raises():
    # one atom at 1 under mu = 1.0001 reaches the Mittag-Leffler function
    # at alpha = rho = 1e-4
    from fraccauchy import Atom, OrderMeasure, identity_symbol, kernels

    measure = OrderMeasure(1.0001, (Atom(1.0, 1.0, identity_symbol()),))
    with pytest.raises(DomainError, match="below 0.01"):
        kernels.c_beta_path(measure, 1.0, np.array([0.5, 1.0]), -1.0)


@pytest.mark.parametrize(
    "alpha, beta, z",
    [
        (0.01, 1.0, -1.5),
        (0.01, 1.0, -3.0),
        (0.01, 2.5, -100.0),
        (0.01, -1.0, 2j),
        (0.01, 1.5, 50 * cmath.exp(1j)),
        (0.01, 2.5, 1000 * cmath.exp(2j)),
        (0.2, 2.5, -1e30),
        (0.5, 2.5, -1e100),
    ],
)
def test_at_the_floor_and_at_large_x(ml_series, alpha, beta, z):
    # mu = 1.3 / 4^k of a contour window is tiny where x is huge: the
    # factor mu^(alpha - beta) overflowed there for beta > alpha + 1 and
    # gave nan with a RuntimeWarning; at the floor, x is huge from |z| = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ml_array(alpha, beta, np.array([z]))[0]
    ref = _ray_reference(ml_series, alpha, beta, z)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


@pytest.mark.parametrize("theta", [0.0, 0.2 * math.pi, 0.25 * math.pi])
def test_overflowing_x_on_growth_rays_is_not_finite(theta):
    # |theta| <= alpha pi / 2: the pole term grows or keeps modulus x^(1-beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ml_array(0.5, 1.0, np.array([1e300 * cmath.exp(1j * theta)]))
    assert not np.isfinite(got[0])


# ---------------------------------------------------------------------------
# the asymptotic series: x >= 40, up to its cap of terms


def _boundary_points(alpha: float, beta: float):
    """z on both sides of x = 40 and of the cap's stop radius, on the
    growth, Stokes (|arg z| = alpha pi / 2 and alpha pi, mod 2 pi), decaying
    and two other rays."""
    radius = ml._asymptotic_table(alpha, beta)[1][-1]
    sizes = [np.nextafter(40.0, 0.0) ** alpha] + [x**alpha for x in (40.0, 48.0, 60.0, 80.0)]
    if radius ** (1.0 / alpha) >= 40.0:
        sizes += [radius * (1.0 - 1e-9), radius, radius * (1.0 + 1e-9)]
    stokes = math.remainder(alpha * math.pi, 2 * math.pi)
    rays = (0.0, alpha * math.pi / 2, stokes, math.pi, 2.0, -1.0)
    return [r * cmath.exp(1j * theta) for r in sizes for theta in rays]


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0, 1.5, 1.9, 2.0])
def test_either_side_of_the_asymptotic_boundary(ml_series, alpha):
    # the contour below x = 40 and past the cap, the asymptotic series from
    # x = 40 and the cap's radius on: 1e-12, absolute where |E| <= 1.  Where
    # a pole term lives, E's relative condition number is about x / alpha,
    # which at the cap's radius (x up to 1e5 for alpha = 1/4) admits more.
    # The contour scales its rounding by x^(1 - beta): at beta = -1 it
    # reads 4.2e-12 and 1.5e-12 at x = 60 (alpha = 1/2 and 0.9) below the
    # cap's radius, where the asymptotic series does not take the point
    worst = []
    for beta in (-1.0, 0.5, 1.0, 1.5, 2.5):
        radius = ml._asymptotic_table(alpha, beta)[1][-1]
        z = _boundary_points(alpha, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml_array(alpha, beta, np.array(z))
        for g, v in zip(got, z):
            ref = _ray_reference(ml_series, alpha, beta, v)
            if abs(ref) > 1e300:  # growth rays past the cap overflow
                continue
            x = abs(v) ** (1.0 / alpha)
            contour = x < 40.0 or abs(v) < radius
            tol = 1e-11 if beta < 0 and contour else max(1e-12, 1e-15 * x / alpha)
            worst.append((abs(g - ref) / max(1.0, abs(ref)) / tol, beta, v))
    assert max(worst)[0] < 1.0, max(worst)


def test_large_arguments_do_not_reach_the_contour(monkeypatch):
    # every point at x >= 40 whose series stops within the cap takes the
    # asymptotic series; a point at x >= 40 below the cap's radius, and one
    # at 4 < x < 40, take the contour
    sizes = []
    contour = ml._contour
    monkeypatch.setattr(ml, "_contour", lambda *args: sizes.append(args[2].size) or contour(*args))
    z = 1e3 * np.exp(1j * np.linspace(-np.pi, np.pi, 2000))  # x = 1e6, each its own argument
    ml_array(0.5, 1.0, z)
    assert sizes == []
    radius = ml._asymptotic_table(0.5, 1.0)[1][-1]
    assert (0.99 * radius) ** 2 > 40.0
    ml_array(0.5, 1.0, np.append(z, [0.99 * radius * np.exp(2j), 5.0 * np.exp(2j)]))
    assert sizes == [2]


# ---------------------------------------------------------------------------
# the series table: term counts, poles of Gamma, and the series cut


@pytest.mark.parametrize("beta, power", [(0.0, 1), (-1.0, 2), (-2.0, 3)])
def test_beta_at_poles_of_gamma(beta, power):
    # E_{1,1-p}(z) = z^p e^z: the first p coefficients 1/Gamma(k + 1 - p)
    # vanish, and a zero coefficient must not stop the series
    series = [0.5, -0.5, 0.3j, 2.5, -3.9 + 0.5j, 3.99]
    contour = [-4.01, -6.0, -20.0, 5.0 + 2.0j, 9.0, -30.0j]
    zs = np.array(series + (contour if power < 3 else []))
    got = ml_array(1.0, beta, zs)
    exact = zs**power * np.exp(zs)
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) < 1e-12


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
def test_either_side_of_the_series_cut(ml_series, alpha):
    # x = |z|^(1/alpha) just below and just above 4, where the paths meet
    worst = []
    for x in (4.0 - 1e-9, np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 8.0), 4.0 + 1e-9):
        for theta in (0.0, 0.5, 2.0, np.pi):
            z = x**alpha * cmath.exp(1j * theta)
            for beta in (0.5, 1.0, 1.7):
                ref = ml_series(alpha, beta, z)
                got = mittag_leffler(alpha, beta, z)
                worst.append((abs(got - ref) / max(1.0, abs(ref)), x, theta, beta))
    assert max(worst)[0] < 1e-12, max(worst)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 2.0), (1.5, 0.7), (2.0, 3.0)])
def test_calls_of_any_length_give_the_same_bits(alpha, beta):
    # series points of every term count, and contour points, in calls of
    # 1, 2, 3 and 17 points
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(0.0, 4.0, 13), rng.uniform(4.0, 40.0, 4)])
    z = x**alpha * np.exp(1j * rng.uniform(-np.pi, np.pi, x.size))
    z[:3] = z[:3].real  # real arguments too
    whole = ml_array(alpha, beta, z)
    for length in (1, 2, 3):
        for start in range(z.size - length + 1):
            part = ml_array(alpha, beta, z[start : start + length])
            assert part.tobytes() == whole[start : start + length].tobytes(), (length, start)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.5, 0.5), (0.9, 1.3), (1.5, 0.7)])
def test_long_calls_agree_with_one_point_calls(alpha, beta):
    # 1024 contour points, each with an argument of its own: numpy's vector
    # loops may round a long call's points differently from one-point calls
    # (which loops do depends on the CPU), so the values agree to rounding,
    # not bitwise; one call repeated gives the same bits
    rng = np.random.default_rng(5)
    x = np.geomspace(4.5, 200.0, 1024)
    z = x**alpha * np.exp(1j * rng.uniform(-np.pi, np.pi, x.size))
    whole = ml_array(alpha, beta, z)
    assert ml_array(alpha, beta, z).tobytes() == whole.tobytes()
    single = np.array([ml_array(alpha, beta, z[i : i + 1])[0] for i in range(z.size)])
    scale = np.maximum(1.0, np.abs(single))
    assert np.max(np.abs(whole - single) / scale) < 1e-14
