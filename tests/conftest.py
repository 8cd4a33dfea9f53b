import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ml_series():
    """E_{alpha,beta}(z) by the defining series in mpmath, to about 40 digits.

    The working precision is x / 2.3 + 40 digits, x = |z|^(1/alpha), rounded
    up to ten, to absorb the series' cancellation of about e^x; with less the
    reference itself is wrong for large x.  Real z is summed in real
    arithmetic, and z >= 0, where nothing cancels, at 40 digits.  The
    coefficients 1/Gamma(alpha k + beta) are kept for the duration of a test,
    so points of one (alpha, beta) and precision share them.
    """
    mp = pytest.importorskip("mpmath")

    @functools.lru_cache(maxsize=None)
    def coefficient(alpha: float, beta: float, k: int, dps: int):
        return mp.rgamma(mp.mpf(alpha) * k + mp.mpf(beta))  # at the caller's dps

    def series(alpha: float, beta: float, z: complex) -> complex:
        z = complex(z)
        x = abs(z) ** (1.0 / alpha)
        positive = z.imag == 0 and z.real >= 0
        dps = 40 if positive else -(-int(40 + x / 2.3) // 10) * 10
        with mp.workdps(dps):
            w = mp.mpf(z.real) if z.imag == 0 else mp.mpc(z)
            tiny, k_min = mp.mpf(10) ** -40, x / alpha + 10
            total, power, k = 0, 1, 0
            while True:
                term = power * coefficient(alpha, beta, k, dps)
                total += term
                if k > k_min and abs(term) < tiny * (total if positive else 1):
                    return complex(total)
                power *= w
                k += 1

    return series
