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

    The working precision is x / 2.3 + 40 digits, x = |z|^(1/alpha), to
    absorb the series' cancellation of about e^x; with less the reference
    itself is wrong for large x.
    """
    mp = pytest.importorskip("mpmath")

    def series(alpha: float, beta: float, z: complex) -> complex:
        x = abs(z) ** (1.0 / alpha)
        with mp.workdps(int(40 + x / 2.3)):
            w, a, b = mp.mpc(z), mp.mpf(alpha), mp.mpf(beta)
            total, power, k = mp.mpc(0), mp.mpc(1), 0
            while True:
                term = power * mp.rgamma(a * k + b)
                total += term
                if k > x / alpha + 10 and abs(term) < mp.mpf(10) ** -40:
                    return complex(total)
                power *= w
                k += 1

    return series
