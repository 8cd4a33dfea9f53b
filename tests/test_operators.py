import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calculus import (
    ContourError,
    LocalityError,
    apply_operator,
    apply_symbol_contour,
    apply_symbol_spectral,
    apply_symbol_taylor,
)
from fraccauchy import (
    CapabilityError,
    DomainError,
    ExponentialSymbol,
    FourierMultiplier,
    MatrixOperator,
    PolynomialSymbol,
    PowerSymbol,
    PreconditionError,
    RationalSymbol,
    identity_symbol,
)


def random_diagonalizable(rng, d, spread=1.0, center=0.5):
    lam = center + spread * (rng.uniform(-0.4, 0.4, d) + 1j * rng.uniform(-0.3, 0.3, d))
    lam += np.arange(d) * 0.17 * spread  # keep eigenvalues separated
    p = rng.normal(size=(d, d)) + 0.2j * rng.normal(size=(d, d)) + np.eye(d)
    return MatrixOperator.from_eigensystem(lam, p), lam


def test_apply_identity():
    op = MatrixOperator(np.eye(3))
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(apply_operator(op, v), v)


def test_apply_diag():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    assert np.allclose(apply_operator(op, [1.0, 1.0]), [1.0, 2.0])


def test_apply_dimension_mismatch():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    with pytest.raises(DomainError):
        apply_operator(op, np.ones(3))


def test_batched_transforms_match_row_by_row(rng):
    mat, _ = random_diagonalizable(rng, 4)
    fourier = FourierMultiplier.from_callable(lambda xi: xi**2, 8, 2 * np.pi)
    for op in (mat, fourier):
        d = op.dimension
        states = rng.normal(size=(17, d)) + 1j * rng.normal(size=(17, d))
        for transform in (op.to_spectral, op.from_spectral):
            rows = np.stack([transform(row) for row in states])
            assert np.array_equal(transform(states), rows)


def test_transforms_reject_wrong_last_dimension():
    for op in (MatrixOperator(np.diag([1.0, 2.0])), FourierMultiplier(4, 1.0, np.ones(4))):
        for transform in (op.to_spectral, op.from_spectral):
            with pytest.raises(DomainError):
                transform(np.ones((5, op.dimension + 1)))
            with pytest.raises(DomainError):
                transform(np.ones(op.dimension + 1))


def test_spectral_square():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    out = apply_symbol_spectral(PolynomialSymbol([0, 0, 1]), op, [1.0, 1.0])
    assert np.allclose(out, [1.0, 4.0])


def test_spectral_exponential_at_zero():
    op = MatrixOperator(np.zeros((1, 1)))
    out = apply_symbol_spectral(ExponentialSymbol(1.0), op, [3.0])
    assert np.allclose(out, [3.0])


def test_spectral_resolvent_matches_linear_solve(rng):
    op, _ = random_diagonalizable(rng, 2, spread=0.5, center=2.0)
    v = rng.normal(size=2)
    f = RationalSymbol([1.0], [1.0, 1.0])
    got = apply_symbol_spectral(f, op, v)
    expect = np.linalg.solve(np.eye(2) + op.matrix, v)
    assert np.max(np.abs(got - expect)) < 1e-10


def test_spectral_rejects_eigenvalue_on_pole():
    op = MatrixOperator(np.diag([-1.0, 2.0]))
    f = RationalSymbol([1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="-1"):
        apply_symbol_spectral(f, op, np.ones(2))


def test_taylor_eigenvector_reduces_to_value(rng):
    op, lam = random_diagonalizable(rng, 4)
    _, p, _ = op.eigensystem()
    u = p[:, 2]
    f = ExponentialSymbol(1.0)
    got = apply_symbol_taylor(f, op, u, lam[2], 8)
    assert np.max(np.abs(got - np.exp(lam[2]) * u)) < 1e-10 * np.exp(abs(lam[2]))


def test_taylor_nilpotent_square():
    op = MatrixOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = apply_symbol_taylor(PolynomialSymbol([0, 0, 1]), op, np.array([0.0, 1.0]), 0.0, 4)
    assert np.max(np.abs(out)) == 0.0


def test_taylor_matches_spectral_on_eigenvector(rng):
    op, lam = random_diagonalizable(rng, 4)
    _, p, _ = op.eigensystem()
    u = p[:, 1]
    t_route = apply_symbol_taylor(ExponentialSymbol(1.0), op, u, lam[1], 10)
    s_route = apply_symbol_spectral(ExponentialSymbol(1.0), op, u)
    assert np.max(np.abs(t_route - s_route)) < 1e-10


def test_taylor_detects_nonlocal_vector(rng):
    op = MatrixOperator(np.diag([0.2, 5.0]))
    with pytest.raises(LocalityError):
        apply_symbol_taylor(ExponentialSymbol(1.0), op, np.array([1.0, 1.0]), 0.2, 40)


def test_taylor_requires_enough_terms():
    op = MatrixOperator(np.diag([0.2, 0.4]))
    with pytest.raises(PreconditionError):
        apply_symbol_taylor(ExponentialSymbol(1.0), op, np.ones(2), 0.2, 1)


def test_contour_identity_symbol(rng):
    op, _ = random_diagonalizable(rng, 3, spread=0.4, center=0.3)
    v = rng.normal(size=3)
    out = apply_symbol_contour(PolynomialSymbol((1.0,)), op, v, 0.3, 2.0, 32)
    assert np.max(np.abs(out - v)) < 1e-10


def test_contour_equals_apply_operator():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    out = apply_symbol_contour(identity_symbol(), op, np.array([1.0, 1.0]), 0.0, 3.0, 128)
    assert np.max(np.abs(out - np.array([1.0, 2.0]))) < 1e-12


def test_contour_matches_spectral(rng):
    op, _ = random_diagonalizable(rng, 3, spread=0.5, center=0.0)
    v = rng.normal(size=3)
    c_route = apply_symbol_contour(ExponentialSymbol(1.0), op, v, 0.0, 2.0, 64)
    s_route = apply_symbol_spectral(ExponentialSymbol(1.0), op, v)
    assert np.max(np.abs(c_route - s_route)) < 1e-8


def test_contour_requires_enclosure():
    op = MatrixOperator(np.diag([0.5, 5.0]))
    with pytest.raises(ContourError):
        apply_symbol_contour(ExponentialSymbol(1.0), op, np.ones(2), 0.0, 2.0, 32)


def test_contour_rejects_near_contour_eigenvalue():
    op = MatrixOperator(np.diag([0.5, 2.0 + 1e-9]))
    with pytest.raises(ContourError):
        apply_symbol_contour(ExponentialSymbol(1.0), op, np.ones(2), 0.0, 2.0, 32)


def test_jordan_block_needs_taylor_route():
    op = MatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(CapabilityError):
        apply_symbol_spectral(ExponentialSymbol(1.0), op, np.ones(2))
    # the local series still works on the root lineal
    out = apply_symbol_taylor(PolynomialSymbol([0, 1]), op, np.array([0.0, 1.0]), 1.0, 4)
    assert np.allclose(out, op.matrix @ np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Fourier multiplier


def test_multiplier_eigenfunction():
    op = FourierMultiplier.from_callable(lambda xi: xi**2, 64, 2 * np.pi)
    x = op.grid_points
    out = apply_operator(op, np.cos(x))
    assert np.max(np.abs(out - np.cos(x))) < 1e-12


def test_multiplier_symbol_application_is_modewise():
    op = FourierMultiplier.from_callable(lambda xi: xi, 32, 2 * np.pi)
    rng = np.random.default_rng(5)
    v = rng.normal(size=32)
    f = PolynomialSymbol([0.5, 0.0, 1.0])
    out = apply_symbol_spectral(f, op, v)
    vhat = np.fft.fft(v)
    expect_hat = (0.5 + op.symbol_values**2) * vhat
    assert np.max(np.abs(np.fft.fft(out) - expect_hat)) < 1e-9


def test_multiplier_commutes_with_transform():
    op = FourierMultiplier.from_callable(lambda xi: 1.0 + xi**2, 16, 2 * np.pi)
    rng = np.random.default_rng(6)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    f = RationalSymbol([1.0], [1.0, 1.0])
    left = np.fft.fft(apply_symbol_spectral(f, op, v))
    right = np.asarray(f.eval(op.symbol_values)) * np.fft.fft(v)
    assert np.max(np.abs(left - right)) < 1e-10


@given(coeffs=st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=4))
def test_polynomial_symbol_equals_horner_in_operator(coeffs):
    op, _ = random_diagonalizable(np.random.default_rng(11), 3)
    v = np.random.default_rng(12).normal(size=3)
    f = PolynomialSymbol(coeffs)
    got = apply_symbol_spectral(f, op, v)
    acc = np.zeros(3, dtype=complex)
    for c in reversed(coeffs):
        acc = apply_operator(op, acc) + c * v
    assert np.max(np.abs(got - acc)) < 1e-10 * (1 + np.max(np.abs(acc)))


def test_power_symbol_route_agreement(rng):
    # principal-branch square root: spectrum and contour stay off the cut
    lam = 1.5 + 0.4 * rng.uniform(-1, 1, 4) + 0.3j * rng.uniform(-1, 1, 4)
    p = rng.normal(size=(4, 4)) + np.eye(4)
    op = MatrixOperator.from_eigensystem(lam, p)
    f = PowerSymbol(0.5)
    v = rng.normal(size=4)
    s_route = apply_symbol_spectral(f, op, v)
    c_route = apply_symbol_contour(f, op, v, center=1.5, radius=1.0, n_nodes=128)
    assert np.max(np.abs(c_route - s_route)) < 1e-8 * np.max(np.abs(s_route))
    u = p[:, 2]
    t_route = apply_symbol_taylor(f, op, u, lam[2], 14)
    s_u = apply_symbol_spectral(f, op, u)
    assert np.max(np.abs(t_route - s_u)) < 1e-8 * np.max(np.abs(s_u))


def test_homomorphism_of_products(rng):
    op, _ = random_diagonalizable(rng, 4)
    v = rng.normal(size=4)
    f = PolynomialSymbol([1.0, 2.0])
    g = PolynomialSymbol([0.0, 0.0, 1.0])
    fg = PolynomialSymbol(np.convolve([1.0, 2.0], [0.0, 0.0, 1.0]))
    direct = apply_symbol_spectral(fg, op, v)
    composed = apply_symbol_spectral(f, op, apply_symbol_spectral(g, op, v))
    assert np.max(np.abs(direct - composed)) < 1e-10 * (1 + np.max(np.abs(composed)))
