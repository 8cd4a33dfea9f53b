import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calculus import fd_derivative, fd_weights
from fraccauchy import (
    CapabilityError,
    Constant,
    Cosine,
    Exponential,
    GridMismatchError,
    Polynomial,
    Power,
    Sampled,
    ScalarPath,
    Sine,
    TimeGrid,
)


def test_grid_nodes_uniform():
    g = TimeGrid(2.0, 100)
    nodes = g.nodes
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(2.0, abs=0)
    steps = np.diff(nodes)
    assert np.all(steps > 0)
    assert np.max(np.abs(steps - g.h)) < 4 * np.finfo(float).eps * g.t_end


@given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=2, max_value=4000))
def test_grid_node_count(t_end, n):
    g = TimeGrid(t_end, n)
    assert len(g.nodes) == n + 1
    assert g.h == pytest.approx(t_end / n)


def test_grid_nodes_are_built_once_and_read_only():
    g = TimeGrid(2.0, 100)
    nodes = g.nodes
    assert g.nodes is nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[1] = 0.0
    assert np.array_equal(nodes, np.linspace(0.0, 2.0, 101))
    assert TimeGrid(2.0, 100).nodes is not nodes  # one array per grid


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


def test_path_length_checked():
    g = TimeGrid(1.0, 8)
    with pytest.raises(GridMismatchError):
        ScalarPath(g, np.zeros(5))


def test_analytic_derivatives_match_finite_differences():
    profiles = [
        Constant(2.3),
        Polynomial([1.0, -2.0, 0.5, 0.25]),
        Exponential(-0.7),
        Sine(1.3),
        Cosine(0.8),
        Power(2.5),
    ]
    t = np.linspace(0.3, 2.0, 7)
    eps = 1e-5
    for f in profiles:
        df = f.derivative(1)
        fd = (np.asarray(f.eval(t + eps)) - np.asarray(f.eval(t - eps))) / (2 * eps)
        assert np.max(np.abs(np.asarray(df.eval(t)) - fd)) < 1e-7 * (
            1 + np.max(np.abs(fd))
        )


def test_power_is_singular_below_zero_exponent():
    p = Power(-0.5)
    assert p.singular_at_zero
    assert np.isinf(np.asarray(p.eval(0.0)).real)
    with pytest.raises(CapabilityError):
        Power(-1.2)


def test_power_integer_derivative_terminates():
    p = Power(2.0)
    d3 = p.derivative(3)
    t = np.linspace(0.1, 1.0, 5)
    assert np.max(np.abs(np.asarray(d3.eval(t)))) == 0.0


def test_sampled_profile_limits():
    g = TimeGrid(1.0, 64)
    f = Sampled(ScalarPath(g, np.sin(g.nodes)))
    assert f.max_derivatives == 2
    d2 = f.derivative(2)
    with pytest.raises(CapabilityError):
        d2.diff()
    mid = np.asarray(f.eval(0.5))
    assert abs(mid - np.sin(0.5)) < 1e-3


def test_fornberg_weights_classic_stencils():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 1)
    assert w == pytest.approx([-0.5, 0.0, 0.5])
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 2)
    assert w == pytest.approx([1.0, -2.0, 1.0])
    w = fd_weights(np.arange(0.0, 4.0), 1)
    assert w == pytest.approx([-11 / 6, 3.0, -3 / 2, 1 / 3])


@given(st.integers(min_value=1, max_value=3))
def test_fd_derivative_exact_on_polynomials(order):
    # an order-2 scheme reproduces polynomials of degree <= order + 1 exactly
    g = TimeGrid(1.0, 50)
    t = g.nodes
    coeffs = [0.3, -1.2, 0.7, 0.2, -0.05][: order + 2]
    vals = sum(c * t**k for k, c in enumerate(coeffs))
    d = fd_derivative(vals.astype(complex), g.h, order)
    expect = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        if k >= order:
            fall = np.prod(np.arange(k, k - order, -1).astype(float))
            expect += c * fall * t ** (k - order)
    assert np.max(np.abs(d - expect)) < 1e-8
