"""Time-direction operators: spectral symbols, the quadrature route for the
half derivative, and the truncation cutoffs.

Closed forms used as oracles (period 2*pi, omega a positive integer mode):

    hilbert(cos(omega t))       =  sin(omega t)
    hilbert(sin(omega t))       = -cos(omega t)
    half_derivative(cos(omega t)) = -sqrt(omega) * cos(omega t)
    time_derivative(cos(omega t)) = -omega * sin(omega t)

The half derivative composes to hilbert . time_derivative, and together with
the adjoint identity this pins the sign convention.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfheat import (
    Field,
    cutoff_commutator,
    cutoff_eta,
    half_derivative,
    half_derivative_quadrature,
    hilbert,
    inner,
    lp_norm,
    make_grid,
    time_derivative,
    time_symbol,
)
from halfheat.timeops import TimeSymbol, apply_time_symbol


def _grid(n_t=64, l_t=2.0 * np.pi):
    return make_grid(d=1, n_t=n_t, n_x=8, l_t=l_t, l_x=1.0)


def _time_wave(grid, fn, omega):
    t = grid.coordinate_mesh()[0]
    return Field(grid, np.broadcast_to(fn(omega * t), grid.shape))


def _rand(grid, seed, subspace=False):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape)
    if subspace:
        spec = np.fft.fft(data, axis=0)
        spec[0] = 0.0
        spec[grid.n_t // 2] = 0.0
        data = np.fft.ifft(spec, axis=0).real
    return Field(grid, data)


def test_symbol_tables_zero_the_nyquist_slot():
    g = _grid(n_t=16)
    for kind in ("hilbert", "half_derivative", "time_derivative"):
        table = time_symbol(g, kind).values
        assert table[8] == 0.0
        assert table[0] == 0.0  # all three kill the time mean
    with pytest.raises(ValueError, match="unknown symbol kind"):
        time_symbol(g, "laplace")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hilbert", "half_derivative", "time_derivative"])
def test_half_spectrum_matches_the_complex_path(d, kind):
    """apply_time_symbol runs on the rfft half spectrum; the full complex
    transform, written out here, gives the same field to rounding."""
    g = make_grid(d=d, n_t=32, n_x=[8, 10, 12][:d], l_t=3.0, l_x=1.0)
    u = Field(g, np.random.default_rng(d).standard_normal(g.shape))
    symbol = time_symbol(g, kind)
    table = symbol.values.reshape([g.n_t] + [1] * d)
    slow = np.fft.ifft(np.fft.fft(u.data, axis=0) * table, axis=0).real
    fast = apply_time_symbol(u, symbol).data
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_symbol_tables_are_cached_and_read_only():
    g = _grid(n_t=16)
    table = time_symbol(g, "hilbert")
    assert time_symbol(g, "hilbert") is table
    with pytest.raises(ValueError):
        table.values[1] = 0.0


def test_symbol_table_copies_the_callers_array():
    """TimeSymbol freezes its own copy: the caller's table stays writeable,
    and writing to it leaves the symbol as it was."""
    g = _grid(n_t=16)
    values = time_symbol(g, "time_derivative").values.copy()
    symbol = TimeSymbol(grid=g, kind="custom", values=values)
    assert values.flags.writeable and not symbol.values.flags.writeable
    values[1] = 0.0
    assert np.array_equal(symbol.values, time_symbol(g, "time_derivative").values)


def test_symbol_tables_must_be_hermitian():
    """The half-spectrum kernel reads only k = 0..n_t/2, so a table whose
    negative modes are not the conjugates of the positive ones is refused."""
    g = _grid(n_t=16)
    values = time_symbol(g, "time_derivative").values.copy()
    TimeSymbol(grid=g, kind="custom", values=values.copy())
    values[-1] = 0.0
    with pytest.raises(ValueError, match="Hermitian"):
        TimeSymbol(grid=g, kind="custom", values=values)
    with pytest.raises(ValueError, match="Hermitian"):
        TimeSymbol(grid=g, kind="custom", values=np.full(g.n_t, 1j))


def test_hilbert_on_pure_waves():
    g = _grid()
    for omega in (1, 3, 7):
        cos = _time_wave(g, np.cos, omega)
        sin = _time_wave(g, np.sin, omega)
        assert np.allclose(hilbert(cos).data, sin.data, atol=1e-13)
        assert np.allclose(hilbert(sin).data, -cos.data, atol=1e-13)


def test_half_derivative_on_cosine_frozen():
    # omega = 4 on period 2*pi: D_t^{1/2} cos(4t) = -2 cos(4t)
    g = _grid()
    u = _time_wave(g, np.cos, 4)
    assert np.allclose(half_derivative(u).data, -2.0 * u.data, atol=1e-12)


def test_time_derivative_on_cosine():
    g = _grid()
    u = _time_wave(g, np.cos, 5)
    expected = _time_wave(g, np.sin, 5)
    assert np.allclose(time_derivative(u).data, -5.0 * expected.data, atol=1e-11)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_hilbert_involution_and_isometry_on_subspace(seed):
    """H(H(u)) = -u and ||H u||_2 = ||u||_2 once the mean and Nyquist modes
    are projected out (H annihilates exactly those two slots)."""
    g = _grid(n_t=16)
    u = _rand(g, seed, subspace=True)
    again = hilbert(hilbert(u))
    assert np.allclose(again.data, -u.data, atol=1e-12)
    assert lp_norm(hilbert(u), 2.0) == pytest.approx(lp_norm(u, 2.0), rel=1e-12)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_half_square_is_hilbert_of_time_derivative(seed):
    g = _grid(n_t=32)
    u = _rand(g, seed)
    lhs = half_derivative(half_derivative(u))
    rhs = hilbert(time_derivative(u))
    assert np.allclose(lhs.data, rhs.data, atol=1e-9)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_half_adjoint_identity(seed):
    # integral of H(D^{1/2} u) * D^{1/2} phi equals integral of u * d(phi)/dt
    g = _grid(n_t=32)
    u = _rand(g, seed)
    phi = _rand(g, seed + 1)
    lhs = inner(hilbert(half_derivative(u)), half_derivative(phi))
    rhs = inner(u, time_derivative(phi))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_quadrature_matches_spectral_route():
    """Truncation at 8 periods reproduces the spectral half derivative of a
    smooth wave to 1e-3 relative, and doubling the truncation does not make
    it worse by more than 10 percent."""
    g = _grid(n_t=256)
    t = g.coordinate_mesh()[0]
    u = Field(
        g, np.broadcast_to(np.cos(4.0 * t) + 0.3 * np.sin(2.0 * t), g.shape)
    )
    exact = half_derivative(u)
    scale = lp_norm(exact, 2.0)
    errors = {}
    for periods in (8, 16, 32):
        approx = half_derivative_quadrature(u, truncation_periods=periods)
        errors[periods] = (
            lp_norm(Field(g, approx.data - exact.data), 2.0) / scale
        )
    assert errors[8] <= 1e-3
    assert errors[16] <= 1.1 * errors[8]
    assert errors[32] <= 1.1 * errors[16]


def test_quadrature_rejects_bad_truncation():
    g = _grid(n_t=16)
    u = _rand(g, 0)
    with pytest.raises(ValueError, match="truncation_periods"):
        half_derivative_quadrature(u, truncation_periods=0)


@pytest.mark.parametrize(
    "periods", [True, pytest.param(np.True_, id="np_True"), 1.5, "two"]
)
def test_quadrature_refuses_what_it_would_truncate(periods):
    """truncation_periods is read as grid._integer reads a config integer:
    a bool, a fraction or text is a ValueError, not one period."""
    g = _grid(n_t=16)
    with pytest.raises(ValueError, match="'truncation_periods' must be"):
        half_derivative_quadrature(_rand(g, 0), truncation_periods=periods)


@pytest.mark.parametrize("k", [2.5, True, pytest.param(np.True_, id="np_True"), None])
def test_cutoffs_refuse_what_they_would_truncate(k):
    """k is read as grid._integer reads a config integer: 2.5 was the k = 2
    cutoff through int(k), and True the k = 1 cutoff."""
    g = _grid(n_t=512, l_t=64.0)
    with pytest.raises(ValueError, match="'k' must be"):
        cutoff_eta(g, k)
    with pytest.raises(ValueError, match="'k' must be"):
        cutoff_commutator(_rand(g, 1), k)


def test_integral_floats_read_as_their_integers():
    """2.0 names the k = 2 cutoff and two truncation periods, as 2 does."""
    g = _grid(n_t=512, l_t=64.0)
    assert cutoff_eta(g, 2.0).tobytes() == cutoff_eta(g, 2).tobytes()
    u = _rand(g, 2)
    assert cutoff_commutator(u, 2.0).data.tobytes() == cutoff_commutator(u, 2).data.tobytes()
    slow = half_derivative_quadrature(u, truncation_periods=2).data
    assert half_derivative_quadrature(u, truncation_periods=2.0).data.tobytes() == slow.tobytes()


def test_cutoff_eta_shape():
    g = _grid(n_t=512, l_t=64.0)
    values = cutoff_eta(g, k=3)
    t = g.time_coordinates()
    assert values.shape == (g.n_t,) and not values.flags.writeable
    assert np.all(values[np.abs(t) <= 8.0] == 1.0)
    assert np.all(values[np.abs(t) >= 16.0] == 0.0)
    assert values.min() >= 0.0 and values.max() <= 1.0
    # advertised ramp bound: |eta'| <= 4 * 2^{-k} in the discrete sense
    slope = np.abs(np.diff(values[np.argsort(t)])) / g.dt
    assert slope.max() <= 4.0 * 2.0**-3


def test_cutoff_eta_needs_room():
    g = _grid(n_t=64, l_t=16.0)
    with pytest.raises(ValueError, match="must be <"):
        cutoff_eta(g, k=3)  # 2^{k+1} = 16 does not fit inside l_t/2 = 8


def test_cutoff_commutator_definition():
    g = _grid(n_t=512, l_t=64.0)
    rng = np.random.default_rng(5)
    u = Field(g, rng.standard_normal(g.shape))
    eta = cutoff_eta(g, k=2).reshape(-1, 1)
    direct = half_derivative(Field(g, u.data * eta)).data - eta * (
        half_derivative(u).data
    )
    assert np.allclose(cutoff_commutator(u, k=2).data, direct, atol=1e-12)
