"""Grid construction and norms.

Frozen values are hand-computed: a single cosine mode cos(2*pi*k*t/l_t) has
squared L2 norm (l_t/2) * prod(l_x) under the rectangle rule (exact for trig
polynomials below Nyquist).
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfheat import (
    Field,
    VectorField,
    generate_coefficients,
    inner,
    lp_norm,
    make_grid,
    time_window_lp_norm,
    zeros,
)
from halfheat.experiments import harmonic_field
from halfheat.grid import _norm


def _cos_time_mode(grid, k):
    t = grid.coordinate_mesh()[0]
    return Field(
        grid, np.broadcast_to(np.cos(2.0 * np.pi * k * t / grid.l_t), grid.shape)
    )


def test_make_grid_broadcasts_scalars():
    g = make_grid(d=2, n_t=16, n_x=8, l_t=2.0, l_x=1.0)
    assert g.n_x == (8, 8)
    assert g.l_x == (1.0, 1.0)
    assert g.shape == (16, 8, 8)
    assert g.sample_count == 16 * 64


def test_make_grid_rejects_bad_axes():
    with pytest.raises(ValueError, match="even"):
        make_grid(d=1, n_t=15, n_x=8, l_t=1.0, l_x=1.0)
    with pytest.raises(ValueError, match="at least 8"):
        make_grid(d=1, n_t=16, n_x=4, l_t=1.0, l_x=1.0)
    with pytest.raises(ValueError, match="d must be"):
        make_grid(d=4, n_t=16, n_x=8, l_t=1.0, l_x=1.0)
    with pytest.raises(ValueError, match="period"):
        make_grid(d=1, n_t=16, n_x=8, l_t=-2.0, l_x=1.0)
    with pytest.raises(ValueError, match="exceeds cap"):
        make_grid(d=3, n_t=1024, n_x=1024, l_t=1.0, l_x=1.0)


@pytest.mark.parametrize(
    "l_t, l_x, key", [(1e308, 2.0, "l_t"), (2.0, 1e76, "l_x[0]"), (2.0, [2.0, 1e300], "l_x[1]")]
)
def test_make_grid_rejects_huge_periods(l_t, l_x, key):
    d = 2 if isinstance(l_x, list) else 1
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be a positive finite period"):
        make_grid(d, 16, 16, l_t, l_x)


def test_generators_stay_finite_at_the_largest_period():
    """At the period cap the unwrapped coordinates, the trigonometric phases
    and the cell measure are finite (RuntimeWarnings fail the suite)."""
    g = make_grid(d=3, n_t=64, n_x=8, l_t=1e75, l_x=1e75)
    assert np.isfinite(g.cell_measure) and g.cell_measure > 0
    a = generate_coefficients(
        kind="checkerboard", delta=0.25, seed=0, grid=g, roughness_scale=0.5
    )
    assert set(np.unique(a.data[0, 0])) == {0.5, 1.5}
    assert np.isfinite(harmonic_field(g, np.random.default_rng(1)).data).all()


@pytest.mark.parametrize(
    "l_t, l_x, key", [(1e-90, 1.0, "l_t"), (1.0, 1e-76, "l_x[0]"), (1.0, [1.0, 5e-324], "l_x[1]")]
)
def test_make_grid_rejects_tiny_periods(l_t, l_x, key):
    d = 2 if isinstance(l_x, list) else 1
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be a positive finite period"):
        make_grid(d, 16, 16, l_t, l_x)


def test_cell_measure_stays_normal_at_the_smallest_period():
    """At the period floor, with the most samples the cap allows, the cell
    measure is a positive normal float, and the unit-L2 scalings that divide
    by it stay finite (make_grid(3, 8, 8, 1e-90, 1e-90) had cell measure 0.0,
    and harmonic_field divided by zero)."""
    worst = make_grid(d=3, n_t=256, n_x=[256, 16, 16], l_t=1e-75, l_x=1e-75)
    assert worst.cell_measure >= sys.float_info.min
    g = make_grid(d=3, n_t=8, n_x=8, l_t=1e-75, l_x=1e-75)
    assert np.isfinite(harmonic_field(g, np.random.default_rng(1)).data).all()


def test_coordinates_wrap_to_symmetric_cell():
    g = make_grid(d=1, n_t=8, n_x=8, l_t=4.0, l_x=2.0)
    t = g.time_coordinates()
    assert t[0] == 0.0
    assert t.min() >= -g.l_t / 2 and t.max() < g.l_t / 2
    # spacing is uniform on the wrapped chart
    assert np.allclose(np.sort(t), -2.0 + 0.5 * np.arange(8))
    x = g.space_coordinates(0)
    assert np.allclose(np.sort(x), -1.0 + 0.25 * np.arange(8))


def test_field_is_immutable_and_validated():
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    f = zeros(g)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros((8, 9)))
    with pytest.raises(ValueError, match="finite"):
        Field(g, np.full(g.shape, np.nan))


def test_field_adopts_and_freezes_the_callers_array():
    """The documented zero-copy adoption: a C-contiguous float64 array becomes
    the field's data and turns read-only; any other array is copied."""
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    adopted = np.zeros(g.shape)
    assert Field(g, adopted).data is adopted
    assert not adopted.flags.writeable
    converted = np.zeros(g.shape, dtype=np.float32)
    Field(g, converted)
    assert converted.flags.writeable


def test_vector_field_needs_matching_grids():
    g = make_grid(d=2, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    other = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=1.0)
    with pytest.raises(ValueError, match="share one grid"):
        VectorField((zeros(g), zeros(other)))
    with pytest.raises(ValueError):
        VectorField((zeros(g),))  # d = 2 wants two components


def test_cosine_l2_norm_frozen():
    # ||cos(2 pi k t / l_t)||_2^2 = l_t/2 * prod(l_x); here 3.0/2 * 2.0 = 3.0
    g = make_grid(d=1, n_t=64, n_x=8, l_t=3.0, l_x=2.0)
    u = _cos_time_mode(g, 5)
    assert lp_norm(u, 2.0) == pytest.approx(np.sqrt(3.0), rel=1e-13)


def test_lp_norm_special_cases():
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    u = Field(g, np.full(g.shape, -2.0))
    assert lp_norm(u, np.inf) == 2.0
    assert lp_norm(u, 1.0) == pytest.approx(2.0)  # constant: |u| * measure
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norm(u, 0.5)


@pytest.mark.parametrize("value", [30.0, 0.3])
def test_lp_norm_at_large_finite_p(value):
    """|u|^700 overflows at 30 and underflows at 0.3, yet the norm of a
    constant is |u| (samples * cell measure)^(1/p), with no RuntimeWarning."""
    g = make_grid(d=1, n_t=8, n_x=8, l_t=2.0, l_x=3.0)
    u = Field(g, np.full(g.shape, value))
    expected = value * (g.n_t * g.n_x[0] * g.cell_measure) ** (1.0 / 700)
    assert lp_norm(u, 700.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf, 700.0])
def test_signed_norms_take_the_magnitude_first(p):
    """grid._lp takes magnitudes; lp_norm and time_window_lp_norm take |u|
    before it, so -u has the norm of u.  At p = 700 the p-th powers of these
    samples overflow, and the peak-scaled fallback runs on negated samples."""
    g = make_grid(d=2, n_t=16, n_x=8, l_t=2.0, l_x=3.0)
    u = Field(g, 30.0 * harmonic_field(g, np.random.default_rng(3)).data)
    neg = Field(g, -u.data)
    assert (neg.data < 0).any() and (neg.data > 0).any()
    if p == 700.0:
        with np.errstate(over="ignore"):
            assert np.sum(np.abs(u.data) ** p) == np.inf
    assert lp_norm(neg, p) == lp_norm(u, p) > 0
    assert time_window_lp_norm(neg, 0.3, p) == time_window_lp_norm(u, 0.3, p) > 0



@pytest.mark.parametrize(
    "make",
    [
        lambda rng: np.zeros(0),
        lambda rng: rng.standard_normal(7),
        lambda rng: rng.standard_normal((64, 64, 64)),
        lambda rng: rng.standard_normal((512, 4096)).T,
    ],
    ids=["empty", "7", "64^3", "transposed-4096x512"],
)
def test_norm_matches_numpy(make):
    """grid._norm, the single-threaded sum behind every full-grid residual
    norm, agrees with np.linalg.norm, strided views included."""
    x = make(np.random.default_rng(5))
    assert _norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-14, abs=0.0)


def test_norm_of_zeros_and_of_overflowing_entries():
    """Zeros give 0.0, and entries of 1e200 give inf as np.linalg.norm does,
    so solve sees that the data leave its norm window.  Entries of 1e-170,
    whose squares underflow, used to give 0.0: the peak's power of two is
    now divided out first, so the norm is exact to scaling by 2^k."""
    assert _norm(np.zeros((4, 8))) == 0.0
    big = np.full((4, 8), 1e200)
    with np.errstate(over="ignore"):
        assert _norm(big) == np.linalg.norm(big) == np.inf
    assert _norm(np.full((4, 8), 1e-170)) == pytest.approx(np.sqrt(32.0) * 1e-170, rel=1e-15)
    assert _norm(np.full(3, 5e-324)) > 0.0
    x = np.random.default_rng(2).standard_normal((64, 64))
    assert _norm(np.ldexp(x, -600)) == np.ldexp(_norm(x), -600)

@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_inner_is_bilinear_and_symmetric(seed, c):
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    rng = np.random.default_rng(seed)
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    w = Field(g, rng.standard_normal(g.shape))
    assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-12)
    lhs = inner(Field(g, c * u.data + w.data), v)
    assert lhs == pytest.approx(c * inner(u, v) + inner(w, v), abs=1e-9)


def test_inner_rejects_mismatched_grids():
    a = zeros(make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0))
    b = zeros(make_grid(d=1, n_t=8, n_x=8, l_t=2.0, l_x=1.0))
    with pytest.raises(ValueError, match="same grid"):
        inner(a, b)


def test_time_window_norm_full_window_matches_global():
    g = make_grid(d=1, n_t=16, n_x=8, l_t=2.0, l_x=1.0)
    rng = np.random.default_rng(3)
    u = Field(g, rng.standard_normal(g.shape))
    assert time_window_lp_norm(u, half_width=g.l_t, p=2.0) == pytest.approx(
        lp_norm(u, 2.0)
    )


def test_time_window_norm_selects_the_window():
    # mass concentrated at t = 0 only: a narrow window must see all of it
    g = make_grid(d=1, n_t=16, n_x=8, l_t=2.0, l_x=1.0)
    data = np.zeros(g.shape)
    data[0, :] = 1.0
    u = Field(g, data)
    narrow = time_window_lp_norm(u, half_width=2.1 * g.dt, p=2.0)
    assert narrow == pytest.approx(lp_norm(u, 2.0), rel=1e-12)
    with pytest.raises(ValueError, match="half_width"):
        time_window_lp_norm(u, half_width=0.0, p=2.0)
