"""Grid construction and norms.

Frozen values are hand-computed: a single cosine mode cos(2*pi*k*t/l_t) has
squared L2 norm (l_t/2) * prod(l_x) under the rectangle rule (exact for trig
polynomials below Nyquist).
"""

import os
import re
import sys
import threading
import time

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
from halfheat.grid import _LAYOUT_BYTES, _c_order, _in_blocks, _norm


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
    "l_t, l_x, key",
    [(True, 2.0, "l_t"), (2.0, np.bool_(False), "l_x"), (2.0, [2.0, -(10**400)], "l_x[1]")],
)
def test_make_grid_rejects_bools_and_integers_past_the_float_range(l_t, l_x, key):
    d = 2 if isinstance(l_x, list) else 1
    with pytest.raises(ValueError, match=re.escape(f"'{key}' must be a number, got ")):
        make_grid(d=d, n_t=16, n_x=8, l_t=l_t, l_x=l_x)

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
    for p in (0.5, np.nan):
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(u, p)


@pytest.mark.parametrize("value", [30.0, 0.3])
def test_lp_norm_at_large_finite_p(value):
    """|u|^p overflows at 30 and underflows at 0.3, yet the norm of a
    constant is |u| (samples * cell measure)^(1/p), with no RuntimeWarning.
    This is why _lp divides by the peak itself: divided by the peak's power
    of two, the samples read 0.9375 and 0.6, and 0.6^2000 and 0.9375^1e9
    underflow to 0, so such a rescale would read these norms as 0.0."""
    g = make_grid(d=1, n_t=8, n_x=8, l_t=2.0, l_x=3.0)
    u = Field(g, np.full(g.shape, value))
    for p in (700.0, 2000.0, 1e9):
        expected = value * (g.n_t * g.n_x[0] * g.cell_measure) ** (1.0 / p)
        assert lp_norm(u, p) == pytest.approx(expected, rel=1e-12)


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
    """Zeros give 0.0.  Entries of 1e-170, whose squares underflow, used to
    give 0.0, and entries of 1e200, whose squares overflow, used to give inf:
    the peak's power of two is now divided out first, so the norm is exact
    to scaling by 2^k.  Only a norm above the largest float reads inf."""
    assert _norm(np.zeros((4, 8))) == 0.0
    assert _norm(np.full((4, 8), 1e200)) == pytest.approx(np.sqrt(32.0) * 1e200, rel=1e-15)
    assert _norm(np.full((4, 8), 1e-170)) == pytest.approx(np.sqrt(32.0) * 1e-170, rel=1e-15)
    assert _norm(np.full(3, 5e-324)) > 0.0
    assert _norm(np.full(4, 1.5e308)) == np.inf
    x = np.random.default_rng(2).standard_normal((64, 64))
    for k in (-600, 600):
        assert _norm(np.ldexp(x, k)) == np.ldexp(_norm(x), k)

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
    for p in (1.5, 2.0, np.inf):
        assert time_window_lp_norm(u, half_width=g.l_t, p=p) == lp_norm(u, p)


def test_time_window_norm_selects_the_window():
    # mass concentrated at t = 0 only: a narrow window must see all of it
    g = make_grid(d=1, n_t=16, n_x=8, l_t=2.0, l_x=1.0)
    data = np.zeros(g.shape)
    data[0, :] = 1.0
    u = Field(g, data)
    narrow = time_window_lp_norm(u, half_width=2.1 * g.dt, p=2.0)
    assert narrow == pytest.approx(lp_norm(u, 2.0), rel=1e-12)
    for half_width in (0.0, np.nan):
        for p in (2.0, np.inf):
            with pytest.raises(ValueError, match="half_width must be positive"):
                time_window_lp_norm(u, half_width=half_width, p=p)


_LAYOUTS = ["f_order_float", "transposed_complex", "x1_sweep_output", "c_float", "c_complex"]


def _layout(name):
    """Arrays above the layout size rule in the layouts the solvers hand on:
    F-order float samples, a transposed complex spectrum (its last axis no
    multiple of the block), the d = 2 x1 sweep's output with strides
    (8, 32768, 512), and C-order float and complex arrays."""
    rng = np.random.default_rng(0)
    c_float = rng.standard_normal((1024, 128))
    c_complex = rng.standard_normal((257, 512)) + 1j * rng.standard_normal((257, 512))
    x1_sweep_output = np.moveaxis(rng.standard_normal((64, 64, 64)), -1, 0)
    assert x1_sweep_output.strides == (8, 32768, 512)
    return {
        "f_order_float": np.asfortranarray(c_float),
        "transposed_complex": c_complex.T,
        "x1_sweep_output": x1_sweep_output,
        "c_float": c_float,
        "c_complex": c_complex,
    }[name]


@pytest.mark.parametrize("name", _LAYOUTS)
def test_layout_copies_are_exact(name):
    """_c_order changes the layout, never a value or an index, and returns x
    itself when it is in C order already."""
    x = _layout(name)
    assert x.nbytes >= _LAYOUT_BYTES
    c_order = _c_order(x)
    assert c_order.shape == x.shape and c_order.dtype == x.dtype
    assert c_order.tobytes() == x.tobytes()
    assert c_order.flags.c_contiguous
    assert (c_order is x) == x.flags.c_contiguous


def test_layout_copies_below_the_size_rule_keep_the_strided_path():
    """Below _LAYOUT_BYTES _c_order is np.ascontiguousarray: per-call copies
    of small arrays cost more than the strided passes they would save."""
    x = np.random.default_rng(1).standard_normal((64, 64))
    assert x.nbytes < _LAYOUT_BYTES
    for y in (x, x.T, x[:, ::2]):
        copy = _c_order(y)
        assert copy.flags.c_contiguous and copy.tobytes() == y.tobytes()
    assert _c_order(x) is x


def _cpus(monkeypatch, count):
    """An affinity mask of count CPUs, whatever the host has: _in_blocks then
    starts up to count - 1 threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_blocks_cover_the_lines_once_in_the_same_blocks_on_any_share(monkeypatch):
    """64 lines of 2^17 bytes (8 MB) run in 16 blocks of four lines, the same
    blocks whether one thread or four run them, each once; below
    _LAYOUT_BYTES the lines are one block on the calling thread."""
    seen = {}

    def record(lo, hi):  # a thread's name, unlike its ident, is not reused
        seen.setdefault(threading.current_thread().name, []).append((lo, hi))

    blocks = {}
    for count in (1, 4):
        _cpus(monkeypatch, count)
        seen.clear()
        _in_blocks(64, 2**17, record)
        assert len(seen) == count
        blocks[count] = sorted(b for share in seen.values() for b in share)
    assert blocks[1] == blocks[4] == [(lo, lo + 4) for lo in range(0, 64, 4)]
    seen.clear()
    _in_blocks(10, 2**10, record)
    assert seen == {threading.current_thread().name: [(0, 10)]}


def test_an_exception_in_a_workers_share_reraises_in_the_caller(monkeypatch):
    """A worker's exception re-raises in the caller with its type and
    message, under the caller's numpy error state, and every thread the call
    started has ended when it returns."""
    _cpus(monkeypatch, 4)
    before = threading.active_count()
    main = threading.get_ident()

    def fail_in_a_worker(lo, hi):
        if lo == 48 and threading.get_ident() != main:
            raise KeyError(f"block {lo}:{hi}")

    with pytest.raises(KeyError, match="block 48:52"):
        _in_blocks(64, 2**17, fail_in_a_worker)
    assert threading.active_count() == before

    def divide(lo, hi):
        np.ones(1) / np.zeros(1)

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
        _in_blocks(64, 2**17, divide)
    with np.errstate(divide="ignore"):
        _in_blocks(64, 2**17, divide)  # no RuntimeWarning from any share
    assert threading.active_count() == before


def test_a_failed_thread_start_ends_the_threads_started_before_it(monkeypatch):
    """When the third of four shares cannot start a thread, the start's error
    propagates only after the one thread already started has ended; the
    caller's own share does not run."""
    _cpus(monkeypatch, 4)
    before = threading.active_count()
    starts, ended = [], []

    class Flaky(threading.Thread):
        def start(self):
            starts.append(self)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    def slow(lo, hi):
        time.sleep(0.01)
        ended.append(lo)

    monkeypatch.setattr(threading, "Thread", Flaky)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _in_blocks(64, 2**17, slow)
    assert threading.active_count() == before and sorted(ended) == [16, 20, 24, 28]

def test_blocks_on_more_threads_than_cores_touch_each_line_once(monkeypatch):
    """Eight shares of a 32 MB pass (eight threads on any host), with the
    interpreter switching threads every 10 us: every line is worked on
    exactly once, each share writing only its own slice."""
    _cpus(monkeypatch, 8)
    hits = np.zeros(64, dtype=int)
    names = set()

    def touch(lo, hi):
        names.add(threading.current_thread().name)
        hits[lo:hi] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            _in_blocks(64, 2**19, touch)
    finally:
        sys.setswitchinterval(interval)
    assert len(names) == 1 + 7 * 20 and np.all(hits == 20)  # the caller and 7 threads a pass
