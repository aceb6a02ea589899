"""Experiment harness: configuration, determinism, and scaled-down runs of
every registered experiment.

Full-size runs with the documented thresholds live in test_acceptance; here
each runner gets a small grid chosen so a pass is still meaningful (the
identities are exact at any size, the oscillation thresholds hold with margin
at quarter scale, and so on).
"""

import dataclasses
import json
import weakref

import numpy as np
import pytest

from halfheat import (
    ExperimentConfig,
    lp_norm,
    make_grid,
    run_assumption_report,
    run_identity_suite,
    run_l2_trials,
    run_lp_sweep,
    run_oscillation_experiments,
    run_tail_decay,
    write_outputs,
)
from halfheat import experiments
from halfheat.experiments import (
    EXPERIMENTS,
    _localized_bundle,
    _seam_bump,
    _time_noise,
    config_hash,
    harmonic_field,
    random_band_limited_field,
)


def _config(kind, **overrides):
    mapping = {"experiment": kind}
    mapping.update(overrides)
    return ExperimentConfig.from_mapping(mapping)


def test_config_validation():
    g = make_grid(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    with pytest.raises(ValueError, match="trial count"):
        ExperimentConfig(kind="l2", grid=g, trials=0)
    with pytest.raises(ValueError, match=r"open interval \(1, inf\)"):
        ExperimentConfig(kind="l2", grid=g, p_list=(1.0,))
    with pytest.raises(ValueError, match="open interval"):
        ExperimentConfig(kind="l2", grid=g, p_list=(float("inf"),))
    with pytest.raises(ValueError, match="lambda list"):
        ExperimentConfig(kind="l2", grid=g, lambdas=())
    with pytest.raises(ValueError, match="finite and >= 0"):
        ExperimentConfig(kind="l2", grid=g, lambdas=(-1.0,))


def test_config_from_mapping_defaults():
    config = ExperimentConfig.from_mapping({"experiment": "lp-sweep"})
    assert config.kind == "lp_sweep"  # dashes normalize to underscores
    assert config.grid.n_t == 64  # the documented default grid
    assert config.lambdas == (1.0,)
    assert config.trials == 20
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig.from_mapping({"experiment": "percolation"})
    with pytest.raises(ValueError, match="needs an 'experiment' kind"):
        ExperimentConfig.from_mapping({})


def test_config_hash_tracks_content():
    a = _config("identities", seed=1, trials=2)
    b = _config("identities", seed=1, trials=2)
    c = _config("identities", seed=2, trials=2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


def test_band_limited_field_is_normalized():
    g = make_grid(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0)
    u = random_band_limited_field(g, np.random.default_rng(0))
    assert lp_norm(u, 2.0) == pytest.approx(1.0, rel=1e-12)
    v = random_band_limited_field(g, np.random.default_rng(1), subspace=True)
    spec = np.fft.fft(v.data, axis=0)
    assert np.max(np.abs(spec[0])) < 1e-10
    assert np.max(np.abs(spec[g.n_t // 2])) < 1e-10


def test_harmonic_field_survives_refinement():
    """The harmonic generator draws physical modes, so the same seed on a
    doubled grid reproduces the coarse samples at the shared points."""
    base = make_grid(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    fine = make_grid(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0)
    coarse = harmonic_field(base, np.random.default_rng(42))
    refined = harmonic_field(fine, np.random.default_rng(42))
    assert np.allclose(refined.data[::2, ::2], coarse.data, atol=1e-12)
    assert lp_norm(coarse, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_registry_is_complete():
    assert set(EXPERIMENTS) == {
        "identities",
        "l2",
        "lp_sweep",
        "tail_decay",
        "oscillation",
        "assumptions",
    }


def test_identity_suite_small():
    config = _config(
        "identities",
        grid=dict(d=1, n_t=64, n_x=16, l_t=2.0, l_x=2.0),
        trials=3,
        seed=11,
    )
    result = run_identity_suite(config)
    assert result.passed, result.failures
    names = {row["identity"] for row in result.rows}
    assert "hilbert_involution" in names
    assert "coercivity" in names
    assert "duality_skewness" in names
    assert len(result.rows) == 3 * len(names)
    assert all(row["deviation"] <= row["tolerance"] for row in result.rows)


def test_identity_suite_is_deterministic():
    config = _config(
        "identities",
        grid=dict(d=1, n_t=32, n_x=16, l_t=2.0, l_x=2.0),
        trials=2,
        seed=5,
    )
    first = run_identity_suite(config)
    second = run_identity_suite(config)
    assert first.rows == second.rows
    assert first.config_hash == second.config_hash


def test_l2_trials_small():
    config = _config(
        "l2",
        grid=dict(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0),
        trials=5,
        seed=2,
    )
    result = run_l2_trials(config)
    assert result.passed, result.failures
    assert result.summary["mode_check"]["passed"]
    assert result.summary["max_ratio"] <= np.sqrt(2.0) + 1e-8  # identity-form bound
    for row in result.rows:
        assert row["ratio"] <= row["bound"] + 1e-8


def test_l2_trials_reject_lambda_zero():
    config = _config("l2", lambdas=[0.0], trials=1)
    with pytest.raises(ValueError, match="lambda > 0"):
        run_l2_trials(config)


def test_lp_sweep_small():
    config = _config(
        "lp-sweep",
        grid=dict(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0),
        coefficients={"kinds": ["time_piecewise"], "delta": 0.25},
        lambdas=[1.0, 4.0],
        p_list=[1.5],
        trials=1,
        seed=3,
    )
    result = run_lp_sweep(config)
    assert result.passed, result.failures
    assert result.summary["stability_factor"] <= 1.5
    assert result.summary["duality_skewness"] <= 1e-12
    # base and doubled grids, 2 lambdas, p in {1.5, 2.0}
    assert len(result.rows) == 2 * 2 * 2
    assert {row["p"] for row in result.rows} == {1.5, 2.0}


def test_checkerboard_sweep_draws_at_the_delta_of_its_epsilon():
    """With no delta a checkerboard sweep draws at delta = 0.25, the value its
    default epsilon = (1 - delta) / 2 = 0.375 assumes (at delta = 1 that
    epsilon is not admissible)."""
    grid = dict(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    implicit = _config("lp-sweep", grid=grid, coefficients={"kinds": ["checkerboard"]}, trials=1)
    result = run_lp_sweep(implicit)
    assert result.passed, result.failures
    explicit = dataclasses.replace(
        implicit, coefficients={"kinds": ["checkerboard"], "delta": 0.25, "epsilon": 0.375}
    )
    assert run_lp_sweep(explicit).rows == result.rows


def test_sweep_bundles_share_one_right_hand_side(monkeypatch):
    """A sweep cell draws (h, g, f) once and builds its right-hand side once:
    every per-lambda bundle carries the same read-only samples, and each is
    bit-equal to a bundle drawn afresh at its lambda."""
    seen = []
    compute_bundles = experiments.compute_bundles

    def record(u, data, p_list):
        seen.append(data)
        return compute_bundles(u, data, p_list)

    monkeypatch.setattr(experiments, "compute_bundles", record)
    config = _config(
        "lp-sweep",
        grid=dict(d=2, n_t=16, n_x=16, l_t=2.0, l_x=2.0),
        coefficients={"kinds": ["x1_piecewise"], "delta": 0.25},
        lambdas=[1.0, 4.0, 16.0],
        trials=1,
        seed=2,
    )
    experiments._sweep_cell(config, config.grid, "base", "x1_piecewise", 0, 0)
    assert [data.lam for data in seen] == list(config.lambdas)
    shared = seen[0]._rhs_samples
    assert not shared.flags.writeable
    for data in seen:
        assert data._rhs_samples is shared
        fresh = experiments.harmonic_bundle(
            config.grid, experiments._rng(config.seed, 0, 0, 4), data.lam
        )
        for mine, theirs in zip(
            (data.h, *data.g.components, data.f), (fresh.h, *fresh.g.components, fresh.f)
        ):
            assert mine.data.tobytes() == theirs.data.tobytes()
        assert fresh._rhs_samples.tobytes() == shared.tobytes()


def test_lp_sweep_rejects_unknown_kind():
    config = _config(
        "lp-sweep",
        grid=dict(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0),
        coefficients={"kinds": ["constant"]},
        trials=1,
    )
    with pytest.raises(ValueError, match="sweep kinds"):
        run_lp_sweep(config)


def test_tail_decay_small():
    config = _config(
        "tail-decay",
        grid=dict(d=1, n_t=1024, n_x=8, l_t=128.0, l_x=1.0),
        coefficients={"k_max": 4},
        seed=0,
    )
    result = run_tail_decay(config)
    assert result.passed, result.failures
    slope = result.summary["fitted_slope"]["2.0"]
    assert slope <= -0.4
    assert result.summary["measured_constant"]["2.0"] > 0
    assert {row["k"] for row in result.rows} == {2, 3, 4}


def test_tail_decay_needs_a_long_axis():
    config = _config(
        "tail-decay", grid=dict(d=1, n_t=512, n_x=8, l_t=64.0, l_x=1.0)
    )
    with pytest.raises(ValueError, match="grid too short"):
        run_tail_decay(config)


def test_oscillation_quarter_scale():
    config = _config(
        "oscillation",
        grid=dict(d=1, n_t=1024, n_x=128, l_t=4.0, l_x=4.0),
        coefficients={"delta": 0.5},
        seed=0,
    )
    result = run_oscillation_experiments(config)
    assert result.passed, result.failures
    decays = result.summary["fitted_decay"]
    assert decays["calU_time_coeffs"] <= -0.9
    assert decays["U_heat"] <= -0.9
    assert decays["calUprime_theta_x1"] <= -0.45
    local = result.summary["local_estimate"]
    assert local["refinement_deviation"] <= 0.2
    assert local["rescaling_deviation"] <= 0.05
    assert local["trivial_flagged"]
    # each case's solve
    solves = result.summary["solves"]
    assert list(solves) == list(decays)
    # the residual history and matvec count stay out of summary.json
    assert all(set(s) == {"final_relative_residual", "iterations", "method"} for s in solves.values())
    assert all(s["final_relative_residual"] <= 1e-9 for s in solves.values())
    assert solves["calU_time_coeffs"]["iterations"] > 0
    assert solves["U_heat"]["iterations"] == solves["calUprime_theta_x1"]["iterations"] == 0
    assert {case: s["method"] for case, s in solves.items()} == {
        "calU_time_coeffs": "t_frame_gmres",
        "U_heat": "oracle",
        "calUprime_theta_x1": "x1_direct",
    }


def test_oscillation_fails_on_an_unconverged_solve(monkeypatch):
    """Criterion 8 must not accept a solve that did not converge, even when
    its residual is small enough for the verifier."""
    import halfheat.experiments as experiments

    real_solve = experiments.solve

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real_solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(experiments, "solve", unconverged)
    config = _config(
        "oscillation",
        grid=dict(d=1, n_t=1024, n_x=128, l_t=4.0, l_x=4.0),
        coefficients={"delta": 0.5},
        seed=0,
    )
    result = run_oscillation_experiments(config)
    assert not result.passed
    # every case solves through solve (the heat case by its oracle), and
    # every unconverged solve is flagged
    flagged = [f.split(":")[0] for f in result.failures if "did not converge" in f]
    assert flagged == ["case calU_time_coeffs", "case U_heat", "case calUprime_theta_x1"]


def test_assumption_report_small():
    config = _config(
        "assumptions",
        grid=dict(d=1, n_t=64, n_x=64, l_t=2.0, l_x=2.0),
        coefficients={"delta": 0.25},
        seed=0,
    )
    result = run_assumption_report(config)
    assert result.passed, result.failures
    gammas = result.summary["gamma"]
    assert gammas["time_piecewise"]["time"] <= 1e-12
    assert gammas["x1_piecewise"]["x1"] <= 1e-12
    eps = result.summary["epsilon"]
    assert eps / 4.0 <= gammas["checkerboard"]["time"] <= 2.0 * eps
    # rough kinds do register oscillation where the structure does not match
    assert gammas["x1_piecewise"]["time"] > 1e-6
    assert gammas["checkerboard"]["x1"] > 1e-6


def test_write_outputs_formats_and_determinism(tmp_path):
    config = _config(
        "identities",
        grid=dict(d=1, n_t=32, n_x=16, l_t=2.0, l_x=2.0),
        trials=2,
        seed=7,
    )
    result = run_identity_suite(config)
    csv_a, summary_a = write_outputs(result, tmp_path / "a")
    csv_b, summary_b = write_outputs(run_identity_suite(config), tmp_path / "b")
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert summary_a.read_bytes() == summary_b.read_bytes()

    text = csv_a.read_text()
    header, first = text.splitlines()[:2]
    assert header == "trial,seed,identity,deviation,tolerance,passed"
    assert first.endswith(",true") or first.endswith(",false")
    payload = json.loads(summary_a.read_text())
    assert payload["passed"] is True
    assert payload["config_hash"] == result.config_hash
    # reruns must be byte-identical, so wall times stay out of these files
    assert "wall" not in text
    assert "wall" not in summary_a.read_text()


def test_csv_cells_use_full_precision_repr(tmp_path):
    from halfheat.experiments import ExperimentResult

    result = ExperimentResult(
        name="demo",
        config_hash="0" * 12,
        seed=0,
        passed=True,
        failures=[],
        columns=("a", "b", "c", "d"),
        rows=[{"a": 0.1 + 0.2, "b": None, "c": True, "d": "text"}],
        summary={},
    )
    csv_path, _ = write_outputs(result, tmp_path)
    assert csv_path.read_text().splitlines()[1] == "0.30000000000000004,,true,text"


def test_summary_writes_numpy_scalars_and_tuples_as_json(tmp_path):
    from halfheat.experiments import ExperimentResult

    summary = {"count": np.int64(3), "flag": np.bool_(True), "pair": (0.5, np.float32(0.25))}
    result = ExperimentResult(
        name="demo",
        config_hash="0" * 12,
        seed=0,
        passed=True,
        failures=[],
        columns=("a",),
        rows=[],
        summary=summary,
    )
    _, summary_path = write_outputs(result, tmp_path)
    text = summary_path.read_text()
    assert '"count": 3,' in text and '"flag": true,' in text
    assert json.loads(text)["summary"] == {"count": 3, "flag": True, "pair": [0.5, 0.25]}


def _full_grid_time_noise(grid, rng):
    """The full-grid loop that _time_noise's time column replaced."""
    t = grid.coordinate_mesh()[0]
    total = np.zeros(grid.shape)
    for _ in range(12):
        k = int(rng.integers(1, 33))
        amp = float(rng.standard_normal())
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        total = total + amp * np.cos(2.0 * np.pi * k * t / grid.l_t + phase)
    return total


@pytest.mark.parametrize("n_x", [(24,), (16, 10)], ids=["d1", "d2"])
def test_time_noise_column_matches_the_full_grid_loop(n_x):
    grid = make_grid(d=len(n_x), n_t=64, n_x=n_x, l_t=2.0, l_x=[2.0, 3.0][: len(n_x)])
    bump = _seam_bump(grid, width=0.12)
    column = _time_noise(grid, np.random.default_rng(5))
    assert column.shape == (grid.n_t,) + (1,) * grid.d
    full = _full_grid_time_noise(grid, np.random.default_rng(5))
    assert np.array_equal(bump * column, bump * full)
    data = _localized_bundle(grid, np.random.default_rng(6), 1.0)
    rng = np.random.default_rng(6)
    for field in (data.h, *data.g.components, data.f):
        assert np.array_equal(field.data, bump * _full_grid_time_noise(grid, rng))


def _watch_slot_release(monkeypatch):
    """Wrap experiments.solve: on entry to each solve, record which slot
    arrays handed out by the previous solve are still alive.  Returns the
    slot counts handed out per solve and the list of survivors."""
    real_solve = experiments.solve
    handed, counts, survivors = [], [], []

    def watched(*args, **kwargs):
        survivors.extend(ref for ref in handed if ref() is not None)
        handed.clear()
        result = real_solve(*args, **kwargs)
        handed.extend(weakref.ref(slot) for slot in result.slots or ())
        counts.append(len(handed))
        return result

    monkeypatch.setattr(experiments, "solve", watched)
    return counts, survivors


def test_oscillation_slots_die_before_the_next_solve(monkeypatch):
    """Each case's solution slots are released once its verifier is done:
    none is alive when the next case's solve starts, so two cases' slots
    never add to a solve's peak."""
    counts, survivors = _watch_slot_release(monkeypatch)
    config = _config(
        "oscillation",
        grid=dict(d=1, n_t=1024, n_x=128, l_t=4.0, l_x=4.0),
        coefficients={"delta": 0.5},
        seed=0,
    )
    assert run_oscillation_experiments(config).passed
    assert counts == [3, 3, 3]
    assert survivors == []


def test_sweep_slots_die_before_the_next_solve(monkeypatch):
    """A sweep cell releases each lambda's solution slots after its norms,
    before the next lambda's solve."""
    counts, survivors = _watch_slot_release(monkeypatch)
    config = _config(
        "lp-sweep",
        grid=dict(d=2, n_t=16, n_x=16, l_t=2.0, l_x=2.0),
        coefficients={"kinds": ["x1_piecewise"], "delta": 0.25},
        lambdas=[1.0, 4.0, 16.0],
        trials=1,
        seed=2,
    )
    experiments._sweep_cell(config, config.grid, "base", "x1_piecewise", 0, 0)
    assert counts == [4, 4, 4]
    assert survivors == []
