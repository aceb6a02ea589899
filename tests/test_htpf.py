"""HTPF container round trips and the frozen byte layout.

The header layout is pinned byte for byte so files stay exchangeable:
magic "HTPF", u16 version (1), u8 rank, rank u64 sizes (time first), rank
f64 periods, all little-endian, then float64 samples in row-major order.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from halfheat import (
    Field,
    generate_coefficients,
    make_grid,
    read_coefficients,
    read_field,
    write_coefficients,
    write_field,
)
from halfheat.cli import main
from halfheat.experiments import ExperimentResult, write_outputs


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def test_field_round_trip(tmp_path):
    g = make_grid(d=2, n_t=8, n_x=(8, 10), l_t=2.0, l_x=(1.0, 3.0))
    u = _random_field(g, seed=11)
    path = tmp_path / "u.htpf"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.data, u.data)


def test_header_bytes_frozen(tmp_path):
    g = make_grid(d=1, n_t=8, n_x=8, l_t=2.0, l_x=0.5)
    path = tmp_path / "u.htpf"
    write_field(path, _random_field(g))
    raw = path.read_bytes()
    assert raw[:4] == b"HTPF"
    version, rank = struct.unpack_from("<HB", raw, 4)
    assert version == 1
    assert rank == 2
    assert struct.unpack_from("<2Q", raw, 7) == (8, 8)
    assert struct.unpack_from("<2d", raw, 23) == (2.0, 0.5)
    assert len(raw) == 39 + 8 * 64


def test_read_rejects_corruption(tmp_path):
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    path = tmp_path / "u.htpf"
    write_field(path, _random_field(g))
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.htpf"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_field(bad_magic)

    bad_version = tmp_path / "version.htpf"
    bad_version.write_bytes(raw[:4] + struct.pack("<HB", 9, 2) + raw[7:])
    with pytest.raises(ValueError, match="version 9"):
        read_field(bad_version)

    truncated = tmp_path / "short.htpf"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="size mismatch"):
        read_field(truncated)


@pytest.mark.parametrize("size", [0, 4, 6, 7, 22, 38], ids=lambda n: f"{n}_bytes")
def test_read_rejects_a_truncated_header(tmp_path, size):
    """A file cut inside its header (magic 4, version and rank 3, then 16
    bytes per axis: 39 for rank 2) is a ValueError naming the file."""
    g = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    path = tmp_path / "u.htpf"
    write_field(path, _random_field(g))
    path.write_bytes(path.read_bytes()[:size])
    match = "bad magic" if size < 4 else "truncated HTPF header"
    with pytest.raises(ValueError, match=match) as info:
        read_field(path)
    assert str(path) in str(info.value)


def test_coefficient_stack_round_trip(tmp_path):
    g = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(
        kind="checkerboard", delta=0.5, seed=4, grid=g, roughness_scale=0.4
    )
    sidecar = write_coefficients(tmp_path / "a", coeffs)
    assert sidecar.name == "a.json"
    # one file per matrix entry
    assert sorted(p.name for p in tmp_path.glob("*.htpf")) == [
        "a_11.htpf",
        "a_12.htpf",
        "a_21.htpf",
        "a_22.htpf",
    ]
    back = read_coefficients(sidecar)
    assert back.grid == g
    assert back.tag == coeffs.tag
    assert back.ellipticity == coeffs.ellipticity
    assert np.array_equal(back.data, coeffs.data)
    assert back.generator == coeffs.generator


# sha256 over each stack file's name and bytes, in name order, as the
# full-grid storage wrote them: compact storage must write the same files
_STACK_DIGESTS = {
    "time_piecewise": "558772403d16df5569f3db0005716759d4f0ee3a81d6857ce1e2822cb5b6767e",
    "x1_piecewise": "12fb3f2322135899b2a33b6bc97b6612396e6ef25d23b264538ec400d9fd2733",
}


@pytest.mark.parametrize("kind", sorted(_STACK_DIGESTS))
def test_coefficient_stack_bytes_are_pinned(tmp_path, kind):
    g = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(kind=kind, delta=0.5, seed=4, grid=g)
    sidecar = write_coefficients(tmp_path / "a", coeffs)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _STACK_DIGESTS[kind]
    back = read_coefficients(sidecar)  # full-size on disk, compact once read
    assert back.data.tobytes() == coeffs.data.tobytes()
    assert back.data.shape == coeffs.data.shape


def _solve_with_stack(tmp_path, capsys, sidecar):
    """Run `halfheat solve` on a d=2 config whose coefficients come from the
    stack behind sidecar; returns (exit code, printed JSON report)."""
    config = tmp_path / "solve.json"
    config.write_text(
        json.dumps(
            {
                "grid": {"d": 2, "n_t": 8, "n_x": 8, "l_t": 2.0, "l_x": 2.0},
                "coefficients": {"file": str(sidecar)},
                "data": {"h": "cos(pi*t)", "g": ["0", "x1/4"], "f": "0.5"},
            }
        )
    )
    code = main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def _stack(tmp_path):
    g = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(kind="constant", delta=0.5, seed=4, grid=g)
    return write_coefficients(tmp_path / "a", coeffs)


def test_solve_reads_a_coefficient_stack(tmp_path, capsys):
    code, report = _solve_with_stack(tmp_path, capsys, _stack(tmp_path))
    assert code == 0, report
    assert report["converged"] is True


NOT_AN_ENTRY_MAP = "'files' must be a non-empty object of entry file names"


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda meta: meta.pop("files"), "missing key 'files'"),
        (lambda meta: meta.pop("tag"), "missing key 'tag'"),
        (lambda meta: meta.pop("delta"), "missing key 'delta'"),
        (lambda meta: meta["files"].pop("a12"), "missing entry 'a12' of the 2x2 matrix"),
        (lambda meta: meta["files"].clear(), NOT_AN_ENTRY_MAP),
        (lambda meta: meta.update(files=["a_11.htpf"]), NOT_AN_ENTRY_MAP),
        (lambda meta: meta.update(delta="half"), "'delta' must be a number, got 'half'"),
        (lambda meta: meta.update(delta=None), "'delta' must be a number, got None"),
        # float() of it used to raise OverflowError
        (lambda meta: meta.update(delta=10**400), f"'delta' must be a number, got {10**400}"),
    ],
    ids=[
        "files", "tag", "delta", "a12", "empty_files", "files_list", "delta_text", "delta_null",
        "delta_huge",
    ],
)
def test_malformed_sidecar_fails_cleanly(tmp_path, capsys, edit, problem):
    sidecar = _stack(tmp_path)
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    code, report = _solve_with_stack(tmp_path, capsys, sidecar)
    assert code == 1
    assert report["failures"] == [f"coefficient sidecar {sidecar}: {problem}"]


def test_solve_on_a_truncated_entry_file_fails_cleanly(tmp_path, capsys):
    sidecar = _stack(tmp_path)
    entry = tmp_path / "a_11.htpf"
    entry.write_bytes(b"HTPF\x01\x00")
    code, report = _solve_with_stack(tmp_path, capsys, sidecar)
    assert code == 1
    assert report["failures"] == [
        f"{entry}: truncated HTPF header (file 6 bytes, needs 7)"
    ]


def test_sidecar_entries_on_different_grids_fail_cleanly(tmp_path, capsys):
    """The entry files must share one grid; the last one read used to win."""
    sidecar = _stack(tmp_path)
    other = make_grid(d=2, n_t=8, n_x=8, l_t=4.0, l_x=2.0)
    write_field(tmp_path / "a_22.htpf", Field(other, 2.0 * np.ones(other.shape)))
    code, report = _solve_with_stack(tmp_path, capsys, sidecar)
    assert code == 1
    assert report["failures"] == [
        f"coefficient sidecar {sidecar}: entry files lie on 2 different grids"
    ]


def test_solve_on_an_x1_stack_takes_the_exact_path(tmp_path, capsys):
    """A coefficient stack whose sidecar carries tag x1_measurable is solved
    directly, like generated x1_piecewise coefficients."""
    g = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(kind="x1_piecewise", delta=0.5, seed=4, grid=g)
    sidecar = write_coefficients(tmp_path / "a", coeffs)
    assert json.loads(sidecar.read_text())["tag"] == "x1_measurable"
    code, report = _solve_with_stack(tmp_path, capsys, sidecar)
    assert code == 0, report
    assert report["converged"] is True
    assert report["iterations"] == 0
    assert report["final_relative_residual"] <= 1e-12


def test_unreadable_sidecar_fails_cleanly(tmp_path, capsys):
    """A sidecar path that names a directory, or a sidecar that is not JSON,
    is a one-line JSON failure naming it."""
    code, report = _solve_with_stack(tmp_path, capsys, tmp_path)
    assert code == 1
    assert report["failures"][0].startswith(f"{tmp_path}: cannot be read")
    sidecar = tmp_path / "a.json"
    sidecar.write_text("not json")
    code, report = _solve_with_stack(tmp_path, capsys, sidecar)
    assert code == 1
    assert report["failures"][0].startswith(f"coefficient sidecar {sidecar}: not valid JSON")


def _write_every_output(tmp_path, capsys, seed):
    """Write each kind of output the package makes, with contents that
    depend on seed: a coefficient stack (entry files and sidecar), a solve
    on it (u.htpf, result.json) and an experiment's trials.csv/summary.json."""
    g = make_grid(d=2, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(kind="constant", delta=0.5, seed=seed, grid=g)
    sidecar = write_coefficients(tmp_path / "a", coeffs)
    config = tmp_path / "solve.json"
    config.write_text(
        json.dumps(
            {
                "grid": {"d": 2, "n_t": 8, "n_x": 8, "l_t": 2.0, "l_x": 2.0},
                "coefficients": {"file": str(sidecar)},
                "data": {"h": f"cos({seed}*pi*t)", "g": ["0", "0"], "f": "0"},
            }
        )
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    result = ExperimentResult(
        name="demo",
        config_hash="0" * 12,
        seed=seed,
        passed=True,
        failures=[],
        columns=("seed",),
        rows=[{"seed": seed}],
        summary={},
    )
    write_outputs(result, tmp_path / "out")
    paths = [sidecar, *tmp_path.glob("a_*.htpf"), *(tmp_path / "out").iterdir()]
    return {path: path.read_bytes() for path in paths}


def test_outputs_are_replaced_not_rewritten(tmp_path, capsys):
    """Writing an output again makes a new file: a reader that opened the
    old one still reads the old bytes, and the path reads the new ones.  A
    truncate-and-rewrite in place would hand the reader the new bytes."""
    old = _write_every_output(tmp_path, capsys, seed=4)
    assert {path.name for path in old} == {
        "a.json", "a_11.htpf", "a_12.htpf", "a_21.htpf", "a_22.htpf",
        "u.htpf", "result.json", "trials.csv", "summary.json",
    }
    handles = {path: open(path, "rb") for path in old}
    try:
        new = _write_every_output(tmp_path, capsys, seed=5)
        assert new.keys() == old.keys()
        for path, handle in handles.items():
            assert new[path] != old[path], path.name
            assert handle.read() == old[path], path.name
            assert path.read_bytes() == new[path], path.name
    finally:
        for handle in handles.values():
            handle.close()
