"""HTPF field files and coefficient stacks.

Layout (all little-endian): magic ``HTPF``, u16 version (= 1), u8 rank
(= d + 1), rank u64 sample counts with time first, rank f64 periods, then
the float64 samples in row-major order.  Coefficient matrices are written
as one HTPF file per entry plus a JSON sidecar holding the tag, delta and
generator parameters.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .coefficients import Coefficients, Ellipticity
from .grid import Field, _scalar, make_grid

__all__ = ["write_field", "read_field", "write_coefficients", "read_coefficients"]

_MAGIC = b"HTPF"
_VERSION = 1


def write_field(path: str | Path, field: Field) -> None:
    grid = field.grid
    rank = grid.d + 1
    sizes = (grid.n_t, *grid.n_x)
    periods = (grid.l_t, *grid.l_x)
    header = _MAGIC + struct.pack("<HB", _VERSION, rank)
    header += struct.pack(f"<{rank}Q", *sizes)
    header += struct.pack(f"<{rank}d", *periods)
    _replace(path, header, np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def _replace(path: str | Path, *chunks: bytes) -> None:
    """Write chunks as a new file at path.  An existing file there is
    unlinked, not truncated: rewriting a file in place can wait on the
    writeback of its old blocks (ext4), and a reader of the old file keeps
    its bytes."""
    path = Path(path)
    path.unlink(missing_ok=True)
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_json(path: str | Path, payload) -> None:
    """Write payload as the one JSON output format: sorted keys, two-space
    indents, a final newline, a numpy scalar as its Python value; the file is
    replaced."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=np.generic.item)
    _replace(path, (text + "\n").encode())


def _read(path: Path) -> bytes:
    """The bytes of path; a file that cannot be read (a missing file, a
    directory) is a ValueError naming it."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: cannot be read ({exc.strerror or exc})") from None


def read_field(path: str | Path) -> Field:
    raw = _read(Path(path))

    def need(size: int) -> None:
        if len(raw) < size:
            raise ValueError(
                f"{path}: truncated HTPF header (file {len(raw)} bytes, needs {size})"
            )

    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an HTPF file (bad magic {raw[:4]!r})")
    need(7)
    version, rank = struct.unpack_from("<HB", raw, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported HTPF version {version}")
    if not 2 <= rank <= 4:
        raise ValueError(f"{path}: rank {rank} outside supported range 2..4")
    off = 7
    need(off + 16 * rank)
    sizes = struct.unpack_from(f"<{rank}Q", raw, off)
    off += 8 * rank
    periods = struct.unpack_from(f"<{rank}d", raw, off)
    off += 8 * rank
    count = math.prod(sizes)  # exact: a numpy product of a corrupt header can wrap
    expected = off + 8 * count
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload size mismatch (file {len(raw)} bytes, header implies {expected})"
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(sizes)
    grid = make_grid(
        d=rank - 1, n_t=sizes[0], n_x=sizes[1:], l_t=periods[0], l_x=periods[1:]
    )
    return Field(grid, data.astype(np.float64))


def write_coefficients(stem: str | Path, coeffs: Coefficients) -> Path:
    """Write one HTPF per matrix entry plus ``<stem>.json``; returns the sidecar path."""
    stem = Path(stem)
    d = coeffs.grid.d
    full = np.broadcast_to(coeffs.data, (d, d, *coeffs.grid.shape))  # files hold every sample
    files = {}
    for i in range(d):
        for j in range(d):
            name = f"{stem.name}_{i + 1}{j + 1}.htpf"
            write_field(stem.with_name(name), Field(coeffs.grid, full[i, j]))
            files[f"a{i + 1}{j + 1}"] = name
    sidecar = stem.with_suffix(".json")
    meta = {
        "tag": coeffs.tag,
        "delta": coeffs.ellipticity.delta,
        "files": files,
        "generator": coeffs.generator or {},
    }
    _write_json(sidecar, meta)
    return sidecar


def read_coefficients(sidecar: str | Path) -> Coefficients:
    """Read a coefficient stack; a ValueError names the sidecar and what is
    wrong with it (not JSON, missing keys or entries, a non-numeric delta,
    entry files on different grids)."""
    sidecar = Path(sidecar)

    def bad(problem: str) -> ValueError:
        return ValueError(f"coefficient sidecar {sidecar}: {problem}")

    try:
        meta = json.loads(_read(sidecar))
    except json.JSONDecodeError as exc:
        raise bad(f"not valid JSON ({exc})") from None

    if not isinstance(meta, dict):
        raise bad("must hold a JSON object")
    for key in ("files", "tag", "delta"):
        if key not in meta:
            raise bad(f"missing key {key!r}")
    delta = meta["delta"]
    try:  # text is no number here, though float() would read it
        delta = _scalar(None if isinstance(delta, str) else delta, "delta")
    except ValueError:
        raise bad(f"'delta' must be a number, got {delta!r}") from None
    files = meta["files"]
    if not isinstance(files, dict) or not files:
        raise bad("'files' must be a non-empty object of entry file names")
    fields = {
        key: read_field(sidecar.with_name(str(name))) for key, name in files.items()
    }
    grids = {fld.grid for fld in fields.values()}
    if len(grids) > 1:
        raise bad(f"entry files lie on {len(grids)} different grids")
    (grid,) = grids
    d = grid.d
    expected = [f"a{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    missing = [key for key in expected if key not in fields]
    if missing:
        raise bad(f"missing entry {missing[0]!r} of the {d}x{d} matrix")
    data = np.empty((d, d, *grid.shape))
    for i in range(d):
        for j in range(d):
            data[i, j] = fields[f"a{i + 1}{j + 1}"].data
    return Coefficients(
        grid=grid,
        data=data,
        tag=meta["tag"],
        ellipticity=Ellipticity(delta),
        generator=meta.get("generator") or None,
    )
