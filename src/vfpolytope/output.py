"""Deterministic CSV, SVG, and run-manifest emitters for the CLI.

All writers are byte-deterministic: floats use repr (shortest round-trip,
at most 17 significant digits), SVG coordinates use fixed-precision
formatting, and manifests contain no timestamps.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


# Cells converted to Python objects at a time: enough to spread the cost of
# each conversion call, few enough that the objects stay small and cached.
_CELLS = 2048


def write_csv(path: Path, header: list[str], *blocks) -> None:
    """Write the blocks side by side under a header, one row per line.

    Each block is an (n,) or (n, k) array of ints or float64. A cell is the
    repr of its .tolist() value: a plain int, or the shortest round-trip float.
    Rows are written about _CELLS cells at a time, each chunk as it is made.
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError("blocks must have the same number of rows")
    step = max(1, _CELLS // sum(b.shape[1] for b in blocks))

    def text():
        yield ",".join(header) + "\n"
        for start in range(0, len(blocks[0]), step):
            parts = [
                [",".join(map(repr, row)) for row in b[start : start + step].tolist()]
                for b in blocks
            ]
            yield "\n".join(map(",".join, zip(*parts))) + "\n"

    _write_text(path, text())


def _write_text(path: Path, chunks) -> None:
    """Write an iterable of ASCII text chunks to path, one chunk at a time."""
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.writelines(chunks)


def sha256_file(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def write_manifest(
    manifest_path: Path,
    argv: list[str],
    command: str,
    config: dict,
    seed,
    inputs: dict[str, str],
    outputs: list[Path],
    version: str,
    environment: dict,
) -> Path:
    """Record at manifest_path how a set of outputs was produced.

    Re-running the recorded argv must reproduce every listed output with the
    same digest; environment names the numpy and BLAS that produced them.
    """
    manifest = {
        "tool": "vfp",
        "version": version,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": [
            {"path": str(p), "sha256": sha256_file(p)} for p in outputs
        ],
        "environment": environment,
    }
    manifest_path.write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
    )
    return manifest_path


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_VIEW = 600.0
_MARGIN_FRACTION = 0.05


def _xy(points) -> np.ndarray:
    """points as an (n, 2) float array; None or empty gives no rows."""
    if points is None or not len(points):
        return np.empty((0, 2))
    return np.asarray(points, dtype=float)


def write_svg(path: Path, points, vertices=None, path_points=None) -> None:
    """Static scatter of 2-D value samples with optional vertices and path.

    Fixed 600x600 viewport, linear axes fit to the data bounding box with a
    5% margin. Content only; no styling beyond flat fills. Points are
    projected, formatted and written _CELLS // 2 at a time.
    """
    cloud, path_xy, corners = map(_xy, (points, path_points, vertices))
    # One linear map of every point onto the viewport, y flipped.
    present = [a for a in (cloud, path_xy, corners) if len(a)]
    lo = np.min([a.min(axis=0) for a in present], axis=0)
    span = np.max([a.max(axis=0) for a in present], axis=0) - lo
    span[span == 0.0] = 1.0
    margin = _MARGIN_FRACTION * span
    origin, scale = lo - margin, _VIEW / (span + 2 * margin)

    def formatted(template: str, rows: np.ndarray):
        for start in range(0, len(rows), _CELLS // 2):
            xy = (rows[start : start + _CELLS // 2] - origin) * scale
            xy[:, 1] = _VIEW - xy[:, 1]
            yield template * len(xy) % tuple(xy.ravel().tolist())

    def text():
        yield (
            '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
            'viewBox="0 0 600 600">\n<rect width="600" height="600" fill="#ffffff"/>\n'
        )
        yield from formatted(
            '<circle cx="%.3f" cy="%.3f" r="1.5" fill="#4477aa" fill-opacity="0.45"/>\n',
            cloud,
        )
        if len(path_xy):
            yield '<polyline points="'
            yield from formatted("%.3f,%.3f ", path_xy[:-1])
            yield from formatted(
                '%.3f,%.3f" fill="none" stroke="#222222" stroke-width="1.5"/>\n',
                path_xy[-1:],
            )
        yield from formatted('<circle cx="%.3f" cy="%.3f" r="2.5" fill="#222222"/>\n', path_xy)
        yield from formatted('<circle cx="%.3f" cy="%.3f" r="5" fill="#cc3311"/>\n', corners)
        yield "</svg>\n"

    _write_text(path, text())
