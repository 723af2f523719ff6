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
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError("blocks must have the same number of rows")
    step = max(1, _CELLS // sum(b.shape[1] for b in blocks))

    def lines(start: int) -> str:
        parts = [
            [",".join(map(repr, row)) for row in b[start : start + step].tolist()]
            for b in blocks
        ]
        return "\n".join(map(",".join, zip(*parts)))

    chunks = map(lines, range(0, len(blocks[0]), step))
    text = "\n".join([",".join(header), *chunks]) + "\n"
    Path(path).write_bytes(text.encode("ascii"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    out_path: Path,
    argv: list[str],
    command: str,
    config: dict,
    seed,
    inputs: dict[str, str],
    outputs: list[Path],
    version: str,
) -> Path:
    """Record how a set of outputs was produced, next to the primary output.

    Re-running the recorded argv must reproduce every listed output with the
    same digest.
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
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
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


def _format_xy(template: str, xy: np.ndarray, sep: str = "\n"):
    """Yield template % (x, y) for each row of xy, _CELLS // 2 rows joined by sep."""
    for start in range(0, len(xy), _CELLS // 2):
        chunk = xy[start : start + _CELLS // 2]
        yield sep.join([template] * len(chunk)) % tuple(chunk.ravel().tolist())


def svg_scatter(points, vertices=None, path_points=None) -> str:
    """Static scatter of 2-D value samples with optional vertices and path.

    Fixed 600x600 viewport, linear axes fit to the data bounding box with a
    5% margin. Content only; no styling beyond flat fills.
    """
    cloud, path, corners = map(_xy, (points, path_points, vertices))
    everything = np.vstack([cloud, path, corners])
    # One linear map of every point onto the viewport, y flipped.
    lo = everything.min(axis=0)
    span = everything.max(axis=0) - lo
    span[span == 0.0] = 1.0
    margin = _MARGIN_FRACTION * span
    xy = (everything - (lo - margin)) * (_VIEW / (span + 2 * margin))
    xy[:, 1] = _VIEW - xy[:, 1]
    cloud, path, corners = np.split(xy, np.cumsum([len(cloud), len(path)]))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="#ffffff"/>',
        *_format_xy(
            '<circle cx="%.3f" cy="%.3f" r="1.5" fill="#4477aa" fill-opacity="0.45"/>',
            cloud,
        ),
    ]
    if len(path):
        coords = " ".join(_format_xy("%.3f,%.3f", path, " "))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#222222" '
            'stroke-width="1.5"/>'
        )
    parts.extend(_format_xy('<circle cx="%.3f" cy="%.3f" r="2.5" fill="#222222"/>', path))
    parts.extend(_format_xy('<circle cx="%.3f" cy="%.3f" r="5" fill="#cc3311"/>', corners))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path, content: str) -> None:
    Path(path).write_bytes(content.encode("ascii"))
