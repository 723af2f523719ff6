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


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows, int_column=None) -> None:
    """Write rows under a header; int_column, if given, ends each row."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        # Same text as format_cell: repr of each cell as a Python float.
        # Converting one row at a time keeps the whole array from being
        # held as Python floats at once.
        lines = (",".join(map(repr, row.tolist())) for row in rows)
    else:
        lines = (",".join(map(format_cell, row)) for row in rows)
    if int_column is not None:
        lines = (f"{line},{int(cell)}" for line, cell in zip(lines, int_column))
    text = "\n".join([",".join(header), *lines]) + "\n"
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


class _Projector:
    """Linear map from data space onto the fixed SVG viewport (y flipped)."""

    def __init__(self, points: np.ndarray) -> None:
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = hi - lo
        span[span == 0.0] = 1.0
        margin = _MARGIN_FRACTION * span
        self.lo = lo - margin
        self.scale = _VIEW / (span + 2 * margin)

    def __call__(self, point) -> tuple[str, str]:
        x = (point[0] - self.lo[0]) * self.scale[0]
        y = _VIEW - (point[1] - self.lo[1]) * self.scale[1]
        return (f"{x:.3f}", f"{y:.3f}")


def svg_scatter(points, vertices=None, path_points=None) -> str:
    """Static scatter of 2-D value samples with optional vertices and path.

    Fixed 600x600 viewport, linear axes fit to the data bounding box with a
    5% margin. Content only; no styling beyond flat fills.
    """
    everything = [np.asarray(points, dtype=float)]
    if vertices is not None and len(vertices):
        everything.append(np.asarray(vertices, dtype=float))
    if path_points is not None and len(path_points):
        everything.append(np.asarray(path_points, dtype=float))
    project = _Projector(np.vstack(everything))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="#ffffff"/>',
    ]
    for p in np.asarray(points, dtype=float):
        x, y = project(p)
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="1.5" fill="#4477aa" fill-opacity="0.45"/>'
        )
    if path_points is not None and len(path_points):
        path_array = np.asarray(path_points, dtype=float)
        coords = " ".join(",".join(project(p)) for p in path_array)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#222222" '
            'stroke-width="1.5"/>'
        )
        for p in path_array:
            x, y = project(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#222222"/>')
    if vertices is not None and len(vertices):
        for p in np.asarray(vertices, dtype=float):
            x, y = project(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="5" fill="#cc3311"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path, content: str) -> None:
    Path(path).write_bytes(content.encode("ascii"))
