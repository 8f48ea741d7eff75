"""Deterministic artifact emission: CSV tables, JSON manifests, frame files.

All writes are atomic (temp file in the destination directory, then rename)
and all floats are printed with 17 significant digits so that reruns of the
same configuration produce byte-identical bodies and values round-trip.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import platform
import tempfile

import numpy as np

from .dynamics import SolverState, scaled_l2
from .errors import DataError
from .forms import DispersionForm
from .imethod import _energy, mass
from .spectral import Field, Grid2D, make_field

__all__ = ["format_value", "write_csv", "write_json", "write_frame_csv",
           "read_frame_csv", "build_manifest", "validate_manifest",
           "MANIFEST_SCHEMA", "DiagnosticsRecorder"]


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """CSV with one header line; cells formatted via format_value and quoted
    only where they hold a comma or a double quote."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if isinstance(row, dict):
            cells = [row.get(col.split(" ")[0], "") for col in header]
        else:
            cells = list(row)
        writer.writerow([format_value(c) for c in cells])
    _atomic_write(path, text.getvalue())


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# -- frame files -----------------------------------------------------------------

def write_frame_csv(path: str, field: Field) -> None:
    """Grid of physical values; the header records geometry (box units)."""
    grid = field.grid
    header = (f"# zklab-frame nx={grid.nx} ny={grid.ny} "
              f"lx={grid.lx:.17g} ly={grid.ly:.17g}")
    vals = field.values
    lines = [header, "# rows are x-index, columns y-index, dimensionless u"]
    for i in range(grid.nx):
        lines.append(",".join(f"{v:.17g}" for v in vals[i]))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_frame_csv(path: str) -> Field:
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# zklab-frame"):
            raise DataError(f"{path} is not a frame file (missing header)")
        try:
            meta = dict(tok.split("=") for tok in first.split()[2:])
            grid = Grid2D(int(meta["nx"]), int(meta["ny"]),
                          float(meta["lx"]), float(meta["ly"]))
            vals = np.asarray([[float(tok) for tok in line.split(",")]
                               for line in map(str.strip, fh)
                               if line and not line.startswith("#")])
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path} is not a well-formed frame file ({exc!r})") from None
    if vals.shape != (grid.nx, grid.ny):
        raise DataError(f"frame body {vals.shape} does not match header "
                        f"({grid.nx}, {grid.ny})")
    if not np.all(np.isfinite(vals)):
        raise DataError(f"{path} holds non-finite samples")
    return make_field(grid, vals)


# -- manifests --------------------------------------------------------------------

MANIFEST_SCHEMA = {
    "tool": str,
    "version": str,
    "subcommand": str,
    "config": dict,
    "config_sha256": str,
    "seed": (int, type(None)),
    "versions": dict,
    "wall_time_s": float,
    "outputs": list,
}


def build_manifest(subcommand: str, config: dict, wall_time_s: float,
                   outputs: list[str], extra: dict | None = None) -> dict:
    from . import __version__

    canonical = json.dumps(config, sort_keys=True, default=_json_default)
    manifest = {
        "tool": "zklab",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": config.get("seed"),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
        "wall_time_s": float(wall_time_s),
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: dict) -> None:
    """Check the documented schema: required keys with the listed types."""
    for key, typ in MANIFEST_SCHEMA.items():
        if key not in manifest:
            raise DataError(f"manifest missing required key {key!r}")
        if not isinstance(manifest[key], typ):
            raise DataError(f"manifest key {key!r} has type "
                            f"{type(manifest[key]).__name__}, expected {typ}")


# -- run diagnostics ----------------------------------------------------------------

class DiagnosticsRecorder:
    """Per-sample conservation diagnostics (energy of ``form``), an evolve callback: each
    row is read off a SolverState's band block, all columns from one transform."""

    HEADER = ["t (time units)", "mass (integral u^2)", "energy",
              "l2 (spatial L2)", "linf (max |u|)"]

    def __init__(self, form: DispersionForm = DispersionForm.ORIGINAL):
        self.form = form
        self.rows: list[tuple] = []

    def __call__(self, state: SolverState) -> None:
        grid = state.grid
        vals = grid.to_physical(state.band)
        m = mass(Field(grid, vals, "physical"))
        l2 = math.sqrt(m) if math.isfinite(m) else scaled_l2(vals, grid.cell_area)
        self.rows.append((state.t, m, float(_energy(grid, self.form, state.band, vals)), l2,
                          float(np.max(np.abs(vals)))))
