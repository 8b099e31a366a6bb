"""CSV interchange formats and run-config echoing.

All files are plain CSV with floats printed at 17 significant digits (lossless
for 64-bit floats) and written atomically (temp file + rename). A coverage CSV
carries the curve rows followed by trailing '#'-prefixed metadata lines; sample
files carry a header naming their columns:

* joint file:      sim_id, theta_0 .. theta_{D-1}
* posterior file:  sim_id, sample_id, theta_0 .. theta_{D-1}
* observation file: sim_id, x_0 .. x_{M-1}

sim_ids must be dense in [0, N); every sim in a joint file needs at least one
posterior sample; all floats must be finite. Violations raise SchemaError
naming the file, line, and invariant.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

import numpy as np

from .coverage import CoverageCurve

COVERAGE_HEADER = "credibility,alpha,ecp,band_lo,band_hi"
_META_KEYS = ("method", "n_sims", "n_post", "seed", "policy", "metric")


class SchemaError(ValueError):
    """A file violated its declared schema; message carries file and line."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def _read_umask() -> int:
    mask = os.umask(0o022)  # the umask can only be read by setting it
    os.umask(mask)
    return mask


# mkstemp creates files 0600; give them the mode open() would. The umask is
# process-wide and os.umask is not thread-safe, so it is read once, at import.
_FILE_MODE = 0o666 & ~_read_umask()


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_coverage_csv(path, curve: CoverageCurve, seed, policy: str = "", metric: str = ""):
    """Serialize a coverage curve: one row per grid level (ascending), then
    trailing metadata rows. The uncertainty band columns are the curve's
    binomial band centered on the estimate, clipped to [0, 1]."""
    order = np.argsort(curve.levels)
    lines = [COVERAGE_HEADER]
    for i in order:
        c = curve.levels[i]
        e = curve.ecp[i]
        hw = curve.band.half_widths[i]
        lo = min(max(e - hw, 0.0), 1.0)
        hi = min(max(e + hw, 0.0), 1.0)
        lines.append(",".join(format_float(v) for v in (c, 1.0 - c, e, lo, hi)))
    meta = {"method": curve.method, "n_sims": curve.n_sims, "n_post": curve.n_post,
            "seed": seed, "policy": policy, "metric": metric}
    for k in _META_KEYS:
        lines.append(f"# {k}={meta[k]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_coverage_csv(path):
    """Parse a coverage CSV into (levels, alpha, ecp, band_lo, band_hi, meta)."""
    rows = []
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != COVERAGE_HEADER:
        raise SchemaError(path, 1, f"expected header {COVERAGE_HEADER!r}")
    for ln, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s:
            continue
        if s.startswith("#"):
            body = s.lstrip("#").strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        parts = s.split(",")
        if len(parts) != 5:
            raise SchemaError(path, ln, f"expected 5 columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise SchemaError(path, ln, f"non-numeric value in {s!r}") from None
    if not rows:
        raise SchemaError(path, len(lines), "no data rows")
    arr = np.asarray(rows)
    if np.any(np.diff(arr[:, 0]) < 0):
        raise SchemaError(path, 1, "rows must be sorted ascending by credibility")
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4], meta


# --- sample files -----------------------------------------------------------------

def _theta_header(dim: int, prefix: str = "theta") -> list:
    return [f"{prefix}_{d}" for d in range(dim)]


def write_joint_file(path, sim_ids, thetas):
    thetas = np.asarray(thetas, dtype=float)
    lines = [",".join(["sim_id"] + _theta_header(thetas.shape[1]))]
    for sid, row in zip(sim_ids, thetas):
        lines.append(",".join([str(int(sid))] + [format_float(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_posterior_file(path, samples_by_sim: dict):
    """``samples_by_sim`` maps sim_id -> (n_i, D) array."""
    dim = next(iter(samples_by_sim.values())).shape[1]
    lines = [",".join(["sim_id", "sample_id"] + _theta_header(dim))]
    for sid in sorted(samples_by_sim):
        for j, row in enumerate(samples_by_sim[sid]):
            lines.append(",".join([str(int(sid)), str(j)] + [format_float(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_observation_file(path, sim_ids, xs):
    xs = np.asarray(xs, dtype=float)
    lines = [",".join(["sim_id"] + _theta_header(xs.shape[1], "x"))]
    for sid, row in zip(sim_ids, xs):
        lines.append(",".join([str(int(sid))] + [format_float(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_header(path, line, expected_fixed, value_prefix):
    cols = [c.strip() for c in line.split(",")]
    if cols[: len(expected_fixed)] != list(expected_fixed):
        raise SchemaError(path, 1, f"header must start with {','.join(expected_fixed)}")
    value_cols = cols[len(expected_fixed):]
    expect = _theta_header(len(value_cols), value_prefix)
    if not value_cols or value_cols != expect:
        raise SchemaError(path, 1, f"value columns must be {value_prefix}_0..{value_prefix}_{{D-1}}")
    return len(value_cols)


def _parse_int(path, ln, token, what):
    try:
        return int(token)
    except ValueError:
        raise SchemaError(path, ln, f"{what} must be an integer, got {token!r}") from None


def _parse_floats(path, ln, tokens):
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError:
        raise SchemaError(path, ln, "non-numeric value") from None
    if not np.all(np.isfinite(vals)):
        raise SchemaError(path, ln, "non-finite value")
    return vals


def _check_dense_ids(path, ids):
    ids = np.asarray(sorted(ids))
    if ids.size == 0:
        raise SchemaError(path, 2, "file contains no simulations")
    expect = np.arange(ids.size)
    if not np.array_equal(ids, expect):
        missing = sorted(set(expect) - set(ids))[:3]
        raise SchemaError(path, 1, f"sim_ids must be dense in [0, N); missing or duplicated near {missing}")


def read_joint_file(path):
    """Returns (sim_ids (N,), thetas (N, D)) with sim_ids dense in [0, N)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(path, 1, "empty file")
    dim = _parse_header(path, lines[0], ("sim_id",), "theta")
    recs = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 1:
            raise SchemaError(path, ln, f"expected {dim + 1} columns, got {len(parts)}")
        sid = _parse_int(path, ln, parts[0], "sim_id")
        if sid in recs:
            raise SchemaError(path, ln, f"duplicate sim_id {sid}")
        recs[sid] = _parse_floats(path, ln, parts[1:])
    _check_dense_ids(path, recs.keys())
    n = len(recs)
    out = np.stack([recs[i] for i in range(n)])
    return np.arange(n), out


def read_posterior_file(path, n_sims: Optional[int] = None):
    """Returns {sim_id: (n_i, D) array}; validates coverage of 0..n_sims-1 when given."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(path, 1, "empty file")
    dim = _parse_header(path, lines[0], ("sim_id", "sample_id"), "theta")
    by_sim = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 2:
            raise SchemaError(path, ln, f"expected {dim + 2} columns, got {len(parts)}")
        sid = _parse_int(path, ln, parts[0], "sim_id")
        _parse_int(path, ln, parts[1], "sample_id")
        by_sim.setdefault(sid, []).append(_parse_floats(path, ln, parts[2:]))
    if not by_sim:
        raise SchemaError(path, 2, "file contains no samples")
    if n_sims is not None:
        missing = sorted(set(range(n_sims)) - set(by_sim))
        if missing:
            raise SchemaError(path, 1, f"no posterior samples for sim_id {missing[0]} "
                                       f"(every sim needs >= 1 sample)")
        extra = sorted(set(by_sim) - set(range(n_sims)))
        if extra:
            raise SchemaError(path, 1, f"sim_id {extra[0]} not present in the joint file")
    return {sid: np.stack(rows) for sid, rows in by_sim.items()}


def read_observation_file(path, n_sims: Optional[int] = None):
    """Returns (sim_ids (N,), xs (N, M))."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(path, 1, "empty file")
    dim = _parse_header(path, lines[0], ("sim_id",), "x")
    recs = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 1:
            raise SchemaError(path, ln, f"expected {dim + 1} columns, got {len(parts)}")
        sid = _parse_int(path, ln, parts[0], "sim_id")
        if sid in recs:
            raise SchemaError(path, ln, f"duplicate sim_id {sid}")
        recs[sid] = _parse_floats(path, ln, parts[1:])
    _check_dense_ids(path, recs.keys())
    if n_sims is not None and len(recs) != n_sims:
        raise SchemaError(path, 1, f"observation file has {len(recs)} sims, expected {n_sims}")
    n = len(recs)
    return np.arange(n), np.stack([recs[i] for i in range(n)])


def write_resolved_config(out_dir, config: dict, name: str = "resolved_config.txt"):
    """Echo the fully resolved run configuration, one key=value per line."""
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    atomic_write_text(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def read_resolved_config(path) -> dict:
    """Parse a resolved-config echo back into a {key: string-value} dict."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh.read().splitlines(), start=1):
            if not raw.strip():
                continue
            if "=" not in raw:
                raise SchemaError(path, ln, f"expected key=value, got {raw!r}")
            k, v = raw.split("=", 1)
            out[k] = v
    return out
