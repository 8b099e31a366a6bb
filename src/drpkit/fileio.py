"""CSV interchange formats and run-config echoing.

All files are plain CSV with floats printed at 17 significant digits (lossless
for 64-bit floats) and written atomically (temp file + rename). A coverage CSV
carries the curve rows followed by trailing '#'-prefixed metadata lines; sample
files carry a header naming their columns:

* joint file:      sim_id, theta_0 .. theta_{D-1}
* posterior file:  sim_id, sample_id, theta_0 .. theta_{D-1}
* observation file: sim_id, x_0 .. x_{M-1}
* prior-draw file:  theta_0 .. theta_{D-1}, headerless

sim_ids must be dense in [0, N); every sim in a joint file needs at least one
posterior sample; all floats must be finite. Violations raise SchemaError
naming the file, line, and invariant.
"""

from __future__ import annotations

import contextlib
import itertools
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


@contextlib.contextmanager
def _atomic_open(path):
    """A text handle on a temp file that replaces ``path`` when the block exits cleanly."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    with _atomic_open(path) as fh:
        fh.write(text)


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

_CHUNK_LINES = 8192  # lines the reader splits and parses at once


def _theta_header(dim: int, prefix: str = "theta") -> list:
    return [f"{prefix}_{d}" for d in range(dim)]


def _write_table(path, header, blocks):
    """Stream the header, then per (sim_id, (n, C) array) block n rows of the
    sim_id and C floats; "%.17g" prints each float as format_float does."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for sid, block in blocks:
            block = np.asarray(block, dtype=float)
            row = ",".join([str(int(sid))] + ["%.17g"] * block.shape[1]) + "\n"
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def write_joint_file(path, sim_ids, thetas):
    thetas = np.asarray(thetas, dtype=float)
    _write_table(path, ["sim_id"] + _theta_header(thetas.shape[1]), zip(sim_ids, thetas[:, None]))


def write_posterior_file(path, samples_by_sim: dict):
    """``samples_by_sim`` maps sim_id -> (n_i, D) array, with one D for all."""
    if not samples_by_sim:
        raise ValueError("no simulations to write")
    for sid, s in samples_by_sim.items():
        if np.ndim(s) != 2:
            raise ValueError(f"samples for sim_id {sid} have shape {np.shape(s)}, expected (n, D)")
    (first, dim), *rest = ((sid, np.shape(s)[1]) for sid, s in samples_by_sim.items())
    for sid, d in rest:
        if d != dim:
            raise ValueError(f"samples for sim_id {sid} have dimension {d}, sim_id {first} has {dim}")
    blocks = ((sid, np.column_stack([np.arange(len(samples_by_sim[sid])), samples_by_sim[sid]]))
              for sid in sorted(samples_by_sim))
    _write_table(path, ["sim_id", "sample_id"] + _theta_header(dim), blocks)


def write_observation_file(path, sim_ids, xs):
    xs = np.asarray(xs, dtype=float)
    _write_table(path, ["sim_id"] + _theta_header(xs.shape[1], "x"), zip(sim_ids, xs[:, None]))


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
    ids = sorted(ids)
    if not ids:
        raise SchemaError(path, 2, "file contains no simulations")
    if ids != list(range(len(ids))):
        missing = sorted(set(range(len(ids))) - set(ids))[:3]
        raise SchemaError(path, 1, f"sim_ids must be dense in [0, N); missing or duplicated near {missing}")


def _split_chunk(lines, n_ids, dim, seen):
    """(first id column, (rows, dim) values) of a chunk's non-blank lines by
    whole-chunk splits and parses, or None when any of them is invalid."""
    lines = list(filter(str.strip, lines))
    if any(raw.count(",") != n_ids + dim - 1 for raw in lines):
        return None
    tokens, ids = ",".join(lines).split(",") if lines else [], []
    try:
        for j in range(n_ids):  # parse the leading id column, then drop it
            ids.append(list(map(int, tokens[::n_ids + dim - j])))
            del tokens[::n_ids + dim - j]
        vals = np.array(list(map(float, tokens))).reshape(len(lines), dim)
    except ValueError:
        return None
    sim_ids = ids[0] if ids else []
    if not np.isfinite(vals).all():
        return None
    if seen is not None:  # the sim_ids must be new and distinct
        new = set(sim_ids)
        if len(new) < len(sim_ids) or not seen.isdisjoint(new):
            return None
        seen |= new
    return sim_ids, vals


def _raise_first_error(path, ln, lines, fixed, dim, seen):
    """Raise the SchemaError of the first invalid line of a chunk starting at line ``ln``."""
    for ln, raw in enumerate(lines, start=ln):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(fixed) + dim:
            raise SchemaError(path, ln, f"expected {len(fixed) + dim} columns, got {len(parts)}")
        ids = [_parse_int(path, ln, token, what) for token, what in zip(parts, fixed)]
        if seen is not None:
            if ids[0] in seen:
                raise SchemaError(path, ln, f"duplicate sim_id {ids[0]}")
            seen.add(ids[0])
        _parse_floats(path, ln, parts[len(fixed):])


def _read_table(path, fixed, prefix, dim=None, unique=False):
    """Read rows of the integer ``fixed`` columns, then D floats, into (the
    first id column, a (rows, D) array). D comes from a header naming the
    ``prefix``_d columns; with no ``prefix`` the file is headerless and D is
    ``dim``. Blank lines are skipped but numbered. ``unique`` forbids repeated ids."""
    with open(path) as fh:
        # the lines str.splitlines() gives, about _CHUNK_LINES at a time
        chunks = map(str.splitlines, iter(lambda: "".join(itertools.islice(fh, _CHUNK_LINES)), ""))
        ln = 1
        if prefix is not None:
            first = next(chunks, None)
            if not first:
                raise SchemaError(path, 1, "empty file")
            dim = _parse_header(path, first[0], fixed, prefix)
            chunks, ln = itertools.chain([first[1:]], chunks), 2
        sim_ids, values, seen = [], [np.empty((0, dim))], set() if unique else None
        for lines in chunks:
            split = _split_chunk(lines, len(fixed), dim, seen)
            if split is None:
                _raise_first_error(path, ln, lines, fixed, dim, seen)
            sim_ids += split[0]
            values.append(split[1])
            ln += len(lines)
    return sim_ids, np.concatenate(values)


def read_joint_file(path):
    """Returns (sim_ids (N,), thetas (N, D)) with sim_ids dense in [0, N)."""
    sim_ids, thetas = _read_table(path, ("sim_id",), "theta", unique=True)
    _check_dense_ids(path, sim_ids)
    return np.arange(len(sim_ids)), thetas[np.argsort(sim_ids)]


def read_posterior_file(path, n_sims: Optional[int] = None):
    """Returns {sim_id: (n_i, D) array}, keyed in order of first appearance;
    validates coverage of 0..n_sims-1 when given."""
    sim_ids, values = _read_table(path, ("sim_id", "sample_id"), "theta")
    if not sim_ids:
        raise SchemaError(path, 2, "file contains no samples")
    order = np.argsort(sim_ids, kind="stable")
    keys, starts = np.unique(np.asarray(sim_ids)[order], return_index=True)
    groups = np.split(values[order], starts[1:])
    by_sim = {int(keys[g]): groups[g] for g in np.argsort(order[starts])}
    if n_sims is not None:
        missing = sorted(set(range(n_sims)) - set(by_sim))
        if missing:
            raise SchemaError(path, 1, f"no posterior samples for sim_id {missing[0]} "
                                       f"(every sim needs >= 1 sample)")
        extra = sorted(set(by_sim) - set(range(n_sims)))
        if extra:
            raise SchemaError(path, 1, f"sim_id {extra[0]} not present in the joint file")
    return by_sim


def read_observation_file(path, n_sims: Optional[int] = None):
    """Returns (sim_ids (N,), xs (N, M))."""
    sim_ids, xs = _read_table(path, ("sim_id",), "x", unique=True)
    _check_dense_ids(path, sim_ids)
    if n_sims is not None and len(sim_ids) != n_sims:
        raise SchemaError(path, 1, f"observation file has {len(sim_ids)} sims, expected {n_sims}")
    return np.arange(len(sim_ids)), xs[np.argsort(sim_ids)]


def read_prior_file(path, dim: int):
    """Returns the (rows, dim) draws of a headerless file, one per line;
    error line numbers count blank lines, as in the other sample files."""
    _, rows = _read_table(path, (), None, dim)
    if not len(rows):
        raise SchemaError(path, 1, "empty prior-draw file")
    return rows


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
