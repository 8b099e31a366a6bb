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
naming the file, line, and invariant. A posterior file can be written as its
draws are made, one simulation at a time. A sample file is parsed a chunk
of text at a time (about 256 KiB, cut at a line break), each chunk in one
np.loadtxt call; a per-line reader, which alone defines the valid tokens (those
int() and float() accept), reads a chunk numpy rejects again to name the first
invalid line. A posterior file is read as runs of consecutive rows that share a
sim_id, so a reader of the runs holds one chunk and one run, not the file.
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
        hw = curve.band[i]
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
            row = [float(p) for p in parts]
        except ValueError:
            raise SchemaError(path, ln, f"non-numeric value in {s!r}") from None
        if not np.isfinite(row).all():
            raise SchemaError(path, ln, f"non-finite value in {s!r}")
        rows.append(row)
    if not rows:
        raise SchemaError(path, len(lines), "no data rows")
    arr = np.asarray(rows)
    if np.any(np.diff(arr[:, 0]) < 0):
        raise SchemaError(path, 1, "rows must be sorted ascending by credibility")
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4], meta


# --- sample files -----------------------------------------------------------------

# a sample file is parsed this many characters of text at a time, completed to
# the end of a line, so a read holds about as much text whatever the row width
_CHUNK_CHARS = 1 << 18


def _theta_header(dim: int, prefix: str = "theta") -> list:
    return [f"{prefix}_{d}" for d in range(dim)]


def _rows(sid, block):
    """Per row of the (n, C) float ``block``, a line of the sim_id and C floats;
    "%.17g" prints each float as format_float does."""
    row = ",".join([str(int(sid))] + ["%.17g"] * block.shape[1]) + "\n"
    return row * block.shape[0] % tuple(block.ravel().tolist())


def _write_table(path, header, blocks):
    """Stream the header, then the rows of each (sim_id, (n, C) array) block."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for sid, block in blocks:
            fh.write(_rows(sid, np.asarray(block, dtype=float)))


def write_joint_file(path, sim_ids, thetas):
    thetas = np.asarray(thetas, dtype=float)
    _write_table(path, ["sim_id"] + _theta_header(thetas.shape[1]), zip(sim_ids, thetas[:, None]))


@contextlib.contextmanager
def posterior_writer(path):
    """Write a posterior file one simulation at a time: yields ``write(sim_id,
    draws)``, which appends the (n, D) ``draws`` as n rows with sample_ids
    0..n-1. The first block sets D and the header. The file replaces ``path``
    only when the block exits cleanly after at least one write; otherwise
    nothing is written and an existing file is left as it was."""
    first = None  # (sim_id, D) of the first block

    with _atomic_open(path) as fh:
        def write(sim_id, draws):
            nonlocal first
            draws = np.asarray(draws, dtype=float)
            if draws.ndim != 2:
                raise ValueError(f"samples for sim_id {sim_id} have shape {draws.shape}, expected (n, D)")
            if first is None:
                first = (sim_id, draws.shape[1])
                fh.write(",".join(["sim_id", "sample_id"] + _theta_header(draws.shape[1])) + "\n")
            elif draws.shape[1] != first[1]:
                raise ValueError(f"samples for sim_id {sim_id} have dimension {draws.shape[1]}, "
                                 f"sim_id {first[0]} has {first[1]}")
            fh.write(_rows(sim_id, np.column_stack([np.arange(len(draws)), draws])))

        yield write
        if first is None:
            raise ValueError("no simulations to write")


def write_posterior_file(path, samples_by_sim: dict):
    """``samples_by_sim`` maps sim_id -> (n_i, D) array, with one D for all;
    :func:`posterior_writer` writes them in sim_id order."""
    with posterior_writer(path) as write:
        for sid in sorted(samples_by_sim):
            write(sid, samples_by_sim[sid])


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


def _check_dense_ids(path, ids, lines):
    """Unique ids are dense in [0, N) unless one lies outside; the error names its line in ``lines``."""
    if not len(ids):
        raise SchemaError(path, 2, "file contains no simulations")
    outside = next((k for k, sid in enumerate(ids) if not 0 <= sid < len(ids)), None)
    if outside is not None:
        missing = sorted(set(range(len(ids))) - set(ids))[:3]
        raise SchemaError(path, next(itertools.islice(lines, outside, None)),
                          f"sim_ids must be dense in [0, N); missing or duplicated near {missing}")


def _numbered_rows(lines, ln):
    """(line number, line) of the non-blank ``lines``, numbered from ``ln``."""
    return ((n, raw) for n, raw in enumerate(lines, start=ln) if raw.strip())


def _read_lines(path, lines, ln, fixed, dim, seen):
    """The per-line reader, which alone defines which tokens are valid: (the
    first id column, a (rows, dim) array, the line of each row) of ``lines``
    numbered from ``ln``, or the SchemaError of the first invalid line. A
    ``seen`` set forbids ids already in it, and gets the new ones."""
    sim_ids, rows, line_of = [], [], []
    for ln, raw in _numbered_rows(lines, ln):
        parts = raw.split(",")
        if len(parts) != len(fixed) + dim:
            raise SchemaError(path, ln, f"expected {len(fixed) + dim} columns, got {len(parts)}")
        ids = [_parse_int(path, ln, token, what) for token, what in zip(parts, fixed)]
        if seen is not None:
            if ids[0] in seen:
                raise SchemaError(path, ln, f"duplicate sim_id {ids[0]}")
            seen.add(ids[0])
        rows.append(_parse_floats(path, ln, parts[len(fixed):]))
        sim_ids += ids[:1]
        line_of.append(ln)
    return np.array(sim_ids, dtype=object), np.reshape(rows, (len(rows), dim)), line_of


def _parse_chunk(path, text, lines, rows, ln, fixed, dim, seen):
    """(first id column, (rows, dim) values, line of each row) of one chunk:
    its ``text``, split into ``lines`` numbered from ``ln``, whose non-blank
    ones are ``rows``."""
    # numpy reads some non-ASCII letters as digits, and it strips "\x1f", which
    # int() and float() reject: only the per-line reader may judge such text
    table = None
    if text.isascii() and "\x1f" not in text:
        with contextlib.suppress(ValueError):
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                               dtype=[("ids", "i8", (len(fixed),)), ("values", "f8", (dim,))])
    if table is not None:
        ids, values = table["ids"][:, :1].ravel(), table["values"]
        # sorted, repeated ids sit side by side (np.unique would import numpy.ma)
        new = seen is None or (np.diff(np.sort(ids)).all() and seen.isdisjoint(ids.tolist()))
        if new and np.isfinite(values).all():
            if seen is not None:
                seen.update(ids.tolist())
            line_of = (range(ln, ln + len(rows)) if len(rows) == len(lines)
                       else [n for n, _ in _numbered_rows(lines, ln)])
            return ids, values, line_of
    return _read_lines(path, lines, ln, fixed, dim, seen)


def _table_chunks(path, fixed, prefix, dim=None, unique=False):
    """The rows of the integer ``fixed`` columns, then D floats, one chunk of
    text at a time: per chunk that holds rows, (the first id column, a (rows,
    D) array, the line number of each row). D comes from a header naming the
    ``prefix``_d columns; with no ``prefix`` the file is headerless and D is
    ``dim``. Blank lines are skipped but numbered. ``unique`` forbids repeated
    ids anywhere in the file.

    One np.loadtxt call parses a chunk; when numpy rejects a row, or a value is
    not finite, or an id repeats, the per-line reader reads the chunk's lines."""
    seen = set() if unique else None
    with open(path) as fh:
        ln = 1
        while text := fh.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()  # a chunk ends at a line break
            lines = text.splitlines()
            if prefix is not None and ln == 1:
                dim, lines, ln = _parse_header(path, lines[0], fixed, prefix), lines[1:], 2
            rows = list(filter(str.strip, lines))
            if rows:
                yield _parse_chunk(path, text, lines, rows, ln, fixed, dim, seen)
            ln += len(lines)
            del text, lines, rows  # freed before the next chunk is read
    if prefix is not None and ln == 1:
        raise SchemaError(path, 1, "empty file")


def _read_table(path, fixed, prefix, dim=None, dense=False):
    """(the first id column, a (rows, D) array) of a whole file, grown one chunk at a time so
    the values are held once; see _table_chunks. ``dense`` ids are unique and dense in [0, N):
    the rows come back in id order, and an id outside [0, N) fails at its line."""
    ids, lines, values = [], [], np.empty((0, dim or 0))
    for chunk_ids, chunk_values, line_of in _table_chunks(path, fixed, prefix, dim, dense):
        ids.append(chunk_ids.copy())  # a view would keep the chunk's parsed table
        if dense:
            lines.append(line_of)
        n = len(values)
        values.resize((n + len(chunk_values), chunk_values.shape[1]), refcheck=False)
        values[n:] = chunk_values
    ids = np.concatenate(ids) if ids else []
    if dense:
        _check_dense_ids(path, ids, itertools.chain.from_iterable(lines))
        if not np.array_equal(ids, np.arange(len(ids))):
            values = values[np.argsort(ids)]
        ids = np.arange(len(ids))
    return ids, values


def read_joint_file(path):
    """Returns (sim_ids (N,), thetas (N, D)) with sim_ids dense in [0, N)."""
    return _read_table(path, ("sim_id",), "theta", dense=True)


def read_posterior_runs(path, n_sims: Optional[int] = None):
    """Yields (sim_id, line, (rows, D) array) for each maximal run of
    consecutive rows that share a sim_id, in file order; ``line`` is the line
    of the run's first row. Memory holds one chunk of text and one run.

    Given ``n_sims``, a sim_id outside [0, n_sims) is reported at its run's
    line when the reader reaches it, and the first sim_id in [0, n_sims) with
    no rows at line 1, once the whole file is read."""
    run = None  # (sim_id, line, [value blocks])
    present = np.zeros(n_sims or 0, dtype=bool)
    for ids, values, line_of in _table_chunks(path, ("sim_id", "sample_id"), "theta"):
        starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        for a, b in zip(np.r_[0, starts], np.r_[starts, len(ids)]):
            sid = int(ids[a])
            if run is not None and run[0] == sid:
                run[2].append(values[a:b])
                continue
            if run is not None:
                yield run[0], run[1], np.concatenate(run[2])
            if n_sims is not None:
                if not 0 <= sid < n_sims:
                    raise SchemaError(path, line_of[a], f"sim_id {sid} not present in the joint file")
                present[sid] = True
            run = (sid, line_of[a], [values[a:b]])
    if run is None:
        raise SchemaError(path, 2, "file contains no samples")
    yield run[0], run[1], np.concatenate(run[2])
    if not present.all():
        raise SchemaError(path, 1, f"no posterior samples for sim_id {np.argmin(present)} "
                                   f"(every sim needs >= 1 sample)")


def read_observation_file(path, n_sims: Optional[int] = None):
    """Returns (sim_ids (N,), xs (N, M))."""
    sim_ids, xs = _read_table(path, ("sim_id",), "x", dense=True)
    if n_sims is not None and len(sim_ids) != n_sims:
        raise SchemaError(path, 1, f"observation file has {len(sim_ids)} sims, expected {n_sims}")
    return sim_ids, xs


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
