"""CSV interchange formats and run-config echoing.

All files are plain CSV with floats printed at 17 significant digits (lossless
for 64-bit floats) and written atomically (temp file + rename), with the mode
open() gives under the umask in force at the write. A coverage CSV
carries the curve rows followed by trailing '#'-prefixed metadata lines; sample
files carry a header naming their columns:

* joint file:      sim_id, theta_0 .. theta_{D-1}
* posterior file:  sim_id, sample_id, theta_0 .. theta_{D-1}
* observation file: sim_id, x_0 .. x_{M-1}
* prior-draw file:  theta_0 .. theta_{D-1}, headerless
* bounds file:      lo, hi, headerless, one row per parameter
* weights file:     one weight per line, headerless

sim_ids must be dense in [0, N); every sim in a joint file needs at least one
posterior sample; all floats must be finite. Violations raise SchemaError naming
the file, line, and invariant; a writer refuses what a reader would (a sim_id,
value or shape) with ValueError and leaves no file. A posterior file can be
written as its draws are made, one simulation at a time. A sample file is parsed
a chunk of text at a time (about 256 KiB, cut at a line break), each chunk in
one np.loadtxt call; a per-line reader, which alone defines the valid tokens
(those int() and float() accept), reads a chunk again when numpy rejects it or a
value is not finite, to name the first invalid line. A joint or observation
file's ids are checked once every row has parsed: a repeated id first, then one
outside [0, N). A posterior file is read as runs of consecutive rows that share
a sim_id within one chunk, so a reader of the runs holds one chunk, not the file.

Floats are printed byte for byte as "%.17g" prints them, a whole table (or a
posterior file's simulation) per numpy pass. Each value "%.17g" prints in fixed
notation (1e-4 <= |v| < 1e17, rounded) gets its 17 digits exactly: the Dekker
two-product of |v| and a power of ten that is a double, rounded half-even. Every
other value (zero, subnormals, exponent form, inf, NaN) goes through "%.17g" alone.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import Optional

import numpy as np

from .coverage import CoverageCurve
from .numerics import _check_int

COVERAGE_HEADER = "credibility,alpha,ecp,band_lo,band_hi"


class SchemaError(ValueError):
    """A file violated its declared schema; message carries file and line."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


@contextlib.contextmanager
def _atomic_open(path):
    """A text handle on a temp file that replaces ``path`` when the block exits
    cleanly. The kernel gives the file the mode open() would, under the umask
    in force when it is created."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
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
    c, e, hw = curve.levels[order], curve.ecp[order], curve.band[order]
    meta = {"method": curve.method, "n_sims": curve.n_sims, "n_post": curve.n_post,
            "seed": seed, "policy": policy, "metric": metric}
    rows = _rows(np.column_stack([c, 1.0 - c, e, np.clip(e - hw, 0.0, 1.0), np.clip(e + hw, 0.0, 1.0)]))
    atomic_write_text(path, COVERAGE_HEADER + "\n" + rows + "".join(f"# {k}={v}\n" for k, v in meta.items()))


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
        rows.append(_parse_floats(path, ln, parts))
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


_P10 = np.array([float(10 ** m) for m in range(23)])  # the powers of ten that are doubles
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """(hi, lo) with hi + lo == a, each of at most 26 significant bits (Veltkamp)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _least_double_at_least(k):
    """The least double >= 10**k."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    f = num / den  # correctly rounded
    n, d = f.as_integer_ratio()
    return f if n * den >= num * d else float(np.nextafter(f, np.inf))


def _digit_words():
    """The 4 digit characters of 0..9999 as uint32 words; from 10000 on, trailing zeros as NUL."""
    n = np.arange(10000, dtype=np.int32)[:, None]  # int32 scratch: less peak memory at import
    chars = (n // np.int32([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    return np.concatenate([chars, chars * (n % np.int32([10000, 1000, 100, 10]) != 0)]).view(np.uint32).ravel()


_P10_HI, _P10_LO = _split(_P10)
_DECADES = np.array([_least_double_at_least(k) for k in range(-6, 19)])  # 10**k from k = -6
_QUADS = _digit_words()
_FRACTION_LEADS = {x: np.frombuffer(b"0.000"[:1 - x], np.uint8) for x in range(-4, 0)}
_FIELD = 25  # a field's bytes: a sign, at most 24 more characters of text, then "," or "\n"


def _digits(a):
    """(D, X) of each a in [1e-5, 1e17): X = floor(log10 a), and D = a * 10**(16 - X)
    rounded half-even, the 17 significant digits of a, from the exact product hi + lo."""
    x = np.floor(np.log10(a)).astype(np.int64)
    x += a >= _DECADES[x + 7]  # log10 may be off by one next to a power of ten
    x -= a < _DECADES[x + 6]
    m = 16 - x
    p, p_hi, p_lo = _P10[m], _P10_HI[m], _P10_LO[m]
    a_hi, a_lo = _split(a)
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo  # Dekker's two-product
    # hi is an even integer >= 2**53, so rounding lo half-even rounds the sum half-even
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), x


def _digit_chars(d):
    """The (n, 17) uint8 digit characters of the (n,) ints in [1e16, 1e17), trailing zeros as NUL."""
    top = d // 10 ** 8
    hi, lo = top.astype(np.int32), (d - top * 10 ** 8).astype(np.int32)
    g = np.empty((5, len(d)), np.int32)  # digit 1, then four groups of 4 digits
    head = hi // 10 ** 4
    g[0] = head // 10 ** 4
    g[1] = head - g[0] * 10 ** 4
    g[2] = hi - head * 10 ** 4
    g[3] = lo // 10 ** 4
    g[4] = lo - g[3] * 10 ** 4
    tail = np.ones(len(d), dtype=bool)  # every later group is zero
    for k in (4, 3, 2, 1, 0):
        g[k] += 10000 * tail  # so this group takes its word with trailing zeros as NUL
        tail &= g[k] == 10000
    return np.ascontiguousarray(_QUADS[g].T).view(np.uint8)[:, 3:]


def _rows(block, lead=None):
    """Per row of the (n, C) float ``block``, a line of C floats as "%.17g" prints them,
    after "<id>," when ``lead`` gives an int id for every row or a sequence of one per row."""
    block = np.asarray(block, dtype=float)
    n, c = block.shape
    v = block.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e17)
    d, x = _digits(np.where(fixed, a, 1.0))
    # no double from 1e-5 to 1e17 rounds up to 10**(X + 1) at 17 digits, so X is the exponent
    # "%.17g" prints, and it prints fixed notation for X in [-4, 16]
    fixed &= (x >= -4) & (x <= 16)
    order = np.argsort(np.where(fixed, x, 17).astype(np.int8), kind="stable")[:np.count_nonzero(fixed)]
    xs, chars = x[order], _digit_chars(d[order])
    if lead is not None:
        lead = np.array([f"{int(i)}," for i in ([lead] if isinstance(lead, int) else lead)], dtype=bytes)
    width = _FIELD if lead is None else max(_FIELD, lead.itemsize)
    # the fixed-notation fields, sorted by exponent, with NUL where a field has no character
    fields = np.zeros((len(order), width), np.uint8)
    fields[:, 0] = (v[order] < 0) * np.uint8(ord("-"))
    bounds = np.searchsorted(xs, np.arange(-4, 18))
    for e, start, stop in zip(range(-4, 17), bounds, bounds[1:]):
        if start == stop:
            continue
        f, dig = fields[start:stop], chars[start:stop]
        if e < 0:  # "0.", zeros, then the digits
            f[:, 1:2 - e] = _FRACTION_LEADS[e]
            f[:, 2 - e:19 - e] = dig
        else:  # e + 1 integer digits, then "." and the fraction digits, if any
            np.maximum(dig[:, :e + 1], ord("0"), out=f[:, 1:e + 2])
            if e < 16:
                np.minimum(dig[:, e + 1], ord("."), out=f[:, e + 2])
                f[:, e + 3:19] = dig[:, e + 1:]
    skip = lead is not None  # the lead takes the first field of each row
    grid = np.zeros((n, skip + c, width), np.uint8)
    flat = grid.reshape(-1, width)
    flat.view(f"V{width}")[order + skip * (order // c + 1)] = fields.view(f"V{width}")
    for i in np.flatnonzero(~fixed).tolist():
        text = ("%.17g" % v[i]).encode()
        flat[i + skip * (i // c + 1), :len(text)] = np.frombuffer(text, np.uint8)
    grid[:, skip:-1, -1] = ord(",")
    grid[:, -1, -1] = ord("\n")
    if skip:
        grid[:, 0, :lead.itemsize] = lead.view(np.uint8).reshape(len(lead), -1)
    return grid[grid != 0].tobytes().decode("ascii")


def _checked_ids(sim_ids, values):
    """The ``sim_ids`` as ints, one per row of the (N, C) float ``values``, refusing row by row
    what the readers refuse: a sim_id that is not an integer, then values that are not finite."""
    ids = []
    for sid, finite in zip(sim_ids, np.isfinite(values).all(axis=1)):
        ids.append(_check_int(sid, "sim_id"))
        if not finite:
            raise ValueError(f"values for sim_id {ids[-1]} are not finite")
    return ids


def _write_table(path, header, sim_ids, values):
    """The header, then a row per sim_id of the (N,) ``sim_ids`` and the (N, C) float ``values``,
    each table in one :func:`_rows` call, whose cost is mostly per call at a few rows."""
    ids = _checked_ids(sim_ids, values)
    atomic_write_text(path, ",".join(header) + "\n" + _rows(values, ids))


def _write_id_file(path, sim_ids, values, prefix):
    """One row per sim of the (N,) ``sim_ids`` and the (N, D) ``values``, N, D >= 1, as the readers need."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or not values.size or np.shape(sim_ids) != values.shape[:1]:
        raise ValueError(f"sim_ids {np.shape(sim_ids)} and values {values.shape} are not (N,) and (N, D), N, D >= 1")
    _write_table(path, ["sim_id"] + _theta_header(values.shape[1], prefix), sim_ids, values)


def write_joint_file(path, sim_ids, thetas):
    _write_id_file(path, sim_ids, thetas, "theta")


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
            if draws.ndim != 2 or not draws.size:  # the reader needs a row and a value column
                raise ValueError(f"samples for sim_id {sim_id} have shape {draws.shape}, "
                                 "expected (n, D), n, D >= 1")
            if first is None:
                first = (sim_id, draws.shape[1])
                fh.write(",".join(["sim_id", "sample_id"] + _theta_header(draws.shape[1])) + "\n")
            elif draws.shape[1] != first[1]:
                raise ValueError(f"samples for sim_id {sim_id} have dimension {draws.shape[1]}, "
                                 f"sim_id {first[0]} has {first[1]}")
            (sid,) = _checked_ids([sim_id], draws.reshape(1, -1))
            fh.write(_rows(np.column_stack([np.arange(len(draws)), draws]), sid))

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
    _write_id_file(path, sim_ids, xs, "x")


def _parse_header(path, line, expected_fixed, value_prefix, dim=None):
    cols = [c.strip() for c in line.split(",")]
    if cols[: len(expected_fixed)] != list(expected_fixed):
        raise SchemaError(path, 1, f"header must start with {','.join(expected_fixed)}")
    value_cols = cols[len(expected_fixed):]
    expect = _theta_header(len(value_cols), value_prefix)
    if not value_cols or value_cols != expect:
        raise SchemaError(path, 1, f"value columns must be {value_prefix}_0..{value_prefix}_{{D-1}}")
    if dim is not None and len(value_cols) != dim:
        raise SchemaError(path, 1, f"expected {dim} {value_prefix} columns, got {len(value_cols)}")
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
    """The stable argsort of ``ids``, which must be dense in [0, N) with no repeat.
    The first row in file order that repeats an earlier id fails at its line in
    ``lines``; failing that, the first id outside [0, N) does."""
    if not len(ids):
        raise SchemaError(path, 2, "file contains no simulations")
    order = np.argsort(ids, kind="stable")  # a repeat sorts just after the row it repeats
    ranked = ids[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        row = repeats.min()
        raise SchemaError(path, next(itertools.islice(lines, row, None)), f"duplicate sim_id {ids[row]}")
    outside = np.flatnonzero((ids < 0) | (ids >= len(ids)))
    if len(outside):
        missing = sorted(set(range(len(ids))) - set(ids.tolist()))[:3]
        raise SchemaError(path, next(itertools.islice(lines, outside[0], None)),
                          f"sim_ids must be dense in [0, N); missing or duplicated near {missing}")
    return order


def _numbered_rows(lines, ln):
    """(line number, line) of the non-blank ``lines``, numbered from ``ln``."""
    return ((n, raw) for n, raw in enumerate(lines, start=ln) if raw.strip())


def _read_lines(path, lines, ln, fixed, dim):
    """The per-line reader, which alone defines which tokens are valid: (the
    first id column, a (rows, dim) array, the line of each row) of ``lines``
    numbered from ``ln``, or the SchemaError of the first invalid line."""
    sim_ids, rows, line_of = [], [], []
    for ln, raw in _numbered_rows(lines, ln):
        parts = raw.split(",")
        if len(parts) != len(fixed) + dim:
            raise SchemaError(path, ln, f"expected {len(fixed) + dim} columns, got {len(parts)}")
        ids = [_parse_int(path, ln, token, what) for token, what in zip(parts, fixed)]
        rows.append(_parse_floats(path, ln, parts[len(fixed):]))
        sim_ids += ids[:1]
        line_of.append(ln)
    return np.array(sim_ids, dtype=object), np.reshape(rows, (len(rows), dim)), line_of


def _parse_chunk(path, text, lines, rows, ln, fixed, dim):
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
    if table is not None and np.isfinite(table["values"]).all():
        line_of = (range(ln, ln + len(rows)) if len(rows) == len(lines)
                   else [n for n, _ in _numbered_rows(lines, ln)])
        return table["ids"][:, :1].ravel(), table["values"], line_of
    return _read_lines(path, lines, ln, fixed, dim)


def _table_chunks(path, fixed, prefix, dim=None):
    """The rows of the integer ``fixed`` columns, then D floats, one chunk of
    text at a time: per chunk that holds rows, (the first id column, a (rows,
    D) array, the line number of each row). D comes from a header naming the
    ``prefix``_d columns, which must number ``dim`` if given; with no
    ``prefix`` the file is headerless and D is ``dim``. Blank lines are
    skipped but numbered.

    One np.loadtxt call parses a chunk; when numpy rejects a row, or a value is
    not finite, the per-line reader reads the chunk's lines."""
    with open(path) as fh:
        ln = 1
        while text := fh.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()  # a chunk ends at a line break
            lines = text.splitlines()
            if prefix is not None and ln == 1:
                dim, lines, ln = _parse_header(path, lines[0], fixed, prefix, dim), lines[1:], 2
            rows = list(filter(str.strip, lines))
            if rows:
                yield _parse_chunk(path, text, lines, rows, ln, fixed, dim)
            ln += len(lines)
            del text, lines, rows  # freed before the next chunk is read
    if prefix is not None and ln == 1:
        raise SchemaError(path, 1, "empty file")


def _read_table(path, fixed, prefix, dim=None, dense=False):
    """(the first id column, a (rows, D) array) of a whole file, grown one chunk at a time so
    the values are held once; see _table_chunks. ``dense`` ids are dense in [0, N) with no repeat,
    checked once the whole file is parsed (see _check_dense_ids): the rows come back in id order."""
    ids, lines, values = [], [], np.empty((0, dim or 0))
    for chunk_ids, chunk_values, line_of in _table_chunks(path, fixed, prefix, dim):
        ids.append(chunk_ids.copy())  # a view would keep the chunk's parsed table
        if dense:
            lines.append(line_of)
        n = len(values)
        values.resize((n + len(chunk_values), chunk_values.shape[1]), refcheck=False)
        values[n:] = chunk_values
    ids = np.concatenate(ids) if ids else []
    if dense:
        order = _check_dense_ids(path, ids, itertools.chain.from_iterable(lines))
        ids = np.arange(len(ids))
        if not np.array_equal(order, ids):
            values = values[order]
    return ids, values


def read_joint_file(path):
    """Returns (sim_ids (N,), thetas (N, D)) with sim_ids dense in [0, N)."""
    return _read_table(path, ("sim_id",), "theta", dense=True)


def read_posterior_runs(path, n_sims: Optional[int] = None, dim: Optional[int] = None):
    """Yields (sim_id, a slice of the chunk's (rows, D) values) for each run of
    consecutive rows that share a sim_id within one parsed chunk, in file order,
    so one simulation may come in several runs. Memory holds one chunk. Given
    ``dim``, a header with another D fails at line 1, before any row is read.

    Given ``n_sims``, a sim_id outside [0, n_sims) is reported at its run's
    line when the reader reaches it, and the first sim_id in [0, n_sims) with
    no rows at line 1, once the whole file is read."""
    sid, present = None, np.zeros(n_sims or 0, dtype=bool)
    for ids, values, line_of in _table_chunks(path, ("sim_id", "sample_id"), "theta", dim):
        starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        for a, b in zip(np.r_[0, starts], np.r_[starts, len(ids)]):
            sid = int(ids[a])
            if n_sims is not None and not 0 <= sid < n_sims:
                raise SchemaError(path, line_of[a], f"sim_id {sid} not present in the joint file")
            present[sid:sid + 1] = True  # an empty slice when n_sims is not given
            yield sid, values[a:b]
    if sid is None:
        raise SchemaError(path, 2, "file contains no samples")
    if not present.all():
        raise SchemaError(path, 1, f"no posterior samples for sim_id {np.argmin(present)} (every sim needs >= 1 sample)")


def read_observation_file(path, n_sims: Optional[int] = None):
    """Returns (sim_ids (N,), xs (N, M))."""
    sim_ids, xs = _read_table(path, ("sim_id",), "x", dense=True)
    if n_sims is not None and len(sim_ids) != n_sims:
        raise SchemaError(path, 1, f"observation file has {len(sim_ids)} sims, expected {n_sims}")
    return sim_ids, xs


def read_headerless_file(path, dim: int, kind: str):
    """Returns the (rows, dim) values of a headerless file, one row per line;
    error line numbers count blank lines, as in the other sample files, and a
    file with no rows is an "empty ``kind`` file"."""
    _, rows = _read_table(path, (), None, dim)
    if not len(rows):
        raise SchemaError(path, 1, f"empty {kind} file")
    return rows


def write_resolved_config(out_dir, config: dict):
    """Echo the fully resolved run configuration to out_dir/resolved_config.txt, one key=value per line."""
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    atomic_write_text(os.path.join(out_dir, "resolved_config.txt"), "\n".join(lines) + "\n")


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
