"""Property tests: the streamed sample-file writer and reader against per-row
and per-line reference implementations of the same formats."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drpkit import fileio
from drpkit.fileio import SchemaError

# --- reference implementations: one format_float call per value, one parse per line


def ref_format(v):
    return f"{float(v):.17g}"


def ref_dense_text(sim_ids, values, prefix):
    lines = [",".join(["sim_id"] + [f"{prefix}_{d}" for d in range(values.shape[1])])]
    for sid, row in zip(sim_ids, values):
        lines.append(",".join([str(int(sid))] + [ref_format(v) for v in row]))
    return "\n".join(lines) + "\n"


def ref_posterior_text(samples_by_sim):
    dim = next(iter(samples_by_sim.values())).shape[1]
    lines = [",".join(["sim_id", "sample_id"] + [f"theta_{d}" for d in range(dim)])]
    for sid in sorted(samples_by_sim):
        for j, row in enumerate(samples_by_sim[sid]):
            lines.append(",".join([str(int(sid)), str(j)] + [ref_format(v) for v in row]))
    return "\n".join(lines) + "\n"


def ref_header(path, line, fixed, prefix):
    cols = [c.strip() for c in line.split(",")]
    if cols[: len(fixed)] != list(fixed):
        raise SchemaError(path, 1, f"header must start with {','.join(fixed)}")
    value_cols = cols[len(fixed):]
    if not value_cols or value_cols != [f"{prefix}_{d}" for d in range(len(value_cols))]:
        raise SchemaError(path, 1, f"value columns must be {prefix}_0..{prefix}_{{D-1}}")
    return len(value_cols)


def ref_int(path, ln, token, what):
    try:
        return int(token)
    except ValueError:
        raise SchemaError(path, ln, f"{what} must be an integer, got {token!r}") from None


def ref_floats(path, ln, tokens):
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError:
        raise SchemaError(path, ln, "non-numeric value") from None
    if not np.all(np.isfinite(vals)):
        raise SchemaError(path, ln, "non-finite value")
    return vals


def ref_read_dense(path, prefix):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(path, 1, "empty file")
    dim = ref_header(path, lines[0], ("sim_id",), prefix)
    recs, line_of = {}, {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 1:
            raise SchemaError(path, ln, f"expected {dim + 1} columns, got {len(parts)}")
        sid = ref_int(path, ln, parts[0], "sim_id")
        if sid in recs:
            raise SchemaError(path, ln, f"duplicate sim_id {sid}")
        recs[sid], line_of[sid] = ref_floats(path, ln, parts[1:]), ln
    ids = sorted(recs)
    if not ids:
        raise SchemaError(path, 2, "file contains no simulations")
    if ids != list(range(len(ids))):  # names the missing ids as plain ints, at the first id outside
        missing = sorted(set(range(len(ids))) - set(ids))[:3]
        ln = min(line_of[sid] for sid in ids if not 0 <= sid < len(ids))
        raise SchemaError(path, ln, f"sim_ids must be dense in [0, N); missing or duplicated near {missing}")
    return np.arange(len(ids)), np.stack([recs[i] for i in ids])


def ref_read_posterior(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(path, 1, "empty file")
    dim = ref_header(path, lines[0], ("sim_id", "sample_id"), "theta")
    by_sim = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 2:
            raise SchemaError(path, ln, f"expected {dim + 2} columns, got {len(parts)}")
        sid = ref_int(path, ln, parts[0], "sim_id")
        ref_int(path, ln, parts[1], "sample_id")
        by_sim.setdefault(sid, []).append(ref_floats(path, ln, parts[2:]))
    if not by_sim:
        raise SchemaError(path, 2, "file contains no samples")
    return {sid: np.stack(rows) for sid, rows in by_sim.items()}


def ref_read_prior(path, dim):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim:
            raise SchemaError(path, ln, f"expected {dim} columns, got {len(parts)}")
        rows.append(ref_floats(path, ln, parts))
    if not rows:
        raise SchemaError(path, 1, "empty prior-draw file")
    return np.stack(rows)


# --- strategies ----------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                           np.pi, 1.0, 2.0 ** 53, 1e17, 123456789012345678.0])
values = st.one_of(finite, special)


@st.composite
def ragged_draws(draw):
    dim = draw(st.integers(1, 4))
    sids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    out = {}
    for sid in sids:  # insertion order is unsorted
        n = draw(st.integers(0, 5))
        out[sid] = np.array(draw(st.lists(values, min_size=n * dim, max_size=n * dim)),
                            dtype=float).reshape(n, dim)
    return out


def same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchemaError as e:
        return "error", (str(e), e.line)


PROPS = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

# characters of text per parse: one line per chunk, a few lines, and the default
chunk_sizes = st.sampled_from([1, 40, 300, fileio._CHUNK_CHARS])


def chunked(size):
    return mock.patch.object(fileio, "_CHUNK_CHARS", size)


# --- the writer ----------------------------------------------------------------------

@PROPS
@given(ragged_draws())
def test_posterior_writer_bytes_match_reference(tmp_path, draws):
    path = tmp_path / "post.csv"
    fileio.write_posterior_file(path, draws)
    assert path.read_text() == ref_posterior_text(draws)
    # the streaming writer, handed the blocks one at a time and in Fortran order
    with fileio.posterior_writer(tmp_path / "streamed.csv") as write:
        for sid in sorted(draws):
            write(sid, np.asfortranarray(draws[sid]))
    assert (tmp_path / "streamed.csv").read_text() == ref_posterior_text(draws)


@PROPS
@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_joint_and_observation_writers_match_reference(tmp_path, dim, n, data):
    xs = np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    ids = data.draw(st.permutations(range(n)))
    fileio.write_joint_file(tmp_path / "j.csv", ids, xs)
    fileio.write_observation_file(tmp_path / "o.csv", ids, xs)
    assert (tmp_path / "j.csv").read_text() == ref_dense_text(ids, xs, "theta")
    assert (tmp_path / "o.csv").read_text() == ref_dense_text(ids, xs, "x")


# --- the reader ----------------------------------------------------------------------

def grouped_runs(path, n_sims=None):
    """The runs of read_posterior_runs joined per sim_id in file order, keyed
    in order of first appearance."""
    by_sim = {}
    for sid, _, rows in fileio.read_posterior_runs(path, n_sims):
        by_sim.setdefault(sid, []).append(rows)
    return {sid: blocks[0] if len(blocks) == 1 else np.concatenate(blocks) for sid, blocks in by_sim.items()}


def assert_same_posterior(new, ref):
    assert list(new) == list(ref)  # same keys in the same order
    assert all(same_array(new[k], ref[k]) for k in ref)


@PROPS
@given(ragged_draws())
def test_posterior_reader_matches_reference(tmp_path, draws):
    path = tmp_path / "post.csv"
    path.write_text(ref_posterior_text(draws))
    new = outcome(grouped_runs, path)
    ref = outcome(ref_read_posterior, path)
    assert new[0] == ref[0]
    if ref[0] == "ok":
        assert_same_posterior(new[1], ref[1])
    else:
        assert new[1] == ref[1]


def argsort_grouping(sim_ids, values):
    """A grouping of a whole file's rows by sim_id: split a stable
    argsort copy of the values by sim_id, keyed in order of first appearance."""
    order = np.argsort(sim_ids, kind="stable")
    keys, starts = np.unique(np.asarray(sim_ids)[order], return_index=True)
    groups = np.split(values[order], starts[1:])
    return {int(keys[g]): groups[g] for g in np.argsort(order[starts])}


LAYOUTS = st.sampled_from(["sorted", "unsorted", "interleaved"])


def posterior_text(draws, layout, data):
    """A posterior file of ``draws`` with rows sorted by sim_id, in whole
    blocks of another order, or interleaved, maybe with blank lines."""
    rows = [(sid, j, row) for sid in sorted(draws) for j, row in enumerate(draws[sid])]
    if layout == "unsorted":  # whole blocks, in another order
        order = data.draw(st.permutations(sorted(draws)))
        rows = [(sid, j, row) for sid in order for j, row in enumerate(draws[sid])]
    elif layout == "interleaved":
        rows = data.draw(st.permutations(rows))
    dim = next(iter(draws.values())).shape[1]
    lines = [",".join(["sim_id", "sample_id"] + [f"theta_{d}" for d in range(dim)])]
    lines += [",".join([str(sid), str(j)] + [ref_format(v) for v in row]) for sid, j, row in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    return rows, "\n".join(lines) + "\n"


@PROPS
@given(ragged_draws(), LAYOUTS, chunk_sizes, st.data())
def test_grouping_matches_the_argsort_copy(tmp_path, draws, layout, chunk, data):
    rows, text = posterior_text(draws, layout, data)
    assume(rows)
    path = tmp_path / "post.csv"
    path.write_text(text)
    sim_ids, values = fileio._read_table(path, ("sim_id", "sample_id"), "theta")
    with chunked(chunk):
        assert_same_posterior(grouped_runs(path), argsort_grouping(sim_ids, values))


def ref_runs(path, n_sims):
    """(sim_id, line, rows) of each maximal run of one sim_id, in file order;
    a sim_id outside [0, n_sims) fails at its run's line, a missing one at line 1."""
    runs = []
    with open(path) as fh:
        for ln, raw in enumerate(fh.read().splitlines()[1:], start=2):
            if raw.strip():
                sid, _, *vals = raw.split(",")
                if runs and runs[-1][0] == int(sid):
                    runs[-1][2].append(ref_floats(path, ln, vals))
                    continue
                if not 0 <= int(sid) < n_sims:
                    raise SchemaError(path, ln, f"sim_id {sid} not present in the joint file")
                runs.append((int(sid), ln, [ref_floats(path, ln, vals)]))
    missing = sorted(set(range(n_sims)) - {sid for sid, _, _ in runs})
    if missing:
        raise SchemaError(path, 1, f"no posterior samples for sim_id {missing[0]} "
                                   f"(every sim needs >= 1 sample)")
    return [(sid, ln, np.stack(rows)) for sid, ln, rows in runs]


@PROPS
@given(ragged_draws(), LAYOUTS, chunk_sizes, st.data())
def test_runs_are_the_maximal_blocks_in_file_order(tmp_path, draws, layout, chunk, data):
    rows, text = posterior_text(draws, layout, data)
    assume(rows)
    path = tmp_path / "post.csv"
    path.write_text(text)
    n_sims = data.draw(st.integers(1, 42))  # sim_ids are in [0, 40]
    with chunked(chunk):
        new = outcome(lambda: list(fileio.read_posterior_runs(path, n_sims)))
    ref = outcome(ref_runs, path, n_sims)
    assert new[0] == ref[0], (new, ref)
    if ref[0] == "error":
        assert new[1] == ref[1]
    else:
        assert [(sid, ln) for sid, ln, _ in new[1]] == [(sid, ln) for sid, ln, _ in ref[1]]
        assert all(same_array(a, b) for (_, _, a), (_, _, b) in zip(new[1], ref[1]))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sorted_file_is_grouped_without_a_copy(tmp_path):
    g = np.random.default_rng(1)
    draws = {i: g.standard_normal((400, 10)) for i in range(50)}
    values_bytes = 50 * 400 * 10 * 8
    path = tmp_path / "post.csv"
    fileio.write_posterior_file(path, draws)
    parse = traced_peak(lambda: fileio._read_table(path, ("sim_id", "sample_id"), "theta"))
    read = traced_peak(lambda: grouped_runs(path))
    assert read < parse + values_bytes / 4, (read, parse)  # a copy would add values_bytes


@pytest.mark.parametrize("kind, rows, dim, bound", [
    ("prior", 20_000, 10, 2.4e6),      # the values are 1.6 MB
    ("joint", 20_000, 10, 6.79e6),     # and the duplicate-id set about 1.5 MB
    ("joint", 2_000, 200, 1.5 * 3.2e6),
])
def test_whole_file_reads_hold_the_values_once(tmp_path, kind, rows, dim, bound):
    # the rows are parsed into one array grown chunk by chunk, and a joint
    # file already in sim_id order is not reordered through a copy
    values = np.random.default_rng(3).standard_normal((rows, dim))
    path = tmp_path / f"{kind}.csv"
    if kind == "prior":
        np.savetxt(path, values, fmt="%.17g", delimiter=",")
        read = lambda: fileio.read_prior_file(path, dim)
    else:
        fileio.write_joint_file(path, np.arange(rows), values)
        read = lambda: fileio.read_joint_file(path)[1]
    assert np.array_equal(read(), values)  # and numpy's lazy imports are done
    assert traced_peak(read) <= bound


# kind -> (reader, reference reader), both called with (path, dim)
READERS = {
    "joint": (lambda p, d: fileio.read_joint_file(p), lambda p, d: ref_read_dense(p, "theta")),
    "observation": (lambda p, d: fileio.read_observation_file(p), lambda p, d: ref_read_dense(p, "x")),
    "posterior": (lambda p, d: grouped_runs(p), lambda p, d: ref_read_posterior(p)),
    "prior": (fileio.read_prior_file, ref_read_prior),
}
BAD_TOKENS = ["abc", "", " ", "nan", "inf", "-inf", "1e999", "3.0", "0x1", "1,2", " 4 ", "1_0", "+7", "-0"]


@st.composite
def table_with_faults(draw):
    """Rows of a valid file of one kind, then zero to three faults or harmless
    variations: a replaced token, a blank or whitespace-only line, a dropped or
    extra column, a repeated sim_id, and CRLF line endings."""
    kind = draw(st.sampled_from(sorted(READERS)))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 14))
    if kind == "posterior":
        ids = [[str(draw(st.integers(0, 3))), str(j)] for j in range(n)]
    elif kind == "prior":
        ids = [[] for _ in range(n)]
    else:
        ids = [[str(i)] for i in draw(st.permutations(range(n)))]
    rows = [ids[i] + [ref_format(draw(values)) for _ in range(dim)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["token", "blank", "columns", "repeat"]))
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "token":
            if not rows[i]:  # a dropped column can leave a row with no token to replace
                continue
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i] = rows[i][:j] + [draw(st.sampled_from(BAD_TOKENS))] + rows[i][j + 1:]
        elif fault == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "   ", "\t"]))])
        elif fault == "columns":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.5"]
        elif kind != "prior" and rows[i] and len(rows) > 1 and rows[(i + 1) % len(rows)]:
            rows[i] = [rows[(i + 1) % len(rows)][0]] + rows[i][1:]
    fixed = {"joint": "sim_id,", "observation": "sim_id,", "posterior": "sim_id,sample_id,"}
    prefix = "x" if kind == "observation" else "theta"
    lines = [fixed[kind] + ",".join(f"{prefix}_{d}" for d in range(dim))] if kind in fixed else []
    lines += [",".join(r) for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return kind, dim, text


@PROPS
@given(table_with_faults(), chunk_sizes)
def test_reader_errors_and_values_match_reference(tmp_path, case, chunk):
    kind, dim, text = case
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode())
    new_read, ref_read = READERS[kind]
    with chunked(chunk):
        new = outcome(new_read, path, dim)
    ref = outcome(ref_read, path, dim)
    assert new[0] == ref[0], (new, ref)
    if ref[0] == "error":
        assert new[1] == ref[1]
    elif kind == "posterior":
        assert_same_posterior(new[1], ref[1])
    elif kind == "prior":
        assert same_array(new[1], ref[1])
    else:
        assert all(same_array(a, b) for a, b in zip(new[1], ref[1]))


# tokens at the edge of what int() and float() accept: underscores, non-ASCII
# digits and spaces, signs, padding, quotes, prefixes, specials, overflow, line
# breaks of str.splitlines(), controls, and letters numpy's int parser misreads
ODD_TOKENS = ["1_0", "1_0.5", "３", "١", "１.5", "+3", "-0", "007", " 3 ", "\t3", "3\xa0",
              "\u30003", "#", "'3'", '"3"', "0x1", "3.0", "1e3", ".5", "5.", "nan", "-inf",
              "Infinity", "1e999", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
              "\x0c", "\x85", "\x1c", "\u2028", "3\x1f", "\x1f", "3\x00", "\u01fe", "3\u0763",
              " ", ""]


@pytest.mark.parametrize("token", ODD_TOKENS)
@settings(PROPS, max_examples=25)
@given(st.sampled_from(sorted(READERS)), st.integers(1, 3), st.integers(1, 6), st.data())
def test_reader_matches_reference_on_odd_tokens(tmp_path, token, kind, dim, n, data):
    fixed = {"joint": ["sim_id"], "observation": ["sim_id"], "posterior": ["sim_id", "sample_id"],
             "prior": []}[kind]
    # row i's id cells: none, sim_id i, or sim_id i % 2 and sample_id i
    rows = [[str(i % 2), str(i)][2 - len(fixed):] + [ref_format(data.draw(values)) for _ in range(dim)]
            for i in range(n)]
    i = data.draw(st.integers(0, n - 1))
    rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = token
    prefix = "x" if kind == "observation" else "theta"
    header = [",".join(fixed + [f"{prefix}_{d}" for d in range(dim)])] if fixed else []
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(header + [",".join(r) for r in rows]) + "\n")
    new_read, ref_read = READERS[kind]
    new, ref = outcome(new_read, path, dim), outcome(ref_read, path, dim)
    assert new[0] == ref[0], (new, ref)
    if ref[0] == "error":
        assert new[1] == ref[1]
    elif kind == "posterior":
        assert_same_posterior(new[1], ref[1])
    elif kind == "prior":
        assert same_array(new[1], ref[1])
    else:
        assert all(same_array(a, b) for a, b in zip(new[1], ref[1]))


@pytest.mark.filterwarnings("error")  # np.loadtxt warns on empty input
@pytest.mark.parametrize("kind, text", [
    ("joint", "sim_id,theta_0\n"),
    ("joint", "sim_id,theta_0\n\n  \n"),
    ("observation", "sim_id,x_0,x_1\n\t\n"),
    ("posterior", "sim_id,sample_id,theta_0\n"),
    ("posterior", "sim_id,sample_id,theta_0\n\n\n"),
    ("prior", "\n  \n\n"),
])
def test_header_only_and_blank_files_read_as_the_reference(tmp_path, kind, text):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    new_read, ref_read = READERS[kind]
    new, ref = outcome(new_read, path, 1), outcome(ref_read, path, 1)
    assert new[0] == ref[0] == "error"
    assert new[1] == ref[1]


@pytest.mark.parametrize("line, token, message", [
    (9000, "oops", "non-numeric value"),
    (8194, "nan", "non-finite value"),
    (8193, "3.0", "sim_id must be an integer, got '3.0'"),
])
def test_error_past_the_first_chunk_names_its_line(tmp_path, line, token, message):
    # a real-size file of several chunks of text: each fault sits past the first
    g = np.random.default_rng(0)
    draws = {i: g.standard_normal((500, 3)) for i in range(20)}
    lines = ref_posterior_text(draws).splitlines()
    parts = lines[line - 1].split(",")
    parts[0 if "sim_id" in message else 3] = token
    lines[line - 1] = ",".join(parts)
    path = tmp_path / "post.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as new:
        grouped_runs(path)
    with pytest.raises(SchemaError) as ref:
        ref_read_posterior(path)
    assert (str(new.value), new.value.line) == (str(ref.value), ref.value.line)
    assert new.value.line == line and str(new.value).endswith(message)
