"""Every file reader, fuzzed through cli.main: whatever a dataset, params,
trajectory or config file holds, the command exits 0, 1, 2 or 3 with at
most one line on stderr and no traceback.

Each file is drawn as a valid one (so that examples reach the numerics) and
then, most of the time, broken: one value replaced by any JSON value or
removed, a stray key added, a row or field missing or extra, a token that
is any float, integer or text, or the whole file any JSON, text or bytes.
Values that size arrays or loops (d, N, N_o, N_i, repetitions in a config)
are replaced only by small numbers or by non-numbers, so that an example
runs in milliseconds; a sidecar's d, N and n are fuzzed in full, since the
table must match them before anything is allocated."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twolayer_opt import dataset
from twolayer_opt.activations import ACTIVATION_NAMES
from twolayer_opt.cli import TRAJECTORY_COLUMNS, main
from twolayer_opt.dataset import DISTRIBUTIONS
from twolayer_opt.optimizer import INIT_KEYS, RUN_KEYS

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


def weighted(*options):
    """One of the strategies, drawn in proportion to its weight; options are
    (weight, strategy) pairs."""
    return st.sampled_from([s for w, s in options for _ in range(w)]).flatmap(
        lambda s: s)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# a stand-in for a count that sizes arrays or loops: small, or not a number
SMALL = st.integers(-1, 4) | st.sampled_from([0.5, 2.0, "2", True, None, [], {}])
TOKEN = weighted((2, st.floats().map(repr)), (1, st.integers().map(str)),
                 (1, st.text(max_size=5)),
                 (1, st.sampled_from(["", " 1", "1_0", "0x1", "1e999", "-nan"])))


@st.composite
def table(draw, widths):
    """Comma-separated rows of moderate floats, one row per entry of widths
    with that many fields; or those rows with any tokens, or with a row or
    a field missing or extra; or any text or bytes."""
    mode = draw(st.sampled_from(["valid", "valid", "tokens", "shape", "text"]))
    if mode == "text":
        return draw(st.text() | st.binary())
    widths = [w for w in widths if isinstance(w, int) and 0 <= w <= 6]
    token = st.floats(-10.0, 10.0).map(repr)
    if mode == "tokens":
        token = weighted((4, token), (1, TOKEN))
    if mode == "shape":
        widths += draw(st.lists(st.integers(0, 6), max_size=1))
        if widths and draw(st.booleans()):
            del widths[draw(st.integers(0, len(widths) - 1))]
        widths = [max(0, w + draw(st.sampled_from([0, 0, 0, -1, 1])))
                  for w in widths]
    rows = [draw(st.lists(token, min_size=w, max_size=w)) for w in widths]
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def document(draw, valid, fuzz):
    """The JSON text of the object drawn from valid: as drawn; or with the
    value at one key path of fuzz removed or replaced by a draw from
    fuzz[path]; or with a stray key; or any JSON value; or any text or
    bytes."""
    doc = draw(valid)
    mode = draw(st.sampled_from(["valid", "replace", "replace", "remove",
                                 "stray", "json", "text"]))
    if mode == "text":
        return draw(st.text() | st.binary())
    if mode == "json":
        doc = draw(JSON)
    if mode == "stray":
        doc[draw(st.text(max_size=4))] = draw(JSON)
    if mode in ("replace", "remove"):
        path = draw(st.sampled_from(sorted(fuzz)))
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if mode == "remove":
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(fuzz[path])
    return json.dumps(doc)


def _loads(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), code
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.csv"
    dataset.save(dataset.make_realizable(3, 9, seed=0), path)
    return path


def write(path, content):
    """Write content (text or bytes) to path; return str(path)."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def write_table(tmp, name, csv, meta):
    path = Path(tmp) / name
    write(path.with_suffix(".meta.json"), meta)
    return write(path, csv)


def int_keys(text, keys, default):
    """The values of keys in the JSON object text when all are ints in
    0..12, else default."""
    doc = _loads(text)
    values = [doc.get(k) if isinstance(doc, dict) else None for k in keys]
    ok = all(type(v) is int and 0 <= v <= 12 for v in values)
    return values if ok else default


@FUZZ
@given(st.data())
def test_dataset_reader(data):
    valid = st.fixed_dictionaries(
        {"d": st.integers(1, 4), "N": st.integers(1, 12)},
        optional={"distribution": st.sampled_from(DISTRIBUTIONS),
                  "seed": st.integers(0, 9)})
    meta = data.draw(document(valid, {(key,): JSON for key in
                                      ("d", "N", "distribution", "seed", "teacher")}))
    d, N = int_keys(meta, ("d", "N"), (2, 3))
    csv = data.draw(table([d + 1] * N))
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_exit(["train", "--data", write_table(tmp, "d.csv", csv, meta),
                           "--n-outer", "1", "--n-inner", "1",
                           "--out", str(Path(tmp) / "out")])


@FUZZ
@given(st.data())
def test_params_reader(data_csv, data):
    valid = st.fixed_dictionaries({
        "n": st.sampled_from([3, 3, 3, 1, 2, 4]),
        "d": st.sampled_from([3, 3, 3, 2, 4]),
        "activation": st.sampled_from(ACTIVATION_NAMES)})
    meta = data.draw(document(valid, {("n",): JSON, ("d",): JSON,
                                      ("activation",): JSON}))
    n, d = int_keys(meta, ("n", "d"), (3, 3))
    csv = data.draw(table([d] * n + [n]))
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_exit(["diagnose", "--data", str(data_csv),
                           "--params", write_table(tmp, "p.csv", csv, meta)])


HEADER = ",".join(TRAJECTORY_COLUMNS)


@st.composite
def trajectory(draw, rows):
    """A trajectory CSV of rows rows (k = 0, 1, ... and 0.5 elsewhere), or a
    table of any tokens; under the header, a header short of a column, or
    any text; the body may be any bytes."""
    header = draw(weighted((4, st.just(HEADER)), (1, st.text()),
                           (1, st.just(HEADER.replace(",f,", ",")))))
    width = len(TRAJECTORY_COLUMNS)
    body = draw(weighted((3, st.just(
        "".join(f"{k}," + ",".join(["0.5"] * (width - 1)) + "\n"
                for k in range(rows)))), (2, table([width] * rows))))
    if isinstance(body, bytes):
        return header.encode() + b"\n" + body
    return header + "\n" + body


@FUZZ
@given(st.integers(0, 3).flatmap(
    lambda rows: st.lists(trajectory(rows), min_size=1, max_size=2)))
def test_trajectory_reader(runs):
    with tempfile.TemporaryDirectory() as tmp:
        for rep, content in enumerate(runs):
            write(Path(tmp) / f"r_rep{rep}.trajectory.csv", content)
        assert_clean_exit(["plotdata", "--run-dir", tmp,
                           "--out", str(Path(tmp) / "plot")])


RUN_VALUES = {"N_o": st.integers(0, 3), "N_i": st.integers(1, 3),
              "R": st.floats(0.5, 8.0), "sigma": st.floats(0.0, 1.0),
              "seed": st.integers(0, 9)}
FLOAT_KEYS = ("R", "sigma", "beta", "gamma", "noise_std", *INIT_KEYS)


@FUZZ
@given(st.data())
def test_config_reader(data_csv, data):
    recipe = st.fixed_dictionaries(
        {"d": st.integers(1, 4), "N": st.integers(1, 12)},
        optional={"dist": st.sampled_from(DISTRIBUTIONS),
                  "seed": st.integers(0, 9), "noise_std": st.floats(0.0, 1.0)})
    valid = st.fixed_dictionaries(
        {"dataset": recipe | st.just({"path": str(data_csv)}),
         "run": st.fixed_dictionaries({}, optional=RUN_VALUES)},
        optional={"activation": st.sampled_from(ACTIVATION_NAMES),
                  "repetitions": st.integers(1, 2), "name": st.just("run")})
    sized = {("dataset", "d"), ("dataset", "N"), ("run", "N_o"),
             ("run", "N_i"), ("repetitions",)}
    paths = [("name",), ("activation",), ("out_dir",), ("dataset",), ("run",),
             ("dataset", "path"), ("dataset", "dist"), ("dataset", "seed"),
             ("dataset", "teacher_seed"), ("dataset", "noise_std"),
             ("run", "init"), *(("run", key) for key in RUN_KEYS),
             *(("run", "init", key) for key in INIT_KEYS)]
    fuzz = {path: SMALL if path in sized else
            st.floats() | JSON if path[-1] in FLOAT_KEYS else
            st.sampled_from([str(data_csv.parent), "missing.csv"]) | JSON
            if path[-1] == "path" else JSON
            for path in [*paths, *sized]}
    config = data.draw(document(valid, fuzz))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "config.json", config)
        assert_clean_exit(["train", "--config", path, "--name", "fuzz",
                           "--out", str(Path(tmp) / "out")])
