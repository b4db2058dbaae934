"""Self-tests of the benchmark: span arithmetic, exact interception of
name-imported calls, the reference-SVD tolerance, the output checks, the
child launcher's resident-set isolation and the reference-speed factor.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import trajectory_failures  # noqa: E402

from twolayer_opt import (activations, cli, dataset, diagnostics,  # noqa: E402
                          model, optimizer)


def test_self_time_on_synthetic_tree():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, False),
        Span(2, "a", 1.0, 3.0, 1, 1, False),
        Span(3, "a", 2.0, 5.0, 1, 2, False),    # overlaps its sibling
        Span(4, "b", 6.0, 7.0, 1, 1, True),
        Span(5, "leaf", 1.5, 2.0, 2, 1, False),
        Span(6, "leaf", 9.0, 11.0, 1, 1, False),  # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    # root: 10 - |[1,5] u [6,7] u [9,10]| = 10 - 6
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)

    table = tracing.layer_table(spans, names=("root", "a", "b", "missing"))
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == pytest.approx(5.0)
    assert table["a"]["self_s"] == pytest.approx(4.5)
    assert table["a"]["p50_ms"] == pytest.approx(2500.0)
    assert table["a"]["p90_ms"] is None      # fewer than P90_MIN_CALLS
    assert table["b"]["errors"] == 1
    assert table["missing"] == {"calls": 0, "total_s": 0.0, "self_s": 0,
                                "p50_ms": None, "p90_ms": None, "errors": 0}
    assert tracing.concurrency(spans, "a") == pytest.approx(5.0 / 4.0)
    assert tracing.has_ancestor(spans[4], "root", {s.id: s for s in spans})


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_wrappers_intercept_name_imported_calls(tmp_path):
    assert _main(["generate", "--d", "3", "--n-samples", "9", "--data-seed",
                  "4", "--out", str(tmp_path), "--name", "data"]) == 0
    originals = (optimizer.grad_W, optimizer.stationarity_system,
                 cli.builtin_activation, cli.write_trajectory_csv)
    n_outer = 7
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert _main(["train", "--data", str(tmp_path / "data.csv"),
                      "--out", str(tmp_path / "run"), "--reps", "1",
                      "--n-outer", str(n_outer), "--n-inner", "5"]) == 0
    table = tracing.layer_table(tracer.spans)
    calls = {name: row["calls"] for name, row in table.items()}
    assert calls["optimizer.run"] == 1
    assert calls["optimizer.inner_sgd"] == n_outer
    assert calls["model.stationarity_system"] == n_outer + 1
    assert calls["model.grad_W"] == n_outer + 1
    assert calls["diagnostics.column_sigma_extremes"] == n_outer + 1
    assert calls["diagnostics.lipschitz_ball_bound"] == 1
    assert calls["activations.eval"] == 3 * n_outer + 3
    assert calls["activations.deriv"] == 2 * (n_outer + 1)
    assert calls["dataset.load"] == 1
    assert calls["cli.write_trajectory_csv"] == 1
    assert tracer.counters["model.stationarity_system.bytes"] == \
        (n_outer + 1) * 3 * 3 * 9 * 8
    assert len(tracer.runs) == 1 and len(tracer.runs[0][3]) == n_outer + 1
    assert all(row["errors"] == 0 for row in table.values())
    # the originals are back once the block ends
    assert (optimizer.grad_W, optimizer.stationarity_system,
            cli.builtin_activation, cli.write_trajectory_csv) == originals
    assert optimizer.grad_W is model.grad_W
    assert cli.builtin_activation is activations.builtin_activation


def test_reference_svd_matches_program_and_rejects_gram_error():
    ds = dataset.make_realizable(10, 100, seed=3)
    rng = np.random.default_rng(0)
    p = model.NetworkParams(rng.normal(0, 1 / np.sqrt(10), size=(10, 10)),
                            rng.normal(size=10))
    act = activations.builtin_activation("sigmoid")
    ref, tol = run.reference_sigma_min(act, ds, p)
    got, _ = diagnostics.column_sigma_extremes(
        model.stationarity_system(p, act, ds).D)
    assert abs(got - ref) <= tol
    # the Hadamard-Gram sigma_min quoted in the ROADMAP missed the SVD
    # value by 1.231e-7 - 1.197e-7; the tolerance must reject that
    assert 0 < tol < 1.231e-7 - 1.197e-7


def test_trajectory_gate_catches_bad_rows():
    good = {"f": [0.5 / 18], "resid_norm": [0.5 ** 0.5], "grad_norm_F": [1.0],
            "sigma_min_D": [0.5]}
    assert trajectory_failures(good, 9, "positive_final") == []
    bad_f = {**good, "f": [0.03]}
    assert trajectory_failures(bad_f, 9, "")
    beyond_bound = {**good, "grad_norm_F": [1e-3]}    # bound 0.018 < ||s||
    assert trajectory_failures(beyond_bound, 9, "")
    assert trajectory_failures(good, 9, "zero_all")
    assert trajectory_failures({**good, "sigma_min_D": [0.0]}, 9,
                               "positive_final")



def test_spawner_reports_the_childs_own_peak_rss(tmp_path):
    block_mb = 120
    with run.Spawner() as spawner:
        # this process grows after the launcher started; a child forked
        # from here would report at least this block as its peak
        block = bytearray(block_mb << 20)
        block[::4096] = b"\1" * len(block[::4096])
        wall, code, rss_mb, _, _ = spawner.run_child(["--help"], tmp_path,
                                                     "help")
    del block
    assert code == 0 and wall > 0
    assert 0 < rss_mb < block_mb


def test_reference_speed_is_raw_time_at_nominal_probe_speed():
    nominal = reference.NOMINAL_S["tiny"]
    assert reference.speed_factor("tiny", nominal, nominal) == 1.0
    # a host running the probe at half speed halves the command's time
    assert reference.speed_factor("tiny", nominal, 3 * nominal) == 0.5
    assert all(reference.probe_s(name) > 0 for name in reference.NOMINAL_S)
