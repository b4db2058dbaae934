#!/usr/bin/env python3
"""Benchmark of the twolayer-opt CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the set-ups and one pass of the commands
run as child processes (``python3 -m twolayer_opt ...``), further passes
run in this process through ``cli.main(argv)``, each command is timed
against a reference probe (reference.py), and the run reports the
end-to-end metrics listed in BENCHMARK.json.  With ``--trace 1`` the
commands run in this process, once untraced and once traced, and the run
reports the per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it hold the environment and the full report.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS, Workload, command_failures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUPS = 5                 # set-up repetitions per run; setup_s is their median
SETUP_PROBE = "tiny"       # reference probe around every set-up command
# `train --reps 4` on the default pool runs two GIL-bound threads on two
# shared vCPUs whose speeds swing independently; one worker keeps the run
# on one vCPU, where the reference probe can follow its speed
PROGRAM_ENV = {"TWOLAYER_OPT_THREADS": "1"}
COMMAND_TIMEOUT_S = 90
MAX_MESSAGES = 20          # failure messages printed per run
SVD_RTOL_EPS = 100         # reference-SVD tolerance, in units of max(m, n) * eps * sigma_max


# ------------------------------------------------------------- environment

def git_revision(root: Path):
    """HEAD commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_vendor = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "TWOLAYER_OPT_THREADS": os.environ.get("TWOLAYER_OPT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


def summary(values: list) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    p_high = None
    if n >= 11:
        p_high = {"q": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "p_high": p_high, "n": n}


# ---------------------------------------------------------------- untraced

class Spawner:
    """The launcher process (spawner.py) that starts every child command.
    Enter it before numpy or the program is imported here, so that the
    children's peak resident set is their own."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run_child(self, argv: list, cwd: Path, tag: str):
        """Run ``twolayer-opt <argv>`` as a child; returns (wall_s, exit
        code, peak RSS in MB, stdout, stderr)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
        request = {"argv": [sys.executable, "-m", tracing.PACKAGE, *argv],
                   "cwd": str(cwd), "env": env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the child launcher exited")
        reply = json.loads(line)
        return (reply["wall_s"], reply["code"], reply["maxrss_kb"] / 1024.0,
                out_path.read_text(), err_path.read_text())


def load_cli():
    """The program's ``cli`` module, imported from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(f"{tracing.PACKAGE}.cli")


def call_main(cli, argv: list):
    """Run ``cli.main(argv)`` in this process; returns (wall_s, exit code,
    stdout, error lines).  A traceback counts as exit code 1."""
    buf = io.StringIO()
    raised = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:   # a traceback is a failed operation
        code = 1
        raised = traceback.format_exception_only(exc)[-1:]
    return time.perf_counter() - start, code, buf.getvalue(), raised


def measure(w: Workload, seed: int, seconds: float, work: Path,
            spawner: Spawner) -> dict:
    """Set up SETUPS times and run one pass of the workload's commands as
    child processes, then repeat passes in this process while another is
    expected to end within ``seconds`` (all of it included).  Every command
    is bracketed by a reference probe and the time metrics are in
    reference-speed seconds (reference.py); the raw times are kept in the
    report."""
    cli = load_cli()
    ops = {"attempted": 0, "failed": 0, "failures": []}
    last_probe = {}

    def check(argv, out_dir, tag, code, stdout, extra):
        msgs = command_failures(w, argv, code, stdout, out_dir) + extra
        ops["attempted"] += 1
        if msgs:
            ops["failed"] += 1
            ops["failures"] += [f"{tag}: {m}" for m in msgs]

    def bracketed(probe, fn):
        """(raw wall, reference-speed wall, rest of fn's result)."""
        before = last_probe.get(probe) or reference.probe_s(probe)
        wall, *rest = fn()
        last_probe[probe] = after = reference.probe_s(probe)
        return wall, wall * reference.speed_factor(probe, before, after), rest

    def child(argv, out_dir, tag, probe):
        wall, ref, (code, rss, stdout, stderr) = bracketed(
            probe, lambda: spawner.run_child(argv, work, tag))
        last = stderr.strip().splitlines()[-1:] if code != 0 else []
        check(argv, out_dir, tag, code, stdout, last)
        return wall, ref, rss

    start = time.perf_counter()
    raw_setup, setup_s = [], []
    for i in range(SETUPS):
        out_dir = work / f"setup{i}"
        wall, ref, _ = child(w.setup_argv(out_dir, seed), out_dir,
                             f"setup{i}", SETUP_PROBE)
        raw_setup.append(wall)
        setup_s.append(ref)
    data = work / "setup0" / "data.csv"

    # one pass as child processes, for the peak resident set; their raw
    # times, from process start to exit, go to the report
    out_dir = work / "child_pass"
    child_walls, rss_peak = [], 0.0
    for j, argv in enumerate(w.commands(data, out_dir, seed)):
        wall, _, rss = child(argv, out_dir, f"child-{j}", w.probe)
        child_walls.append(wall)
        rss_peak = max(rss_peak, rss)
    shutil.rmtree(out_dir, ignore_errors=True)

    raw_walls, walls = [], []
    while True:
        i = len(walls)
        out_dir = work / f"pass{i}"
        raw = wall = 0.0
        for j, argv in enumerate(w.commands(data, out_dir, seed)):
            t, ref, (code, stdout, raised) = bracketed(
                w.probe, lambda: call_main(cli, argv))
            check(argv, out_dir, f"pass{i}-{j}", code, stdout, raised)
            raw += t
            wall += ref
        raw_walls.append(raw)
        walls.append(wall)
        shutil.rmtree(out_dir, ignore_errors=True)
        if (time.perf_counter() - start + statistics.median(raw_walls)
                > seconds):
            break

    samples = {
        "wall_s": walls,
        "setup_s": setup_s,
        "outer_iters_per_s": [w.rows_per_pass / t for t in walls],
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setup,
    }
    report = {name: summary(vals) for name, vals in samples.items()}
    report["peak_rss_mb"] = {"median": rss_peak, "p_high": None, "n": 1}
    report["child_pass_command_s"] = child_walls
    report["failed_frac"] = ops["failed"] / ops["attempted"]
    return {"metrics": {k: v["median"] for k, v in report.items()
                        if isinstance(v, dict)},
            "report": report, **ops}


# ------------------------------------------------------------------ traced

def reference_sigma_min(activation, ds, params):
    """(sigma_min, tolerance) of D rebuilt here with einsum and a full
    np.linalg.svd; sigma_min is the smallest column singular value, 0 when
    D has fewer rows than columns."""
    import numpy as np
    U = ds.inputs
    A = activation.deriv(U @ params.W.T) * params.theta[None, :]
    D = np.einsum("ij,ik->jki", A, U).reshape(params.n * params.d, len(U))
    svals = np.linalg.svd(D, compute_uv=False)
    sigma_min = float(svals[-1]) if D.shape[0] >= D.shape[1] else 0.0
    tol = SVD_RTOL_EPS * max(D.shape) * np.finfo(float).eps * float(svals[0])
    return sigma_min, tol


def in_process_pass(cli, w: Workload, seed: int, out: Path) -> dict:
    """Set-up plus one pass of the commands through ``cli.main``."""
    result = {"attempted": 0, "failed": 0, "failures": [], "setup_s": 0.0,
              "wall_s": 0.0}

    def command(argv, out_dir, key):
        wall, code, stdout, raised = call_main(cli, argv)
        result[key] += wall
        msgs = command_failures(w, argv, code, stdout, out_dir) + raised
        result["attempted"] += 1
        result["failed"] += bool(msgs)
        result["failures"] += [f"{argv[0]}: {m}" for m in msgs]

    command(w.setup_argv(out / "setup", seed), out / "setup", "setup_s")
    for argv in w.commands(out / "setup" / "data.csv", out / "pass", seed):
        command(argv, out / "pass", "wall_s")
    return result


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Flat per-layer metrics of one traced pass."""
    spans = tracer.spans
    rows = sum(len(rec) for _, _, _, rec in tracer.runs)
    by_id = {s.id: s for s in spans}
    evals_in_run = sum(1 for s in spans if s.name == "activations.eval"
                       and tracing.has_ancestor(s, "optimizer.run", by_id))
    metrics = {f"{fn}.{stat}": value
               for fn, stats in tracing.layer_table(spans).items()
               for stat, value in stats.items() if value is not None}
    metrics.update({
        "optimizer.run.rows": rows,
        "optimizer.inner_sgd.steps": int(sum(
            int(rec.inner_steps.sum()) for _, _, _, rec in tracer.runs)),
        "activations.eval.per_outer": evals_in_run / rows if rows else 0.0,
        "optimizer.run.concurrency": tracing.concurrency(spans, "optimizer.run"),
        **tracer.counters,
    })
    return metrics


def counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly between traced passes."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".errors", ".steps", ".rows", ".bytes"))}


def trace(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Alternate untraced and traced in-process passes (the order flips
    each pair) while another pair is expected to end within ``seconds``.
    Layer metrics come from the first traced pass; every later one must
    repeat its counts exactly."""
    cli = load_cli()
    activations = importlib.import_module(f"{tracing.PACKAGE}.activations")
    ops = {"attempted": 0, "failed": 0, "failures": []}

    def check(msg):
        ops["attempted"] += 1
        if msg:
            ops["failed"] += 1
            ops["failures"].append(msg)

    plain_walls, traced_walls = [], []
    first = metrics = None
    start = time.perf_counter()
    while True:
        k = len(traced_walls)
        tracer = tracing.Tracer()
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            out = work / f"{'traced' if traced_now else 'untraced'}{k}"
            with tracing.traced(tracer) if traced_now else contextlib.nullcontext():
                res = in_process_pass(cli, w, seed, out)
            shutil.rmtree(out, ignore_errors=True)
            (traced_walls if traced_now else plain_walls).append(res["wall_s"])
            for key in ops:
                ops[key] += res[key]
        if first is None:
            first, metrics = tracer, layer_metrics(tracer)
        else:
            check(None if counts(layer_metrics(tracer)) == counts(metrics) else
                  f"traced pass {k} counts differ from the first traced pass")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (k + 1) > seconds:
            break

    rows = metrics["optimizer.run.rows"]
    check(None if rows == w.rows_per_pass else
          f"traced runs produced {rows} rows, expected {w.rows_per_pass}")
    for name, ds, params, rec in first.runs:
        ref, tol = reference_sigma_min(
            activations.builtin_activation(name), ds, params)
        got = float(rec.sigma_min_d[-1])
        check(None if abs(got - ref) <= tol else
              f"final sigma_min_D {got!r} differs from the reference SVD "
              f"{ref!r} by more than {tol:.3e}")

    metrics.update({
        "trace.passes": len(traced_walls),
        "trace.untraced_wall_s": statistics.median(plain_walls),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(plain_walls)),
    })
    return {"metrics": metrics, "spans": first.spans, **ops}


def dump_spans(path: Path, header: dict, spans) -> None:
    t0 = min((s.start for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**header, "span_fields": list(tracing.Span._fields),
                   "spans": [[s.id, s.name, s.start - t0, s.end - t0, s.parent,
                              s.thread, s.error] for s in spans]}, fh)
        fh.write("\n")


# -------------------------------------------------------------------- main

def select(metrics: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, with their units; a listed metric
    this run did not produce is an error."""
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed}


def run(args, w: Workload, spec: dict, work: Path, spawner: Spawner):
    """Print the environment block and run the workload traced or untraced;
    returns (result, report, the metrics BENCHMARK.json lists)."""
    os.environ.update(PROGRAM_ENV)
    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    if args.trace:
        res = trace(w, args.seed, args.seconds, work)
        dump_path = OUT / "spans" / f"{w.name}-seed{args.seed}.json"
        dump_spans(dump_path, {"environment": env, "workload": w.name,
                               "metrics": res["metrics"]}, res["spans"])
        return (res, {"metrics": res["metrics"], "spans_file": str(dump_path)},
                spec["per_layer"])
    res = measure(w, args.seed, args.seconds, work, spawner)
    return res, res["report"], spec["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / tracing.PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {tracing.PACKAGE} package under {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    # the launcher starts first: nothing here has imported numpy yet
    with Spawner() as spawner:
        try:
            res, report, listed = run(args, w, spec, work, spawner)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    metrics = select(res["metrics"], listed)
    print(json.dumps({"workload": w.name, "trace": args.trace,
                      "failures": len(res["failures"]),
                      "first_failures": res["failures"][:MAX_MESSAGES],
                      "report": report}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
