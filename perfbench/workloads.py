"""The benchmark's four workloads and the checks on their outputs.

Every workload uses the sigmoid activation and takes its data seed from the
benchmark's ``--seed``; the program only sees the CSV that ``generate``
writes in the set-up step.  A workload's timed commands are plain CLI
argument lists (without the ``twolayer-opt`` program name), so the same
list runs as a subprocess (untraced) or through ``cli.main`` (traced).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

ACTIVATION = "sigmoid"
# the trajectory columns the checks read; others may be added
TRAJECTORY_COLUMNS = ("k", "f", "grad_norm_F", "sigma_min_D", "resid_norm")
# slack on ||s|| <= N ||grad_W f|| / sigma_min(D), as in `verify certify`
CERT_SLACK = 1e-8
F_RTOL = 1e-12

# `verify theorem2` runs SEEDS runs of THEOREM2_OUTER outer iterations and
# `verify certify` one run of CERTIFY_OUTER; neither writes a trajectory,
# so their rows are counted here and recounted by the traced run.
THEOREM2_SEEDS = 50
THEOREM2_OUTER = 30
CERTIFY_OUTER = 150


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    N: int
    kind: str                 # "train" or "verify"
    n_outer: int = 0
    train_flags: tuple = ()
    reps: int = 1
    plotdata: bool = False
    sigma_min_d: str = ""     # "positive_final" or "zero_all" (train only)
    probe: str = "tiny"       # reference computation (reference.py) for the passes

    def setup_argv(self, out_dir: Path, seed: int) -> list:
        return ["generate", "--d", str(self.d), "--n-samples", str(self.N),
                "--data-seed", str(seed), "--activation", ACTIVATION,
                "--out", str(out_dir), "--name", "data"]

    def commands(self, data: Path, out_dir: Path, seed: int) -> list:
        if self.kind == "verify":
            return [["verify", "theorem2", "--seeds", str(THEOREM2_SEEDS),
                     "--seed", str(seed), "--activation", ACTIVATION],
                    ["verify", "certify", "--seed", str(seed),
                     "--activation", ACTIVATION]]
        cmds = [["train", "--data", str(data), "--activation", ACTIVATION,
                 "--out", str(out_dir), "--name", self.name,
                 "--reps", str(self.reps), "--n-outer", str(self.n_outer),
                 "--seed", str(seed), *self.train_flags]]
        if self.plotdata:
            cmds.append(["plotdata", "--run-dir", str(out_dir)])
        return cmds

    @property
    def rows_per_pass(self) -> int:
        """Trajectory rows (outer iterations plus the final row) that one
        pass of the commands produces."""
        if self.kind == "verify":
            return THEOREM2_SEEDS * (THEOREM2_OUTER + 1) + CERTIFY_OUTER + 1
        return self.reps * (self.n_outer + 1)


# Why each workload (see README.md for the profile behind each claim):
WORKLOADS = {w.name: w for w in (
    # inner SGD is most of optimizer.run; the only workload on the
    # cmd_train thread pool and on the trajectory CSV write/read
    Workload("sgd_small", d=3, N=9, kind="train", n_outer=100,
             train_flags=("--theorem2-preset",), reps=4, plotdata=True,
             sigma_min_d="positive_final"),
    # N = n*d, so D is square: the full SVD in column_sigma_extremes is
    # most of the run time
    Workload("cert_overparam", d=25, N=625, kind="train", n_outer=20,
             train_flags=("--n-inner", "25", "--sigma", "0.2"),
             sigma_min_d="positive_final", probe="svd625x625"),
    # N = 20*n*d: the same spectrum layer on the rank-deficient side, with
    # the largest share of inner steps, D assembly and grad_W
    Workload("wide_underparam", d=10, N=2000, kind="train", n_outer=50,
             train_flags=("--n-inner", "25", "--sigma", "0.2"),
             sigma_min_d="zero_all", probe="svd100x2000"),
    # the only workload on the cli.suite_* loops: many short runs, each
    # with its own set-up
    Workload("verify_suites", d=3, N=9, kind="verify"),
)}


# ------------------------------------------------------------------ checks

def read_trajectory(path: Path) -> dict:
    """Columns of a trajectory CSV by header name; raises ValueError when a
    column the checks need is missing or a value is not a number."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    missing = [c for c in TRAJECTORY_COLUMNS if rows and c not in rows[0]]
    if not rows or missing:
        raise ValueError(f"no rows or missing columns {missing}")
    return {c: [float(r[c]) for r in rows] for c in TRAJECTORY_COLUMNS}


def trajectory_failures(traj: dict, N: int, sigma_min_d: str) -> list:
    """Row checks: f == ||s||^2 / 2N to rounding, the certificate
    ||s|| <= N ||grad_W f|| / sigma_min(D) wherever sigma_min(D) > 0, and
    the workload's expectation on sigma_min(D)."""
    out = []
    smd = traj["sigma_min_D"]
    for i, (f, resid, grad, s) in enumerate(zip(
            traj["f"], traj["resid_norm"], traj["grad_norm_F"], smd)):
        if not math.isclose(f, resid * resid / (2 * N), rel_tol=F_RTOL,
                            abs_tol=1e-300):
            out.append(f"row {i}: f={f!r} != resid_norm^2/2N")
        if s > 0 and resid > N * grad / s * (1 + CERT_SLACK):
            out.append(f"row {i}: resid_norm={resid!r} exceeds the "
                       f"certified bound {N * grad / s!r}")
    if sigma_min_d == "zero_all" and any(s != 0 for s in smd):
        out.append("sigma_min_D is not 0 on every row")
    if sigma_min_d == "positive_final" and not (smd and smd[-1] > 0):
        out.append("final-row sigma_min_D is not positive")
    return out


def command_failures(w: Workload, argv: list, code: int, stdout: str,
                     out_dir: Path) -> list:
    """Everything wrong with one finished command, as messages."""
    if code != 0:
        return [f"{argv[0]} exited {code}"]
    if argv[0] == "verify":
        try:
            verdict = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"verify {argv[1]} printed no JSON verdict"]
        return [] if verdict.get("pass") is True else [
            f"verify {argv[1]} reports pass={verdict.get('pass')!r}"]
    if argv[0] == "train":
        paths = sorted(out_dir.glob(f"{w.name}_rep*.trajectory.csv"))
        if len(paths) != w.reps:
            return [f"train wrote {len(paths)} trajectories, expected {w.reps}"]
        out = []
        for p in paths:
            try:
                traj = read_trajectory(p)
            except ValueError as exc:
                out.append(f"{p.name}: {exc}")
                continue
            if len(traj["k"]) != w.n_outer + 1:
                out.append(f"{p.name}: {len(traj['k'])} rows, "
                           f"expected {w.n_outer + 1}")
            out += [f"{p.name}: {m}" for m in
                    trajectory_failures(traj, w.N, w.sigma_min_d)]
        return out
    if argv[0] == "plotdata":
        combined = out_dir / "plotdata" / "combined.csv"
        if not combined.exists():
            return ["plotdata wrote no combined.csv"]
        with open(combined) as fh:
            rows = sum(1 for _ in fh) - 1
        return [] if rows == w.n_outer + 1 else [
            f"combined.csv has {rows} rows, expected {w.n_outer + 1}"]
    if argv[0] == "generate":
        return [] if (out_dir / "data.csv").exists() else [
            "generate wrote no data.csv"]
    return []
