"""Command-line harness: dataset generation, training runs, diagnostics,
bound-verification suites, and plot-ready output emission.

Subcommands: generate, train, diagnose, verify <suite>, plotdata.
Exit codes: 0 pass, 1 suite failure, 2 usage/config error, 3 numeric failure.

File-writing commands refuse to overwrite existing outputs unless --force is
given; with identical inputs plus --force every command is idempotent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import diagnostics, files, model, optimizer
from .activations import ACTIVATION_NAMES, builtin_activation
from .errors import ConfigError, FormatError, IoError, NumericsError
from .optimizer import TRAJECTORY_COLUMNS, RunConfig, TrajectoryRecord
# cmd_verify calls each suite through these module globals, so wrapping
# cli.suite_<name> reaches the call
from .verify import (SUITES, suite_certify, suite_gradcheck, suite_lipschitz,
                     suite_rank, suite_theorem1, suite_theorem2)


# ----------------------------------------------------------------- file io

def write_trajectory_csv(path, record: TrajectoryRecord) -> None:
    cols = record.columns()
    files.write_table(path, zip(*(cols[name] for name in TRAJECTORY_COLUMNS)),
                      header=TRAJECTORY_COLUMNS)


def read_trajectory_csv(path) -> dict:
    rows = files.read_table(path, len(TRAJECTORY_COLUMNS),
                            header=TRAJECTORY_COLUMNS)
    columns = np.array(rows).reshape(-1, len(TRAJECTORY_COLUMNS)).T
    return dict(zip(TRAJECTORY_COLUMNS, columns))


# ------------------------------------------------------------ spec loading

@dataclass(frozen=True)
class ExperimentSpec:
    """JSON experiment description; CLI flags override individual fields.

    dataset is either {"path": <csv>} or an inline recipe
    {"d", "N", "dist", "seed", "teacher_seed", "noise_std"}.
    """

    name: str = "run"
    dataset: dict = field(default_factory=dict)
    activation: str = "sigmoid"
    run: dict = field(default_factory=dict)
    repetitions: int = 1
    out_dir: str = "."

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        def get(kind, key, default):
            return files.json_field(kind, data.get(key, default),
                                    f"config key {key!r}")

        spec = cls(
            name=get(str, "name", "run"),
            dataset=get(dict, "dataset", {}),
            activation=get(str, "activation", "sigmoid"),
            run=get(dict, "run", {}),
            repetitions=get(int, "repetitions", 1),
            out_dir=get(str, "out_dir", "."),
        )
        if spec.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {spec.repetitions}")
        path = files.json_field(str, spec.dataset.get("path", ""),
                                "config key 'dataset.path'")
        if path and not Path(path).exists():
            raise ConfigError(f"referenced dataset {path} does not exist")
        return spec


def _load_spec(args) -> ExperimentSpec:
    cfg = files.read_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    return ExperimentSpec.from_dict(cfg)


def _dataset_recipe(args, spec: ExperimentSpec, data_seed) -> dict:
    """make_realizable arguments: flags first, then the spec's inline recipe.

    data_seed is the flag value for the data seed (None when not given)."""
    recipe = spec.dataset

    def pick(flag, key, default=None):
        return flag if flag is not None else recipe.get(key, default)

    def number(kind, value, key):
        return files.json_field(kind, value, f"dataset recipe key {key!r}")

    d, N = pick(args.d, "d"), pick(args.n_samples, "N")
    if d is None or N is None:
        raise ConfigError(
            "no dataset: pass --d and --n-samples (train also takes --data)")
    teacher_seed = pick(args.teacher_seed, "teacher_seed")
    return {"d": number(int, d, "d"), "N": number(int, N, "N"),
            "dist": args.dist or recipe.get("dist", "uniform_cube"),
            "seed": number(int, pick(data_seed, "seed", 0), "seed"),
            "teacher_seed": (None if teacher_seed is None
                             else number(int, teacher_seed, "teacher_seed")),
            "noise_std": number(float, pick(args.noise_std, "noise_std", 0.0),
                                "noise_std")}


def _dataset_from_args(args, spec: ExperimentSpec, activation: str):
    """Dataset from --data path, the spec's dataset entry, or inline flags."""
    path = args.data or spec.dataset.get("path")
    if path:
        return ds_mod.load(path), str(path)
    recipe = _dataset_recipe(args, spec, args.data_seed)
    ds = ds_mod.make_realizable(activation=activation, **recipe)
    return ds, "inline(d={d}, N={N}, dist={dist}, seed={seed})".format(**recipe)


def _run_config_from_args(args, spec: ExperimentSpec) -> RunConfig:
    run_cfg = dict(spec.run)
    overrides = {
        "N_o": args.n_outer, "N_i": args.n_inner, "R": args.r_ball,
        "sigma": args.sigma, "beta": args.beta, "gamma": args.gamma,
        "seed": args.seed,   # None when the flag was omitted
    }
    for key, val in overrides.items():
        if val is not None:
            run_cfg[key] = val
    if args.gamma is not None:
        run_cfg["gamma_policy"] = "fixed"
    if args.beta is not None:
        run_cfg["beta_policy"] = "fixed"
    if args.theorem2_preset:
        run_cfg["theorem2_preset"] = True
    if args.early_exit:
        run_cfg["early_exit"] = True
    init = files.json_field(dict, run_cfg.get("init", {}),
                            "run config key 'init'")
    if args.w_scale is not None:
        init["W_scale"] = args.w_scale
    if args.theta_scale is not None:
        init["theta_scale"] = args.theta_scale
    if init:
        run_cfg["init"] = init
    run_cfg.setdefault("N_o", 50)
    run_cfg.setdefault("N_i", 20)
    run_cfg.setdefault("seed", 0)
    return RunConfig.from_dict(run_cfg)


# ------------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    spec = _load_spec(args)
    data_seed = args.data_seed if args.data_seed is not None else args.seed
    recipe = _dataset_recipe(args, spec, data_seed)
    d, N, dist = recipe["d"], recipe["N"], recipe["dist"]
    if args.warn_overparam and N > d * d:
        print(f"warning: N={N} exceeds d^2={d * d}; the full-column-rank "
              "certificate needs the number of samples to stay below the "
              "number of parameters (N <= n*d)", file=sys.stderr)
    ds = ds_mod.make_realizable(activation=args.activation or spec.activation, **recipe)
    name = f"{args.name}.csv"
    path, meta_path = files.output_paths(
        args.out, [name, files.sidecar(name)], args.force)
    ds_mod.save(ds, path)
    print(f"wrote {path} and {meta_path} (d={d}, N={N}, dist={dist})")
    return 0


def _train_one(name, rep, activation, ds, cfg, traj_path, manifest_path):
    repcfg = replace(cfg, seed=cfg.seed + rep)
    act = builtin_activation(activation)
    t0 = time.perf_counter()
    params, record = optimizer.run(act, ds, repcfg)
    wall = time.perf_counter() - t0
    write_trajectory_csv(traj_path, record)
    manifest = {
        "name": name, "rep": rep, "activation": activation,
        "config": repcfg.to_dict(), "derived": record.derived,
        "wall_time_s": wall,
        "final_f": float(record.f[-1]),
        "min_grad_norm": float(record.grad_norm.min()),
        "min_sigma_min_D": float(record.sigma_min_d.min()),
    }
    files.write_json(manifest_path, manifest)
    return manifest


def cmd_train(args) -> int:
    spec = _load_spec(args)
    name = args.name or spec.name
    reps = args.reps if args.reps is not None else spec.repetitions
    if reps < 1:
        raise ConfigError(f"repetitions must be >= 1, got {reps}")
    activation = args.activation or spec.activation
    ds, ds_desc = _dataset_from_args(args, spec, activation)
    cfg = _run_config_from_args(args, spec)
    outputs = files.output_paths(
        args.out or spec.out_dir,
        [f"{name}_rep{rep}.{kind}" for rep in range(reps)
         for kind in ("trajectory.csv", "manifest.json")], args.force)

    manifests = [_train_one(name, rep, activation, ds, cfg, traj_path, manifest_path)
                 for rep, (traj_path, manifest_path)
                 in enumerate(zip(outputs[::2], outputs[1::2]))]

    print(f"# {name}: {reps} repetition(s), dataset {ds_desc}")
    print(f"{'rep':>4} {'final_f':>14} {'min_grad_norm':>14} {'min_sigma_min_D':>16}")
    for m in manifests:
        print(f"{m['rep']:>4} {m['final_f']:>14.6e} "
              f"{m['min_grad_norm']:>14.6e} {m['min_sigma_min_D']:>16.6e}")
    return 0


def cmd_diagnose(args) -> int:
    spec = _load_spec(args)
    data = args.data or spec.dataset.get("path")
    if not data:
        raise ConfigError("diagnose needs --data")
    ds = ds_mod.load(data)
    act = builtin_activation(args.activation or spec.activation)
    if args.params:
        params, _ = model.load_params(args.params)
    else:
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        d = ds.dim
        params = model.NetworkParams(
            rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)), rng.normal(size=d))
    if args.out:
        (out_path,) = files.output_paths(
            args.out, [f"{args.name or 'diagnose'}.json"], args.force)

    w_rank = diagnostics.svd_rank(params.W, args.rank_tol)
    coll = diagnostics.collection_rank(act, params.W, ds.inputs, args.rank_tol)
    lips = diagnostics.lipschitz_estimates(params, act, ds)
    cert = diagnostics.certify(params, act, ds, args.rank_tol)
    report = {
        "activation": act.name,
        "rank_tol": args.rank_tol,
        "W_rank": w_rank.to_dict(),
        "collection_rank": coll.to_dict(),
        "lipschitz": lips.to_dict(),
        "certificate": cert.to_dict(),
    }

    print(f"{'quantity':<28} {'value'}")
    print(f"{'rank(W)':<28} {w_rank.numerical_rank} / {min(w_rank.matrix_dims)}")
    print(f"{'sigma_min(W)':<28} {w_rank.sigma_min:.6e}")
    print(f"{'rank(collection)':<28} {coll.numerical_rank} / {min(coll.matrix_dims)}")
    print(f"{'sigma_min(collection)':<28} {coll.sigma_min:.6e}")
    print(f"{'L_W_bound':<28} {lips.l_w_bound:.6e}")
    print(f"{'L_theta_exact':<28} {lips.l_theta_exact:.6e}")
    if lips.l_theta_bound_analytic is not None:
        print(f"{'L_theta_analytic':<28} {lips.l_theta_bound_analytic:.6e}")
    print(f"{'grad_norm_F':<28} {cert.grad_norm:.6e}")
    print(f"{'sigma_min(D)':<28} {cert.sigma_min_D:.6e}")
    print(f"{'residual_norm':<28} {cert.residual_norm:.6e}")
    print(f"{'certified_bound':<28} {cert.certified_bound:.6e}")
    print(f"{'verdict':<28} {cert.verdict}")

    if args.out:
        files.write_json(out_path, report)
        print(f"wrote {out_path}")
    return 0


# -------------------------------------------------------- verify suites

def cmd_verify(args) -> int:
    spec = _load_spec(args)
    activation = args.activation or spec.activation
    seed = 0 if args.seed is None else args.seed
    if args.out:
        (out_path,) = files.output_paths(
            args.out, [f"verify_{args.suite}.json"], args.force)
    runners = {
        "gradcheck": lambda: suite_gradcheck(activation, seed, args.instances),
        "rank": lambda: suite_rank(activation, seed, args.trials, args.rank_tol),
        "lipschitz": lambda: suite_lipschitz(activation, seed, args.trials),
        "theorem1": lambda: suite_theorem1(activation, seed, args.seeds),
        "theorem2": lambda: suite_theorem2(activation, seed, args.seeds),
        "certify": lambda: suite_certify(activation, seed, args.rank_tol),
    }
    checks = runners[args.suite]()
    verdict = {"suite": args.suite, "activation": activation,
               "checks": checks, "pass": all(c["pass"] for c in checks)}
    print(json.dumps(verdict, indent=2))
    if args.out:
        files.write_json(out_path, verdict)
    return 0 if verdict["pass"] else 1


def cmd_plotdata(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise IoError(f"run directory {run_dir} does not exist")
    traj_paths = sorted(run_dir.glob("*.trajectory.csv"))
    if not traj_paths:
        raise IoError(f"no *.trajectory.csv files under {run_dir}")
    runs = [read_trajectory_csv(p) for p in traj_paths]
    n_rows = {len(r["k"]) for r in runs}
    if len(n_rows) != 1:
        raise FormatError(f"trajectories under {run_dir} have differing lengths")
    k = runs[0]["k"]
    metrics = [c for c in TRAJECTORY_COLUMNS if c != "k"]

    out_dir = Path(args.out) if args.out else run_dir / "plotdata"
    *dat_paths, combined_path = files.output_paths(
        out_dir, [f"{m}.dat" for m in metrics] + ["combined.csv"], args.force)

    multi = len(runs) > 1
    combined_header = ["k"]
    combined_cols = [k]
    for m, dat_path in zip(metrics, dat_paths):
        stacked = np.vstack([r[m] for r in runs])
        series = stacked.mean(axis=0) if multi else stacked[0]
        files.write_table(dat_path, zip(k, series), sep=" ")
        if multi:
            combined_header += [f"{m}_mean", f"{m}_min", f"{m}_max"]
            combined_cols += [stacked.mean(axis=0), stacked.min(axis=0),
                              stacked.max(axis=0)]
        else:
            combined_header.append(m)
            combined_cols.append(series)
    files.write_table(combined_path, zip(*combined_cols), header=combined_header)
    print(f"wrote {len(metrics)} metric files and combined.csv to {out_dir} "
          f"({len(runs)} repetition(s))")
    return 0


# ------------------------------------------------------------------ parser

def _add_common(sp):
    sp.add_argument("--config", help="experiment spec JSON")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--activation", default=None, choices=ACTIVATION_NAMES,
                    help="activation name (default: config value or sigmoid)")
    sp.add_argument("--rank-tol", type=float, default=1e-10)
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolayer-opt",
        description="Two-layer network SGD-GD trainer with global-optimality "
                    "certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a teacher-labeled dataset")
    _add_common(gen)
    gen.add_argument("--d", type=int)
    gen.add_argument("--n-samples", type=int)
    gen.add_argument("--dist", choices=ds_mod.DISTRIBUTIONS)
    gen.add_argument("--data-seed", type=int)
    gen.add_argument("--teacher-seed", type=int)
    gen.add_argument("--noise-std", type=float)
    gen.add_argument("--name", default="data")
    gen.add_argument("--warn-overparam", action="store_true")
    gen.set_defaults(func=cmd_generate, out=".")

    tr = sub.add_parser("train", help="run SGD-GD repetitions")
    _add_common(tr)
    tr.add_argument("--data", help="dataset CSV path")
    tr.add_argument("--d", type=int)
    tr.add_argument("--n-samples", type=int)
    tr.add_argument("--dist", choices=ds_mod.DISTRIBUTIONS)
    tr.add_argument("--data-seed", type=int)
    tr.add_argument("--teacher-seed", type=int)
    tr.add_argument("--noise-std", type=float)
    tr.add_argument("--name")
    tr.add_argument("--reps", type=int)
    tr.add_argument("--n-outer", type=int)
    tr.add_argument("--n-inner", type=int)
    tr.add_argument("--r-ball", type=float, help="ball diameter parameter R")
    tr.add_argument("--sigma", type=float)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--gamma", type=float)
    tr.add_argument("--theorem2-preset", action="store_true")
    tr.add_argument("--early-exit", action="store_true")
    tr.add_argument("--w-scale", type=float)
    tr.add_argument("--theta-scale", type=float)
    tr.set_defaults(func=cmd_train)

    di = sub.add_parser("diagnose", help="rank/Lipschitz/certificate report")
    _add_common(di)
    di.add_argument("--data", required=True)
    di.add_argument("--params", help="NetworkParams CSV (see model.save_params)")
    di.add_argument("--name")
    di.set_defaults(func=cmd_diagnose)

    ve = sub.add_parser("verify", help="run a bound-verification suite")
    _add_common(ve)
    ve.add_argument("suite", choices=SUITES)
    ve.add_argument("--seeds", type=int, default=200,
                    help="Monte-Carlo seed count (theorem suites)")
    ve.add_argument("--trials", type=int, default=25,
                    help="trial count (rank/lipschitz suites)")
    ve.add_argument("--instances", type=int, default=5,
                    help="instance count (gradcheck)")
    ve.set_defaults(func=cmd_verify)

    pl = sub.add_parser("plotdata", help="emit plot-ready metric files")
    _add_common(pl)
    pl.add_argument("--run-dir", required=True)
    pl.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, IoError, FormatError, ValueError, NameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
