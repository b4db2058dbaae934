"""Command-line harness: dataset generation, training runs, diagnostics,
bound-verification suites, and plot-ready output emission.

Subcommands: generate, train, diagnose, verify <suite>, plotdata.  Each
takes only the flags it reads (see build_parser); a train flag overrides
the run config key it is named after, a dataset flag the recipe key in
RECIPE_KEYS, and --activation the config's activation.  A config key that
nothing reads is an error.
Exit codes: 0 pass, 1 suite failure, 2 usage/config error, 3 numeric failure.

File-writing commands refuse to overwrite existing outputs unless --force is
given; with identical inputs plus --force every command is idempotent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import diagnostics, files, model, optimizer
from .activations import ACTIVATION_NAMES, builtin_activation
from .errors import ConfigError, FormatError, IoError, NumericsError
from .optimizer import (INIT_KEYS, RUN_KEYS, TRAJECTORY_COLUMNS, RunConfig,
                        TrajectoryRecord)
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

# dataset recipe key -> (generate/train flag dest, JSON type, default); the
# recipe holds make_realizable's arguments
RECIPE_KEYS = {
    "d": ("d", int, None), "N": ("n_samples", int, None),
    "dist": ("dist", str, "uniform_cube"), "seed": ("data_seed", int, 0),
    "teacher_seed": ("teacher_seed", int, None),
    "noise_std": ("noise_std", float, 0.0),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """JSON experiment description; CLI flags override individual fields.

    dataset is either {"path": <csv>} or an inline recipe with the keys of
    RECIPE_KEYS.
    """

    name: str = "run"
    dataset: dict = field(default_factory=dict)
    activation: str = "sigmoid"
    run: dict = field(default_factory=dict)
    repetitions: int = 1
    out_dir: str = "."

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """ExperimentSpec from a JSON config object.  Each key takes the
        JSON type of its field's default.  An unknown key raises
        ConfigError, and a value of the wrong JSON type FormatError, each
        naming the key."""
        files.check_keys(data, [f.name for f in fields(cls)], "config")
        default = cls()
        spec = cls(**{key: files.json_field(type(getattr(default, key)), value,
                                            f"config key {key!r}")
                      for key, value in data.items()})
        if spec.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {spec.repetitions}")
        if spec.activation not in ACTIVATION_NAMES:
            raise ConfigError(
                f"config key 'activation' must be one of "
                f"{', '.join(ACTIVATION_NAMES)}, got {spec.activation!r}")
        files.check_keys(spec.dataset, ["path", *RECIPE_KEYS], "config 'dataset'")
        path = files.json_field(str, spec.dataset.get("path", ""),
                                "config key 'dataset.path'")
        if path and not Path(path).exists():
            raise ConfigError(f"referenced dataset {path} does not exist")
        return spec


def _load_spec(args) -> ExperimentSpec:
    """The --config spec (all defaults without one), with --activation,
    when given, in place of the config's activation."""
    cfg = files.read_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    spec = ExperimentSpec.from_dict(cfg)
    return replace(spec, activation=args.activation) if args.activation else spec


def _dataset_recipe(args, spec: ExperimentSpec) -> dict:
    """make_realizable arguments: each flag given, else the spec's recipe
    value, else the RECIPE_KEYS default.  A null is taken only where the
    default is None."""
    recipe = {}
    for key, (dest, kind, default) in RECIPE_KEYS.items():
        value = getattr(args, dest)
        if value is None:
            value = spec.dataset.get(key, default)
        recipe[key] = (None if value is None and default is None else
                       files.json_field(kind, value, f"dataset recipe key {key!r}"))
    if recipe["d"] is None or recipe["N"] is None:
        raise ConfigError(
            "no dataset: pass --d and --n-samples (train also takes --data)")
    return recipe


def _dataset_from_args(args, spec: ExperimentSpec):
    """Dataset from --data path, the spec's dataset entry, or inline flags."""
    path = args.data or spec.dataset.get("path")
    if path:
        return ds_mod.load(path), str(path)
    recipe = _dataset_recipe(args, spec)
    ds = ds_mod.make_realizable(activation=spec.activation, **recipe)
    return ds, "inline(d={d}, N={N}, dist={dist}, seed={seed})".format(**recipe)


def _run_config_from_args(args, spec: ExperimentSpec) -> RunConfig:
    """The spec's run section, with each train flag that was given over its
    key (a run flag's dest is its key)."""
    run_cfg = dict(spec.run)
    init = files.json_field(dict, run_cfg.get("init", {}), "run config key 'init'")
    for section, keys in ((run_cfg, RUN_KEYS), (init, INIT_KEYS)):
        section.update((key, getattr(args, key)) for key in keys
                       if getattr(args, key) is not None)
    return RunConfig.from_dict({**run_cfg, "init": init})


# ------------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    spec = _load_spec(args)
    recipe = _dataset_recipe(args, spec)
    d, N, dist = recipe["d"], recipe["N"], recipe["dist"]
    if args.warn_overparam and N > d * d:
        print(f"warning: N={N} exceeds d^2={d * d}; the full-column-rank "
              "certificate needs the number of samples to stay below the "
              "number of parameters (N <= n*d)", file=sys.stderr)
    ds = ds_mod.make_realizable(activation=spec.activation, **recipe)
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
    ds, ds_desc = _dataset_from_args(args, spec)
    cfg = _run_config_from_args(args, spec)
    outputs = files.output_paths(
        args.out or spec.out_dir,
        [f"{name}_rep{rep}.{kind}" for rep in range(reps)
         for kind in ("trajectory.csv", "manifest.json")], args.force)

    manifests = [_train_one(name, rep, spec.activation, ds, cfg, traj_path,
                            manifest_path)
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
    ds = ds_mod.load(args.data)
    act = builtin_activation(spec.activation)
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
    activation = spec.activation
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

def count(text: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# every flag that several subcommands take, declared once
SHARED_FLAGS = {
    "--config": dict(help="experiment spec JSON"),
    "--activation": dict(choices=ACTIVATION_NAMES,
                         help="activation name (default: config value or sigmoid)"),
    "--seed": dict(type=int),
    "--rank-tol": dict(type=float, default=1e-10),
    "--out": dict(help="output directory"),
    "--force": dict(action="store_true", help="overwrite existing outputs"),
    # the dataset recipe (RECIPE_KEYS)
    "--d": dict(type=int),
    "--n-samples": dict(type=int),
    "--dist": dict(choices=ds_mod.DISTRIBUTIONS),
    "--data-seed": dict(type=int),
    "--teacher-seed": dict(type=int),
    "--noise-std": dict(type=float),
}
SPEC_FLAGS = ("--config", "--activation")
OUT_FLAGS = ("--out", "--force")
DATASET_FLAGS = ("--d", "--n-samples", "--dist", "--data-seed", "--teacher-seed",
                 "--noise-std")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line on stderr and exit code 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twolayer-opt",
        description="Two-layer network SGD-GD trainer with global-optimality "
                    "certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, shared):
        sp = sub.add_parser(name, help=help)
        for flag in shared:
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    gen = command("generate", cmd_generate, "generate a teacher-labeled dataset",
                  SPEC_FLAGS + DATASET_FLAGS + OUT_FLAGS)
    gen.add_argument("--name", default="data")
    gen.add_argument("--warn-overparam", action="store_true")
    gen.set_defaults(out=".")

    tr = command("train", cmd_train, "run SGD-GD repetitions",
                 SPEC_FLAGS + ("--seed",) + DATASET_FLAGS + OUT_FLAGS)
    tr.add_argument("--data", help="dataset CSV path")
    tr.add_argument("--name")
    tr.add_argument("--reps", type=count)
    # each run flag's dest is the RUN_KEYS or INIT_KEYS key it overrides
    tr.add_argument("--n-outer", dest="N_o", type=int)
    tr.add_argument("--n-inner", dest="N_i", type=int)
    tr.add_argument("--r-ball", dest="R", type=float,
                    help="ball diameter parameter R")
    tr.add_argument("--sigma", type=float)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--gamma", type=float)
    tr.add_argument("--theorem2-preset", action="store_true", default=None)
    tr.add_argument("--early-exit", action="store_true", default=None)
    tr.add_argument("--w-scale", dest="W_scale", type=float)
    tr.add_argument("--theta-scale", type=float)

    di = command("diagnose", cmd_diagnose, "rank/Lipschitz/certificate report",
                 SPEC_FLAGS + ("--seed", "--rank-tol") + OUT_FLAGS)
    di.add_argument("--data", required=True)
    di.add_argument("--params", help="NetworkParams CSV (see model.save_params)")
    di.add_argument("--name")

    ve = command("verify", cmd_verify, "run a bound-verification suite",
                 SPEC_FLAGS + ("--seed", "--rank-tol") + OUT_FLAGS)
    ve.add_argument("suite", choices=SUITES)
    ve.add_argument("--seeds", type=count, default=200,
                    help="Monte-Carlo seed count (theorem suites)")
    ve.add_argument("--trials", type=count, default=25,
                    help="trial count (rank/lipschitz suites)")
    ve.add_argument("--instances", type=count, default=5,
                    help="instance count (gradcheck)")

    pl = command("plotdata", cmd_plotdata, "emit plot-ready metric files", OUT_FLAGS)
    pl.add_argument("--run-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, IoError, FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
