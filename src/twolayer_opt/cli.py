"""Command-line harness: dataset generation, training runs, diagnostics,
bound-verification suites, and plot-ready output emission.

Subcommands: generate, train, diagnose, verify <suite>, plotdata.  Each
(and each verify suite, SUITE_FLAGS) takes only the flags it reads (see
build_parser); a train flag overrides the run config key it is named after,
a dataset flag the recipe key in RECIPE_KEYS (in dataset.check_recipe's
range, checked as it is parsed), and --activation the config's activation.
Every command given --config reads and checks all of it
(ExperimentSpec.from_dict), and a key that nothing reads is an error;
generate and train write into its out_dir unless --out is given.
Exit codes: 0 pass, 1 suite failure, 2 usage/config error (a count too
large to allocate included), 3 numeric failure (a NumericsError, an overflow
in Python float arithmetic, or an overflow, invalid operation or division by
zero in numpy).

File-writing commands refuse, before the work, to overwrite existing outputs
unless --force is given, an --out under a file that is not a directory, and a
--name (or config name) that is not one file name; an output directory is
made only when its first file is written.  With identical inputs plus --force
every command is idempotent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import diagnostics, files, model, optimizer
from .activations import ACTIVATION_NAMES, builtin_activation
from .errors import ConfigError, FormatError, IoError, NumericsError
from .optimizer import TRAJECTORY_COLUMNS, RunConfig, TrajectoryRecord
# cmd_verify calls each suite through these module globals, so wrapping
# cli.suite_<name> reaches the call
from .verify import (SUITES, suite_certify, suite_gradcheck,  # noqa: F401
                     suite_lipschitz, suite_rank, suite_theorem1,
                     suite_theorem2)


# ----------------------------------------------------------------- file io

def write_trajectory_csv(path, record: TrajectoryRecord) -> None:
    cols = record.columns()
    files.write_table(path, zip(*(cols[name] for name in TRAJECTORY_COLUMNS)),
                      header=TRAJECTORY_COLUMNS)


def read_trajectory_csv(path) -> dict:
    rows = files.read_table(path, len(TRAJECTORY_COLUMNS),
                            header=TRAJECTORY_COLUMNS)
    if not rows:   # a run writes n_outer + 1 >= 1 rows
        raise FormatError(f"{path} holds no rows below its header", line=2)
    return dict(zip(TRAJECTORY_COLUMNS, np.array(rows).T))


# ------------------------------------------------------------ spec loading

# dataset recipe key -> (generate/train flag, JSON type, whether it takes
# null); the recipe holds make_realizable's arguments, and its signature
# their defaults
RECIPE_KEYS = {
    "d": ("--d", int, True), "N": ("--n-samples", int, True),
    "dist": ("--dist", str, False), "seed": ("--data-seed", int, False),
    "teacher_seed": ("--teacher-seed", int, True),
    "noise_std": ("--noise-std", float, False),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """JSON experiment description, checked whole; flags override fields.

    dataset is either {"path": <csv>} or an inline recipe: the keys of
    RECIPE_KEYS that the config gives a value other than null.
    """

    name: str = "run"
    dataset: dict = field(default_factory=dict)
    activation: str = "sigmoid"
    run: RunConfig = field(default_factory=RunConfig)
    repetitions: int = 1
    out_dir: str = "."

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """ExperimentSpec from a JSON config object.  Each key takes the
        JSON type of its field's default (run: RunConfig.from_dict's
        object).  An unknown key raises ConfigError, a value of the wrong
        JSON type FormatError, and a recipe value out of its range
        ValueError (dataset.check_recipe), each naming the key."""
        files.check_keys(data, [f.name for f in fields(cls)], "config")
        default = cls()
        values = {key: files.json_field(
                      dict if key == "run" else type(getattr(default, key)),
                      value, f"config key {key!r}")
                  for key, value in data.items()}
        spec = cls(**{**values, "run": RunConfig.from_dict(values.get("run", {}))})
        try:
            file_name(spec.name)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"config key 'name' {exc}") from None
        if spec.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {spec.repetitions}")
        if spec.activation not in ACTIVATION_NAMES:
            raise ConfigError(
                f"config key 'activation' must be one of "
                f"{', '.join(ACTIVATION_NAMES)}, got {spec.activation!r}")
        files.check_keys(spec.dataset, ["path", *RECIPE_KEYS], "config 'dataset'")
        recipe = {key: value for key, value in spec.dataset.items() if key != "path"}
        if "path" in spec.dataset and recipe:
            raise ConfigError(f"config 'dataset' holds both 'path' and recipe "
                              f"keys {list(recipe)}; give a file or a recipe")
        if "path" in spec.dataset:
            # only train reads the file, and dataset.load names it if missing
            return replace(spec, dataset={"path": files.json_field(
                str, spec.dataset["path"], "config key 'dataset.path'")})
        recipe = {key: files.json_field(RECIPE_KEYS[key][1], value,
                                        f"dataset recipe key {key!r}")
                  for key, value in recipe.items()
                  if not (value is None and RECIPE_KEYS[key][2])}
        ds_mod.check_recipe(**recipe)
        return replace(spec, dataset=recipe)


def _load_spec(args, activation: str = "sigmoid") -> ExperimentSpec:
    """The --config spec (all defaults without one).  Its activation is
    --activation when given, else the config's, else `activation`."""
    cfg = files.read_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    spec = ExperimentSpec.from_dict(cfg)
    return replace(spec, activation=args.activation
                   or cfg.get("activation", activation))


def _flag_value(args, flag: str):
    """The value of `flag` (say --n-samples) parsed into args."""
    return getattr(args, flag[2:].replace("-", "_"))


def _dataset_from_args(args, spec: ExperimentSpec):
    """The dataset and its description.  train reads the file at --data or
    the spec's dataset.path, which takes no dataset flag; otherwise
    make_realizable builds it from the spec's recipe with each dataset flag
    given over its key."""
    given = {key: value for key, (flag, _, _) in RECIPE_KEYS.items()
             if (value := _flag_value(args, flag)) is not None}
    path = getattr(args, "data", None) or spec.dataset.get("path")
    if path and given:
        raise ConfigError(
            f"the dataset is read from {path}, so "
            f"{', '.join(RECIPE_KEYS[key][0] for key in given)} cannot describe it")
    if path and "data" in args:   # generate makes a dataset, never reads one
        return ds_mod.load(path), str(path)
    recipe = {**spec.dataset, **given}
    if "d" not in recipe or "N" not in recipe:
        raise ConfigError(
            "no dataset: pass --d and --n-samples (train also takes --data)")
    ds = ds_mod.make_realizable(activation=spec.activation, **recipe)
    return ds, (f"inline(d={ds.dim}, N={ds.n_samples}, "
                f"dist={ds.provenance.distribution}, seed={ds.provenance.seed})")


# ------------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    spec = _load_spec(args)
    ds, _ = _dataset_from_args(args, spec)
    d, N, dist = ds.dim, ds.n_samples, ds.provenance.distribution
    if N > d * d:
        print(f"warning: N={N} exceeds d^2={d * d}; the full-column-rank "
              "certificate needs the number of samples to stay below the "
              "number of parameters (N <= n*d)", file=sys.stderr)
    name = f"{args.name}.csv"
    path, meta_path = files.output_paths(
        args.out or spec.out_dir, [name, files.sidecar(name)], args.force)
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
    cfg = replace(spec.run, **{f.name: value for f in fields(RunConfig)
                               if (value := getattr(args, f.name)) is not None})
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
    params, activation = (model.load_params(args.params) if args.params
                          else (None, "sigmoid"))
    spec = _load_spec(args, activation)
    if args.params and spec.activation != activation:
        raise ConfigError(f"--params {args.params} holds a {activation} network, "
                          f"but the activation given is {spec.activation}")
    ds = ds_mod.load(args.data)
    if params is not None and params.d != ds.dim:
        raise ConfigError(f"--params {args.params} holds a d={params.d} network, "
                          f"but --data {args.data} has d={ds.dim}")
    act = builtin_activation(spec.activation)
    if params is None:
        params = model.random_params(
            np.random.default_rng(0 if args.seed is None else args.seed), ds.dim)
    if args.out:
        (out_path,) = files.output_paths(
            args.out, [f"{args.name or 'diagnose'}.json"], args.force)

    w_rank = diagnostics.svd_rank(params.W)
    coll = diagnostics.collection_rank(act, params.W, ds.inputs)
    lips = diagnostics.lipschitz_estimates(params, act, ds)
    cert = diagnostics.certify(params, act, ds)
    report = {
        "activation": act.name,
        "rank_tol": diagnostics.RANK_TOL,
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
    suite = globals()[f"suite_{args.suite}"]   # looked up at call time
    checks = suite(activation, seed,
                   *(_flag_value(args, flag) for flag in SUITE_FLAGS[args.suite]))
    verdict = {"suite": args.suite, "activation": activation,
               "checks": checks, "pass": all(c["pass"] for c in checks)}
    print(json.dumps(verdict, indent=2))
    if args.out:
        files.write_json(out_path, verdict)
    return 0 if verdict["pass"] else 1


def cmd_plotdata(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise IoError(f"run directory {run_dir} " + (
            "is not a directory" if run_dir.exists() else "does not exist"))
    traj_paths = sorted(run_dir.glob("*.trajectory.csv"))
    if not traj_paths:
        raise IoError(f"no *.trajectory.csv files under {run_dir}")
    runs = [read_trajectory_csv(p) for p in traj_paths]
    k = runs[0]["k"]   # the repetitions are averaged row by row under it
    for path, run in zip(traj_paths[1:], runs[1:]):
        if not np.array_equal(run["k"], k):
            raise FormatError(f"{path}'s k column differs from {traj_paths[0]}'s")
    metrics = [c for c in TRAJECTORY_COLUMNS if c != "k"]

    out_dir = Path(args.out) if args.out else run_dir / "plotdata"
    *dat_paths, combined_path = files.output_paths(
        out_dir, [f"{m}.dat" for m in metrics] + ["combined.csv"], args.force)

    multi = len(runs) > 1
    combined_header = ["k"]
    combined_cols = [k]
    for m, dat_path in zip(metrics, dat_paths):
        stacked = np.vstack([r[m] for r in runs])
        series = stacked.mean(axis=0)   # a single run's values, exactly
        files.write_table(dat_path, zip(k, series), sep=" ")
        if multi:
            combined_header += [f"{m}_mean", f"{m}_min", f"{m}_max"]
            combined_cols += [series, stacked.min(axis=0), stacked.max(axis=0)]
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


def seed(text: str) -> int:
    """argparse type of a seed flag: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def file_name(text: str) -> str:
    """argparse type of --name, and the check of the config's name: one
    non-empty path component other than . and .., so that every output
    named after it lands inside --out."""
    if text in ("", ".", "..") or "\0" in text or Path(text).name != text:
        raise argparse.ArgumentTypeError(
            f"must be one file name (not empty, '.' or '..', and no '/'), "
            f"got {text!r}")
    return text


def recipe_value(key: str, kind: type):
    """argparse type of the dataset flag of recipe key `key`: a `kind`
    value in the range that dataset.check_recipe allows, else its message."""
    def parse(text: str):
        value = kind(text)
        try:
            ds_mod.check_recipe(**{key: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid int value" names it
    return parse


# every flag that several subcommands take, declared once
SHARED_FLAGS = {
    "--config": dict(help="experiment spec JSON"),
    "--activation": dict(choices=ACTIVATION_NAMES,
                         help="activation name (default: config value or sigmoid)"),
    "--seed": dict(type=seed),
    "--out": dict(help="output directory"),
    "--force": dict(action="store_true", help="overwrite existing outputs"),
    # the dataset recipe (RECIPE_KEYS)
    **{flag: dict(type=recipe_value(key, kind))
       for key, (flag, kind, _) in RECIPE_KEYS.items()},
    # the verify suites' sizes (SUITE_FLAGS)
    "--seeds": dict(type=count, default=200, help="Monte-Carlo seed count"),
    "--trials": dict(type=count, default=25, help="trial count"),
    "--instances": dict(type=count, default=5, help="instance count"),
}
SPEC_FLAGS = ("--config", "--activation")
OUT_FLAGS = ("--out", "--force")
DATASET_FLAGS = tuple(flag for flag, _, _ in RECIPE_KEYS.values())
# the flags each verify suite reads, in the order suite_<name> takes them
# after (activation, seed)
SUITE_FLAGS = {
    "gradcheck": ("--instances",), "rank": ("--trials",),
    "lipschitz": ("--trials",), "theorem1": ("--seeds",),
    "theorem2": ("--seeds",), "certify": (),
}


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

    def command(name, func, help, shared, group=sub):
        sp = group.add_parser(name, help=help)
        for flag in shared:
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    gen = command("generate", cmd_generate, "generate a teacher-labeled dataset",
                  SPEC_FLAGS + DATASET_FLAGS + OUT_FLAGS)
    gen.add_argument("--name", type=file_name, default="data")

    tr = command("train", cmd_train, "run SGD-GD repetitions",
                 SPEC_FLAGS + ("--seed",) + DATASET_FLAGS + OUT_FLAGS)
    tr.add_argument("--data", help="dataset CSV path")
    tr.add_argument("--name", type=file_name)
    tr.add_argument("--reps", type=count)
    # each run flag's dest is the RunConfig field it overrides
    tr.add_argument("--n-outer", type=int)
    tr.add_argument("--n-inner", type=int)
    tr.add_argument("--r-ball", dest="R", type=float,
                    help="ball diameter parameter R")
    tr.add_argument("--sigma", type=float)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--gamma", type=float)
    tr.add_argument("--theorem2-preset", action="store_true", default=None)
    tr.add_argument("--w-scale", dest="init_w_scale", type=float)
    tr.add_argument("--theta-scale", dest="init_theta_scale", type=float)

    di = command("diagnose", cmd_diagnose, "rank/Lipschitz/certificate report",
                 SPEC_FLAGS + ("--seed",) + OUT_FLAGS)
    di.add_argument("--data", required=True)
    di.add_argument("--params", help="NetworkParams CSV (see model.save_params)")
    di.add_argument("--name", type=file_name)

    ve = sub.add_parser("verify", help="run a bound-verification suite")
    suites = ve.add_subparsers(dest="suite", required=True)
    for suite in SUITES:
        command(suite, cmd_verify, f"the {suite} suite",
                SPEC_FLAGS + ("--seed",) + SUITE_FLAGS[suite] + OUT_FLAGS, suites)

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
        # an overflow, invalid operation or division by zero in numpy is a
        # numeric failure, not a warning printed ahead of one
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (IoError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, OverflowError) as exc:
        # numpy and Python float arithmetic name only the operation (last in
        # args); the innermost frame of this package names the quantity
        frame = [f for f in traceback.extract_tb(exc.__traceback__)
                 if Path(f.filename).parent == Path(__file__).parent][-1]
        print(f"numeric failure: {exc.args[-1]} in "
              f"{Path(frame.filename).stem}.{frame.name}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
