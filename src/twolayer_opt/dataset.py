"""Dataset generation and persistence.

Inputs u_i are drawn i.i.d. from a continuous distribution (uniform on
[-1, 1]^d by default, or standard Gaussian).  make_realizable labels them
with a random square teacher network (model.random_params), so that the
global optimum of the training loss is exactly zero, plus optional Gaussian
label noise for non-realizable instances.

On-disk format (see the files module): one CSV row per sample, d input
columns then the label, bit-exact through a round trip, and a JSON sidecar
<name>.meta.json holding provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import files, model
from .activations import builtin_activation
from .errors import NumericsError, ShapeError

DISTRIBUTIONS = ("uniform_cube", "std_gaussian")


@dataclass(frozen=True)
class Provenance:
    distribution: str
    seed: Optional[int] = None
    teacher: Optional[dict] = None


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray   # (N, d)
    labels: np.ndarray   # (N,)
    provenance: Provenance

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if inputs.ndim != 2 or labels.ndim != 1:
            raise ShapeError(
                f"inputs must be (N, d) and labels (N,), got {inputs.shape}, {labels.shape}")
        if inputs.shape[0] != labels.shape[0] or inputs.shape[0] < 1:
            raise ShapeError(
                f"need N >= 1 matching samples, got {inputs.shape[0]} inputs "
                f"and {labels.shape[0]} labels")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(labels))):
            raise NumericsError("non-finite entries in dataset")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def check_recipe(**recipe) -> None:
    """The one range check of a dataset recipe, given as any of
    make_realizable's keyword arguments: ValueError naming the first key
    out of its range, in this order."""
    for key, ok, allowed in (
            ("d", lambda d: d >= 1, ">= 1"), ("N", lambda N: N >= 1, ">= 1"),
            ("seed", lambda seed: seed >= 0, ">= 0"),
            ("teacher_seed", lambda seed: seed is None or seed >= 0, ">= 0"),
            ("noise_std", lambda std: 0.0 <= std < np.inf, "finite and >= 0"),
            ("dist", lambda dist: dist in DISTRIBUTIONS, " or ".join(DISTRIBUTIONS))):
        if key in recipe and not ok(recipe[key]):
            raise ValueError(f"dataset {key} must be {allowed}, got {recipe[key]!r}")


def generate_inputs(d: int, N: int, dist: str = "uniform_cube",
                    seed: int = 0) -> np.ndarray:
    """Draw N i.i.d. input vectors in R^d (deterministic given seed); an
    argument out of range raises ValueError naming it (check_recipe)."""
    check_recipe(d=d, N=N, dist=dist, seed=seed)
    rng = np.random.default_rng(seed)
    if dist == "uniform_cube":
        return rng.uniform(-1.0, 1.0, size=(N, d))
    return rng.standard_normal((N, d))


def make_realizable(d: int, N: int, dist: str = "uniform_cube", seed: int = 0,
                    activation: str = "sigmoid", teacher_seed: Optional[int] = None,
                    noise_std: float = 0.0) -> Dataset:
    """N inputs from generate_inputs(d, N, dist, seed), labeled by a random
    square teacher, model.random_params(default_rng(teacher_seed), d) with
    teacher_seed defaulting to seed + 1, so that f* = 0.  noise_std > 0 adds
    N(0, noise_std^2) label noise drawn from seed + 2.  The provenance's
    teacher entry records the network and the noise.  A recipe argument out
    of range raises ValueError naming it (check_recipe)."""
    check_recipe(teacher_seed=teacher_seed, noise_std=noise_std)
    teacher_seed = seed + 1 if teacher_seed is None else teacher_seed
    inputs = generate_inputs(d, N, dist, seed)
    teacher = model.random_params(np.random.default_rng(teacher_seed), d)
    act = builtin_activation(activation)
    labels = np.array([model.forward(teacher, act, u) for u in inputs])
    desc = {"activation": activation, "n": d, "d": d,
            "W": teacher.W.tolist(), "theta": teacher.theta.tolist()}
    if noise_std > 0.0:
        labels = labels + np.random.default_rng(seed + 2).normal(
            0.0, noise_std, size=labels.shape)
        desc.update(label_noise_std=noise_std, label_noise_seed=seed + 2)
    return Dataset(inputs, labels, Provenance(dist, seed, desc))


def save(ds: Dataset, path) -> None:
    """Write the CSV plus the .meta.json provenance sidecar."""
    meta = {
        "d": ds.dim,
        "N": ds.n_samples,
        "distribution": ds.provenance.distribution,
        "seed": ds.provenance.seed,
    }
    if ds.provenance.teacher is not None:
        meta["teacher"] = ds.provenance.teacher
    files.write_table(path, np.column_stack([ds.inputs, ds.labels]))
    files.write_json(files.sidecar(path), meta)


def load(path) -> Dataset:
    """Inverse of save (bit-exact on all numeric fields)."""
    meta = files.read_sidecar(path, {"d": int, "N": int})
    d = meta["d"]
    rows = files.read_table(path, d + 1, rows=meta["N"])
    prov = Provenance(meta.get("distribution", "unknown"), meta.get("seed"),
                      meta.get("teacher"))
    return Dataset(np.array([r[:d] for r in rows], dtype=float),
                   np.array([r[d] for r in rows], dtype=float), prov)
