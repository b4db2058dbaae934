"""Dataset generation and persistence.

Inputs u_i are drawn i.i.d. from a continuous distribution (uniform on
[-1, 1]^d by default, or standard Gaussian); labels may come from a teacher
network so that the global optimum of the training loss is exactly zero
(plus optional Gaussian label noise for non-realizable instances).

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
from .model import NetworkParams

DISTRIBUTIONS = ("uniform_cube", "std_gaussian")


@dataclass(frozen=True)
class Provenance:
    distribution: str
    seed: Optional[int] = None
    teacher: Optional[dict] = None


@dataclass(frozen=True)
class Teacher:
    """Label generator: a fixed network plus its activation name."""

    params: NetworkParams
    activation: str


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


def generate_inputs(d: int, N: int, dist: str = "uniform_cube",
                    seed: int = 0) -> np.ndarray:
    """Draw N i.i.d. input vectors in R^d (deterministic given seed)."""
    if d < 1 or N < 1:
        raise ValueError(f"need d >= 1 and N >= 1, got d={d}, N={N}")
    rng = np.random.default_rng(seed)
    if dist == "uniform_cube":
        return rng.uniform(-1.0, 1.0, size=(N, d))
    if dist == "std_gaussian":
        return rng.standard_normal((N, d))
    raise ValueError(f"unknown distribution {dist!r}; choose from {DISTRIBUTIONS}")


def _teacher_description(teacher: Teacher) -> dict:
    return {
        "activation": teacher.activation,
        "n": teacher.params.n,
        "d": teacher.params.d,
        "W": teacher.params.W.tolist(),
        "theta": teacher.params.theta.tolist(),
    }


def label_with_teacher(inputs, teacher: Teacher, noise_std: float = 0.0,
                       noise_seed: Optional[int] = None,
                       distribution: str = "unknown",
                       seed: Optional[int] = None) -> Dataset:
    """Label inputs with the teacher's forward map (optionally noisy)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != teacher.params.d:
        raise ShapeError(
            f"inputs of shape {inputs.shape} incompatible with teacher d={teacher.params.d}")
    act = builtin_activation(teacher.activation)
    labels = np.array([model.forward(teacher.params, act, u) for u in inputs])
    if noise_std > 0.0:
        labels = labels + np.random.default_rng(noise_seed).normal(
            0.0, noise_std, size=labels.shape)
    desc = _teacher_description(teacher)
    if noise_std > 0.0:
        desc["label_noise_std"] = noise_std
        desc["label_noise_seed"] = noise_seed
    return Dataset(inputs, labels, Provenance(distribution, seed, desc))


def random_teacher(d: int, activation: str = "sigmoid", seed: int = 0,
                   w_scale: float = 1.0, theta_scale: float = 1.0) -> Teacher:
    """A random square teacher network (labels then make f* = 0)."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, w_scale / np.sqrt(d), size=(d, d))
    theta = rng.normal(0.0, theta_scale, size=d)
    return Teacher(NetworkParams(W, theta), activation)


def make_realizable(d: int, N: int, dist: str = "uniform_cube", seed: int = 0,
                    activation: str = "sigmoid", teacher_seed: Optional[int] = None,
                    noise_std: float = 0.0) -> Dataset:
    """Convenience: random teacher + i.i.d. inputs + teacher labels."""
    teacher_seed = seed + 1 if teacher_seed is None else teacher_seed
    inputs = generate_inputs(d, N, dist, seed)
    teacher = random_teacher(d, activation, teacher_seed)
    return label_with_teacher(inputs, teacher, noise_std=noise_std,
                              noise_seed=seed + 2 if noise_std > 0 else None,
                              distribution=dist, seed=seed)


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
