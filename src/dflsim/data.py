"""Synthetic steering datasets, non-IID partitioning, and external loading.

The built-in generator renders one bright anti-aliased line per image at a
random angle; the regression target is the angle normalized to [-1, 1].
Partitioning interpolates between uniform assignment and angle-sorted shards
via a skew knob, since silo heterogeneity is the phenomenon under study.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANGLE_RANGE = np.pi / 4
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class Dataset:
    """Images (count, H, W, C) with normalized steering targets in [-1, 1]."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be nonempty NHWC, got shape {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(f"targets shape {self.targets.shape} does not match "
                             f"count {self.inputs.shape[0]}")
        if np.any(np.abs(self.targets) > 1.0 + 1e-12):
            raise ValueError("targets must lie in [-1, 1]")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(inputs=self.inputs[idx], targets=self.targets[idx])


@dataclass(frozen=True)
class PartitionPlan:
    """Sample-to-silo assignment; every silo gets at least one sample."""

    n_silos: int
    assignment: np.ndarray
    skew: float

    def __post_init__(self):
        counts = np.bincount(self.assignment, minlength=self.n_silos)
        if counts.min() < 1:
            raise ValueError("every silo must receive at least one sample")

    def silo_indices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)

    def shards(self, ds: Dataset) -> list[Dataset]:
        return [ds.subset(self.silo_indices(i)) for i in range(self.n_silos)]


def render_line(height: int, width: int, angle: float) -> np.ndarray:
    """Noise-free image of one line through the center at ``angle``:
    intensity = max(0, 1 - distance_to_line) per pixel."""
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    dist = np.abs(-np.sin(angle) * xs[None, :] + np.cos(angle) * ys[:, None])
    return np.maximum(0.0, 1.0 - dist)


def generate_linesteer(count: int, height: int, width: int, seed: int) -> Dataset:
    """Seeded synthetic line-steering dataset.

    Angles are uniform in [-pi/4, pi/4]; pixel noise is Gaussian
    (sigma=0.05); targets are angle / (pi/4).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if height < 8 or width < 8:
        raise ValueError(f"degenerate image size {height}x{width}; need >= 8")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-ANGLE_RANGE, ANGLE_RANGE, count)
    noise = rng.normal(0.0, NOISE_SIGMA, (count, height, width, 1))
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    dist = np.abs(-np.sin(angles)[:, None, None] * xs[None, None, :]
                  + np.cos(angles)[:, None, None] * ys[None, :, None])
    images = np.maximum(0.0, 1.0 - dist)[..., None] + noise
    return Dataset(inputs=images, targets=angles / ANGLE_RANGE)


def partition_noniid(ds: Dataset, n_silos: int, skew: float, seed: int) -> PartitionPlan:
    """Assign samples to silos with tunable heterogeneity.

    skew=0: dealt round-robin over a seeded shuffle (balanced to within one).
    skew=1: contiguous target-sorted shards, so each silo sees a narrow angle
    band.  In between, each sample takes the sorted assignment with
    probability ``skew``, else the uniform one.
    """
    if not 0.0 <= skew <= 1.0:
        raise ValueError(f"skew must be in [0, 1], got {skew}")
    if n_silos < 1 or n_silos > ds.count:
        raise ValueError(f"need 1 <= n_silos <= {ds.count}, got {n_silos}")
    rng = np.random.default_rng(seed)
    count = ds.count

    uniform = np.empty(count, dtype=np.int64)
    uniform[rng.permutation(count)] = np.arange(count) % n_silos

    order = np.argsort(ds.targets, kind="stable")
    block_sizes = np.full(n_silos, count // n_silos)
    block_sizes[: count % n_silos] += 1
    sorted_assign = np.empty(count, dtype=np.int64)
    sorted_assign[order] = np.repeat(np.arange(n_silos), block_sizes)

    take_sorted = rng.random(count) < skew
    assignment = np.where(take_sorted, sorted_assign, uniform)

    # Mixing can empty a silo on tiny datasets; move one sample at a time
    # from the fullest silo (lowest-id ties) until every silo is populated.
    counts = np.bincount(assignment, minlength=n_silos)
    while counts.min() < 1:
        empty = int(np.argmin(counts))
        donor = int(np.argmax(counts))
        moved = int(np.flatnonzero(assignment == donor)[0])
        assignment[moved] = empty
        counts = np.bincount(assignment, minlength=n_silos)
    return PartitionPlan(n_silos=n_silos, assignment=assignment, skew=skew)


def train_test_split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then split: first floor(fraction*count) samples train."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n_train = int(fraction * ds.count)
    if n_train < 1 or n_train >= ds.count:
        raise ValueError(f"split {fraction} of {ds.count} samples leaves an empty side")
    perm = np.random.default_rng(seed).permutation(ds.count)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


def save_external(dir_path, ds: Dataset) -> None:
    """Write a dataset in the external directory layout (see load_external)."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    shape = list(ds.inputs.shape[1:])
    (d / "shape.json").write_text(json.dumps(
        {"format_version": 1, "shape": shape, "dtype": "<f8"}, sort_keys=True))
    with open(d / "labels.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["file", "angle"])
        for i in range(ds.count):
            name = f"sample_{i:06d}.bin"
            np.ascontiguousarray(ds.inputs[i], dtype="<f8").tofile(d / name)
            writer.writerow([name, repr(float(ds.targets[i]))])


def load_external(dir_path) -> Dataset:
    """Load a pre-tensorized dataset directory.

    Layout: ``labels.csv`` (header ``file,angle``), ``shape.json`` (per-sample
    shape manifest), and one raw little-endian float64 buffer per sample.
    Angles outside [-1, 1] are clamped with a warning.
    """
    d = Path(dir_path)
    manifest_path = d / "shape.json"
    if not manifest_path.is_file():
        raise ValueError(f"{d}: missing shape manifest shape.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise ValueError(f"{d}: shape.json is not valid JSON ({e})") from e
    if not isinstance(manifest, dict) or "shape" not in manifest:
        raise ValueError(f"{d}: shape.json must be an object with a 'shape' list")
    try:
        shape = tuple(int(v) for v in manifest["shape"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{d}: manifest shape must list integers, "
                         f"got {manifest['shape']!r}") from e
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"{d}: manifest shape must be (H, W, C), got {shape}")
    labels_path = d / "labels.csv"
    if not labels_path.is_file():
        raise ValueError(f"{d}: missing labels.csv")
    rows = []
    with open(labels_path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != ["file", "angle"]:
            raise ValueError(f"{d}: labels.csv header must be 'file,angle', "
                             f"got {reader.fieldnames}")
        for row in reader:
            try:
                rows.append((row["file"], float(row["angle"])))
            except (TypeError, ValueError) as e:
                raise ValueError(f"{d}: labels.csv line {reader.line_num}: "
                                 f"need a file name and an angle ({e})") from e
    if not rows:
        raise ValueError(f"{d}: no samples listed in labels.csv")

    per_sample = int(np.prod(shape))
    images = np.empty((len(rows),) + shape, dtype=np.float64)
    angles = np.empty(len(rows))
    for i, (name, angle) in enumerate(rows):
        path = d / name
        if not path.is_file():
            raise ValueError(f"{d}: unreadable sample file {name}")
        buf = np.fromfile(path, dtype="<f8")
        if buf.size != per_sample:
            raise ValueError(f"{d}: {name} holds {buf.size} values, "
                             f"expected {per_sample} for shape {shape}")
        images[i] = buf.reshape(shape)
        angles[i] = angle
    clamped = np.clip(angles, -1.0, 1.0)
    n_clamped = int(np.sum(clamped != angles))
    if n_clamped:
        warnings.warn(f"{d}: clamped {n_clamped} angle(s) to [-1, 1]")
    return Dataset(inputs=images, targets=clamped)
