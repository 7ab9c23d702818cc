"""Synthetic steering datasets, non-IID partitioning, and external loading.

The built-in generator renders one bright anti-aliased line per image at a
random angle; the regression target is the angle normalized to [-1, 1].
Partitioning interpolates between uniform assignment and angle-sorted shards
via a skew knob, since silo heterogeneity is the phenomenon under study.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANGLE_RANGE = np.pi / 4
NOISE_SIGMA = 0.05

# generate_linesteer renders its lines in blocks of samples whose
# temporaries hold at most this many bytes (one sample at least).
RENDER_BLOCK_BYTES = 512 << 10


def whole_number(value) -> int:
    """A whole number: an integer, an integral float or an integer string.
    Booleans and fractional numbers are rejected rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def finite_number(value) -> float:
    """A finite number or numeric string.  Booleans, NaN, infinities and
    integers too large for a float are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as e:
        raise ValueError(f"must be finite ({e})") from e
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def json_string(value) -> str:
    """A string; a number, boolean or list is rejected, not converted."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def whole_numbers(value) -> tuple[int, ...]:
    """A list of whole numbers (see ``whole_number``), as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(whole_number(v) for v in value)


def field_parser(default):
    """The parser of a config field chosen by the type of its default; a
    tuple or ``None`` default (an optional list) takes ``whole_numbers``."""
    if isinstance(default, int):
        return whole_number
    if isinstance(default, float):
        return finite_number
    if isinstance(default, str):
        return json_string
    return whole_numbers


@dataclass(frozen=True)
class Dataset:
    """Images (count, H, W, C) with normalized steering targets in [-1, 1]:
    a dataset, a silo's shard or one mini-batch of it."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self._check_shapes()
        if not np.all(np.abs(self.targets) <= 1.0 + 1e-12):  # NaN fails too
            raise ValueError("targets must be finite and lie in [-1, 1]")
        # NaN and infinities show in the min or max, with no array-sized
        # temporary (glibc's placement of one moved a run's peak RSS by 6 MiB)
        x = self.inputs
        if x.size and not np.all(np.isfinite([x.min(), x.max()])):
            raise ValueError("inputs contain non-finite values")

    def _check_shapes(self) -> None:
        if self.inputs.ndim != 4 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be nonempty NHWC, got shape {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(f"targets shape {self.targets.shape} does not match "
                             f"count {self.inputs.shape[0]}")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices, out: np.ndarray | None = None) -> "Dataset":
        """The rows ``indices`` (a slice, or in-range indices when ``out``
        is given); with ``out`` their inputs are gathered into it, cast to
        its dtype."""
        idx = indices if isinstance(indices, slice) else np.asarray(indices)
        # "clip" (a no-op on in-range indices): numpy buffers ``out`` for "raise"
        inputs = self.inputs[idx] if out is None else self.inputs.take(idx, 0, out, "clip")
        sub = object.__new__(Dataset)  # checked rows: the shapes only, no __post_init__
        sub.__dict__.update(inputs=inputs, targets=self.targets[idx])
        sub._check_shapes()
        return sub


@dataclass(frozen=True)
class PartitionPlan:
    """Sample-to-silo assignment; every silo gets at least one sample."""

    n_silos: int
    assignment: np.ndarray

    def __post_init__(self):
        counts = np.bincount(self.assignment, minlength=self.n_silos)
        if counts.min() < 1:
            raise ValueError("every silo must receive at least one sample")

    def silo_indices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)

    def shards(self, ds: Dataset) -> list[Dataset]:
        return [ds.subset(self.silo_indices(i)) for i in range(self.n_silos)]


def render_line(height: int, width: int, angles) -> np.ndarray:
    """Noise-free images of one line through the center at each of
    ``angles`` (a scalar gives one image): intensity = max(0, 1 -
    distance_to_line) per pixel, in an array of shape angles.shape + (H, W)."""
    angles = np.asarray(angles, dtype=np.float64)[..., None, None]
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    # one image-sized buffer, updated in place: a fresh temporary per step
    # costs a page fault per 4 KiB of every rendered block
    image = -np.sin(angles) * xs + np.cos(angles) * ys[:, None]
    np.abs(image, out=image)
    np.subtract(1.0, image, out=image)
    return np.maximum(0.0, image, out=image)


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
    images = rng.normal(0.0, NOISE_SIGMA, (count, height, width, 1))
    # the lines are added onto the noise a block of samples at a time; the
    # sum is the same either way round, so the bits do not depend on blocks
    per_block = max(1, RENDER_BLOCK_BYTES // (height * width * 8))
    for s0 in range(0, count, per_block):
        images[s0:s0 + per_block, ..., 0] += render_line(height, width,
                                                         angles[s0:s0 + per_block])
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
    return PartitionPlan(n_silos=n_silos, assignment=assignment)


def train_test_split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then split: first floor(fraction*count) samples train.

    The shuffle reorders ds's own arrays, the inputs one sample at a time,
    and train is a view of their head: only the test samples are copied,
    and ds is spent."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n_train = int(fraction * ds.count)
    if n_train < 1 or n_train >= ds.count:
        raise ValueError(f"split {fraction} of {ds.count} samples leaves an empty side")
    perm = np.random.default_rng(seed).permutation(ds.count)
    test = ds.subset(perm[n_train:])
    _permute_rows(ds.inputs, perm)
    ds.targets[:] = ds.targets[perm]
    return ds.subset(slice(n_train)), test


def _permute_rows(a: np.ndarray, perm: np.ndarray) -> None:
    """a[:] = a[perm] with one row of scratch: each cycle of the permutation
    moves its rows along by one."""
    perm = perm.tolist()
    for start in range(len(perm)):
        if perm[start] is None:  # moved with an earlier cycle
            continue
        first, j = a[start].copy(), start
        while perm[j] != start:
            a[j] = a[perm[j]]
            perm[j], j = None, perm[j]
        a[j], perm[j] = first, None


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


def load_external(dir_path, dtype=np.float64) -> Dataset:
    """Load a pre-tensorized dataset directory.

    Layout: ``labels.csv`` (header ``file,angle``), ``shape.json`` (per-sample
    shape manifest, whole numbers only), and one raw little-endian float64
    buffer per sample, named by a plain file name inside the directory.
    Angles must be finite; those outside [-1, 1] are clamped with a warning.
    The images are held at ``dtype``: each sample is converted as it is read,
    and the first whose values do not all fit it is rejected by number.
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
        shape = tuple(whole_number(v) for v in manifest["shape"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{d}: manifest shape must list integers, "
                         f"got {manifest['shape']!r} ({e})") from e
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
                rows.append((row["file"], finite_number(row["angle"])))
            except (TypeError, ValueError) as e:
                raise ValueError(f"{d}: labels.csv line {reader.line_num}: "
                                 f"need a file name and a finite angle ({e})") from e
    if not rows:
        raise ValueError(f"{d}: no samples listed in labels.csv")

    per_sample = int(np.prod(shape))
    images = np.empty((len(rows),) + shape, dtype=dtype)
    angles = np.empty(len(rows))
    for i, (name, angle) in enumerate(rows):
        if name == ".." or Path(name).name != name:
            raise ValueError(f"{d}: sample file name {name!r} must name a file "
                             f"inside the dataset directory")
        path = d / name
        if not path.is_file():
            raise ValueError(f"{d}: unreadable sample file {name}")
        buf = np.fromfile(path, dtype="<f8")
        if buf.size != per_sample:
            raise ValueError(f"{d}: {name} holds {buf.size} values, "
                             f"expected {per_sample} for shape {shape}")
        with np.errstate(over="ignore"):  # reported below, by sample
            images[i] = buf.reshape(shape)
        if not np.isfinite([images[i].min(), images[i].max()]).all():
            fault = ("a non-finite value" if not np.isfinite(buf).all() else
                     f"a value beyond {images.dtype}'s range (±{np.finfo(dtype).max}), "
                     f"the precision it is loaded at")
            raise ValueError(f"sample {i} (data row {i + 1} of labels.csv) holds {fault}")
        angles[i] = angle
    clamped = np.clip(angles, -1.0, 1.0)
    n_clamped = int(np.sum(clamped != angles))
    if n_clamped:
        warnings.warn(f"{d}: clamped {n_clamped} angle(s) to [-1, 1]")
    return Dataset(inputs=images, targets=clamped)
