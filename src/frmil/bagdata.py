"""Bag store I/O, synthetic bag generation, splits, and balanced sampling.

On-disk layout of a store directory:

    manifest.json          {"dim": D, "bags": [{"id", "label", "n", "path"}, ...]}
    features/<id>.f32      raw little-endian float32, row-major n x D
    splits.json            {"train": [...], "val": [...], "test": [...]}  (optional)

Feature files are bit-exact round-trippable and trivially parseable from
any language. ``write_store`` returns nothing; ``read_store`` loads a
store. Any ``dim`` is valid; the model needs ``model.MIN_DIM`` = 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

MANIFEST_NAME = "manifest.json"
SPLIT_NAME = "splits.json"
FEATURE_DIR = "features"


class StoreError(Exception):
    """Base class for bag store validation failures."""


class StoreMissingFileError(StoreError):
    """A manifest-listed feature file does not exist."""


class StoreSizeError(StoreError):
    """A feature file's byte length disagrees with the manifest."""


class StoreValueError(StoreError):
    """Feature data contains non-finite values."""


class StoreManifestError(StoreError):
    """The manifest lacks a required field, has the wrong layout, or names
    a feature file outside the store."""


class SingleClassError(ValueError):
    """An operation needing both labels was given bags of only one class."""


class SplitError(ValueError):
    """A split file is malformed or puts one bag in two splits, a split
    names a bag the store lacks, or cannot give every class a bag."""


def write_atomic(path, data: bytes | str) -> None:
    """Write data (str as UTF-8) to path through a temp file in the same
    directory and a rename, so a write that fails partway leaves the
    previous file as it was. The temp file is not fsynced: this guards
    against a failed or interrupted write, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write rows with ``csv.writer`` (``\\r\\n`` line ends) via write_atomic."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue())


def read_json(path: Path, what: str, error: type):
    """The parsed contents of a UTF-8 JSON file, or ``error`` naming the
    file when it is not one."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise error(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc


def require_fields(obj, names: Sequence[str], where: str, error: type) -> None:
    """Raise ``error`` unless obj is a JSON object holding every name."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    missing = [k for k in names if k not in obj]
    if missing:
        raise error(f"{where} lacks {', '.join(missing)}")


@dataclass
class InstanceBag:
    """One bag: instance features, a binary label, and a validity mask.

    ``features`` is (n, D) float32 where n includes any padding rows;
    ``mask`` is False exactly on padding.
    """

    bag_id: str
    label: int
    features: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(f"bag {self.bag_id}: features must be "
                             f"(n >= 1, D >= 1)")
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.features.shape[0],):
            raise ValueError(f"bag {self.bag_id}: mask length "
                             f"{self.mask.shape} != row count")
        if not np.isfinite(self.features).all():
            raise StoreValueError(f"bag {self.bag_id}: non-finite feature values")
        if self.label not in (0, 1):
            raise ValueError(f"bag {self.bag_id}: label must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def real_features(self) -> np.ndarray:
        return self.features[self.mask]


def make_bag(bag_id: str, label: int, features) -> InstanceBag:
    """Bag with an all-true mask (the state of every freshly loaded bag)."""
    features = np.asarray(features, dtype=np.float32)
    return InstanceBag(bag_id, label, features, np.ones(features.shape[0], bool))


@dataclass
class BagStore:
    """All bags of one store, loaded and validated."""

    root: Path
    dim: int
    bags: Dict[str, InstanceBag] = field(default_factory=dict)

    def ids(self) -> List[str]:
        return list(self.bags.keys())

    def bag(self, bag_id: str) -> InstanceBag:
        try:
            return self.bags[bag_id]
        except KeyError:
            raise SplitError(f"bag {bag_id!r} is not in the store at "
                             f"{self.root}") from None

    def labels(self, ids: Iterable[str] | None = None) -> List[Tuple[str, int]]:
        ids = self.ids() if ids is None else list(ids)
        return [(i, self.bag(i).label) for i in ids]

    def __len__(self) -> int:
        return len(self.bags)


def write_store(bags: Sequence[InstanceBag], root) -> None:
    """Write manifest plus one raw float32 file per bag, then delete any
    other ``features/*.f32`` file, so the directory holds this store only.
    Returns nothing: ``read_store`` loads what was written."""
    root = Path(root)
    dims = {b.dim for b in bags}
    if len(dims) > 1:
        raise ValueError(f"bags disagree on feature dimension: {sorted(dims)}")
    (root / FEATURE_DIR).mkdir(parents=True, exist_ok=True)
    entries = []
    # feature files in place (a rename per file slowed writing a 200-bag
    # D=64 store by 40-140% on a 2-core VM), after the old manifest is gone
    # and before the new one (write_atomic): a failed write leaves no
    # manifest, never an old one over a mix of old and new files
    (root / MANIFEST_NAME).unlink(missing_ok=True)
    for bag in bags:
        rel = f"{FEATURE_DIR}/{bag.bag_id}.f32"
        data = np.ascontiguousarray(bag.real_features(), dtype="<f4")
        (root / rel).write_bytes(data.tobytes())
        entries.append({"id": bag.bag_id, "label": int(bag.label),
                        "n": int(data.shape[0]), "path": rel})
    dim = dims.pop() if dims else 0
    manifest = {"dim": dim, "bags": entries}
    write_atomic(root / MANIFEST_NAME, json.dumps(manifest, indent=1))
    named = {root / entry["path"] for entry in entries}
    for path in (root / FEATURE_DIR).glob("*.f32"):
        if path not in named and path.is_file():
            path.unlink()  # left by a store written here before


def read_store(root) -> BagStore:
    """Load a store, validating file sizes and value finiteness."""
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise StoreMissingFileError(f"no manifest at {manifest_path}")
    manifest = read_json(manifest_path, "manifest", StoreManifestError)
    require_fields(manifest, ("dim", "bags"), str(manifest_path),
                   StoreManifestError)
    if not isinstance(manifest["bags"], list):
        raise StoreManifestError(f"{manifest_path}: bags is not a list")
    dim = manifest["dim"]
    if type(dim) is not int or dim < 0:
        raise StoreManifestError(f"{manifest_path}: dim must be a "
                                 f"non-negative integer, got {dim!r}")
    store = BagStore(root=root, dim=dim)
    for i, entry in enumerate(manifest["bags"]):
        where = f"{manifest_path} bags[{i}]"
        require_fields(entry, ("id", "label", "n", "path"), where,
                       StoreManifestError)
        bag_id, label, n, rel = (entry[k] for k in ("id", "label", "n", "path"))
        if not (isinstance(bag_id, str) and isinstance(rel, str)
                and type(label) is int and type(n) is int):
            raise StoreManifestError(f"{where}: id and path must be strings, "
                                     f"label and n integers")
        if bag_id in store.bags:
            raise StoreManifestError(f"{where}: bag id {bag_id!r} is listed "
                                     f"twice")
        norm = os.path.normpath(rel)
        if os.path.isabs(norm) or norm.split(os.sep)[0] == "..":
            raise StoreManifestError(f"{where}: path {rel!r} is outside the "
                                     f"store at {root}")
        path = root / rel
        if not path.exists():
            raise StoreMissingFileError(f"bag {bag_id}: missing feature file {path}")
        expected = n * dim * 4
        actual = path.stat().st_size
        if actual != expected:
            raise StoreSizeError(f"bag {bag_id}: feature file is {actual} bytes, "
                                 f"expected {expected} (n={n}, dim={dim})")
        data = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(n, dim)
        store.bags[bag_id] = make_bag(bag_id, label, data)
    return store


# ---------------------------------------------------------------------------
# synthetic bags


@dataclass
class SyntheticSpec:
    """Knobs for the synthetic benchmark generator.

    ``separation`` moves positive (witness) instances along a fixed axis;
    0 makes the classes distributionally identical. ``noise_scale`` sets
    the overall feature scale. Every positive bag gets
    max(1, round(witness_rate * n)) witness instances.
    """

    n_bags: int = 200
    dim: int = 64
    bag_min: int = 20
    bag_max: int = 50
    witness_rate: float = 0.1
    pos_frac: float = 0.5
    separation: float = 1.0
    noise_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_bags < 2:
            raise ValueError("need at least 2 bags")
        if self.dim < 2:
            raise ValueError("feature dimension must be >= 2")
        if not (1 <= self.bag_min <= self.bag_max):
            raise ValueError(f"invalid bag size range [{self.bag_min}, {self.bag_max}]")
        if not (0.0 < self.witness_rate <= 1.0):
            raise ValueError(f"witness_rate must be in (0, 1], got {self.witness_rate}")
        if not (0.0 < self.pos_frac < 1.0):
            raise ValueError(f"pos_frac must be in (0, 1), got {self.pos_frac}")
        if not 0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got "
                             f"{self.separation}")
        if not 0 < self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and > 0, got "
                             f"{self.noise_scale}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# Structure constants of the generator. Instances share a strong common
# "tissue" component whose intensity and on-axis offset drift per bag, and
# the per-instance residual lives in a low-rank subspace with a per-bag
# noise level. This mimics encoder features, where raw per-bag magnitudes
# overlap heavily across classes yet the witness instances stand out
# inside their own bag.
_WITNESS_GAIN = 2.0        # witness shift = gain * separation * sqrt(D) * noise_scale
_INTENSITY_JITTER = 0.25   # per-bag tissue intensity spread
_AXIS_JITTER = 0.25        # per-bag offset along the witness axis
_LEVEL_JITTER = 0.4        # per-bag log noise level spread
_NOISE_RANK = 6            # residual subspace rank
_NOISE_GAIN = math.sqrt(2.0)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def witness_count(rate: float, n: int) -> int:
    """Positive instances a positive bag of size n receives: at least one."""
    return max(1, _round_half_up(rate * n))


def generate_synthetic(spec: SyntheticSpec) -> List[InstanceBag]:
    """Deterministic synthetic bags under spec.seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d, sig = spec.dim, spec.noise_scale
    base_dir = rng.normal(size=d)
    base_dir /= np.linalg.norm(base_dir)
    axis = rng.normal(size=d)
    axis -= (axis @ base_dir) * base_dir
    axis /= np.linalg.norm(axis)
    rank = min(_NOISE_RANK, d)
    basis, _ = np.linalg.qr(rng.normal(size=(d, rank)))

    n_pos = _round_half_up(spec.pos_frac * spec.n_bags)
    labels = np.array([1] * n_pos + [0] * (spec.n_bags - n_pos))
    rng.shuffle(labels)

    base = sig * math.sqrt(d) * base_dir
    shift = _WITNESS_GAIN * spec.separation * sig * math.sqrt(d) * axis
    width = len(str(max(spec.n_bags - 1, 1)))
    bags = []
    for i in range(spec.n_bags):
        n = int(rng.integers(spec.bag_min, spec.bag_max + 1))
        level = math.exp(rng.normal(0.0, _LEVEL_JITTER))
        intensity = 1.0 + rng.normal(0.0, _INTENSITY_JITTER)
        offset = rng.normal(0.0, _AXIS_JITTER) * sig * math.sqrt(d)
        feats = (intensity * base
                 + offset * axis
                 + level * sig * _NOISE_GAIN * rng.normal(size=(n, rank)) @ basis.T)
        if labels[i] == 1:
            k = witness_count(spec.witness_rate, n)
            where = rng.choice(n, size=k, replace=False)
            feats[where] += shift
        bags.append(make_bag(f"bag{i:0{width}d}", int(labels[i]),
                             feats.astype(np.float32)))
    return bags


# ---------------------------------------------------------------------------
# splits


def split_ids(labeled: Sequence[Tuple[str, int]],
              fractions: Tuple[float, float, float],
              seed: int) -> Dict[str, List[str]]:
    """Stratified, disjoint train/val/test id lists, deterministic in seed.

    Each split with a nonzero fraction must receive at least one bag of
    every class present.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ValueError(f"split fractions must be non-negative, got {fractions}")
    rng = np.random.default_rng(seed)
    names = ("train", "val", "test")
    out: Dict[str, List[str]] = {name: [] for name in names}
    by_label: Dict[int, List[str]] = {}
    for bag_id, label in labeled:
        by_label.setdefault(label, []).append(bag_id)
    for label, ids in sorted(by_label.items()):
        ids = list(ids)
        rng.shuffle(ids)
        n = len(ids)
        counts = [int(f * n) for f in fractions]
        remainders = [f * n - c for f, c in zip(fractions, counts)]
        for _ in range(n - sum(counts)):
            j = int(np.argmax(remainders))
            counts[j] += 1
            remainders[j] = -1.0
        for name, f, c in zip(names, fractions, counts):
            if f > 0 and c < 1:
                raise SplitError(f"split {name!r} would receive no bags of "
                                 f"label {label}")
        start = 0
        for name, c in zip(names, counts):
            out[name].extend(ids[start:start + c])
            start += c
    for name in names:
        out[name].sort()
    return out


def write_split(split: Dict[str, List[str]], path) -> None:
    write_atomic(path, json.dumps(split, indent=1))


def read_split(path) -> Dict[str, List[str]]:
    path = Path(path)
    if not path.exists():
        raise StoreMissingFileError(f"no split file at {path}")
    data = read_json(path, "split file", SplitError)
    if not isinstance(data, dict):
        raise SplitError(f"{path} is not a JSON object")
    split: Dict[str, List[str]] = {}
    owner: Dict[str, str] = {}
    for name in ("train", "val", "test"):
        ids = split[name] = data.get(name, [])
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise SplitError(f"{path}: {name} is not a list of bag ids")
        for bag_id in ids:
            if bag_id in owner:
                where = (f"twice in {name}" if owner[bag_id] == name
                         else f"in both {owner[bag_id]} and {name}")
                raise SplitError(f"{path}: bag {bag_id!r} is {where}")
            owner[bag_id] = name
    return split


# ---------------------------------------------------------------------------
# balanced sampling


def balanced_batches(labeled: Sequence[Tuple[str, int]], seed: int,
                     epoch: int) -> List[Tuple[str, str]]:
    """(positive_id, negative_id) pairs covering one epoch.

    Epoch length is max(#pos, #neg): every bag of the larger class appears
    exactly once, the smaller class cycles with a fresh shuffle per cycle.
    Deterministic in (seed, epoch).
    """
    pos = [i for i, lab in labeled if lab == 1]
    neg = [i for i, lab in labeled if lab == 0]
    if not pos or not neg:
        missing = "positive" if not pos else "negative"
        raise SingleClassError(f"balanced sampling needs both classes; "
                               f"no {missing} bags")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))
    larger, smaller = (pos, neg) if len(pos) >= len(neg) else (neg, pos)
    big = list(larger)
    rng.shuffle(big)
    small: List[str] = []
    while len(small) < len(big):
        cycle = list(smaller)
        rng.shuffle(cycle)
        small.extend(cycle)
    small = small[:len(big)]
    if len(pos) >= len(neg):
        return list(zip(big, small))
    return list(zip(small, big))
