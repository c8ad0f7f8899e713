"""Label vocabulary, dataset model, JSONL corpus I/O and synthetic generation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import stage_rng

KIND_PLANE = "SP"
KIND_STRUCTURE = "AS"
_VALID_KINDS = (KIND_PLANE, KIND_STRUCTURE)

# Built-in class names: ten plane classes, twenty-four named anatomical
# structures, padded with AS25..AS29 placeholders so the default benchmark
# reaches 29 structure classes.
PLANE_NAMES = (
    "SLAP", "CMP", "TAP", "LVAP", "NCP", "HFMP", "SPP", "FCP", "UAAP", "FLAP",
)
STRUCTURE_NAMES = (
    "CF", "PH", "SPC", "CM", "SCR", "thalamus", "IC", "NA", "NB", "palate",
    "mandible", "SP", "pharynx", "HFCV", "aorta", "lung", "ST", "PSUV", "FD",
    "spine", "UL", "LL", "chin", "nostril",
)


class DatasetFormatError(ValueError):
    """A corpus file violated the dataset/vocabulary file contract."""


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label classes; tuple order is the canonical index space."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((str(n), str(k)) for n, k in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("vocabulary needs at least 2 classes")
        names = [n for n, _ in entries]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate label names: {dup}")
        for name, kind in entries:
            if kind not in _VALID_KINDS:
                raise ValueError(f"label {name!r} has invalid kind {kind!r}")

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.entries)

    @cached_property
    def kinds(self) -> tuple:
        return tuple(k for _, k in self.entries)

    @cached_property
    def index(self) -> dict:
        return {n: i for i, (n, _) in enumerate(self.entries)}

    @cached_property
    def sp_indices(self) -> np.ndarray:
        return np.array([i for i, k in enumerate(self.kinds) if k == KIND_PLANE], dtype=np.int64)

    @cached_property
    def as_indices(self) -> np.ndarray:
        return np.array([i for i, k in enumerate(self.kinds) if k == KIND_STRUCTURE], dtype=np.int64)

    def save(self, path) -> None:
        payload = [{"name": n, "kind": k} for n, k in self.entries]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "LabelVocabulary":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"vocabulary file is not valid JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise DatasetFormatError("vocabulary file must hold a JSON list")
        entries = []
        for i, item in enumerate(payload):
            if not isinstance(item, dict) or "name" not in item or "kind" not in item:
                raise DatasetFormatError(f"vocabulary entry {i}: expected {{name, kind}}")
            entries.append((item["name"], item["kind"]))
        try:
            return cls(tuple(entries))
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc


def default_vocabulary() -> LabelVocabulary:
    """The built-in 39-class vocabulary (10 planes, 29 structures)."""
    return synthetic_vocabulary(len(PLANE_NAMES), 29)


def synthetic_vocabulary(sp_count: int, as_count: int) -> LabelVocabulary:
    """Vocabulary with built-in names where available, generated ones beyond."""
    sp = [PLANE_NAMES[i] if i < len(PLANE_NAMES) else f"SP{i + 1}" for i in range(sp_count)]
    st = [STRUCTURE_NAMES[i] if i < len(STRUCTURE_NAMES) else f"AS{i + 1}" for i in range(as_count)]
    entries = [(n, KIND_PLANE) for n in sp] + [(n, KIND_STRUCTURE) for n in st]
    return LabelVocabulary(tuple(entries))


@dataclass(frozen=True)
class Sample:
    """One observation: a feature vector plus a set of label bits."""

    id: str
    subject_id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        bits = np.asarray(self.labels, dtype=np.uint8)
        if feats.ndim != 1:
            raise ValueError(f"sample {self.id}: features must be a flat vector")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"sample {self.id}: non-finite feature value")
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError(f"sample {self.id}: labels must be 0/1 bits")
        if int(bits.sum()) == 0:
            raise ValueError(f"sample {self.id}: empty label set")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", bits)


@dataclass
class Dataset:
    """A list of samples sharing one vocabulary and feature dimension."""

    vocabulary: LabelVocabulary
    samples: list
    split_tag: str = "unsplit"

    def __post_init__(self):
        C = self.vocabulary.size
        dim = None
        for s in self.samples:
            if s.labels.shape[0] != C:
                raise ValueError(f"sample {s.id}: {s.labels.shape[0]} label bits, vocabulary has {C}")
            if dim is None:
                dim = s.features.shape[0]
            elif s.features.shape[0] != dim:
                raise ValueError(f"sample {s.id}: feature length {s.features.shape[0]} != {dim}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def feature_dim(self) -> int:
        return self.samples[0].features.shape[0] if self.samples else 0

    def features_matrix(self) -> np.ndarray:
        return np.stack([s.features for s in self.samples]) if self.samples else np.zeros((0, 0))

    def labels_matrix(self) -> np.ndarray:
        if not self.samples:
            return np.zeros((0, self.vocabulary.size), dtype=np.uint8)
        return np.stack([s.labels for s in self.samples])

    def subject_ids(self) -> list:
        """Distinct subjects in order of first appearance."""
        seen = {}
        for s in self.samples:
            seen.setdefault(s.subject_id, None)
        return list(seen)


def load_dataset(path, vocabulary: LabelVocabulary) -> Dataset:
    """Parse a JSONL corpus against a vocabulary.

    Each line holds {"id", "subject_id", "features", "labels"} with labels
    given by name. Unknown labels, ragged feature lengths and empty label
    sets are rejected with the offending line number.
    """
    index = vocabulary.index
    C = vocabulary.size
    samples = []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise DatasetFormatError(f"line {lineno}: record must be a JSON object")
            for key in ("id", "subject_id", "features", "labels"):
                if key not in rec:
                    raise DatasetFormatError(f"line {lineno}: missing key {key!r}")
            feats = rec["features"]
            names = rec["labels"]
            if not isinstance(feats, list) or not all(isinstance(v, (int, float)) for v in feats):
                raise DatasetFormatError(f"line {lineno}: features must be a list of numbers")
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                raise DatasetFormatError(f"line {lineno}: labels must be a list of names")
            if not names:
                raise DatasetFormatError(f"line {lineno}: empty label set")
            if dim is None:
                dim = len(feats)
            elif len(feats) != dim:
                raise DatasetFormatError(
                    f"line {lineno}: feature length {len(feats)} != {dim} from line 1"
                )
            bits = np.zeros(C, dtype=np.uint8)
            for name in names:
                if name not in index:
                    raise DatasetFormatError(f"line {lineno}: unknown label name {name!r}")
                bits[index[name]] = 1
            try:
                samples.append(
                    Sample(
                        id=str(rec["id"]),
                        subject_id=str(rec["subject_id"]),
                        features=np.asarray(feats, dtype=np.float64),
                        labels=bits,
                    )
                )
            except ValueError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
    return Dataset(vocabulary, samples)


def format_csv_row(values: np.ndarray) -> str:
    """One CSV row from a 1-D int or float array: `str` of each int, `repr` of each float.

    `repr` of a Python float is the shortest text that reads back to the
    same bits. The row is converted with one `tolist()` call rather than
    element by element; callers pass one row at a time so that a whole
    matrix is never held as Python objects.
    """
    return ",".join(map(repr, values.tolist()))


def save_dataset(dataset: Dataset, path) -> None:
    """Write the JSONL form; floats round-trip exactly through repr."""
    names = dataset.vocabulary.names
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            rec = {
                "id": s.id,
                "subject_id": s.subject_id,
                "features": [float(v) for v in s.features],
                "labels": [names[i] for i in np.flatnonzero(s.labels)],
            }
            fh.write(json.dumps(rec) + "\n")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the planted-dependency synthetic benchmark.

    Each sample carries at most one plane label; structure bits are drawn
    from the plane's conditional profile (or a background profile when no
    plane is present). Features are the sum of fixed per-class prototype
    vectors of the active labels plus isotropic Gaussian noise.
    """

    n_samples: int = 2000
    sp_count: int = 10
    as_count: int = 29
    no_sp_probability: float = 0.1
    structure_profile: object = None      # (sp_count, as_count) probabilities or None
    background_profile: object = None     # (as_count,) probabilities or None
    feature_dim: int = 64
    noise_sigma: float = 5.5
    prototype_correlation: float = 0.0    # shared-direction weight within a plane's group
    samples_per_subject: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.sp_count < 1 or self.as_count < 1:
            raise ValueError("sp_count and as_count must be positive")
        if not 0.0 <= self.no_sp_probability <= 1.0:
            raise ValueError("no_sp_probability must be within [0, 1]")
        if self.feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if not 0.0 <= self.prototype_correlation < 1.0:
            raise ValueError("prototype_correlation must be within [0, 1)")
        if self.samples_per_subject < 1:
            raise ValueError("samples_per_subject must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name, arr, shape in (
            ("structure_profile", self.structure_profile, (self.sp_count, self.as_count)),
            ("background_profile", self.background_profile, (self.as_count,)),
        ):
            if arr is None:
                continue
            a = np.asarray(arr, dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if np.any(a < 0) or np.any(a > 1):
                raise ValueError(f"{name} entries must be probabilities within [0, 1]")


def default_structure_profile(sp_count: int, as_count: int) -> np.ndarray:
    """Conditional structure probabilities with planted plane/structure groups.

    Plane s owns a trio of structures at indices 3s..3s+2 (mod as_count) that
    co-fire with it nearly deterministically, with slightly decreasing
    strength. Wrapping makes neighbouring trios share boundary structures, so
    the label graph is connected rather than a disjoint union of cliques.
    """
    profile = np.zeros((sp_count, as_count), dtype=np.float64)
    core = (0.98, 0.95, 0.90)
    for s in range(sp_count):
        for j, p in enumerate(core):
            k = (3 * s + j) % as_count
            profile[s, k] = max(profile[s, k], p)
    return profile


def default_background_profile(as_count: int) -> np.ndarray:
    return np.full(as_count, 0.08, dtype=np.float64)


def class_prototypes(config: SyntheticConfig) -> np.ndarray:
    """Fixed per-class feature prototypes, (sp_count + as_count, feature_dim).

    With prototype_correlation > 0, each structure's prototype mixes in a
    direction shared with the plane it is most associated with, making
    individual structure bits ambiguous from features alone.
    """
    config.validate()
    rng = stage_rng(config.seed, "prototypes")
    C = config.sp_count + config.as_count
    protos = rng.standard_normal((C, config.feature_dim))
    rho = config.prototype_correlation
    if rho > 0.0:
        profile = (
            np.asarray(config.structure_profile, dtype=np.float64)
            if config.structure_profile is not None
            else default_structure_profile(config.sp_count, config.as_count)
        )
        shared = rng.standard_normal((config.sp_count, config.feature_dim))
        owner = np.argmax(profile, axis=0)  # ties -> lowest plane index
        for k in range(config.as_count):
            row = config.sp_count + k
            protos[row] = np.sqrt(1.0 - rho) * protos[row] + np.sqrt(rho) * shared[owner[k]]
    return protos


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Sample a planted-dependency corpus; shares byte-identical results per config."""
    config.validate()
    vocab = synthetic_vocabulary(config.sp_count, config.as_count)
    profile = (
        np.asarray(config.structure_profile, dtype=np.float64)
        if config.structure_profile is not None
        else default_structure_profile(config.sp_count, config.as_count)
    )
    background = (
        np.asarray(config.background_profile, dtype=np.float64)
        if config.background_profile is not None
        else default_background_profile(config.as_count)
    )
    protos = class_prototypes(config)
    rng_labels = stage_rng(config.seed, "labels")
    rng_noise = stage_rng(config.seed, "noise")
    C = config.sp_count + config.as_count
    samples = []
    for i in range(config.n_samples):
        bits = np.zeros(C, dtype=np.uint8)
        if rng_labels.random() >= config.no_sp_probability:
            s = int(rng_labels.integers(config.sp_count))
            bits[s] = 1
            row = profile[s]
        else:
            row = background
        hit = rng_labels.random(config.as_count) < row
        bits[config.sp_count:][hit] = 1
        if int(bits.sum()) == 0:
            # degenerate no-plane draw with no structures: force one structure
            total = row.sum()
            p = row / total if total > 0 else np.full(config.as_count, 1.0 / config.as_count)
            k = int(rng_labels.choice(config.as_count, p=p))
            bits[config.sp_count + k] = 1
        feats = protos[bits.astype(bool)].sum(axis=0)
        if config.noise_sigma > 0:
            feats = feats + config.noise_sigma * rng_noise.standard_normal(config.feature_dim)
        samples.append(
            Sample(
                id=f"img{i:06d}",
                subject_id=f"subj{i // config.samples_per_subject:05d}",
                features=feats,
                labels=bits,
            )
        )
    return Dataset(vocab, samples)


def split_by_subject(dataset: Dataset, ratios, seed: int):
    """Partition samples into train/val/test without splitting any subject.

    Subjects are shuffled, then greedily assigned to the split with the
    largest remaining sample deficit (ties favor the earlier split), which
    keeps realized proportions close to the requested ratios.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("ratios must have exactly 3 entries")
    if any(r < 0 for r in ratios):
        raise ValueError("ratios must be nonnegative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")
    subjects = dataset.subject_ids()
    if len(subjects) < 3:
        raise ValueError(f"need at least 3 distinct subjects, got {len(subjects)}")
    sizes = {}
    for s in dataset.samples:
        sizes[s.subject_id] = sizes.get(s.subject_id, 0) + 1
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subjects))
    targets = np.array([r * len(dataset) for r in ratios])
    counts = np.zeros(3)
    assignment = {}
    for j in order:
        subj = subjects[int(j)]
        k = int(np.argmax(targets - counts))
        assignment[subj] = k
        counts[k] += sizes[subj]
    tags = ("train", "val", "test")
    buckets = ([], [], [])
    for s in dataset.samples:
        buckets[assignment[s.subject_id]].append(s)
    return tuple(
        Dataset(dataset.vocabulary, list(b), split_tag=t) for b, t in zip(buckets, tags)
    )
