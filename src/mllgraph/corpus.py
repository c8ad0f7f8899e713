"""Label vocabulary, dataset model, JSONL corpus I/O and synthetic generation."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import CSV_BREAK_FAULT, TARGET_PREFIX, csv_text_fault, holds_surrogate
from .config import Config, NONNEGATIVE, POSITIVE, within
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
        entries = tuple((n, k) for n, k in self.entries)
        object.__setattr__(self, "entries", entries)
        for i, (name, kind) in enumerate(entries):
            if not (isinstance(name, str) and isinstance(kind, str)):
                raise ValueError(f"vocabulary entry {i}: name and kind must be strings, "
                                 f"got {type(name).__name__} and {type(kind).__name__}")
        if len(entries) < 2:
            raise ValueError("vocabulary needs at least 2 classes")
        names = [n for n, _ in entries]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate label names: {dup}")
        for i, (name, kind) in enumerate(entries):
            if kind not in _VALID_KINDS:
                raise ValueError(f"label {name!r} has invalid kind {kind!r}")
            fault = csv_text_fault(name)
            if fault == CSV_BREAK_FAULT or name.startswith(TARGET_PREFIX):
                fault = f"{CSV_BREAK_FAULT} or starts with {TARGET_PREFIX!r}"
            if fault:
                raise DatasetFormatError(f"vocabulary entry {i}: label name {name!r} {fault}, "
                                         "which the CSV artifacts cannot carry")
        if KIND_PLANE not in (k for _, k in entries):  # SP_ACC scores the plane columns
            raise ValueError("vocabulary needs at least one SP class")

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
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
            raise DatasetFormatError(f"vocabulary file is not valid JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise DatasetFormatError("vocabulary file must hold a JSON list")
        i = next((i for i, item in enumerate(payload) if not isinstance(item, dict)), None)
        if i is not None:  # the constructor checks the rest
            raise DatasetFormatError(f"vocabulary entry {i}: expected an object, got {type(payload[i]).__name__}")
        try:
            return cls(tuple((item.get("name"), item.get("kind")) for item in payload))
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc


def synthetic_vocabulary(sp_count: int, as_count: int) -> LabelVocabulary:
    """Vocabulary with built-in names where available, generated ones beyond."""
    sp = [PLANE_NAMES[i] if i < len(PLANE_NAMES) else f"SP{i + 1}" for i in range(sp_count)]
    st = [STRUCTURE_NAMES[i] if i < len(STRUCTURE_NAMES) else f"AS{i + 1}" for i in range(as_count)]
    entries = [(n, KIND_PLANE) for n in sp] + [(n, KIND_STRUCTURE) for n in st]
    return LabelVocabulary(tuple(entries))


def _sample_error(ids, subjects, features: np.ndarray, labels: np.ndarray, name):
    """The message for the first sample that breaks a sample rule, or None.

    The rules, in order: the id and the subject are strings; the id is text
    the CSV artifacts can carry (`csv_text_fault`) and repeats no earlier id;
    the (n, F) `features` are finite; the (n, C) `labels` are 0/1 bits, at
    least one set. The lowest index wins, then the first rule; `name(i)`
    names sample i, in a repeat too.
    """
    problems = []  # (index, message), in rule order
    for key, values in (("id", ids), ("subject_id", subjects)):
        i = next((i for i, v in enumerate(values) if not isinstance(v, str)), None)
        if i is not None:
            problems.append((i, f"{key} must be a string, got {type(values[i]).__name__}"))
    # the ids before the first sample that breaks the first rule: strings, safe to hash
    head = ids[:min((i for i, _ in problems), default=len(ids))]
    i = next((i for i, sid in enumerate(head) if csv_text_fault(sid)), None)
    if i is not None:
        problems.append((i, f"sample id {head[i]!r} {csv_text_fault(head[i])}, "
                            "which the CSV artifacts cannot carry"))
    if len(set(head)) != len(head):  # a set first: the index of each id only when one repeats
        first = {}
        i = next(i for i, sid in enumerate(head) if first.setdefault(sid, i) != i)
        problems.append((i, f"sample id {head[i]!r} repeats {name(first[head[i]])}"))
    with np.errstate(invalid="ignore"):  # a NaN label is reported below, not warned about
        bits = labels.astype(np.uint8, copy=False)
    top = bits.max(axis=1)  # row maxima: uint8 input, as every corpus function gives, makes no (n, C) temporary
    not_bits = top > 1
    if bits is not labels:  # a value the cast changed was not 0 or 1
        not_bits |= (bits != labels).any(axis=1)
    for bad, message in ((~np.isfinite(features).all(axis=1), "non-finite feature value"),
                         (not_bits, "labels must be 0/1 bits"), (top == 0, "empty label set")):
        if bad.any():
            i = int(np.argmax(bad))
            problems.append((i, f"sample {ids[i]}: {message}"))
    if problems:
        i, message = min(problems, key=lambda p: p[0])  # the first sample; per sample, the first rule
        return f"{name(i)}: {message}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples sharing one vocabulary, held as columns.

    `ids` and `subjects` are tuples of n strings, the ids distinct, as a
    corpus file holds them; `features` an (n, F) float64 matrix and `labels`
    an (n, C) uint8 matrix of 0/1 bits, C being the vocabulary size. Both
    matrices are read-only. The shapes are checked first, then the sample
    rules of `_sample_error`, which name a sample by its index (`ids[2]`).
    """

    vocabulary: LabelVocabulary
    ids: tuple
    subjects: tuple
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ids, subjects = tuple(self.ids), tuple(self.subjects)
        n = len(ids)
        if len(subjects) != n:
            raise ValueError(f"{len(subjects)} subjects for {n} ids")
        shape_error = f"features must be an (n, F) matrix: one row of equal feature length per id ({n})"
        try:
            feats = np.asarray(self.features, dtype=np.float64)
        except ValueError as exc:  # ragged rows
            raise ValueError(shape_error) from exc
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError(f"{shape_error}, got shape {feats.shape}")
        raw = np.asarray(self.labels)
        if raw.ndim != 2 or raw.shape[0] != n:
            raise ValueError(f"labels must be an (n, C) matrix with one row per id ({n}), got shape {raw.shape}")
        if raw.shape[1] != self.vocabulary.size:
            raise ValueError(f"{raw.shape[1]} label bits per sample, vocabulary has {self.vocabulary.size}")
        message = _sample_error(ids, subjects, feats, raw, "ids[{}]".format)
        if message:
            raise ValueError(message)
        feats, bits = feats.view(), raw.astype(np.uint8, copy=False).view()  # the cast keeps 0 and 1
        for a in (feats, bits):
            a.setflags(write=False)
        for name, value in (("ids", ids), ("subjects", subjects), ("features", feats), ("labels", bits)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def features_matrix(self) -> np.ndarray:
        """The (n, F) features, not copied."""
        return self.features

    def labels_matrix(self) -> np.ndarray:
        """The (n, C) label bits, not copied."""
        return self.labels

    def subject_ids(self) -> list:
        """Distinct subjects in order of first appearance."""
        return list(dict.fromkeys(self.subjects))


# Rows per draw of the synthetic noise: enough to share the per-call cost,
# few enough that the draw's temporary stays small beside the features.
_BLOCK_ROWS = 64
# what json.loads gives for a JSON number (bool counts, as in isinstance(v, int))
_NUMBER_TYPES = frozenset((int, float, bool))


def _line_count(path) -> int:
    """An upper bound on the lines text mode reads: one per LF or CR byte, plus one."""
    with open(path, "rb") as fh:
        return sum(c.count(b"\n") + c.count(b"\r") for c in iter(lambda: fh.read(1 << 16), b"")) + 1


def load_dataset(path, vocabulary: LabelVocabulary) -> Dataset:
    """Parse a JSONL corpus of {"id", "subject_id", "features", "labels"} lines, labels by name.

    A line is refused for what its text gets wrong: a byte that is not UTF-8,
    invalid JSON, not an object, a missing key, features that are not numbers
    or not line 1's length, an unknown label name, a number beyond float
    range. Lines are stored as read (ids and subjects as given) into matrices
    sized by the file's line count, and meet the sample rules
    (`_sample_error`, naming a line) before a later line's error is reported,
    and once more, through the `Dataset`, at the end: so the first bad line is
    the one reported.
    """
    index = vocabulary.index
    ids, subjects, line_numbers = [], [], []  # one entry per stored line, in file order
    dim = None
    features, labels = np.zeros((0, 0)), np.zeros((0, vocabulary.size), dtype=np.uint8)

    def stored_error():
        n = len(ids)
        return _sample_error(ids, subjects, features[:n], labels[:n], lambda i: f"line {line_numbers[i]}")

    def bad(message):
        """This line's error, unless a stored line breaks a sample rule."""
        return DatasetFormatError(stored_error() or f"line {lineno}: {message}")

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if holds_surrogate(line):  # an undecodable byte, escaped
                raise bad("not UTF-8 text")
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
                raise bad(f"invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise bad("record must be a JSON object")
            for key in ("id", "subject_id", "features", "labels"):
                if key not in rec:
                    raise bad(f"missing key {key!r}")
            feats, names = rec["features"], rec["labels"]
            if not isinstance(feats, list) or not _NUMBER_TYPES.issuperset(map(type, feats)):
                raise bad("features must be a list of numbers")
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                raise bad("labels must be a list of names")
            if dim is None:
                dim = len(feats)
                n_max = _line_count(path)
                features = np.empty((n_max, dim))
                labels = np.zeros((n_max, vocabulary.size), dtype=np.uint8)
            elif len(feats) != dim:
                raise bad(f"feature length {len(feats)} != {dim} from line 1")
            try:
                cols = [index[name] for name in names]
            except KeyError as exc:  # the first unknown name
                raise bad(f"unknown label name {exc.args[0]!r}") from None
            i = len(ids)
            try:
                features[i] = feats
            except OverflowError:  # a JSON integer beyond float range
                raise bad("feature value too large for a float") from None
            bits = labels[i]
            for c in cols:
                bits[c] = 1
            ids.append(rec["id"])
            subjects.append(rec["subject_id"])
            line_numbers.append(lineno)
    n = len(ids)
    try:
        return Dataset(vocabulary, ids, subjects, features[:n], labels[:n])
    except ValueError:  # the shapes hold by construction, so a sample rule broke: name its line
        raise DatasetFormatError(stored_error()) from None


def save_dataset(dataset: Dataset, path) -> None:
    """Write the JSONL form, one record per sample; floats round-trip exactly through repr."""
    names = dataset.vocabulary.names
    with open(path, "w", encoding="utf-8") as fh:
        for sid, subj, row, bits in zip(dataset.ids, dataset.subjects, dataset.features, dataset.labels):
            rec = {"id": sid, "subject_id": subj, "features": row.tolist(),
                   "labels": [names[c] for c in np.flatnonzero(bits).tolist()]}
            fh.write(json.dumps(rec) + "\n")


# The most cells one array of a synthetic corpus may hold (2 GiB of float64),
# checked before anything is allocated.
SYNTHETIC_MAX_CELLS = 2 ** 28


@dataclass(frozen=True)
class SyntheticConfig(Config):
    """Knobs for the planted-dependency synthetic benchmark.

    Each sample carries at most one plane label; structure bits are drawn
    from the plane's conditional profile (or a background profile when no
    plane is present). Features are the sum of fixed per-class prototype
    vectors of the active labels plus isotropic Gaussian noise.
    """

    n_samples: int = field(default=2000, metadata=POSITIVE)
    sp_count: int = field(default=10, metadata=POSITIVE)
    as_count: int = field(default=29, metadata=POSITIVE)
    no_sp_probability: float = field(default=0.1, metadata=within(0, 1))
    structure_profile: object = None      # (sp_count, as_count) probabilities or None
    background_profile: object = None     # (as_count,) probabilities or None
    feature_dim: int = field(default=64, metadata=POSITIVE)
    noise_sigma: float = field(default=5.5, metadata=NONNEGATIVE)
    # shared-direction weight within a plane's group
    prototype_correlation: float = field(default=0.0, metadata=within(0, 1, "[)"))
    samples_per_subject: int = field(default=10, metadata=POSITIVE)
    seed: int = field(default=0, metadata=NONNEGATIVE)

    def __post_init__(self):
        super().__post_init__()
        n, sp, st, F = self.n_samples, self.sp_count, self.as_count, self.feature_dim
        cells = max(n * (sp + st), n * F, (sp + st) * F, sp * st)
        if cells > SYNTHETIC_MAX_CELLS:
            raise ValueError(f"the largest array (labels, features, prototypes or profile) would hold "
                             f"{cells} cells, over the cap of {SYNTHETIC_MAX_CELLS}")
        for name, arr, shape in (
            ("structure_profile", self.structure_profile, (self.sp_count, self.as_count)),
            ("background_profile", self.background_profile, (self.as_count,)),
        ):
            if arr is None:
                continue
            try:
                a = np.asarray(arr, dtype=np.float64)
            except (TypeError, ValueError) as exc:  # not numbers, or ragged rows
                raise ValueError(f"{name} must be numbers of shape {shape}: {exc}") from exc
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all((a >= 0) & (a <= 1)):  # NaN fails both
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


def _structure_profile(config: SyntheticConfig) -> np.ndarray:
    """The config's structure profile as float64, or the default one if it gives none."""
    if config.structure_profile is None:
        return default_structure_profile(config.sp_count, config.as_count)
    return np.asarray(config.structure_profile, dtype=np.float64)


def class_prototypes(config: SyntheticConfig) -> np.ndarray:
    """Fixed per-class feature prototypes, (sp_count + as_count, feature_dim).

    With prototype_correlation > 0, each structure's prototype mixes in a
    direction shared with the plane it is most associated with, making
    individual structure bits ambiguous from features alone.
    """
    rng = stage_rng(config.seed, "prototypes")
    C = config.sp_count + config.as_count
    protos = rng.standard_normal((C, config.feature_dim))
    rho = config.prototype_correlation
    if rho > 0.0:
        profile = _structure_profile(config)
        shared = rng.standard_normal((config.sp_count, config.feature_dim))
        owner = np.argmax(profile, axis=0)  # ties -> lowest plane index
        for k in range(config.as_count):
            row = config.sp_count + k
            protos[row] = np.sqrt(1.0 - rho) * protos[row] + np.sqrt(rho) * shared[owner[k]]
    return protos


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Sample a planted-dependency corpus; shares byte-identical results per config."""
    vocab = synthetic_vocabulary(config.sp_count, config.as_count)
    profile = _structure_profile(config)
    background = (
        np.asarray(config.background_profile, dtype=np.float64)
        if config.background_profile is not None
        else default_background_profile(config.as_count)
    )
    protos = class_prototypes(config)
    rng_labels = stage_rng(config.seed, "labels")
    rng_noise = stage_rng(config.seed, "noise")
    n = config.n_samples
    labels = np.zeros((n, config.sp_count + config.as_count), dtype=np.uint8)
    features = np.empty((n, config.feature_dim))
    for i in range(n):
        bits = labels[i]
        plane = rng_labels.random() >= config.no_sp_probability
        if plane:
            s = int(rng_labels.integers(config.sp_count))
            bits[s] = 1
            row = profile[s]
        else:
            row = background
        hit = rng_labels.random(config.as_count) < row
        bits[config.sp_count:][hit] = 1
        if not plane and not hit.any():
            # degenerate no-plane draw with no structures: force one structure
            total = row.sum()
            p = row / total if total > 0 else np.full(config.as_count, 1.0 / config.as_count)
            k = int(rng_labels.choice(config.as_count, p=p))
            bits[config.sp_count + k] = 1
        # one reduction per sample: a sum over all samples at once would add
        # in another order (pairwise when feature_dim is 1) and change bits
        np.add.reduce(protos[bits.view(bool)], axis=0, out=features[i])
    if config.noise_sigma > 0:
        # a block of rows per draw: the same stream as one row per draw, with
        # no (n, F) temporary
        for start in range(0, n, _BLOCK_ROWS):
            rows = features[start:start + _BLOCK_ROWS]
            rows += config.noise_sigma * rng_noise.standard_normal(rows.shape)
    ids = [f"img{i:06d}" for i in range(n)]
    subjects = [f"subj{i // config.samples_per_subject:05d}" for i in range(n)]
    return Dataset(vocab, ids, subjects, features, labels)


def check_split_ratios(ratios) -> tuple:
    """`ratios` as three floats, once it is a list or tuple of three numbers
    within [0, 1] (so finite and nonnegative) summing to 1 within 1e-9; a bool
    or a string is not a number, a NumPy float is."""
    if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3
            and all(isinstance(r, numbers.Real) and not isinstance(r, bool) and 0 <= r <= 1
                    for r in ratios)  # NaN fails too
            and abs(sum(map(float, ratios)) - 1.0) <= 1e-9):
        raise ValueError("need three nonnegative numbers summing to 1")
    return tuple(map(float, ratios))


def split_by_subject(dataset: Dataset, ratios, seed: int):
    """Partition samples into train/val/test without splitting any subject.

    Subjects are shuffled, then greedily assigned to the split with the
    largest remaining sample deficit (ties favor the earlier split), which
    keeps realized proportions close to the requested ratios.
    """
    ratios = check_split_ratios(ratios)
    subjects = dataset.subject_ids()
    if len(subjects) < 3:
        raise ValueError(f"need at least 3 distinct subjects, got {len(subjects)}")
    code = {subj: j for j, subj in enumerate(subjects)}
    subject_of = np.fromiter(map(code.__getitem__, dataset.subjects), np.int64, len(dataset))
    sizes = np.bincount(subject_of, minlength=len(subjects))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subjects))
    targets = np.array([r * len(dataset) for r in ratios])
    counts = np.zeros(3)
    split_of = np.empty(len(subjects), dtype=np.int64)
    for j in order.tolist():
        k = int(np.argmax(targets - counts))
        split_of[j] = k
        counts[k] += sizes[j]
    split_of_sample = split_of[subject_of]
    parts = []
    for k in range(3):
        rows = np.flatnonzero(split_of_sample == k)
        picked = rows.tolist()
        parts.append(Dataset(
            dataset.vocabulary,
            [dataset.ids[i] for i in picked],
            [dataset.subjects[i] for i in picked],
            dataset.features[rows],
            dataset.labels[rows],
        ))
    return tuple(parts)
