import dataclasses
import json
import re

import numpy as np
import pytest

from mllgraph import corpus
from mllgraph.corpus import (
    Dataset,
    DatasetFormatError,
    LabelVocabulary,
    SyntheticConfig,
    class_prototypes,
    default_structure_profile,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_by_subject,
    synthetic_vocabulary,
)
from mllgraph.seeding import stage_rng


def small_vocab():
    return LabelVocabulary((("A", "SP"), ("B", "SP"), ("x", "AS"), ("y", "AS")))


def make_dataset(label_rows, subjects=None):
    """Sample i: id s{i}, subject subj{i} unless given, features arange(3) + i."""
    n = len(label_rows)
    return Dataset(
        small_vocab(),
        [f"s{i}" for i in range(n)],
        subjects or [f"subj{i}" for i in range(n)],
        np.arange(3, dtype=float) + np.arange(n, dtype=float)[:, None],
        np.asarray(label_rows, dtype=np.uint8).reshape(n, -1),
    )


# ---------------------------------------------------------------- vocabulary

def test_vocabulary_accessors():
    v = small_vocab()
    assert v.size == 4
    assert v.names == ("A", "B", "x", "y")
    assert v.kinds == ("SP", "SP", "AS", "AS")
    assert v.index == {"A": 0, "B": 1, "x": 2, "y": 3}
    assert list(v.sp_indices) == [0, 1]
    assert list(v.as_indices) == [2, 3]


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        LabelVocabulary((("A", "SP"), ("A", "AS")))


def test_vocabulary_rejects_bad_kind():
    with pytest.raises(ValueError, match="invalid kind"):
        LabelVocabulary((("A", "SP"), ("B", "plane")))


def test_vocabulary_needs_two_classes():
    with pytest.raises(ValueError, match="at least 2"):
        LabelVocabulary((("A", "SP"),))


def test_vocabulary_refuses_names_and_kinds_that_are_not_strings():
    # the vocabulary file refuses them too; str() would have made 7 the name "7"
    for entries, got in (
        ((("A", "SP"), (7, "AS")), "entry 1: name and kind must be strings, got int and str"),
        (((None, "SP"), ("B", "AS")), "entry 0: name and kind must be strings, got NoneType and str"),
        ((("A", "SP"), ("B", ["AS"])), "entry 1: name and kind must be strings, got str and list"),
    ):
        with pytest.raises(ValueError, match=got):
            LabelVocabulary(entries)


def test_vocabulary_save_load_roundtrip(tmp_path):
    v = small_vocab()
    path = tmp_path / "vocab.json"
    v.save(path)
    assert LabelVocabulary.load(path) == v


def test_vocabulary_load_rejects_bad_json(tmp_path):
    path = tmp_path / "vocab.json"
    for text in ("{not json", "[" * 100_000, '[{"name": "A", "kind": "SP", "n": 1' + "0" * 5000 + "}]"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="not valid JSON"):
            LabelVocabulary.load(path)


def test_vocabulary_load_rejects_non_list(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('{"name": "A"}', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="JSON list"):
        LabelVocabulary.load(path)


def test_vocabulary_load_rejects_bad_entry(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('[{"name": "A"}]', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="entry 0: name and kind must be strings, got str and NoneType"):
        LabelVocabulary.load(path)
    path.write_text('[{"name": "A", "kind": "SP"}, ["B", "AS"]]', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="entry 1: expected an object, got list"):
        LabelVocabulary.load(path)
    # a name or kind that is not a string is not turned into text
    for entries, where in (([{"name": None, "kind": "SP"}, {"name": "B", "kind": "AS"}], 0),
                           ([{"name": "A", "kind": "SP"}, {"name": 5, "kind": "AS"}], 1),
                           ([{"name": "A", "kind": "SP"}, {"name": "B", "kind": ["AS"]}], 1)):
        path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"entry {where}: name and kind must be strings"):
            LabelVocabulary.load(path)
    # a name the CSV artifacts cannot carry as a column, in the file and in memory
    for bad in ("L,AP", "L\nAP", "L\rAP", "L\u2028AP", "target:x"):
        path.write_text(json.dumps([{"name": "A", "kind": "SP"}, {"name": bad, "kind": "AS"}]),
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=re.escape(f"entry 1: label name {bad!r}")):
            LabelVocabulary.load(path)
        with pytest.raises(DatasetFormatError, match="cannot carry"):
            LabelVocabulary((("A", "SP"), (bad, "AS")))
    # nor one with a lone surrogate, which JSON can escape but UTF-8 cannot encode
    path.write_text('[{"name": "A", "kind": "SP"}, {"name": "L\\udcffAP", "kind": "AS"}]', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape("entry 1: label name 'L\\udcffAP' holds a lone surrogate")):
        LabelVocabulary.load(path)
    assert LabelVocabulary((("A", "SP"), ("x:target:", "AS"), ("\u00e9\U0001f600", "AS"))).size == 3


def test_default_vocabulary_shape():
    cfg = SyntheticConfig()
    v = synthetic_vocabulary(cfg.sp_count, cfg.as_count)
    assert v.size == 39
    assert v.sp_indices.size == 10
    assert v.as_indices.size == 29
    # built-in structure names run out at 24; the rest are generated
    assert v.names[10 + 23] == "nostril"
    assert v.names[10 + 24] == "AS25"
    assert v.names[-1] == "AS29"


def test_synthetic_vocabulary_generates_plane_names_beyond_builtin():
    v = synthetic_vocabulary(12, 2)
    assert v.names[9] == "FLAP"
    assert v.names[10] == "SP11"
    assert v.kinds[10] == "SP"


# ------------------------------------------------------------------- samples

def test_sample_rejects_empty_labels():
    with pytest.raises(ValueError, match="sample s1: empty label set"):
        make_dataset([[1, 0, 0, 0], [0, 0, 0, 0]])


def test_sample_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="sample s: non-finite"):
        Dataset(LabelVocabulary((("A", "SP"), ("B", "SP"))), ["s"], ["p"],
                np.array([[1.0, np.nan]]), np.array([[1, 0]]))


def test_sample_rejects_non_binary_labels():
    vocab = LabelVocabulary((("A", "SP"), ("B", "SP")))
    with pytest.raises(ValueError, match="sample s: labels must be 0/1"):
        Dataset(vocab, ["s"], ["p"], np.ones((1, 2)), np.array([[1, 2]]))
    # values a cast to uint8 would wrap or truncate into 0/1
    for row in ([1, 256], [1, -1], [1, 0.5], [1, np.nan], [257, 0]):
        with pytest.raises(ValueError, match="sample t: labels must be 0/1"):
            Dataset(vocab, ["s", "t"], ["p", "p"], np.ones((2, 2)), np.array([[1, 0], row]))
    for ok, want in (([[True, False]], [[1, 0]]), ([[1.0, 0.0]], [[1, 0]]), ([[0, 1]], [[0, 1]])):
        ds = Dataset(vocab, ["s"], ["p"], np.ones((1, 2)), np.array(ok))
        assert ds.labels.dtype == np.uint8 and ds.labels.tolist() == want


def test_dataset_reports_the_first_bad_sample():
    # sample s1 fails two checks, s2 an earlier one: s1's first check is reported
    labels = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    feats = np.zeros((3, 2))
    feats[1, 0] = np.inf
    feats[2, 0] = np.nan
    with pytest.raises(ValueError, match="sample 1: non-finite"):
        Dataset(small_vocab(), ["0", "1", "2"], ["p"] * 3, feats, labels)
    feats[1, 0] = 0.0
    with pytest.raises(ValueError, match="sample 1: empty label set"):
        Dataset(small_vocab(), ["0", "1", "2"], ["p"] * 3, feats, labels)


def test_dataset_refuses_what_a_corpus_file_refuses(tmp_path):
    """Non-string ids and subjects and a repeated id, each named by its first index."""
    feats, labels = np.zeros((3, 1)), np.ones((3, 4), dtype=np.uint8)
    for ids, subjects, got in (
        ([7, 7, 8], ["p", "q", "r"], r"ids\[0\]: id must be a string, got int"),
        (["a", None, "c"], ["p", "q", "r"], r"ids\[1\]: id must be a string, got NoneType"),
        (["a", "b", "c"], ["p", "q", ["r"]], r"ids\[2\]: subject_id must be a string, got list"),
        (["a", "b", "c"], ["p", 1.5, "r"], r"ids\[1\]: subject_id must be a string, got float"),
        (["a", "b", "a"], ["p", "q", "r"], r"ids\[2\]: sample id 'a' repeats ids\[0\]"),
        (["7", "7", "7"], ["p", "q", "r"], r"ids\[1\]: sample id '7' repeats ids\[0\]"),
        (["a,b", "c", "d"], ["p", "q", "r"], r"ids\[0\]: sample id 'a,b' holds a comma or a line break"),
        (["a", "b", "c\u2028"], ["p", "q", "r"], r"ids\[2\]: sample id 'c\\u2028' holds a comma or a line break"),
        (["a", "\ud800b", "c"], ["p", "q", "r"], r"ids\[1\]: sample id '\\ud800b' holds a lone surrogate"),
        # the lowest index wins, whatever rule it breaks; an unhashable id is never hashed
        (["a", "a", 5], ["p", "q", "r"], r"ids\[1\]: sample id 'a' repeats ids\[0\]"),
        (["a", ["b"], "a"], ["p", "q", "r"], r"ids\[1\]: id must be a string, got list"),
        (["a", "b", {"c": 1}], ["p", "q", "r"], r"ids\[2\]: id must be a string, got dict"),
    ):
        with pytest.raises(ValueError, match=got):
            Dataset(small_vocab(), ids, subjects, feats, labels)
    # so no Dataset saves a file that load_dataset refuses
    ds = Dataset(small_vocab(), ["7", "8"], ["p", "q"], feats[:2], labels[:2])
    save_dataset(ds, tmp_path / "d.jsonl")
    assert load_dataset(tmp_path / "d.jsonl", small_vocab()).ids == ("7", "8")


def test_dataset_rejects_label_width_mismatch():
    with pytest.raises(ValueError, match="label bits"):
        make_dataset([[1, 0, 0]])


def test_dataset_rejects_ragged_features():
    rows = [np.arange(3.0), np.arange(4.0)]
    with pytest.raises(ValueError, match="feature length"):
        Dataset(small_vocab(), ["s0", "s1"], ["p", "p"], rows, np.ones((2, 4), dtype=np.uint8))


def test_dataset_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="subjects for 2 ids"):
        Dataset(small_vocab(), ["a", "b"], ["p"], np.zeros((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="feature length"):
        Dataset(small_vocab(), ["a", "b"], ["p", "p"], np.zeros((3, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="labels must be an"):
        Dataset(small_vocab(), ["a", "b"], ["p", "p"], np.zeros((2, 3)), np.ones(4))


def test_dataset_matrices_preserve_order():
    ds = make_dataset([[1, 0, 0, 0]] * 3)
    assert ds.features_matrix().shape == (3, 3)
    assert np.array_equal(ds.features_matrix()[1], np.arange(3.0) + 1)
    assert ds.labels_matrix().dtype == np.uint8
    # the held arrays, not copies
    assert ds.features_matrix() is ds.features and ds.labels_matrix() is ds.labels


def test_dataset_arrays_are_read_only():
    features = np.zeros((2, 3))
    labels = np.ones((2, 4), dtype=np.uint8)
    ds = Dataset(small_vocab(), ["a", "b"], ["p", "q"], features, labels)
    for arr in (ds.features, ds.labels, ds.features_matrix(), ds.labels_matrix()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1
    assert features.flags.writeable and labels.flags.writeable  # the caller's arrays stay as they were
    assert ds.ids == ("a", "b") and ds.subjects == ("p", "q")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.features = np.ones((2, 3))


def test_subject_ids_first_appearance_order():
    ds = make_dataset([[1, 0, 0, 0]] * 3, subjects=["b", "a", "b"])
    assert ds.subject_ids() == ["b", "a"]


# ----------------------------------------------------------------- JSONL I/O

def write_lines(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_dataset_happy_path(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "subject_id": "p1", "features": [0.5, -1.25], "labels": ["A", "x"]}),
        json.dumps({"id": "b", "subject_id": "p2", "features": [2.0, 3.5], "labels": ["B"]}),
    ])
    ds = load_dataset(path, small_vocab())
    assert len(ds) == 2
    assert np.array_equal(ds.labels[0], [1, 0, 1, 0])
    assert ds.features[1, 1] == 3.5
    assert ds.ids == ("a", "b") and ds.subjects == ("p1", "p2")


def test_load_dataset_checks_the_sample_rules_of_a_good_file_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = corpus._sample_error
    monkeypatch.setattr(corpus, "_sample_error", counting)
    path = write_lines(tmp_path, [
        json.dumps({"id": f"s{i}", "subject_id": "p", "features": [float(i)], "labels": ["A"]}) for i in range(5)
    ])
    assert len(load_dataset(path, small_vocab())) == 5
    assert len(calls) == 1


def test_load_dataset_reports_line_numbers(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]}),
        "{broken",
    ])
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path, small_vocab())
    # JSON that the parser refuses past a limit: an integer longer than
    # Python's digit limit, and arrays nested deeper than its recursion limit
    first = json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]})
    for bad in ('{"id": "b", "subject_id": "p", "features": [1' + "0" * 5000 + '], "labels": ["A"]}',
                '{"id": "b", "subject_id": "p", "features": ' + "[" * 100_000 + "]" * 100_000 + "}"):
        path = write_lines(tmp_path, [first, bad])
        with pytest.raises(DatasetFormatError, match=re.escape("line 2: invalid JSON (")):
            load_dataset(path, small_vocab())
    # JSON of the wrong shape: not an object, features or labels that are not lists of their kind
    for bad, message in (("[1, 2]", "record must be a JSON object"),
                         ('"a"', "record must be a JSON object"),
                         (json.dumps(dict(json.loads(first), features=["1.0"])), "features must be a list of numbers"),
                         (json.dumps(dict(json.loads(first), features=1.0)), "features must be a list of numbers"),
                         (json.dumps(dict(json.loads(first), labels=[1])), "labels must be a list of names"),
                         (json.dumps(dict(json.loads(first), labels="A")), "labels must be a list of names")):
        path = write_lines(tmp_path, [first, bad])
        with pytest.raises(DatasetFormatError, match=re.escape(f"line 2: {message}")):
            load_dataset(path, small_vocab())
    # a byte that is not UTF-8 names its line, and an earlier bad line still wins
    for lines, want in (([first, '{"id": "b\xff"}'], "line 2: not UTF-8 text"),
                        ([json.dumps(dict(json.loads(first), labels=[])), "\xff"], "line 1: sample a: empty label set")):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
        with pytest.raises(DatasetFormatError, match=re.escape(want)):
            load_dataset(path, small_vocab())
    # a sample id the CSV artifacts cannot carry in a row
    for bad in ("img,7", "img\n7", "img\r7", "img\x857"):
        path = write_lines(tmp_path, [
            json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]}),
            json.dumps({"id": bad, "subject_id": "p", "features": [1.0], "labels": ["A"]}),
        ])
        with pytest.raises(DatasetFormatError, match=re.escape(f"line 2: sample id {bad!r} holds a comma")):
            load_dataset(path, small_vocab())
    # nor a lone surrogate, which JSON can escape but UTF-8 cannot encode
    path = write_lines(tmp_path, [first, json.dumps(dict(json.loads(first), id="b\udcff"))])
    with pytest.raises(DatasetFormatError, match=re.escape("line 2: sample id 'b\\udcff' holds a lone surrogate")):
        load_dataset(path, small_vocab())
    # ids and subjects that are not strings, and a repeated id, which would
    # otherwise load as their text: a null, a number, an object or a list
    good = {"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]}
    for key, value in (("id", None), ("id", 5), ("id", {"a": 1}), ("id", ["a"]), ("id", True),
                       ("subject_id", None), ("subject_id", 7), ("subject_id", [1]), ("subject_id", 1.5)):
        path = write_lines(tmp_path, [json.dumps(good), json.dumps({**good, "id": "b", key: value})])
        with pytest.raises(DatasetFormatError, match=re.escape(f"line 2: {key} must be a string")):
            load_dataset(path, small_vocab())
    path = write_lines(tmp_path, [json.dumps(good), json.dumps(dict(good, id="b")), "",
                                  json.dumps(dict(good, subject_id="q"))])
    with pytest.raises(DatasetFormatError, match=re.escape("line 4: sample id 'a' repeats line 1")):
        load_dataset(path, small_vocab())
    # ids null, null, 5 and {"a": 1} with the subject [1]: the first line is refused
    path = write_lines(tmp_path, [json.dumps(dict(good, id=sid, subject_id=[1])) for sid in (None, None, 5, {"a": 1})])
    with pytest.raises(DatasetFormatError, match=re.escape("line 1: id must be a string")):
        load_dataset(path, small_vocab())
    # the first bad line wins: a non-finite value before a repeated id or a
    # non-string subject; on the last line it is reported with its line too
    for later in ([dict(good, id="a")], [dict(good, id="c", subject_id=3)], []):
        path = write_lines(tmp_path, [json.dumps(good), json.dumps(dict(good, id="b", features=[float("nan")])),
                                      *map(json.dumps, later)])
        with pytest.raises(DatasetFormatError, match="line 2: sample b: non-finite feature value"):
            load_dataset(path, small_vocab())


def test_load_dataset_reports_a_lines_text_before_its_sample_rules(tmp_path):
    """On one line a parse error comes first; a stored line's sample-rule error comes before both."""
    good = {"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]}
    both = dict(good, id=5, labels=["Q"])             # a non-string id and an unknown label
    path = write_lines(tmp_path, [json.dumps(good), json.dumps(both)])
    with pytest.raises(DatasetFormatError, match=re.escape("line 2: unknown label name 'Q'")):
        load_dataset(path, small_vocab())
    for first, want in ((dict(good, labels=[]), "line 1: sample a: empty label set"),
                        (dict(good, id={"a": 1}), "line 1: id must be a string, got dict")):
        path = write_lines(tmp_path, [json.dumps(first), json.dumps(both)])
        with pytest.raises(DatasetFormatError, match=re.escape(want)):
            load_dataset(path, small_vocab())


def test_load_dataset_rejects_unknown_label(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": ["Q"]}),
    ])
    with pytest.raises(DatasetFormatError, match="unknown label name 'Q'"):
        load_dataset(path, small_vocab())


def test_load_dataset_rejects_empty_labels(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": []}),
    ])
    with pytest.raises(DatasetFormatError, match="line 1: sample a: empty label set"):
        load_dataset(path, small_vocab())


def test_load_dataset_rejects_missing_key(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "features": [1.0], "labels": ["A"]}),
    ])
    with pytest.raises(DatasetFormatError, match="missing key 'subject_id'"):
        load_dataset(path, small_vocab())


def test_load_dataset_rejects_ragged_features(tmp_path):
    path = write_lines(tmp_path, [
        json.dumps({"id": "a", "subject_id": "p", "features": [1.0], "labels": ["A"]}),
        json.dumps({"id": "b", "subject_id": "p", "features": [1.0, 2.0], "labels": ["A"]}),
    ])
    with pytest.raises(DatasetFormatError, match="line 2: feature length 2"):
        load_dataset(path, small_vocab())


def record(i, features, labels=("A",)):
    return json.dumps({"id": f"r{i}", "subject_id": "p", "features": features, "labels": list(labels)})


def test_load_dataset_rejects_integer_beyond_float_range(tmp_path):
    huge = record(2, [1.0, 2.0]).replace("2.0", "1" + "0" * 400)
    path = write_lines(tmp_path, [record(1, [1.0, 2.0]), huge, record(3, [1.0, 2.0])])
    with pytest.raises(DatasetFormatError, match="line 2: feature value too large for a float"):
        load_dataset(path, small_vocab())


def test_load_dataset_reports_first_bad_line_within_a_block(tmp_path):
    # a non-finite value is found only when a later line fails or the file
    # ends; a structural error on a later line must not be reported first
    lines = [record(i, [float(i), 1.0]) for i in range(1, 11)]
    lines[2] = record(3, [float("nan"), 1.0])          # line 3, written as NaN
    lines[6] = record(7, [1.0, 2.0], labels=["Q"])      # line 7: unknown label
    path = write_lines(tmp_path, lines)
    with pytest.raises(DatasetFormatError, match="line 3: sample r3: non-finite feature value"):
        load_dataset(path, small_vocab())
    # an out-of-range integer on the line before a non-finite value
    lines[1] = record(2, [1.0, 2.0]).replace("2.0", "9" * 400)
    path = write_lines(tmp_path, lines)
    with pytest.raises(DatasetFormatError, match="line 2: feature value too large"):
        load_dataset(path, small_vocab())
    # a structural error on the same line as a non-finite value comes first, as before
    lines[1] = record(2, [float("inf"), 1.0], labels=["Q"])
    path = write_lines(tmp_path, lines)
    with pytest.raises(DatasetFormatError, match="line 2: unknown label name 'Q'"):
        load_dataset(path, small_vocab())


def test_load_dataset_across_blocks(tmp_path):
    n = 1100                                            # more than a thousand lines
    lines = [record(i, [i * 0.5, -float(i)], labels=("A", "x") if i % 3 else ("y",)) for i in range(n)]
    lines.insert(700, "   ")                           # a blank line is skipped but counted
    path = write_lines(tmp_path, lines)
    ds = load_dataset(path, small_vocab())
    assert len(ds) == n
    assert ds.ids == tuple(f"r{i}" for i in range(n))
    assert np.array_equal(ds.features, np.stack([np.arange(n) * 0.5, -np.arange(n, dtype=float)], axis=1))
    assert np.array_equal(ds.labels[:, 2], [1 if i % 3 else 0 for i in range(n)])
    assert np.array_equal(ds.labels[:, 3], [0 if i % 3 else 1 for i in range(n)])
    lines[1000] = record(999, [float("-inf"), 0.0])    # file line 1001, after the blank line
    lines[1050] = "{broken"
    path = write_lines(tmp_path, lines)
    with pytest.raises(DatasetFormatError, match="line 1001: sample r999: non-finite"):
        load_dataset(path, small_vocab())
    lines[1000] = record(999, [0.0, 0.0])
    path = write_lines(tmp_path, lines)
    with pytest.raises(DatasetFormatError, match="line 1051: invalid JSON"):
        load_dataset(path, small_vocab())


def test_load_dataset_reads_any_line_ending(tmp_path):
    lines = [record(i, [float(i), -1.0], labels=("B", "y")) for i in range(150)]
    want = load_dataset(write_lines(tmp_path, lines), small_vocab())
    for ending in ("\r\n", "\r"):
        path = tmp_path / "endings.jsonl"
        path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        got = load_dataset(path, small_vocab())
        assert got.ids == want.ids
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.labels, want.labels)


def test_load_dataset_of_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n", encoding="utf-8")
    ds = load_dataset(path, small_vocab())
    assert len(ds) == 0 and ds.feature_dim == 0
    assert ds.features.shape == (0, 0) and ds.labels.shape == (0, 4)


def test_load_then_save_keeps_every_value(tmp_path):
    # JSON ints and bools read as floats, integers past 2**53 and past 64
    # bits rounded as float() rounds them; -0.0, the smallest subnormal and
    # 1e300 keep their bits, and the writer gives json.dumps's text
    big = (2**53 + 1, 2**64 + 1, -(2**70) - 1)
    path = tmp_path / "in.jsonl"
    path.write_text(
        '{"id": "a", "subject_id": "p", "features": [3, true, -0.0, 5e-324, 1e300, %d, %d, %d], '
        '"labels": ["y", "A"]}\n' % big +
        '{"id": "b\\u00e9", "subject_id": "7", "features": [false, -12, 0.1, -5e-324, -1e300, 1, 2, 3], '
        '"labels": ["B"]}\n',
        encoding="utf-8",
    )
    ds = load_dataset(path, small_vocab())
    rows = [[3.0, 1.0, -0.0, 5e-324, 1e300, *map(float, big)], [0.0, -12.0, 0.1, -5e-324, -1e300, 1.0, 2.0, 3.0]]
    expected = np.array(rows)
    assert ds.features.tobytes() == expected.tobytes()
    assert ds.ids == ("a", "b\u00e9") and ds.subjects == ("p", "7")
    out = tmp_path / "out.jsonl"
    save_dataset(ds, out)
    records = [
        {"id": "a", "subject_id": "p", "features": rows[0], "labels": ["A", "y"]},
        {"id": "b\u00e9", "subject_id": "7", "features": rows[1], "labels": ["B"]},
    ]
    assert out.read_text(encoding="utf-8") == "".join(json.dumps(r) + "\n" for r in records)
    back = load_dataset(out, small_vocab())
    assert back.features.tobytes() == expected.tobytes()
    assert np.array_equal(back.labels, ds.labels) and back.ids == ds.ids
    again = tmp_path / "again.jsonl"
    save_dataset(back, again)
    assert again.read_bytes() == out.read_bytes()


def test_save_load_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        small_vocab(),
        [f"s{i}" for i in range(5)],
        [f"p{i % 2}" for i in range(5)],
        np.stack([rng.standard_normal(4) for _ in range(5)]),
        np.array([[1, 0, i % 2, 1] for i in range(5)], dtype=np.uint8),
    )
    path = tmp_path / "round.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path, small_vocab())
    assert np.array_equal(back.features_matrix(), ds.features_matrix())
    assert np.array_equal(back.labels_matrix(), ds.labels_matrix())
    assert back.ids == ds.ids


def save_dataset_reference(dataset, path):
    """Reference: the writer as it was, one json.dumps record per sample."""
    names = dataset.vocabulary.names
    with open(path, "w", encoding="utf-8") as fh:
        for sid, subj, feats, bits in zip(dataset.ids, dataset.subjects, dataset.features, dataset.labels):
            rec = {
                "id": sid,
                "subject_id": subj,
                "features": [float(v) for v in feats],
                "labels": [names[i] for i in np.flatnonzero(bits)],
            }
            fh.write(json.dumps(rec) + "\n")


def test_save_dataset_matches_reference(tmp_path):
    ds = generate_synthetic(SyntheticConfig(n_samples=1100, sp_count=3, as_count=5, feature_dim=6, seed=3))
    odd = Dataset(small_vocab(), ['q"uote', "tab\t", "\u00e9"], ["s/1", "s\\2", ""],
                  np.array([[-0.0, 5e-324, 1e300], [np.pi, -1e-300, 2.0**70], [0.1, 0.2, 0.3]]),
                  np.array([[1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0]]))
    for data in (ds, odd):
        save_dataset(data, tmp_path / "new.jsonl")
        save_dataset_reference(data, tmp_path / "ref.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


# ----------------------------------------------------------------- synthetic

def test_synthetic_config_validation_messages():
    with pytest.raises(ValueError, match="n_samples"):
        SyntheticConfig(n_samples=0)
    with pytest.raises(ValueError, match="no_sp_probability"):
        SyntheticConfig(no_sp_probability=1.5)
    with pytest.raises(ValueError, match="noise_sigma"):
        SyntheticConfig(noise_sigma=-1.0)
    with pytest.raises(ValueError, match="structure_profile"):
        SyntheticConfig(structure_profile=np.ones((2, 2)))
    with pytest.raises(ValueError, match="background_profile"):
        SyntheticConfig(background_profile=np.full(29, 2.0))
    for profile in ([np.nan] * 3, [0.5, np.nan, 0.5], [0.5, -0.0, np.inf]):
        with pytest.raises(ValueError, match="background_profile entries must be probabilities"):
            SyntheticConfig(sp_count=2, as_count=3, background_profile=profile)
    with pytest.raises(ValueError, match="structure_profile entries must be probabilities"):
        SyntheticConfig(sp_count=1, as_count=2, structure_profile=[[0.5, np.nan]])
    # what numpy cannot read as numbers is named by its field, as a ValueError
    for profile in ({"a": 1}, "abc", [[0.5, 0.5], [0.5]]):
        with pytest.raises(ValueError, match=r"^structure_profile must be numbers of shape \(2, 2\): "):
            SyntheticConfig(sp_count=2, as_count=2, structure_profile=profile)


def test_default_structure_profile_plants_trios():
    P = default_structure_profile(10, 29)
    assert P.shape == (10, 29)
    assert P[0, 0] == 0.98 and P[0, 1] == 0.95 and P[0, 2] == 0.90
    # the last trio wraps around the structure index space, so structure 0
    # is shared between plane 9 (weakly) and plane 0 (strongly)
    assert P[9, 27] == 0.98 and P[9, 28] == 0.95
    assert P[9, 0] == 0.90
    # a trio wrapping onto its own slots keeps the stronger association
    tiny = default_structure_profile(1, 2)
    assert tiny[0, 0] == 0.98 and tiny[0, 1] == 0.95


def test_generate_synthetic_is_deterministic():
    cfg = SyntheticConfig(n_samples=60, seed=5)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.features_matrix(), b.features_matrix())
    assert np.array_equal(a.labels_matrix(), b.labels_matrix())


def test_generate_synthetic_shapes_and_labels():
    cfg = SyntheticConfig(n_samples=80, sp_count=4, as_count=9, feature_dim=12, seed=1)
    ds = generate_synthetic(cfg)
    assert len(ds) == 80
    assert ds.feature_dim == 12
    assert ds.vocabulary.size == 13
    Y = ds.labels_matrix()
    assert Y.sum(axis=1).min() >= 1           # never an empty label set
    assert Y[:, :4].sum(axis=1).max() <= 1    # at most one plane per sample


def test_generate_synthetic_groups_subjects():
    cfg = SyntheticConfig(n_samples=40, samples_per_subject=8, seed=2)
    ds = generate_synthetic(cfg)
    assert len(ds.subject_ids()) == 5
    counts = {}
    for subject in ds.subjects:
        counts[subject] = counts.get(subject, 0) + 1
    assert set(counts.values()) == {8}


def test_generate_synthetic_respects_planted_profile():
    # with a deterministic profile and no plane-free samples, every plane
    # sample carries exactly its trio
    profile = np.zeros((4, 9))
    for s in range(4):
        profile[s, 2 * s] = 1.0
        profile[s, 2 * s + 1] = 1.0
    cfg = SyntheticConfig(
        n_samples=50, sp_count=4, as_count=9, no_sp_probability=0.0,
        structure_profile=profile, noise_sigma=0.0, seed=3,
    )
    ds = generate_synthetic(cfg)
    for bits in ds.labels:
        plane = int(np.argmax(bits[:4]))
        expect = np.zeros(13, dtype=np.uint8)
        expect[plane] = 1
        expect[4 + 2 * plane] = 1
        expect[4 + 2 * plane + 1] = 1
        assert np.array_equal(bits, expect)


def test_generate_synthetic_features_are_prototype_sums_plus_noise():
    cfg = SyntheticConfig(n_samples=30, sp_count=3, as_count=6, feature_dim=8,
                          noise_sigma=0.0, seed=4)
    ds = generate_synthetic(cfg)
    protos = class_prototypes(cfg)
    for feats, bits in zip(ds.features[:10], ds.labels[:10]):
        expected = protos[bits.astype(bool)].sum(axis=0)
        assert np.allclose(feats, expected)


def generate_synthetic_reference(config):
    """Reference: the per-sample generator as it was, one label row and noise draw at a time."""
    profile = (np.asarray(config.structure_profile, dtype=np.float64) if config.structure_profile is not None
               else default_structure_profile(config.sp_count, config.as_count))
    background = (np.asarray(config.background_profile, dtype=np.float64) if config.background_profile is not None
                  else np.full(config.as_count, 0.08))
    protos = class_prototypes(config)
    rng_labels = stage_rng(config.seed, "labels")
    rng_noise = stage_rng(config.seed, "noise")
    C = config.sp_count + config.as_count
    rows, feats = [], []
    for _ in range(config.n_samples):
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
            total = row.sum()
            p = row / total if total > 0 else np.full(config.as_count, 1.0 / config.as_count)
            bits[config.sp_count + int(rng_labels.choice(config.as_count, p=p))] = 1
        f = protos[bits.astype(bool)].sum(axis=0)
        if config.noise_sigma > 0:
            f = f + config.noise_sigma * rng_noise.standard_normal(config.feature_dim)
        rows.append(bits)
        feats.append(f)
    return np.stack(feats), np.stack(rows)


@pytest.mark.parametrize("overrides", [
    {},
    {"feature_dim": 1, "as_count": 12},                     # a one-column sum is pairwise in numpy
    {"noise_sigma": 0.0, "prototype_correlation": 0.4},
    {"no_sp_probability": 0.7, "background_profile": np.zeros(29)},          # forced structures, uniform
    {"no_sp_probability": 0.5, "background_profile": np.full(29, 0.01)},     # forced structures, weighted
])
def test_generate_synthetic_matches_per_sample_reference(overrides):
    cfg = SyntheticConfig(n_samples=300, seed=11, **overrides)
    ds = generate_synthetic(cfg)
    features, labels = generate_synthetic_reference(cfg)
    assert ds.features.tobytes() == features.tobytes()
    assert np.array_equal(ds.labels, labels) and ds.labels.dtype == np.uint8
    assert ds.ids[:2] == ("img000000", "img000001") and ds.subjects[10] == "subj00001"


def test_prototype_correlation_pulls_structures_toward_their_plane():
    base = SyntheticConfig(sp_count=4, as_count=8, feature_dim=32, seed=7)
    free = class_prototypes(base)
    tied = class_prototypes(dataclasses.replace(base, prototype_correlation=0.9))
    profile = default_structure_profile(4, 8)
    owner = np.argmax(profile, axis=0)

    def mean_cos(P):
        vals = []
        for k in range(8):
            a, b = P[4 + k], P[owner[k]]
            vals.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        return np.mean(vals)

    assert mean_cos(tied) < 0.5  # structures share a direction, not the plane row
    # structures owned by the same plane become strongly aligned
    same_owner = [(i, j) for i in range(8) for j in range(i + 1, 8) if owner[i] == owner[j]]
    tied_cos = np.mean([
        tied[4 + i] @ tied[4 + j] / (np.linalg.norm(tied[4 + i]) * np.linalg.norm(tied[4 + j]))
        for i, j in same_owner
    ])
    free_cos = np.mean([
        free[4 + i] @ free[4 + j] / (np.linalg.norm(free[4 + i]) * np.linalg.norm(free[4 + j]))
        for i, j in same_owner
    ])
    assert tied_cos > free_cos + 0.3


# --------------------------------------------------------------------- split

def split_fixture(n_subjects=30, per=4):
    ids, subjects, feats, labels = [], [], [], []
    rng = stage_rng(0, "labels")
    for j in range(n_subjects):
        for i in range(per):
            bits = np.zeros(4, dtype=np.uint8)
            bits[int(rng.integers(4))] = 1
            ids.append(f"s{j}_{i}")
            subjects.append(f"subj{j}")
            feats.append(rng.standard_normal(3))
            labels.append(bits)
    return Dataset(small_vocab(), ids, subjects, np.array(feats), np.array(labels))


def test_split_partitions_without_breaking_subjects():
    ds = split_fixture()
    train, val, test = split_by_subject(ds, (0.5, 0.25, 0.25), seed=1)
    assert len(train) + len(val) + len(test) == len(ds)
    ids = train.ids + val.ids + test.ids
    assert sorted(ids) == sorted(ds.ids)
    groups = [set(p.subject_ids()) for p in (train, val, test)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])


def split_by_subject_reference(dataset, ratios, seed):
    """Reference: the dict-and-list split as it was; returns the ids of each part."""
    subjects = dataset.subject_ids()
    sizes = {}
    for subj in dataset.subjects:
        sizes[subj] = sizes.get(subj, 0) + 1
    order = np.random.default_rng(seed).permutation(len(subjects))
    targets = np.array([r * len(dataset) for r in ratios])
    counts = np.zeros(3)
    assignment = {}
    for j in order:
        subj = subjects[int(j)]
        k = int(np.argmax(targets - counts))
        assignment[subj] = k
        counts[k] += sizes[subj]
    buckets = ([], [], [])
    for sid, subj in zip(dataset.ids, dataset.subjects):
        buckets[assignment[subj]].append(sid)
    return tuple(tuple(b) for b in buckets)


def test_split_matches_reference():
    rng = np.random.default_rng(2)
    for n_subjects, ratios in ((30, (0.5, 0.25, 0.25)), (7, (0.6, 0.2, 0.2)), (50, (0.0, 0.5, 0.5)), (12, (1.0, 0.0, 0.0))):
        base = split_fixture(n_subjects=n_subjects, per=3)
        shuffled = rng.permutation(len(base))               # subjects interleaved, uneven sizes
        keep = np.sort(shuffled[: len(base) - n_subjects // 2])
        ds = Dataset(base.vocabulary, [base.ids[i] for i in keep], [base.subjects[i] for i in keep],
                     base.features[keep], base.labels[keep])
        for seed in range(3):
            parts = split_by_subject(ds, ratios, seed)
            assert tuple(p.ids for p in parts) == split_by_subject_reference(ds, ratios, seed)
            for part in parts:
                rows = [ds.ids.index(i) for i in part.ids]
                assert np.array_equal(part.features, ds.features[rows]) and np.array_equal(part.labels, ds.labels[rows])
                assert part.subjects == tuple(ds.subjects[r] for r in rows)


def test_split_ratios_are_approximated():
    ds = split_fixture(n_subjects=50, per=4)
    train, val, test = split_by_subject(ds, (0.45, 0.27, 0.28), seed=0)
    n = len(ds)
    assert abs(len(train) / n - 0.45) < 0.05
    assert abs(len(val) / n - 0.27) < 0.05
    assert abs(len(test) / n - 0.28) < 0.05


def test_split_is_deterministic():
    ds = split_fixture()
    a = split_by_subject(ds, (0.5, 0.3, 0.2), seed=9)
    b = split_by_subject(ds, (0.5, 0.3, 0.2), seed=9)
    for pa, pb in zip(a, b):
        assert pa.ids == pb.ids


def test_split_validates_ratios():
    ds = split_fixture(n_subjects=4)
    for ratios in ((0.5, 0.5), (1.2, -0.1, -0.1), (float("nan"), 0.5, 0.5), (0.5, 0.3, 0.3),
                   (float("inf"), 0.0, 0.0), (10**400, 0, 0), 0.5, None):
        with pytest.raises(ValueError, match="^need three nonnegative numbers summing to 1$"):
            split_by_subject(ds, ratios, seed=0)


def test_split_refuses_ratios_that_are_not_numbers():
    """Strings and bools are not ratios, as in the run config; NumPy floats are."""
    ds = split_fixture(n_subjects=4)
    for ratios in (["0.5", "0.25", "0.25"], [True, False, False], (0.5, 0.5, False)):
        with pytest.raises(ValueError, match="^need three nonnegative numbers summing to 1$"):
            split_by_subject(ds, ratios, seed=0)
    want = split_by_subject(ds, (0.5, 0.25, 0.25), seed=0)
    for ratios in ([np.float64(0.5), np.float64(0.25), np.float64(0.25)], (np.float32(0.5), 0.25, 0.25)):
        assert [p.ids for p in split_by_subject(ds, ratios, seed=0)] == [p.ids for p in want]


def test_split_needs_three_subjects():
    ds = make_dataset([[1, 0, 0, 0]] * 6, subjects=[f"p{i % 2}" for i in range(6)])
    with pytest.raises(ValueError, match="at least 3 distinct subjects"):
        split_by_subject(ds, (0.6, 0.2, 0.2), seed=0)
