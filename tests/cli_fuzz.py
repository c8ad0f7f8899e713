"""Seeded structural fuzzer of the CLI's input boundary.

    python tests/cli_fuzz.py WORK_DIR [SEED]

Each case changes one JSON value inside a valid input, to one of the odd
values in POOL, or deletes it, and runs one command in-process through
`mllgraph.cli.main` under an alarm of ALARM_S seconds. The inputs are:

- the run config, as a whole --config file or as one --set, through train;
- one corpus line, through eval;
- the vocabulary, through train;
- the checkpoint header, its CRC recomputed, through eval and export;
- the test-split metrics report train wrote, through metrics-oracle with
  its score CSV and vocabulary.

REPLAYS run first, then CASES seeded cases per target. Each case prints one
JSON line: {"target", "case", "code", "stderr", "escaped", "left",
"skipped"}. `code` is what main returned, `escaped` the traceback of an
exception that left main, and `left` what the case left in the empty
directory it ran in. A case its alarm ended is `skipped`: a value that only
lengthens a valid run (train.epochs = 10**12) is no fault.

The exit contract: each case exits 0, 1 or 2, a failed one prints an
`error:` line and leaves nothing behind, no case prints a warning, and no
exception escapes main. The script lists every case that breaks it on
stderr and then exits 1.

Run it in a process whose address space is capped (RLIMIT_AS), so that an
unchecked size fails there as a MemoryError instead of filling the machine.
Standard library only, besides the package under test.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import itertools
import json
import operator
import os
import random
import re
import shutil
import signal
import struct
import sys
import traceback
import warnings
import zlib
from pathlib import Path

from mllgraph.cli import default_run_config, main, merge_config

POOL = (None, "", 0, -1, 10**12, 1e308, [], {}, True)
DELETE = "<deleted>"
ALARM_S = 1
CASES = {"config": 60, "set": 60, "corpus": 60, "vocabulary": 30, "header": 40, "report": 30}
# a small corpus and a short run, so that a case that runs through costs milliseconds
SMALL = {
    "out_dir": "out",
    "synthetic": {"n_samples": 60, "sp_count": 3, "as_count": 6, "feature_dim": 8, "samples_per_subject": 5},
    "glove": {"d": 4, "epochs": 5},
    "train": {"epochs": 2, "batch_size": 16},
    "encoder": {"layer_widths": [8]},
    "kmeans": {"n_clusters": 3},
}
# (target, path, value) cases that once broke the contract, or that show the alarm at work
REPLAYS = [
    ("set", ("glove", "d"), 10**12),
    ("set", ("encoder", "layer_widths", 0), 10**12),
    ("set", ("train", "batch_size"), 10**12),
    ("set", ("glove", "init_scale"), 1e308),
    ("set", ("synthetic", "n_samples"), 10**12),
    ("set", ("synthetic", "as_count"), 10**12),
    ("set", ("data", "dataset_path"), ""),
    ("set", ("data", "vocabulary_path"), "vocabulary.json"),
    ("set", ("train", "epochs"), 10**12),
    ("report", ("HL",), 10**400),
]


class Alarm(BaseException):
    """The case outlived its alarm; a BaseException, so that main's handlers let it pass."""


def _ring(signum, frame):
    raise Alarm


def paths(doc, at=()):
    """The path of every value inside `doc`, containers included, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from paths(value, at + (key,))


def mutated(doc, path, value):
    """A copy of `doc` with the value at `path` replaced by `value`, or deleted if it is DELETE."""
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# the line a failed case prints on stderr, and the line no case prints there
FAILURE_LINE = re.compile("^error: ", re.M)
WARNING_LINE = re.compile(r"^.+:\d+: \w*Warning: ", re.M)


def breaks_contract(case: dict) -> bool:
    """Whether a case's record breaks the exit contract; a case its alarm ended does not."""
    return bool(case["escaped"] or WARNING_LINE.search(case["stderr"])) or not case["skipped"] and (
        case["code"] not in (0, 1, 2)
        or case["code"] != 0 and bool(case["left"] or not FAILURE_LINE.search(case["stderr"])))


def with_header(raw: bytes, edit) -> bytes:
    """Checkpoint bytes whose JSON header is edit(header), with the CRC footer recomputed."""
    (n,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps(edit(json.loads(raw[12:12 + n]))).encode("utf-8")
    body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:-4]
    return body + struct.pack("<I", zlib.crc32(body))


class Fuzzer:
    def __init__(self, work: Path):
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.config = merge_config(default_run_config(), SMALL)
        self.base = self.write("base.json", json.dumps(self.config))
        corpus, train = self.inputs / "corpus", self.inputs / "train"
        for argv in (["synth", "--config", str(self.base), "--out", str(corpus)],
                     ["train", "--config", str(self.base), "--out", str(train)]):
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise SystemExit(f"setup failed: {argv}")
        self.data = corpus / "dataset.jsonl"
        self.lines = self.data.read_text(encoding="utf-8").splitlines()
        self.vocabulary = json.loads((corpus / "vocabulary.json").read_text(encoding="utf-8"))
        self.checkpoint = (train / "checkpoint.mllg").read_bytes()
        self.train = train
        self.report = json.loads((train / "metrics_test.json").read_text(encoding="utf-8"))
        self.count = 0
        self.faults = []

    def write(self, name: str, content) -> Path:
        path = self.inputs / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return path

    def run(self, target: str, case: str, argv: list) -> None:
        """Run `argv` through main in an empty directory, and print what came of it."""
        self.count += 1
        cwd = self.work / f"case{self.count:04d}"
        cwd.mkdir()
        os.chdir(cwd)
        err = io.StringIO()
        code = escaped = None
        skipped = False
        signal.alarm(ALARM_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except Alarm:
            skipped = True
        except Exception:
            escaped = traceback.format_exc()
        finally:
            signal.alarm(0)
        os.chdir(self.work)
        left = sorted(p.name for p in cwd.iterdir())
        shutil.rmtree(cwd)
        record = {"target": target, "case": case, "code": code, "stderr": err.getvalue()[-2000:],
                  "escaped": escaped, "left": left, "skipped": skipped}
        print(json.dumps(record), flush=True)
        if breaks_contract(record):
            self.faults.append(record)

    def case(self, target: str, path: tuple, value) -> None:
        shown = f"{'.'.join(map(str, path))} = {value if value == DELETE else json.dumps(value)}"
        if target == "config":
            config = self.write("config.json", json.dumps(mutated(self.config, path, value)))
            self.run(target, shown, ["train", "--config", str(config)])
        elif target == "set":  # --set names dict keys: a change inside a list sets the whole list
            key = list(itertools.takewhile(lambda k: isinstance(k, str), path))
            value = functools.reduce(operator.getitem, key, mutated(self.config, path, value))
            expr = f"{'.'.join(key)}={json.dumps(value)}"
            self.run(target, shown, ["train", "--config", str(self.base), "--set", expr])
        elif target == "corpus":
            line, *inner = path
            lines = list(self.lines)
            lines[line] = json.dumps(mutated(json.loads(lines[line]), tuple(inner), value))
            data = self.write("dataset.jsonl", "".join(text + "\n" for text in lines))
            self.run(target, shown,
                     ["eval", "--checkpoint", str(self.inputs / "train" / "checkpoint.mllg"),
                      "--data", str(data), "--out", "out"])
        elif target == "vocabulary":
            vocabulary = self.write("vocabulary.json", json.dumps(mutated(self.vocabulary, path, value)))
            self.run(target, shown, ["train", "--config", str(self.base), "--set", f"data.dataset_path={self.data}",
                                     "--set", f"data.vocabulary_path={vocabulary}"])
        elif target == "report":
            report = self.write("report.json", json.dumps(mutated(self.report, path, value)))
            self.run(target, shown, ["metrics-oracle", "--scores", str(self.train / "scores_test.csv"),
                                     "--report", str(report), "--vocabulary", str(self.train / "vocabulary.json")])
        else:  # header
            checkpoint = self.write("checkpoint.mllg", with_header(self.checkpoint, lambda h: mutated(h, path, value)))
            self.run(target, f"eval, {shown}",
                     ["eval", "--checkpoint", str(checkpoint), "--data", str(self.data), "--out", "out"])
            what = ("embeddings", "correlation", "clusters", "projection")[self.count % 4]
            self.run(target, f"export {what}, {shown}",
                     ["export", "--checkpoint", str(checkpoint), "--what", what, "--out", "out"])

    def targets(self) -> dict:
        """{target: the paths its cases may change}; a corpus path starts with the line's index, from 0."""
        (n,) = struct.unpack("<I", self.checkpoint[8:12])
        header = json.loads(self.checkpoint[12:12 + n])
        return {
            "config": list(paths(self.config)),
            "set": list(paths(self.config)),
            "corpus": [(i,) + p for i, line in enumerate(self.lines) for p in paths(json.loads(line))],
            "vocabulary": list(paths(self.vocabulary)),
            "header": list(paths(header)),
            "report": list(paths(self.report)),
        }


def fuzz(work: Path, seed: int) -> int:
    """Run every case; 1 if any broke the exit contract, each listed on stderr, else 0."""
    signal.signal(signal.SIGALRM, _ring)
    warnings.simplefilter("always")  # each case shows its own warnings, not only the first at each line
    fuzzer = Fuzzer(work)
    for target, path, value in REPLAYS:
        fuzzer.case(target, path, value)
    rng = random.Random(seed)
    for target, choices in fuzzer.targets().items():
        values = POOL if target == "set" else POOL + (DELETE,)  # --set cannot delete a key
        for _ in range(CASES[target]):
            fuzzer.case(target, rng.choice(choices), rng.choice(values))
    for c in fuzzer.faults:
        print(f"{c['target']}, {c['case']}: exit {c['code']}, left {c['left']}\n{c['escaped'] or c['stderr']}",
              file=sys.stderr)
    return 1 if fuzzer.faults else 0


if __name__ == "__main__":
    sys.exit(fuzz(Path(sys.argv[1]).resolve(), int(sys.argv[2]) if len(sys.argv) > 2 else 0))
