"""Span tracing of mllgraph from outside, by wrapping public functions.

Each wrapped function is replaced in the namespace where its caller looks
it up: `run_pipeline` finds `encode`, `gcn_forward` and the losses as
`mllgraph.trainer` globals, the CLI commands find `load_dataset`,
`save_checkpoint`, `write_score_csv` and the rest as `mllgraph.cli`
globals, and the matrix accessors are `Dataset` methods. Patching the
defining module instead (say `mllgraph.encoder.encode`) would time nothing.

Spans are kept in memory as (name, start, end, parent, run) and written out
when the benchmark ends; self times are derived from them afterwards. A
layer's self time is its span's duration minus the durations of its direct
children, so the self times of one command add up to its root span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "cli.self"


def _add_glove_epochs(counts, result):
    counts["glove.epochs"] += len(result.loss_trace) - 1


def _add_kmeans_iters(counts, result):
    counts["relabel.kmeans_iters"] += int(result.n_iter)


# (module, attribute path, span name, hook run on the result). Writers that
# are inline code rather than functions (glove_trace.csv, trace.csv,
# per_class_ap.csv, the metrics JSON files) count in the command's cli.self.
WRAPS = (
    ("mllgraph.trainer", "build_cooccurrence", "cooccur.count", None),
    ("mllgraph.cli", "build_cooccurrence", "cooccur.count", None),
    ("mllgraph.trainer", "build_adjacency", "cooccur.adjacency", None),
    ("mllgraph.trainer", "normalize_adjacency", "cooccur.adjacency", None),
    ("mllgraph.trainer", "train_glove", "glove.fit", _add_glove_epochs),
    ("mllgraph.trainer", "kmeans", "relabel.kmeans", _add_kmeans_iters),
    ("mllgraph.trainer", "relabel", "relabel.assign", None),
    ("mllgraph.trainer", "vanilla_contrast_labels", "relabel.assign", None),
    ("mllgraph.trainer", "encode", "encoder.forward", None),
    ("mllgraph.trainer", "encoder_gradients", "encoder.backward", None),
    ("mllgraph.trainer", "gcn_forward", "graph.forward", None),
    ("mllgraph.trainer", "gcn_gradients", "graph.backward", None),
    ("mllgraph.trainer", "mll_loss_and_grad", "losses.bce", None),
    ("mllgraph.trainer", "contrastive_loss_and_grad", "losses.contrastive", None),
    ("mllgraph.trainer", "sigmoid", "losses.sigmoid", None),
    ("mllgraph.trainer", "exact_match", "metrics.val_match", None),
    ("mllgraph.trainer", "ScoreTable", "metrics.table", None),
    ("mllgraph.cli", "run_pipeline", "trainer.loop_self", None),
    ("mllgraph.cli", "score_dataset", "trainer.score", None),
    ("mllgraph.cli", "save_checkpoint", "trainer.checkpoint_save", None),
    ("mllgraph.cli", "load_checkpoint", "trainer.checkpoint_load", None),
    ("mllgraph.cli", "generate_synthetic", "corpus.generate", None),
    ("mllgraph.cli", "save_dataset", "corpus.save", None),
    ("mllgraph.cli", "load_dataset", "corpus.load", None),
    ("mllgraph.cli", "split_by_subject", "corpus.split", None),
    ("mllgraph.corpus", "Dataset.features_matrix", "corpus.matrix", None),
    ("mllgraph.corpus", "Dataset.labels_matrix", "corpus.matrix", None),
    ("mllgraph.cli", "compute_report", "metrics.report", None),
    ("mllgraph.cli", "format_report_json", "metrics.report", None),
    ("mllgraph.cli", "write_score_csv", "metrics.score_csv", None),
    ("mllgraph.cli", "write_matrix_csv", "cli.artifacts", None),
    ("mllgraph.cli", "write_embeddings_csv", "cli.artifacts", None),
    ("mllgraph.cli", "write_assignments_csv", "cli.artifacts", None),
    ("mllgraph.cli", "write_centroids_csv", "cli.artifacts", None),
    ("mllgraph.cli", "_write_config_snapshot", "cli.artifacts", None),
    ("mllgraph.corpus", "LabelVocabulary.save", "cli.artifacts", None),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [w[2] for w in WRAPS]))
HOOK_COUNTS = ("glove.epochs", "relabel.kmeans_iters")


class Tracer:
    """In-memory span recorder; one run id per traced CLI command."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, run id)
        self.counts = Counter()
        self._stack = []
        self._run = 0

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._run)

    def command(self, fn, *args):
        """Trace one top-level CLI call as the root span of a new run."""
        self._run += 1
        return self.call(ROOT_SPAN, fn, args, {})

    def _self_seconds(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self):
        """Per-name self seconds and call counts."""
        busy = defaultdict(float)
        calls = Counter()
        for (name, *_), own in zip(self.spans, self._self_seconds()):
            busy[name] += own
            calls[name] += 1
        return busy, calls

    def command_residuals(self):
        """Per run: root duration minus the sum of that run's self times."""
        root = {}
        total = defaultdict(float)
        for (_, start, end, parent, run), own in zip(self.spans, self._self_seconds()):
            total[run] += own
            if parent < 0:
                root[run] = end - start
        return {run: root[run] - total[run] for run in root}


def write_spans(tracers, path):
    """Spans of several tracers as gzip CSV: pass, index, run, name, start, end, parent."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,index,run,name,start,end,parent\n")
        for p, tracer in enumerate(tracers):
            for i, (name, start, end, parent, run) in enumerate(tracer.spans):
                fh.write(f"{p},{i},{run},{name},{start!r},{end!r},{parent}\n")


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counts, result)
        return result

    return traced


@contextmanager
def installed(tracer):
    """Swap every WRAPS entry for a traced wrapper; restore on exit.

    An entry whose attribute no longer exists is reported on stderr and
    skipped, so its layer reads 0 while the other layers are still timed.
    """
    saved = []
    try:
        for module, path, name, hook in WRAPS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print(f"tracing: {module}.{path} not found, not wrapped", file=sys.stderr)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
