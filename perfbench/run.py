"""mllgraph benchmark: three workloads driven through `mllgraph.cli.main`.

    python3 perfbench/run.py --workload ablation-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from `src/` of
that checkout, in this one process, with BLAS/OpenMP threads pinned to 1.
The seed makes the inputs: every corpus is written by `mllgraph synth`
with `--seed <seed>`, and every command runs with the same seed.

Workloads (one caller, closed loop: commands run back to back):

  ablation-default  set-up synthesizes the paper's default corpus (2000
                    samples, 10 SP + 29 AS); one pass trains all six
                    ablation variants on it, one after another.
  wide-labels       set-up synthesizes a 1000-class corpus (250 SP + 750
                    AS, WIDE_SAMPLES samples); one pass trains MLL-GCN-CRC
                    once with 3 phase-2 epochs and WIDE_GLOVE_EPOCHS GloVe
                    epochs, other settings default.
  bulk-eval         set-up synthesizes the default corpus and trains an
                    MLL-GCN-CRC checkpoint on it; one pass synthesizes a
                    BULK_SAMPLES-sample corpus (the JSONL write path) and
                    evaluates the checkpoint on that file (the read path).

Set-up is repeated SETUP_REPEATS times and `setup_s` is the import time
plus the median repeat. Passes then repeat until the next one would end
after `--seconds` of passes. The first pass warms up and is not measured;
at least one measured untraced pass runs. `pass_s` sums each command's
median over the measured untraced passes.

On a shared virtual machine the processor's speed can drift by tens of
percent within minutes, for every process alike (BASELINE.md has numbers
from a 2-vCPU one), so wall times of runs made minutes apart differ by
more than any change worth detecting. From the end of the first pass on,
the benchmark therefore times a fixed reference computation that does
not touch mllgraph (`Reference`: JSON, float formatting, small and large
NumPy array work) after every command. A command's time divided by the
mean of the reference times just before and just after it is its time in
units of the reference, which a slower or faster machine moves alike.
`pass_ref` sums each command's median of that ratio over the measured
untraced passes. Commands are kept to a few seconds so that the
reference times beside them stand for the machine's speed while they
ran. `pass_s` and `ref_s` are still printed.

Checks, each counted in `attempted` and, when it fails, in `failed`:
every command exits 0; every later pass and set-up repeat writes
byte-identical artifacts and the same diagnostics counters and call
counts as the first; every metrics JSON of the pass and the set-up agrees
with `mllgraph metrics-oracle` (run at the end, outside `peak_rss_mb`,
which is the peak through set-up and the first pass); with `--trace 1`, the self times of each traced command add up to
its wall time.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics: the mean self seconds
and exact call counts per traced pass of each layer (see tracing.py),
work counts, bytes written per artifact, the `mllgraph.diagnostics`
counters and the tracing overhead. Human-readable lines come first; the
last line of standard output is the JSON result. Working files go to
`.perfbench-work/` in the checkout; the large ones are deleted at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

VARIANTS = ("Single-MLL", "MLL-CL", "MLL-CRC", "MLL-GCN", "MLL-GCN-CL", "MLL-GCN-CRC")
# below 10 000 samples and 256 GloVe epochs so that a pass takes a few seconds;
# the 1000 classes stay
WIDE_SAMPLES = 1000
WIDE_GLOVE_EPOCHS = 16
BULK_SAMPLES = 10000  # below 50 000 so a run holds many passes and their median is steady
SETUP_REPEATS = 5
# one reference time is the median of at least REF_REPEATS runs (about 0.15 s
# in all) that last at least REF_SHARE of the command before them, so that a
# long command is not set against one short glimpse of the machine
REF_REPEATS = 3
REF_SHARE = 0.1

ARTIFACTS = (
    "checkpoint.mllg", "config.json", "vocabulary.json", "cooccurrence.csv",
    "correlation.csv", "embeddings.csv", "glove_trace.csv", "trace.csv",
    "sample_clusters.csv", "centroids.csv", "metrics_val.json", "metrics_test.json",
    "scores_val.csv", "scores_test.csv", "metrics.json", "scores.csv",
    "per_class_ap.csv", "dataset.jsonl",
)
DIAGNOSTIC_EVENTS = (
    "cosine_zero_norm", "contrastive_zero_norm", "contrastive_undersized_batch",
    "overall_precision_zero_division", "overall_recall_zero_division",
    "overall_f1_zero_division", "perclass_precision_zero_division",
    "perclass_recall_zero_division", "perclass_f1_zero_division",
    "map_class_without_positives", "map_no_scorable_classes",
)


def _corpus_flags(corpus: Path) -> list:
    return ["--set", f"data.dataset_path={corpus / 'dataset.jsonl'}",
            "--set", f"data.vocabulary_path={corpus / 'vocabulary.json'}"]


def ablation_setup(seed, setup):
    return [["synth", "--seed", seed, "--out", str(setup / "corpus")]]


def ablation_pass(seed, setup, out):
    return [["train", "--seed", seed, "--variant", v, "--out", str(out / v)]
            + _corpus_flags(setup / "corpus") for v in VARIANTS]


def wide_setup(seed, setup):
    return [["synth", "--seed", seed, "--out", str(setup / "corpus"),
             "--set", "synthetic.sp_count=250", "--set", "synthetic.as_count=750",
             "--set", f"synthetic.n_samples={WIDE_SAMPLES}"]]


def wide_pass(seed, setup, out):
    return [["train", "--seed", seed, "--variant", "MLL-GCN-CRC", "--out", str(out / "train"),
             "--set", "train.epochs=3", "--set", f"glove.epochs={WIDE_GLOVE_EPOCHS}"]
            + _corpus_flags(setup / "corpus")]


def bulk_setup(seed, setup):
    return ablation_setup(seed, setup) + [
        ["train", "--seed", seed, "--variant", "MLL-GCN-CRC", "--out", str(setup / "model")]
        + _corpus_flags(setup / "corpus")]


def bulk_pass(seed, setup, out):
    # the same seed gives the class prototypes the checkpoint was trained on
    return [["synth", "--seed", seed, "--out", str(out / "corpus"),
             "--set", f"synthetic.n_samples={BULK_SAMPLES}"],
            ["eval", "--checkpoint", str(setup / "model" / "checkpoint.mllg"),
             "--data", str(out / "corpus" / "dataset.jsonl"), "--out", str(out / "eval")]]


WORKLOADS = {
    "ablation-default": (ablation_setup, ablation_pass),
    "wide-labels": (wide_setup, wide_pass),
    "bulk-eval": (bulk_setup, bulk_pass),
}

END_TO_END = ("setup_s", "pass_ref", "peak_rss_mb")


class Reference:
    """A fixed computation outside mllgraph, timed to follow the machine's speed.

    Its parts resemble the benchmark's own mix: JSON and float formatting as
    in corpus and score I/O, small matrix products as in the encoder and
    graph head, and work on arrays too large for the caches as in the C x C
    stages. The inputs come from a fixed seed, not the workload's.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.random((128, 128))
        self.large = rng.random((1500, 1500))
        self.thin = rng.random((1500, 32))
        self.rows = [{"id": i, "x": rng.random(8).tolist(), "y": [i % 7, i % 11]}
                     for i in range(1000)]
        self.once()  # warm-up, untimed

    def once(self) -> float:
        np = self.np
        start = perf_counter()
        text = "\n".join(json.dumps(r) for r in self.rows)
        rows = [json.loads(line) for line in text.splitlines()]
        _ = "\n".join(",".join(f"{v:.6f}" for v in r["x"]) for r in rows)
        b = self.small
        for _ in range(60):
            b = np.tanh(b @ self.small * 0.01)
        c = np.log1p(self.large * self.large)
        c -= self.thin @ self.thin.T * 0.01
        return perf_counter() - start

    def seconds(self, at_least: float) -> float:
        """Median time of REF_REPEATS or more runs that take at_least seconds in all."""
        times = []
        start = perf_counter()
        while len(times) < REF_REPEATS or perf_counter() - start < at_least:
            times.append(self.once())
        return statistics.median(times)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._first = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def same_as_first(self, key, state: dict, what) -> None:
        """Record the first state under key; check that later ones equal it."""
        first = self._first.setdefault(key, state)
        if state is not first:
            diff = sorted(k for k in first.keys() | state.keys() if first.get(k) != state.get(k))
            self.check(not diff, f"{what} differs from the first in {diff[:5]}")


def run_cli(cli, argv, tracer=None):
    """One in-process CLI call; returns (exit code, seconds, captured output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = perf_counter()
        try:
            code = tracer.command(cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            code = -1
        seconds = perf_counter() - start
    return code, seconds, buf.getvalue()


def out_dir(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def fingerprint(dirs) -> dict:
    """sha256 and size of every file under the given output directories."""
    prints = {}
    for d in dirs:
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            prints[str(f.relative_to(WORK))] = (hashlib.sha256(f.read_bytes()).hexdigest(),
                                                f.stat().st_size)
    return prints


def oracle_checks(cli, dirs, checks):
    """Every metrics JSON must agree with `mllgraph metrics-oracle`."""
    for d in dirs:
        for report in sorted(d.glob("metrics*.json")):
            scores = d / report.name.replace("metrics", "scores").replace(".json", ".csv")
            code, _, log = run_cli(cli, ["metrics-oracle", "--scores", str(scores),
                                         "--report", str(report),
                                         "--vocabulary", str(d / "vocabulary.json")])
            detail = [line for line in log.splitlines() if "MISMATCH" in line] or [log.strip()[-500:]]
            checks.check(code == 0, f"metrics-oracle on {report.relative_to(WORK)}: {detail}")


def run_commands(cli, commands, checks, tracer=None, reference=None):
    """Run commands back to back; returns the seconds of each and, given a
    reference, the reference time taken just after each."""
    seconds, refs = [], []
    for argv in commands:
        code, dt, log = run_cli(cli, argv, tracer)
        seconds.append(dt)
        checks.check(code == 0, f"{' '.join(argv)} exited {code}: {log.strip()[-2000:]}")
        if reference is not None:
            refs.append(reference.seconds(REF_SHARE * dt))
    return seconds, refs


def test_scores(dirs) -> dict:
    """Mean test-set MLL_ACC and mAP (percent) over the pass's reports."""
    reports = [json.loads((d / name).read_text())
               for d in dirs for name in ("metrics_test.json", "metrics.json")
               if (d / name).exists()]
    if not reports:
        return {}
    return {"test_mll_acc": statistics.fmean(r["MLL_ACC"] for r in reports),
            "test_map": statistics.fmean(r["mAP"] for r in reports)}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(np, seed) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": int(seed),
    }


def import_package():
    """Import numpy and mllgraph from this checkout's src/; returns modules and seconds."""
    src = ROOT / "src"
    if not (src / "mllgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no mllgraph sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import numpy as np
    import mllgraph.cli as cli
    from mllgraph import diagnostics
    seconds = perf_counter() - start
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: mllgraph imported from {cli.__file__}, not {src}")
    return np, cli, diagnostics, seconds


def layer_metrics(traced_passes, untraced_passes) -> dict:
    """Per-layer metrics: means over traced passes; counts are exact per pass."""
    n = len(traced_passes)
    out = {}
    for span in tracing.SPAN_NAMES:
        out[f"{span}_s"] = (sum(p["busy"].get(span, 0.0) for p in traced_passes) / n, "s")
        calls = "encoder.calls" if span == "encoder.forward" else f"{span}_calls"
        out[calls] = (traced_passes[0]["calls"].get(span, 0), "count")
    first = traced_passes[0]
    for name in tracing.HOOK_COUNTS:
        out[name] = (first["counts"].get(name, 0), "count")
    out["trainer.batches"] = (first["calls"].get("losses.bce", 0), "count")
    size = {name: 0 for name in ARTIFACTS}
    for path, (_, nbytes) in first["fingerprint"].items():
        name = Path(path).name
        if name in size:
            size[name] += nbytes
    out["metrics.score_csv_bytes"] = (sum(size[f] for f in ARTIFACTS if f.startswith("scores")), "bytes")
    out["trainer.checkpoint_bytes"] = (size["checkpoint.mllg"], "bytes")
    for name in ARTIFACTS:
        out[f"bytes.{name}"] = (size[name], "bytes")
    for event in DIAGNOSTIC_EVENTS:
        out[f"diag.{event}"] = (first["diagnostics"].get(event, 0), "count")
    traced = statistics.median(p["seconds"] for p in traced_passes)
    untraced = statistics.median(p["seconds"] for p in untraced_passes)
    out["trace.wall_s"] = (statistics.fmean(p["seconds"] for p in traced_passes), "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    out["trace.spans"] = (first["spans"], "count")
    return out


def main(argv=None) -> int:
    run_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    np, cli, diagnostics, import_s = import_package()

    make_setup, make_pass = WORKLOADS[args.workload]
    seed = str(args.seed)
    run_dir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_dir, pass_dir = run_dir / "setup", run_dir / "pass"
    env = environment(np, seed)
    run_dir.mkdir(parents=True)
    (run_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    for key, value in env.items():
        print(f"env {key}: {value}")

    checks = Checks()
    setup_seconds = []
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(setup_dir, ignore_errors=True)
        commands = make_setup(seed, setup_dir)
        dirs = [out_dir(c) for c in commands]
        start = perf_counter()
        run_commands(cli, commands, checks)
        setup_seconds.append(perf_counter() - start)
        checks.same_as_first("set-up", fingerprint(dirs), f"set-up repeat {rep}")

    passes = []
    reference = None  # made after the first pass, which warms up and is not measured
    loop_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        shutil.rmtree(pass_dir, ignore_errors=True)
        commands = make_pass(seed, setup_dir, pass_dir)
        dirs = [out_dir(c) for c in commands]
        pass_start = perf_counter()
        diagnostics.reset()
        if traced:
            with tracing.installed(tracer):
                seconds, refs = run_commands(cli, commands, checks, tracer, reference)
        else:
            seconds, refs = run_commands(cli, commands, checks, reference=reference)
        record = {"traced": traced, "seconds": sum(seconds), "commands": seconds, "refs": refs,
                  "diagnostics": diagnostics.snapshot(), "fingerprint": fingerprint(dirs),
                  **test_scores(dirs)}
        what = f"pass {len(passes)} (traced={traced})"
        checks.same_as_first("files", record["fingerprint"], what)
        checks.same_as_first("diagnostics", record["diagnostics"], what + " diagnostics")
        if traced:
            busy, calls = tracer.self_times()
            record.update(busy=busy, calls=calls, counts=dict(tracer.counts),
                          spans=len(tracer.spans), tracer=tracer)
            checks.same_as_first("calls", {**calls, **record["counts"]}, what + " call counts")
            residual = max(abs(r) for r in tracer.command_residuals().values())
            checks.check(residual < 1e-6, f"self times miss a command's wall time by {residual} s")
        if reference is None:
            # read now so that the peak does not depend on how many passes fit,
            # and before the reference's arrays exist
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference = Reference(np)
            last_ref = reference.seconds(REF_SHARE * seconds[-1])
        else:
            # each command in units of the mean reference time just before and after it
            around = [last_ref] + refs
            record["ratios"] = [dt / ((a + b) / 2) for dt, a, b in zip(seconds, around, refs)]
            last_ref = refs[-1]
        passes.append(record)
        now = perf_counter()
        enough = len(passes) >= (3 if args.trace else 2)  # a measured untraced pass
        if enough and (now - loop_start) + (now - pass_start) > args.seconds:
            break
    # outputs of the last set-up repeat and pass are byte-identical to the first ones
    oracle_checks(cli, [out_dir(c) for c in make_setup(seed, setup_dir)] + dirs, checks)

    untraced = [p for p in passes[1:] if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    # each command's median over the measured untraced passes; a pass is the sum of its commands
    medians = [statistics.median(p["commands"][i] for p in untraced)
               for i in range(len(commands))]
    ratios = [statistics.median(p["ratios"][i] for p in untraced) for i in range(len(commands))]
    timing = {"import_s": import_s, "setup_s": import_s + statistics.median(setup_seconds),
              "pass_s": sum(medians),
              "ref_s": statistics.median(r for p in passes[1:] for r in p["refs"])}
    for kind in dict.fromkeys(c[0] for c in commands):
        timing[f"{kind}_s"] = sum(m for m, c in zip(medians, commands) if c[0] == kind)
    quality = {k: untraced[0].get(k, float("nan")) for k in ("test_mll_acc", "test_map")}
    failed = len(checks.failures)
    summary = {
        **{k: (v, "s") for k, v in timing.items()},
        "pass_ref": (sum(ratios), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        **{k: (v, "%") for k, v in quality.items()},
        "failed_ratio": (failed / checks.attempted, "1"),
    }
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced_passes)} traced "
          f"passes, {checks.attempted} checks, {perf_counter() - run_start:.1f} s so far")
    print("pass seconds: " + " ".join(
        f"{p['seconds']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print("pass in reference units: " + " ".join(
        f"{sum(p['ratios']):.2f}{'t' if p['traced'] else ''}" for p in passes[1:]))
    for name, (value, unit) in summary.items():
        print(f"{name} {value:.6g} {unit}")

    if args.trace:
        metrics = layer_metrics(traced_passes, untraced)
        tracing.write_spans([p["tracer"] for p in traced_passes], run_dir / "spans.csv.gz")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = {k: summary[k] for k in END_TO_END}
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    shutil.rmtree(setup_dir, ignore_errors=True)
    shutil.rmtree(pass_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
