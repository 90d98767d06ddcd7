"""End-to-end and per-layer benchmark of kgalign on synthetic graph pairs.

Usage, from the repository root:

    python3 bench/run.py --workload attr-n4000 --seed 1 --seconds 50 --trace 0

One process runs one workload.  A child process generates the workload's
synthetic graph pairs from ``--seed``, writes their dataset files and aligns
the first pair once, under another string hash seed than this process.  This
process then drives the library as a user would: load both graphs and the
seed links (set-up), bootstrap the alignment and evaluate it (alignment).  It
repeats set-up and alignment, cycling through the pairs, for ``--seconds``;
times are medians, quality is pooled over the pairs.  Every alignment is
checked (see ``check``, and every alignment of a pair must give the digest of
its first one, or of the child's for the first pair); one that raises or
fails a check counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` aligns each
pair untraced and then traced (spans recorded by ``tracing.Tracer``) and
reports per-layer metrics from the traced alignments, plus the tracing
overhead as the median traced-minus-untraced time of a pair.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so the only extra threads are the
# pipeline's own attribute-scoring workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_SECONDS = 0.25  # minimum set-up time sampled before each alignment
PREPARE_TIMEOUT = 100  # seconds the child may take to generate and align

# Settings of the acceptance end-to-end runs, shared by every workload.
MODEL = dict(m_slots=10, min_count=5, value_dim=50, em_iterations=10)
TRANSE_DIM = 48
TRANSE_SEED = 3
DROP_PROB = 0.3
SEED_FRACTION = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_entities: int
    views: str
    merge_mode: str
    epochs: int
    max_iterations: int
    workers: int
    instances: int  # graph pairs per run; instance i uses synth seed seed * instances + i


# Every workload caps its iterations at a round no seed converges before, so
# each alignment does the same number of bootstrap rounds; at N=200 the
# converging round varies from 3 to 8 with the seed, which would otherwise
# dominate the spread of align_s.  At N=200 the share of test links and pairs
# found varies by about 10 % between graph pairs, so that workload pools its
# quality over four pairs per run.
WORKLOADS = {w.name: w for w in (
    Workload("joint-n200-m3",
             "4 pairs of N=200, both views, M3, 60 TransE epochs, 2 iterations, 1 worker: "
             "few triples and many epochs, train_transe dominates (ROADMAP 2)",
             200, "both", "M3", 60, 2, 1, 4),
    Workload("attr-n4000",
             "N=4000, attribute view only, 2 iterations, 2 workers: value matrices, grouped "
             "scoring and dense NxN' state, no TransE (ROADMAP 3, 4)",
             4000, "attr", "M3", 60, 2, 2, 1),
)}

END_TO_END = {
    "setup_s": "s", "align_s": "s", "peak_rss_mb": "MB",
    "hr1": "ratio", "hr10": "ratio", "mrr": "ratio",
    "ent_precision": "ratio", "ent_recall": "ratio",
}

PER_LAYER = {
    "relationship_model.train_transe_s": "s",
    "relationship_model.train_transe_calls": "count",
    "relationship_model.transe_epoch_s": "s",
    "relationship_model.transe_triples_per_s": "1/s",
    "relationship_model.transe_final_loss": "loss",
    "relationship_model.swap_triplets_s": "s",
    "relationship_model.swapped_triples": "count",
    "relationship_model.entity_similarity_rel_s": "s",
    "translator.train_translation_s": "s",
    "translator.em_pairs": "count",
    "attribute_model.build_value_matrix_s": "s",
    "attribute_model.build_value_matrix_calls": "count",
    "attribute_model.values_embedded": "count",
    "attribute_model.build_attr_slot_matrix_s": "s",
    "attribute_model.entity_similarity_attr_s": "s",
    "attribute_model.infer_from_attribute_view_s": "s",
    "kg.load_graph_s": "s",
    "kg.build_initial_seeds_s": "s",
    "kg.infer_entity_pairs_s": "s",
    "pipeline.tune_thresholds_s": "s",
    "pipeline.merge_s": "s",
    "pipeline.run_pipeline_self_s": "s",
    "pipeline.iterations": "count",
    "pipeline.merge_accept_ratio": "ratio",
    "metrics.evaluate_s": "s",
    "trace.align_s": "s",
    "trace.untraced_align_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}


def import_library():
    """Import kgalign from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgalign
    except ImportError as exc:
        raise SystemExit(f"error: cannot import kgalign from {src}: {exc}")
    if Path(kgalign.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: kgalign was imported from {kgalign.__file__}, not {src}")
    return kgalign


@dataclass
class Inputs:
    """What the program is given: the dataset files and the seed links."""

    left: object
    right: object
    seeds: object
    valid: list[tuple[int, int]]
    test: list[tuple[int, int]]


@dataclass
class Outcome:
    result: object
    reports: dict
    merged_shape: tuple[int, int]


def generate(ka, workload: Workload, seed: int, out_dir: Path) -> None:
    spec = ka.SynthSpec(n_entities=workload.n_entities, drop_prob=DROP_PROB,
                        seed_fraction=SEED_FRACTION, rng_seed=seed)
    ka.write_dataset(ka.generate_synth(spec), out_dir)


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def setup(ka, data_dir: Path) -> Inputs:
    """Load both graphs, build the seed store and resolve the ILL ids.

    Functions are looked up on their modules at call time so that a tracer
    can wrap them.
    """
    left = ka.kg.load_graph(data_dir / "rel_triples_1", data_dir / "attr_triples_1")
    right = ka.kg.load_graph(data_dir / "rel_triples_2", data_dir / "attr_triples_2")
    seeds = ka.kg.build_initial_seeds(left, right, _read_pairs(data_dir / "ill_train"))

    def ids(name):
        return [(left.entity_id(a), right.entity_id(b)) for a, b in _read_pairs(data_dir / name)]

    return Inputs(left, right, seeds, ids("ill_valid"), ids("ill_test"))


def read_truth(data_dir: Path) -> set[tuple[str, str]]:
    """Every true entity link of a generated pair, by label.

    ``write_dataset`` writes all of them to ``ill_ent_pairs``, which the
    set-up never reads; only the benchmark uses it, for scoring.
    """
    return set(_read_pairs(data_dir / "ill_ent_pairs"))


def settings_for(ka, workload: Workload):
    return ka.PipelineSettings(
        transe=ka.TrainConfig(dim=TRANSE_DIM, epochs=workload.epochs, rng_seed=TRANSE_SEED),
        thresholds=ka.Thresholds(tuning="validation-sweep"),
        views=workload.views, workers=workload.workers, **MODEL)


def alignment_digest(ka, store, left, right, path: Path) -> str:
    """sha256 of the library's sorted alignment dump, written to ``path``."""
    ka.pipeline.write_alignment_dump(store, left, right, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def align(ka, workload: Workload, inputs: Inputs) -> Outcome:
    """Bootstrap from the seeds and evaluate every view on the test links."""
    result = ka.pipeline.run_pipeline(inputs.left, inputs.right, inputs.seeds,
                                      settings_for(ka, workload),
                                      merge_mode=workload.merge_mode,
                                      max_iterations=workload.max_iterations,
                                      valid_pairs=inputs.valid)
    merged = result.merged_scores()
    reports = {"merged": ka.metrics.evaluate(merged, inputs.test, source="merged")}
    for view in (result.s_attr, result.s_rel):
        if view is not None:
            reports[view.source] = ka.metrics.evaluate(view, inputs.test)
    return Outcome(result, reports, merged.shape)


def _one_to_one(pairs) -> bool:
    return (len({a for a, _ in pairs}) == len(pairs)
            and len({b for _, b in pairs}) == len(pairs))


def check(outcome: Outcome, inputs: Inputs) -> list[str]:
    """Output checks every alignment must pass; returns the failures."""
    failures = []
    store = outcome.result.store
    for kind in ("ent_pairs", "rel_pairs", "attr_pairs"):
        if not _one_to_one(getattr(store, kind)):
            failures.append(f"{kind} are not one-to-one")
    for record in outcome.result.records:
        if record.candidate_overlap != 0:
            failures.append(f"iteration {record.iteration}: candidate_overlap "
                            f"{record.candidate_overlap}")
    expected = (inputs.left.num_entities, inputs.right.num_entities)
    if outcome.merged_shape != expected:
        failures.append(f"merged matrix shape {outcome.merged_shape} != {expected}")
    for source, report in outcome.reports.items():
        for value in [report.mrr, *report.hr.values()]:
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                failures.append(f"{source}: HR/MRR value {value!r} outside [0, 1]")
    return failures


def quality_counts(outcome: Outcome, inputs: Inputs,
                   truth: set[tuple[str, str]]) -> dict[str, float]:
    """Test-link ranking sums of the merged matrix, and how many of the entity
    pairs the bootstrap added are right by the generator's ground truth."""
    report = outcome.reports["merged"]
    left, right = inputs.left, inputs.right
    seeded = {(left.ent_labels[a], right.ent_labels[b]) for a, b in inputs.seeds.ent_pairs}
    added = {(left.ent_labels[a], right.ent_labels[b])
             for a, b in outcome.result.store.ent_pairs} - seeded
    n = report.n_test
    return {"test": n, "hits1": report.hr[1] * n, "hits10": report.hr[10] * n,
            "rr": report.mrr * n, "added": len(added), "added_right": len(added & truth),
            "unseeded": len(truth - seeded)}


def pooled_quality(counts: list[dict[str, float]]) -> dict[str, float]:
    """HR@1, HR@10, MRR and added-pair precision/recall over all instances."""
    total = {key: sum(c[key] for c in counts) for key in counts[0]}
    return {"hr1": total["hits1"] / total["test"], "hr10": total["hits10"] / total["test"],
            "mrr": total["rr"] / total["test"],
            "ent_precision": total["added_right"] / total["added"] if total["added"] else 0.0,
            "ent_recall": total["added_right"] / total["unseeded"]}


def layer_metrics(tracer, run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced alignment, from its spans."""
    spans = tracer.run(run_id)
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))

    def total(name):
        return sum(own for _, own in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def counted(name, key):
        return sum(span.counts[key] for span, _ in by_name.get(name, ()))

    transe_s = total("relationship_model.train_transe")
    epochs = counted("relationship_model.train_transe", "epochs")
    triple_epochs = counted("relationship_model.train_transe", "triple_epochs")
    transe_spans = by_name.get("relationship_model.train_transe", ())
    pipeline_spans = by_name["pipeline.run_pipeline"]
    proposed = sum(span.counts["proposed"] for span, _ in pipeline_spans)
    merged = sum(span.counts["merged"] for span, _ in pipeline_spans)
    root = [own for span, own in zip(spans, selfs) if span.parent is None]
    return {
        "relationship_model.train_transe_s": transe_s,
        "relationship_model.train_transe_calls": calls("relationship_model.train_transe"),
        "relationship_model.transe_epoch_s": transe_s / epochs if epochs else 0.0,
        "relationship_model.transe_triples_per_s": triple_epochs / transe_s if transe_s else 0.0,
        "relationship_model.transe_final_loss":
            transe_spans[-1][0].counts["final_loss"] if transe_spans else 0.0,
        "relationship_model.swap_triplets_s": total("relationship_model.swap_triplets"),
        "relationship_model.swapped_triples": counted("relationship_model.swap_triplets", "triples"),
        "relationship_model.entity_similarity_rel_s": total("relationship_model.entity_similarity_rel"),
        "translator.train_translation_s": total("translator.train_translation"),
        "translator.em_pairs": counted("translator.train_translation", "pairs"),
        "attribute_model.build_value_matrix_s": total("attribute_model.build_value_matrix"),
        "attribute_model.build_value_matrix_calls": calls("attribute_model.build_value_matrix"),
        "attribute_model.values_embedded": counted("attribute_model.build_value_matrix", "values"),
        "attribute_model.build_attr_slot_matrix_s": total("attribute_model.build_attr_slot_matrix"),
        "attribute_model.entity_similarity_attr_s": total("attribute_model.entity_similarity_attr"),
        "attribute_model.infer_from_attribute_view_s": total("attribute_model.infer_from_attribute_view"),
        "kg.infer_entity_pairs_s": total("kg.infer_entity_pairs"),
        "pipeline.tune_thresholds_s": total("pipeline.tune_thresholds"),
        "pipeline.merge_s": total("pipeline.merge"),
        "pipeline.run_pipeline_self_s": total("pipeline.run_pipeline"),
        "pipeline.iterations": counted("pipeline.run_pipeline", "iterations"),
        "pipeline.merge_accept_ratio": merged / proposed if proposed else 0.0,
        "metrics.evaluate_s": total("metrics.evaluate"),
        "trace.align_s": sum(span.duration for span in spans if span.parent is None),
        "trace.unaccounted_s": sum(root),
        "trace.spans": len(spans),
    }


def setup_metrics(tracer, run_id: int) -> dict[str, float]:
    spans = tracer.run(run_id)
    totals = {"kg.load_graph_s": 0.0, "kg.build_initial_seeds_s": 0.0}
    for span, own in zip(spans, self_times(spans)):
        key = span.name + "_s"
        if key in totals:
            totals[key] += own
    return totals


def _median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _schedule(workload: Workload, trace: bool):
    """(instance, traced) for each alignment, and how many must run at least.

    Untraced runs cycle through the instances, so each is aligned at least
    once and the first one is compared with the child's alignment.  Traced
    runs align each instance untraced and then traced, which checks that
    tracing changes no output and gives the overhead pair by pair.
    """
    k = workload.instances
    if trace:
        return (lambda i: ((i // 2) % k, i % 2 == 1)), 2
    return (lambda i: (i % k, False)), k


def prepare(ka, job: dict) -> dict:
    """Generate every pair of a run and align the first; runs in the child."""
    workload = Workload(**job["workload"])
    data_dirs = [Path(d) for d in job["data_dirs"]]
    for i, data_dir in enumerate(data_dirs):
        generate(ka, workload, job["seed"] * workload.instances + i, data_dir)
    inputs = setup(ka, data_dirs[0])
    outcome = align(ka, workload, inputs)
    return {"digest": alignment_digest(ka, outcome.result.store, inputs.left, inputs.right,
                                       data_dirs[0] / "alignment.tsv")}


def prepare_in_child(workload: Workload, seed: int, data_dirs: list[Path]) -> str:
    """Run ``prepare`` in a child process and return its digest.

    The generator's memory then never counts towards this process's peak
    RSS.  The child hashes strings with another seed than this process, so
    comparing its digest with this process's alignments of the same pair
    checks that the output does not depend on ``PYTHONHASHSEED``.
    """
    job = {"workload": dataclasses.asdict(workload), "seed": seed,
           "data_dirs": [str(d) for d in data_dirs]}
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--prepare", json.dumps(job)],
                          env={**os.environ, "PYTHONHASHSEED": hash_seed},
                          stdout=subprocess.PIPE, text=True, timeout=PREPARE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"preparing the inputs failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["digest"]


def measure(ka, workload: Workload, seed: int, seconds: float, trace: bool,
            log=sys.stderr) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    tracer = Tracer() if trace else None
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    data_dirs = [work_root / f"data-{workload.name}-{seed}-{i}-{os.getpid()}"
                 for i in range(workload.instances)]
    try:
        reference = {0: prepare_in_child(workload, seed, data_dirs)}
        truths = [read_truth(data_dir) for data_dir in data_dirs]
        return _measure_loop(ka, workload, data_dirs, truths, reference, seconds, tracer, log)
    finally:
        for data_dir in data_dirs:
            shutil.rmtree(data_dir, ignore_errors=True)


def _cycle(ka, workload, data_dir, truth, tracer, run_id, setup_layers):
    """One set-up burst and one checked alignment of the pair in ``data_dir``.

    The alignment is traced as run ``run_id`` when that is not None.

    The pair is loaded afresh for at least SETUP_SECONDS and the last load is
    aligned.  Garbage is collected before every timed call so that no call
    pays for another's garbage.  Returns the mean load time, the alignment
    time, the failures, the digest and the quality counts; the loaded graphs
    and the alignment die with the call, so each cycle's memory peak is its
    own.
    """
    loads = []
    inputs = None
    burst_start = time.perf_counter()
    while not loads or time.perf_counter() - burst_start < SETUP_SECONDS:
        inputs = None
        gc.collect()
        tick = time.perf_counter()
        if tracer is None:
            inputs = setup(ka, data_dir)
        else:
            tracer.run_id = -1 - len(setup_layers)
            with tracer:
                inputs = setup(ka, data_dir)
            setup_layers.append(setup_metrics(tracer, tracer.run_id))
        loads.append(time.perf_counter() - tick)

    gc.collect()
    tick = time.perf_counter()
    digest = quality = None
    try:
        if run_id is not None:
            tracer.run_id = run_id
            with tracer, tracer.span("align"):
                outcome = align(ka, workload, inputs)
        else:
            outcome = align(ka, workload, inputs)
        elapsed = time.perf_counter() - tick
        failures = check(outcome, inputs)
        digest = alignment_digest(ka, outcome.result.store, inputs.left, inputs.right,
                                  data_dir / "alignment.tsv")
        quality = quality_counts(outcome, inputs, truth)
    except Exception:
        elapsed = time.perf_counter() - tick
        failures = [traceback.format_exc()]
    return sum(loads) / len(loads), elapsed, failures, digest, quality


def _measure_loop(ka, workload, data_dirs, truths, reference, seconds, tracer, log) -> dict:
    """Set up and align, cycle after cycle, until ``seconds`` are used.

    ``reference`` maps an instance to the digest its alignments must give;
    the first alignment of an instance not in it sets it.
    """
    plan, minimum = _schedule(workload, tracer is not None)
    attempted = failed = 0
    setup_times, setup_layers = [], []
    align_times, traced_layers, overheads = [], [], []
    counts: dict[int, dict] = {}  # instance -> quality counts of its first alignment
    untraced_time: dict[int, float] = {}
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        instance, traced = plan(attempted)
        attempted += 1
        setup_time, elapsed, failures, digest, quality = _cycle(
            ka, workload, data_dirs[instance], truths[instance], tracer,
            attempted if traced else None, setup_layers)
        setup_times.append(setup_time)
        if digest is not None:
            expected = reference.setdefault(instance, digest)
            if digest != expected:
                failures.append(f"instance {instance}: digest {digest[:16]} differs from "
                                f"{expected[:16]}, that of its first alignment")
            if counts.setdefault(instance, quality) != quality:
                failures.append(f"instance {instance}: scores differ from its first alignment")
        print(f"alignment {attempted} (instance {instance}{', traced' if traced else ''}): "
              f"{elapsed:.3f} s after set-up {setup_time:.4f} s, "
              f"digest {digest[:16] if digest else '-'}", file=log)
        if failures:
            failed += 1
            print("  failed: " + "; ".join(failures), file=log)
        elif not traced:
            align_times.append(elapsed)
            untraced_time[instance] = elapsed
        else:
            traced_layers.append(layer_metrics(tracer, attempted))
            if instance in untraced_time:
                overheads.append(elapsed - untraced_time[instance])
        now = time.perf_counter()
        if attempted >= minimum and now - start + (now - cycle_start) > seconds:
            break

    if tracer is None:
        metrics = {"setup_s": statistics.median(setup_times),
                   "align_s": statistics.median(align_times) if align_times else 0.0,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if len(counts) == workload.instances:
            metrics.update(pooled_quality(list(counts.values())))
        units = END_TO_END
    else:
        metrics = _median_metrics(setup_layers)
        if traced_layers:
            metrics.update(_median_metrics(traced_layers))
            metrics["trace.untraced_align_s"] = statistics.median(align_times) if align_times else 0.0
            metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        units = PER_LAYER
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=log)
        metrics.update(dict.fromkeys(missing, 0.0))
    return {"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def environment(ka) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads_pinned": {v: os.environ[v] for v in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "python": sys.version.split()[0], "kgalign": ka.__version__}

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", help=argparse.SUPPRESS)  # JSON job of the child
    args = parser.parse_args(argv)
    ka = import_library()
    if args.prepare is not None:
        print(json.dumps(prepare(ka, json.loads(args.prepare))))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workload = WORKLOADS[args.workload]
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "environment": environment(ka)}), file=sys.stderr)
    result = measure(ka, workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
