"""Tests of the benchmark itself: tracing, self times, names and determinism.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

ka = run.import_library()

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = run.Workload("tiny", "small joint run for tests", 60, "both", "M3", 5, 2, 1, 2)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("tiny")
    run.generate(ka, TINY, 5, data_dir)
    return run.read_truth(data_dir), run.setup(ka, data_dir)


def _originals():
    return {(t.lookup, t.attr): getattr(importlib.import_module(t.lookup), t.attr)
            for t in tracing.TARGETS}


def test_wrappers_are_removed_afterwards(tiny):
    before = _originals()
    with Tracer() as tracer:
        wrapped = _originals()
        run.align(ka, TINY, tiny[1])
    assert all(wrapped[key] is not before[key] for key in before)
    assert _originals() == before
    assert len(tracer.spans) > 0

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _originals() == before


def test_install_rejects_a_target_that_is_not_the_callee():
    bogus = tracing.Target("kgalign.pipeline", "train_transe", "kg")
    before = _originals()
    with pytest.raises(RuntimeError):
        Tracer(tracing.TARGETS[:3] + (bogus,)).install()
    assert _originals() == before


def test_traced_and_untraced_runs_agree(tiny, tmp_path):
    truth, inputs = tiny
    plain = run.align(ka, TINY, inputs)
    with Tracer() as tracer:
        with tracer.span("align"):
            traced = run.align(ka, TINY, inputs)
    digests = [run.alignment_digest(ka, outcome.result.store, inputs.left, inputs.right,
                                    tmp_path / f"{i}.tsv")
               for i, outcome in enumerate((plain, traced))]
    assert digests[0] == digests[1]
    assert run.quality_counts(traced, inputs, truth) == run.quality_counts(plain, inputs, truth)
    assert run.check(traced, inputs) == [] == run.check(plain, inputs)

    layers = run.layer_metrics(tracer, tracer.run_id)
    assert layers["relationship_model.train_transe_calls"] == TINY.max_iterations
    assert layers["pipeline.iterations"] == TINY.max_iterations
    derived = {"relationship_model.transe_epoch_s", "relationship_model.transe_triples_per_s"}
    own = [k for k in layers if k.endswith("_s") and not k.startswith("trace.")
           and k not in derived]
    assert sum(layers[k] for k in own) + layers["trace.unaccounted_s"] \
        == pytest.approx(layers["trace.align_s"], rel=1e-9)


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("b.child", 6.0, 7.5, 2, 1),
        Span("b.child2", 8.0, 8.5, 2, 1),
        Span("other", 20.0, 21.0, None, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.5, 0.5, 1.0])


def test_run_reindexes_parents():
    tracer = Tracer(targets=())
    tracer.run_id = 1
    with tracer.span("first"):
        pass
    tracer.run_id = 2
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    spans = tracer.run(2)
    assert [s.name for s in spans] == ["outer", "inner"]
    assert [s.parent for s in spans] == [None, 0]
    assert tracer.spans[2].parent == 1


@pytest.mark.parametrize("trace", [False, True])
def test_measure_emits_every_declared_metric(trace):
    result = run.measure(ka, TINY, 5, 0.1, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else TINY.instances)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    json.dumps(result)


def test_child_aligns_like_this_process_under_another_hash_seed(tmp_path):
    data_dirs = [tmp_path / "a", tmp_path / "b"]
    child = run.prepare_in_child(TINY, 3, data_dirs)
    inputs = run.setup(ka, data_dirs[0])
    outcome = run.align(ka, TINY, inputs)
    assert run.alignment_digest(ka, outcome.result.store, inputs.left, inputs.right,
                                tmp_path / "here.tsv") == child
    assert (data_dirs[1] / "ill_test").exists()


def test_benchmark_json_matches_the_program():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [w["name"] for w in spec["workloads"]] + list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
