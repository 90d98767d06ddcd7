"""In-memory spans around calls into kgalign, recorded from outside the library.

The library's modules import each other's functions by name (``pipeline``
calls ``train_transe`` through its own module globals), so a wrapper only
sees a call if it replaces the attribute the caller looks up.  Each target
below therefore names the module where the call is looked up, the module
that defines the function, and the span name ``<defining module>.<function>``.
Wrappers are installed on entering a ``Tracer`` and removed on leaving it.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list, or None
    run_id: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_transe(args, kwargs, result):
    swapped, cfg = args[0], args[1]
    return {"triples": len(swapped.triples), "epochs": cfg.epochs,
            "triple_epochs": len(swapped.triples) * cfg.epochs,
            "final_loss": result.epoch_losses[-1] if result.epoch_losses else 0.0}


def _count_swap(args, kwargs, result):
    return {"triples": len(result.triples)}


def _count_em(args, kwargs, result):
    return {"pairs": len(args[0])}


def _count_values(args, kwargs, result):
    return {"values": int(result.slot_count.sum())}


def _count_pipeline(args, kwargs, result):
    proposed = sum(r.counts["new_ent_attr"] + r.counts["new_ent_rel"] for r in result.records)
    merged = sum(r.counts["merged"] for r in result.records)
    return {"iterations": len(result.records), "proposed": proposed, "merged": merged}


@dataclass(frozen=True)
class Target:
    lookup: str      # module whose attribute the caller resolves at call time
    attr: str
    defined_in: str  # module that defines the function; first part of the span name
    count: object = None  # optional (args, kwargs, result) -> dict of counts
    span: str = ""   # span name override, for functions that share one metric

    @property
    def span_name(self) -> str:
        return self.span or f"{self.defined_in}.{self.attr}"


_P = "kgalign.pipeline"
_A = "kgalign.attribute_model"
_R = "kgalign.relationship_model"

TARGETS = (
    Target("kgalign.kg", "load_graph", "kg"),
    Target("kgalign.kg", "build_initial_seeds", "kg"),
    Target(_P, "infer_entity_pairs", "kg"),
    Target(_A, "infer_entity_pairs", "kg"),
    Target(_P, "train_translation", "translator", _count_em),
    Target(_P, "build_value_matrix", "attribute_model", _count_values),
    Target(_P, "build_attr_slot_matrix", "attribute_model"),
    Target(_P, "entity_similarity_attr", "attribute_model"),
    Target(_P, "infer_from_attribute_view", "attribute_model"),
    Target(_P, "swap_triplets", "relationship_model", _count_swap),
    Target(_P, "train_transe", "relationship_model", _count_transe),
    Target(_P, "entity_similarity_rel", "relationship_model"),
    Target(_P, "tune_thresholds", "pipeline"),
    Target(_P, "merge_standard", "pipeline", span="pipeline.merge"),
    Target(_P, "merge_score", "pipeline", span="pipeline.merge"),
    Target(_P, "merge_rank", "pipeline", span="pipeline.merge"),
    Target("kgalign.pipeline", "run_pipeline", "pipeline", _count_pipeline),
    Target("kgalign.metrics", "evaluate", "metrics"),
)
del _P, _A, _R


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` wraps TARGETS."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, target: Target):
        name = target.span_name
        count = target.count

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, kwargs, result))
                return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                module = importlib.import_module(target.lookup)
                func = getattr(module, target.attr)
                home = importlib.import_module(f"kgalign.{target.defined_in}")
                if getattr(home, target.attr, None) is not func:
                    raise RuntimeError(f"{target.lookup}.{target.attr} is not "
                                       f"kgalign.{target.defined_in}.{target.attr}")
                setattr(module, target.attr, self._wrap(func, target))
                self._originals.append((module, target.attr, func))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            module, attr, func = self._originals.pop()
            setattr(module, attr, func)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def run(self, run_id: int) -> list[Span]:
        """The spans of one run, with ``parent`` re-indexed into the result."""
        picked = [i for i, span in enumerate(self.spans) if span.run_id == run_id]
        position = {old: new for new, old in enumerate(picked)}
        return [dataclasses.replace(self.spans[i], parent=position.get(self.spans[i].parent))
                for i in picked]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    ``parent`` indexes into ``spans``.  Children are calls made by their
    parent on the same thread, so they run one after another inside it.
    """
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result
