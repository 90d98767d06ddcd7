"""Command-line front-end: ``gen``, ``align``, and ``eval`` subcommands.

Configuration lives in an INI file with CLI flags taking precedence; all
randomness fans out from one root seed.  Logs go to stderr, machine-readable
outputs to files and stdout.  Exit codes: 0 ok, 1 runtime failure, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from .attribute_model import read_similarity_dump, write_similarity_dump, SimilarityMatrix
from .kg import ParseError, build_initial_seeds, load_graph
from .metrics import evaluate, split_ills
from .pipeline import (
    MERGE_MODES,
    PipelineSettings,
    Thresholds,
    run_pipeline,
    write_alignment_dump,
    write_iteration_log,
)
from .relationship_model import TrainConfig, export_embeddings
from .synth import SynthSpec, generate_synth, write_dataset

LOG = logging.getLogger("kgalign")


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    """Everything an ``align`` run needs, file-backed and overridable."""

    # [data]
    rel_1: str = ""
    attr_1: str = ""
    rel_2: str = ""
    attr_2: str = ""
    ill: str = ""          # unsplit links; split 4:1:10 with rng_seed
    ill_train: str = ""    # pre-split alternative to ill
    ill_valid: str = ""
    ill_test: str = ""
    # [model]
    value_dim: int = 100
    m_slots: int = 20
    min_count: int = 50
    em_iterations: int = 10
    dim: int = 75
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    negatives: int = 5
    batch_size: int = 256
    tau_v: float = 0.8
    tau_r: float = 0.9
    tau_e_attr: float | None = None
    tau_e_rel: float | None = None
    threshold_tuning: str = "validation-sweep"
    # [pipeline]
    merge_mode: str = "M3"
    max_iterations: int = 10
    views: str = "both"
    retrain_translator: bool = True
    rng_seed: int = 0
    workers: int = 1
    block_size: int = 1024
    # [output]
    out_dir: str = "out"
    eval_ks: tuple[int, ...] = (1, 10)
    dump_matrices: bool = False

    _SECTIONS = {
        "data": ("rel_1", "attr_1", "rel_2", "attr_2", "ill",
                 "ill_train", "ill_valid", "ill_test"),
        "model": ("value_dim", "m_slots", "min_count", "em_iterations", "dim",
                  "margin", "learning_rate", "epochs", "negatives", "batch_size",
                  "tau_v", "tau_r", "tau_e_attr", "tau_e_rel", "threshold_tuning"),
        "pipeline": ("merge_mode", "max_iterations", "views", "retrain_translator",
                     "rng_seed", "workers", "block_size"),
        "output": ("out_dir", "eval_ks", "dump_matrices"),
    }

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        parser = configparser.ConfigParser()
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        cfg = cls()
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for section, names in cls._SECTIONS.items():
            if not parser.has_section(section):
                continue
            for name in names:
                if not parser.has_option(section, name):
                    continue
                raw = parser.get(section, name)
                setattr(cfg, name, _parse_value(types[name], name, raw))
        return cfg

    def to_file(self, path) -> None:
        parser = configparser.ConfigParser()
        for section, names in self._SECTIONS.items():
            parser.add_section(section)
            for name in names:
                parser.set(section, name, _format_value(getattr(self, name)))
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)

    def validate(self) -> None:
        for name in ("rel_1", "attr_1", "rel_2", "attr_2"):
            value = getattr(self, name)
            if not value:
                raise ConfigError(f"config is missing required path {name!r}")
            if not Path(value).is_file():
                raise ConfigError(f"missing triple file: {value}")
        presplit = all((self.ill_train, self.ill_valid, self.ill_test))
        if not presplit and not self.ill:
            raise ConfigError("config needs either 'ill' or all of ill_train/ill_valid/ill_test")
        for name in ("ill", "ill_train", "ill_valid", "ill_test"):
            value = getattr(self, name)
            if value and not Path(value).is_file():
                raise ConfigError(f"missing ILL file: {value}")
        if self.merge_mode not in MERGE_MODES:
            raise ConfigError(f"merge_mode must be one of {MERGE_MODES}")
        if self.views not in ("both", "attr", "rel"):
            raise ConfigError("views must be both, attr, or rel")
        if self.threshold_tuning not in ("fixed", "validation-sweep"):
            raise ConfigError("threshold_tuning must be fixed or validation-sweep")

    def settings(self) -> PipelineSettings:
        return PipelineSettings(
            m_slots=self.m_slots,
            min_count=self.min_count,
            value_dim=self.value_dim,
            em_iterations=self.em_iterations,
            transe=TrainConfig(dim=self.dim, margin=self.margin,
                               learning_rate=self.learning_rate, epochs=self.epochs,
                               negatives_per_positive=self.negatives,
                               batch_size=self.batch_size, rng_seed=self.rng_seed),
            thresholds=Thresholds(tau_e_attr=self.tau_e_attr, tau_e_rel=self.tau_e_rel,
                                  tau_v=self.tau_v, tau_r=self.tau_r,
                                  tuning=self.threshold_tuning),
            views=self.views,
            retrain_translator=self.retrain_translator,
            block_size=self.block_size,
            workers=self.workers,
        )


def _parse_value(ftype: str, name: str, raw: str):
    raw = raw.strip()
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    if ftype == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {name}={raw!r}")
    if ftype == "float | None":
        return None if raw.lower() in ("", "none", "auto") else float(raw)
    if ftype == "tuple[int, ...]":
        return tuple(int(x) for x in raw.split(",") if x.strip())
    return raw


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pair_lines(path):
    """``(lineno, left, right)`` for each nonblank line of a two-column file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected 2 tab-separated fields, got {len(parts)}")
            yield lineno, parts[0], parts[1]


def _read_pairs(path, g, g2) -> list[tuple[str, str]]:
    """Entity label pairs of an ILL file; each label must name an entity of its graph."""
    pairs = []
    for lineno, left, right in _pair_lines(path):
        if not g.has_entity(left):
            raise ParseError(path, lineno, f"unknown left entity {left!r}")
        if not g2.has_entity(right):
            raise ParseError(path, lineno, f"unknown right entity {right!r}")
        pairs.append((left, right))
    return pairs


def _resolve_pairs(g, g2, label_pairs):
    return [(g.entity_id(a), g2.entity_id(b)) for a, b in label_pairs]


def cmd_align(args) -> int:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for name in ("merge_mode", "max_iterations", "views", "out_dir", "rng_seed", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = load_graph(cfg.rel_1, cfg.attr_1)
    g2 = load_graph(cfg.rel_2, cfg.attr_2)
    LOG.info("left graph: %d entities, %d relations, %d attributes",
             g.num_entities, g.num_relations, g.num_attributes)
    LOG.info("right graph: %d entities, %d relations, %d attributes",
             g2.num_entities, g2.num_relations, g2.num_attributes)

    if cfg.ill_train:
        train = _read_pairs(cfg.ill_train, g, g2)
        valid = _read_pairs(cfg.ill_valid, g, g2)
        test = _read_pairs(cfg.ill_test, g, g2)
    else:
        train, valid, test = split_ills(_read_pairs(cfg.ill, g, g2), rng_seed=cfg.rng_seed)

    seeds = build_initial_seeds(g, g2, train)
    valid_ids = _resolve_pairs(g, g2, valid)
    test_ids = _resolve_pairs(g, g2, test)

    result = run_pipeline(g, g2, seeds, cfg.settings(), merge_mode=cfg.merge_mode,
                          max_iterations=cfg.max_iterations, valid_pairs=valid_ids)
    LOG.info("pipeline %s after %d iteration(s)",
             "converged" if result.converged else "was truncated", len(result.records))

    write_iteration_log(result, out / "iterations.jsonl")
    write_alignment_dump(result.store, g, g2, out / "alignments.tsv")
    if result.embeddings is not None:
        table = result.embeddings
        export_embeddings(table.ent, g.ent_labels + g2.ent_labels, out / "ent_embeddings.tsv")
        export_embeddings(table.rel, g.rel_labels + g2.rel_labels, out / "rel_embeddings.tsv")

    reports = []
    if result.s_attr is not None:
        reports.append(evaluate(result.s_attr, test_ids, cfg.eval_ks))
    if result.s_rel is not None:
        reports.append(evaluate(result.s_rel, test_ids, cfg.eval_ks))
    reports.append(evaluate(result.merged_scores(), test_ids, cfg.eval_ks, source="merged"))

    if cfg.dump_matrices:
        if result.s_attr is not None:
            write_similarity_dump(result.s_attr, out / "s_attr.bin")
        if result.s_rel is not None:
            write_similarity_dump(result.s_rel, out / "s_rel.bin")
        write_similarity_dump(SimilarityMatrix(result.merged_scores(), "merged"),
                              out / "s_merged.bin")

    payload = {
        "converged": result.converged,
        "truncated": result.truncated,
        "iterations": len(result.records),
        "alignments": {"ent": len(result.store.ent_pairs), "rel": len(result.store.rel_pairs),
                       "attr": len(result.store.attr_pairs), "val": len(result.store.val_pairs)},
        "reports": [json.loads(r.to_json()) for r in reports],
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_gen(args) -> int:
    spec = SynthSpec(n_entities=args.entities, n_relations=args.relations,
                     n_attributes=args.attributes, rel_density=args.rel_density,
                     attr_per_entity=args.attr_per_entity,
                     dictionary_size=args.dictionary_size, drop_prob=args.drop_prob,
                     seed_fraction=args.seed_fraction, rng_seed=args.seed)
    result = generate_synth(spec)
    files = write_dataset(result, args.out)
    summary = {
        "files": files,
        "entities": [result.left.num_entities, result.right.num_entities],
        "rel_triples": [len(result.left.rel_triples), len(result.right.rel_triples)],
        "attr_triples": [len(result.left.attr_triples), len(result.right.attr_triples)],
        "ills": {"train": len(result.ill_train), "valid": len(result.ill_valid),
                 "test": len(result.ill_test)},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    scores = read_similarity_dump(args.matrix)
    pairs = []
    for lineno, left, right in _pair_lines(args.test):
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(args.test, lineno,
                             f"expected integer ids, got {left!r}, {right!r}") from None
    ks = tuple(int(x) for x in args.ks.split(",") if x.strip())
    report = evaluate(scores, pairs, ks, source=args.source)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgalign",
                                     description="Cross-lingual knowledge-graph alignment")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="run the full alignment pipeline")
    p_align.add_argument("--config", help="INI config file")
    p_align.add_argument("--merge", dest="merge_mode", choices=MERGE_MODES)
    p_align.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_align.add_argument("--views", choices=("both", "attr", "rel"))
    p_align.add_argument("--out", dest="out_dir")
    p_align.add_argument("--seed", dest="rng_seed", type=int)
    p_align.add_argument("--threads", dest="workers", type=int)
    p_align.set_defaults(func=cmd_align)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out", default="synth")
    p_gen.add_argument("--entities", type=int, default=200)
    p_gen.add_argument("--relations", type=int, default=8)
    p_gen.add_argument("--attributes", type=int, default=6)
    p_gen.add_argument("--rel-density", type=float, default=2.0)
    p_gen.add_argument("--attr-per-entity", type=float, default=4.0)
    p_gen.add_argument("--dictionary-size", type=int, default=60)
    p_gen.add_argument("--drop-prob", type=float, default=0.0)
    p_gen.add_argument("--seed-fraction", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="score a similarity dump against test pairs")
    p_eval.add_argument("--matrix", required=True, help="binary similarity dump")
    p_eval.add_argument("--test", required=True, help="row<TAB>col index pairs")
    p_eval.add_argument("--ks", default="1,10")
    p_eval.add_argument("--source", default="merged")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, KeyError) as exc:
        LOG.error("%s", exc)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        LOG.exception("runtime failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
