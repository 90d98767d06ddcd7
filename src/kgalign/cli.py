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
from dataclasses import dataclass, field
from pathlib import Path

from .attribute_model import read_similarity_dump, write_similarity_dump
from .kg import PROV_MERGED, ParseError, build_initial_seeds, load_graph, read_fields, read_lines
from .metrics import SimilarityMatrix, check_ks, evaluate, split_ills
from .pipeline import (
    MERGE_MODES,
    VIEW_MODES,
    PipelineSettings,
    Thresholds,
    check_thresholds,
    run_pipeline,
    write_alignment_dump,
    write_iteration_log,
)
from .relationship_model import TrainConfig, export_embeddings
from .synth import SynthSpec, generate_synth, write_dataset

LOG = logging.getLogger("kgalign")


class ConfigError(ValueError):
    pass


def _ini_error(path, exc: configparser.Error) -> str:
    """``path:line: reason`` for a config file that configparser refused."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{path}:{exc.lineno}: a key before any [section] header"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{path}:{exc.lineno}: section [{exc.section}] is repeated"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{path}:{exc.lineno}: key {exc.option!r} is repeated in [{exc.section}]"
    if isinstance(exc, configparser.ParsingError):
        lineno, line = exc.errors[0]
        return f"{path}:{lineno}: cannot parse {line}"
    return f"{path}: {exc}"


def _key(section: str, default):
    """A config field read from ``[section]`` of the INI file."""
    return field(default=default, metadata={"section": section})


@dataclass
class PipelineConfig:
    """Everything an ``align`` run needs, file-backed and overridable."""

    rel_1: str = _key("data", "")
    attr_1: str = _key("data", "")
    rel_2: str = _key("data", "")
    attr_2: str = _key("data", "")
    ill: str = _key("data", "")          # unsplit links; split 4:1:10 with rng_seed
    ill_train: str = _key("data", "")    # pre-split alternative to ill
    ill_valid: str = _key("data", "")
    ill_test: str = _key("data", "")
    value_dim: int = _key("model", 100)
    m_slots: int = _key("model", 20)
    min_count: int = _key("model", 50)
    em_iterations: int = _key("model", 10)
    dim: int = _key("model", 75)
    margin: float = _key("model", 1.0)
    learning_rate: float = _key("model", 0.01)
    epochs: int = _key("model", 100)
    negatives: int = _key("model", 5)
    batch_size: int = _key("model", 256)
    tau_v: float = _key("model", 0.8)
    tau_r: float = _key("model", 0.9)
    tau_e_attr: float | None = _key("model", None)
    tau_e_rel: float | None = _key("model", None)
    threshold_tuning: str = _key("model", "validation-sweep")
    merge_mode: str = _key("pipeline", "M3")
    max_iterations: int = _key("pipeline", 10)
    views: str = _key("pipeline", "both")
    retrain_translator: bool = _key("pipeline", True)
    rng_seed: int = _key("pipeline", 0)
    workers: int = _key("pipeline", 1)
    out_dir: str = _key("output", "out")
    eval_ks: tuple[int, ...] = _key("output", (1, 10))
    dump_matrices: bool = _key("output", False)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string("\n".join(line for _, line in read_lines(path)), source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        except ParseError as exc:  # a line that is not UTF-8
            raise ConfigError(str(exc)) from exc
        except configparser.Error as exc:
            raise ConfigError(_ini_error(path, exc)) from exc
        if parser.defaults():
            raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
        sections: dict[str, dict[str, str]] = {}
        for f in dataclasses.fields(cls):
            sections.setdefault(f.metadata["section"], {})[f.name] = f.type
        cfg = cls()
        for section in parser.sections():
            types = sections.get(section)
            if types is None:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for name in parser.options(section):
                if name not in types:
                    raise ConfigError(f"{path}: unknown key {name!r} in [{section}]")
                try:
                    setattr(cfg, name, _parse_value(types[name], parser.get(section, name)))
                except (ValueError, configparser.InterpolationError) as exc:
                    raw = parser.get(section, name, raw=True)
                    raise ConfigError(f"{path}: cannot parse {name}={raw!r}") from exc
        return cfg

    def validate(self) -> None:
        for name in ("rel_1", "attr_1", "rel_2", "attr_2"):
            value = getattr(self, name)
            if not value:
                raise ConfigError(f"config is missing required path {name!r}")
            if not Path(value).is_file():
                raise ConfigError(f"missing triple file: {value}")
        split = ("ill_train", "ill_valid", "ill_test")
        unset = [name for name in split if not getattr(self, name)]
        if unset and len(unset) < len(split):
            raise ConfigError("ill_train, ill_valid and ill_test are set together or not at "
                              f"all; missing {', '.join(map(repr, unset))}")
        if unset and not self.ill:
            raise ConfigError("config needs either 'ill' or all of ill_train/ill_valid/ill_test")
        if not unset and self.ill:
            raise ConfigError("config sets both 'ill' and ill_train/ill_valid/ill_test; "
                              "keep one of the two forms")
        for name in ("ill", "ill_train", "ill_valid", "ill_test"):
            value = getattr(self, name)
            if value and not Path(value).is_file():
                raise ConfigError(f"missing ILL file: {value}")
        if self.merge_mode not in MERGE_MODES:
            raise ConfigError(f"merge_mode must be one of {MERGE_MODES}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        out = Path(self.out_dir)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"out_dir {out}: {existing} exists and is not a directory")
        try:
            check_ks(self.eval_ks)
        except ValueError as exc:
            raise ConfigError(f"eval_ks: {exc}") from exc

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
            workers=self.workers,
        )


def _parse_value(ftype: str, raw: str):
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
        raise ValueError(f"not a boolean: {raw!r}")
    if ftype == "float | None":
        return None if raw.lower() in ("", "none", "auto") else float(raw)
    if ftype == "tuple[int, ...]":
        return tuple(int(x) for x in raw.split(",") if x.strip())
    return raw


def _read_pairs(path, g, g2, linked=None) -> list[tuple[str, str]]:
    """Entity label pairs of an ILL file, a repeated line kept once, in
    first-seen order; each label must name an entity of its graph and have
    one counterpart in the file.
    ``linked`` maps (side, label) to (counterpart, file) for the earlier files
    of one split; their entities must not recur here, and this file's join it."""
    pairs = []
    linked = {} if linked is None else linked  # a file of None means this file
    for lineno, (left, right) in read_fields(path, 2):
        for side, graph, label, other in (("left", g, left, right), ("right", g2, right, left)):
            if not graph.has_entity(label):
                raise ParseError(path, lineno, f"unknown {side} entity {label!r}")
            first, where = linked.setdefault((side, label), (other, None))
            if first != other or where is not None:
                where = "" if where is None else f" in {where}"
                raise ParseError(path, lineno, f"{side} entity {label!r} is already linked "
                                               f"to {first!r}{where}")
        pairs.append((left, right))
    linked.update({key: (other, where or path) for key, (other, where) in linked.items()})
    return list(dict.fromkeys(pairs))


def _resolve_pairs(g, g2, label_pairs):
    return [(g.entity_id(a), g2.entity_id(b)) for a, b in label_pairs]


def cmd_align(args) -> int:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    try:
        settings = cfg.settings()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    g = load_graph(cfg.rel_1, cfg.attr_1)
    g2 = load_graph(cfg.rel_2, cfg.attr_2)
    LOG.info("left graph: %d entities, %d relations, %d attributes",
             g.num_entities, g.num_relations, g.num_attributes)
    LOG.info("right graph: %d entities, %d relations, %d attributes",
             g2.num_entities, g2.num_relations, g2.num_attributes)

    if cfg.ill_train:
        linked: dict = {}
        train, valid, test = [_read_pairs(path, g, g2, linked)
                              for path in (cfg.ill_train, cfg.ill_valid, cfg.ill_test)]
        if not test:
            raise ConfigError(f"{cfg.ill_test}: no test links to evaluate")
    else:
        pairs = _read_pairs(cfg.ill, g, g2)
        try:
            train, valid, test = split_ills(pairs, rng_seed=cfg.rng_seed)
        except ValueError as exc:
            raise ConfigError(f"{cfg.ill}: {exc}") from exc
    try:
        check_thresholds(settings, valid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    seeds = build_initial_seeds(g, g2, train)
    valid_ids = _resolve_pairs(g, g2, valid)
    test_ids = _resolve_pairs(g, g2, test)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_pipeline(g, g2, seeds, settings, merge_mode=cfg.merge_mode,
                          max_iterations=cfg.max_iterations, valid_pairs=valid_ids)
    if result.converged:
        LOG.info("pipeline converged after %d iteration(s)", len(result.records))
    else:
        LOG.warning("pipeline was truncated at max_iterations after %d iteration(s)",
                    len(result.records))

    write_iteration_log(result, out / "iterations.jsonl")
    write_alignment_dump(result.store, g, g2, out / "alignments.tsv")
    if result.embeddings is not None:
        table = result.embeddings
        export_embeddings(table.ent, g.ent_labels + g2.ent_labels, out / "ent_embeddings.tsv")
        export_embeddings(table.rel, g.rel_labels + g2.rel_labels, out / "rel_embeddings.tsv")

    merged = SimilarityMatrix(result.merged_scores(), PROV_MERGED)
    reports = []
    for name, view in (("attr", result.s_attr), ("rel", result.s_rel), ("merged", merged)):
        if view is None:
            continue
        reports.append(evaluate(view, test_ids, cfg.eval_ks))
        if cfg.dump_matrices:
            write_similarity_dump(view.data, out / f"s_{name}.bin")

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
    try:
        spec = SynthSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SynthSpec)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    try:
        scores = read_similarity_dump(args.matrix)
        lines = list(read_fields(args.test, 2))
    except OSError as exc:  # a directory or an unreadable file: a usage error
        raise ConfigError(f"{exc.filename}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n, n2 = scores.shape
    pairs = []
    for lineno, (left, right) in lines:
        try:
            row, col = int(left), int(right)
        except ValueError:
            raise ParseError(args.test, lineno,
                             f"expected integer ids, got {left!r}, {right!r}") from None
        if not (0 <= row < n and 0 <= col < n2):
            raise ParseError(args.test, lineno, f"ids {row}, {col} outside the {n} x {n2} matrix")
        pairs.append((row, col))
    try:
        ks = tuple(int(x) for x in args.ks.split(",") if x.strip())
        report = evaluate(scores, pairs, ks, source=args.source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    p_align.add_argument("--views", choices=VIEW_MODES)
    p_align.add_argument("--out", dest="out_dir")
    p_align.add_argument("--seed", dest="rng_seed", type=int)
    p_align.add_argument("--threads", dest="workers", type=int)
    p_align.set_defaults(func=cmd_align)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out", default="synth")
    for flag, name in (("--entities", "n_entities"), ("--relations", "n_relations"),
                       ("--attributes", "n_attributes"), ("--rel-density", "rel_density"),
                       ("--attr-per-entity", "attr_per_entity"),
                       ("--dictionary-size", "dictionary_size"), ("--drop-prob", "drop_prob"),
                       ("--seed-fraction", "seed_fraction"), ("--seed", "rng_seed")):
        default = getattr(SynthSpec, name)
        p_gen.add_argument(flag, dest=name, type=type(default), default=default)
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
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        LOG.error("%s", exc)
        return 2
    except Exception as exc:
        LOG.exception("runtime failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
