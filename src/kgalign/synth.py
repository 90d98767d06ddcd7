"""Synthetic cross-lingual graph pairs with complete ground truth.

The generator plants a bijective token dictionary, builds one graph with
Zipf-distributed token values plus a unique per-entity name value, and
derives the second graph by translating every token, renaming entities, and
optionally dropping non-name triples.  Relation and attribute surface names
are kept identical on both sides, mirroring datasets where those labels are
shared across languages, so same-name seeding has something to work with.
The unique name attribute makes the optimum identifiable when nothing is
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kg import PROV_SEED, AlignmentStore, KnowledgeGraph, ValueText, write_rows

NAME_ATTRIBUTE = "name"


@dataclass(frozen=True)
class SynthSpec:
    n_entities: int = 200
    n_relations: int = 8
    n_attributes: int = 8        # non-name attributes
    rel_density: float = 2.0     # relationship triples per entity
    attr_per_entity: float = 4.0  # mean distinct non-name attributes per entity
    dictionary_size: int = 60    # token vocabulary for attribute values
    drop_prob: float = 0.0
    seed_fraction: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_entities < 2 or self.n_relations < 1 or self.n_attributes < 1:
            raise ValueError("entity/relation/attribute counts too small")
        if self.rel_density <= 0 or self.attr_per_entity <= 0:
            raise ValueError("densities must be positive")
        if self.dictionary_size < 1:
            raise ValueError("dictionary_size must be >= 1")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 < self.seed_fraction < 1.0:
            raise ValueError("seed_fraction must be in (0, 1)")


@dataclass
class SynthResult:
    left: KnowledgeGraph
    right: KnowledgeGraph
    truth: AlignmentStore
    dictionary: dict[str, str]
    ill_train: list[tuple[str, str]]
    ill_valid: list[tuple[str, str]]
    ill_test: list[tuple[str, str]]

    def all_ills(self) -> list[tuple[str, str]]:
        return self.ill_train + self.ill_valid + self.ill_test


def _zipf_probs(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1)
    return weights / weights.sum()


def generate_synth(spec: SynthSpec) -> SynthResult:
    """Deterministic graph pair, ground truth, and seed/valid/test split.

    ``seed_fraction`` of the entity links (at least one) becomes the seed
    split; the remainder is divided 1:10 between validation and test.
    """
    rng = np.random.default_rng(spec.rng_seed)
    vocab = [f"w{i}" for i in range(spec.dictionary_size)]
    token_probs = _zipf_probs(spec.dictionary_size)
    name_tokens = [f"n{i}" for i in range(spec.n_entities)]
    sources = vocab + name_tokens
    perm = rng.permutation(len(sources))
    dictionary = {sources[i]: f"z{perm[i]}" for i in range(len(sources))}

    ents_left = [f"e{i}" for i in range(spec.n_entities)]
    ents_right = [f"f{i}" for i in range(spec.n_entities)]
    rel_names = [f"rel{j}" for j in range(spec.n_relations)]
    attr_names = [NAME_ATTRIBUTE] + [f"attr{k}" for k in range(spec.n_attributes)]

    possible = spec.n_entities * (spec.n_entities - 1) * spec.n_relations
    n_rel_rows = min(int(round(spec.rel_density * spec.n_entities)), possible)
    rel_rows_left = []
    seen_rel = set()
    while len(rel_rows_left) < n_rel_rows:
        h = int(rng.integers(0, spec.n_entities))
        t = int(rng.integers(0, spec.n_entities))
        r = int(rng.integers(0, spec.n_relations))
        if h == t or (h, r, t) in seen_rel:
            continue
        seen_rel.add((h, r, t))
        rel_rows_left.append((h, r, t))

    attr_rows_left = []
    for e in range(spec.n_entities):
        attr_rows_left.append((e, 0, name_tokens[e]))
        n_attrs = min(spec.n_attributes, max(1, int(rng.poisson(spec.attr_per_entity))))
        chosen = rng.choice(spec.n_attributes, size=n_attrs, replace=False)
        for a in sorted(int(a) + 1 for a in chosen):
            length = int(rng.integers(2, 5))
            toks = rng.choice(spec.dictionary_size, size=length, p=token_probs)
            attr_rows_left.append((e, a, " ".join(vocab[i] for i in toks)))

    def translate_text(text: str) -> str:
        return " ".join(dictionary[tok] for tok in text.split(" "))

    rel_rows_right = []
    for h, r, t in rel_rows_left:
        if rng.random() < spec.drop_prob:
            continue
        rel_rows_right.append((h, r, t))

    attr_rows_right = []
    survived = []
    for e, a, text in attr_rows_left:
        if a != 0 and rng.random() < spec.drop_prob:
            continue
        translated = translate_text(text)
        attr_rows_right.append((e, a, translated))
        survived.append((text, translated))

    left = KnowledgeGraph(
        [(ents_left[h], rel_names[r], ents_left[t]) for h, r, t in rel_rows_left],
        [(ents_left[e], attr_names[a], text) for e, a, text in attr_rows_left],
    )
    right = KnowledgeGraph(
        [(ents_right[h], rel_names[r], ents_right[t]) for h, r, t in rel_rows_right],
        [(ents_right[e], attr_names[a], text) for e, a, text in attr_rows_right],
    )

    truth = AlignmentStore()
    for i in range(spec.n_entities):
        truth.add("ent", left.entity_id(ents_left[i]), right.entity_id(ents_right[i]), PROV_SEED)
    # a relation or attribute is its own counterpart when both graphs hold it
    for kind, labels, labels2 in (("rel", left.rel_labels, right.rel_labels),
                                  ("attr", left.attr_labels, right.attr_labels)):
        ids2 = {label: i for i, label in enumerate(labels2)}
        for i, label in enumerate(labels):
            if label in ids2:
                truth.add(kind, i, ids2[label], PROV_SEED)
    for text, translated in survived:
        truth.add_val_pair(ValueText.from_raw(text), ValueText.from_raw(translated), PROV_SEED)

    order = rng.permutation(spec.n_entities)
    n_train = max(1, int(round(spec.seed_fraction * spec.n_entities)))
    remainder = spec.n_entities - n_train
    n_valid = max(1, int(round(remainder / 11))) if remainder > 1 else 0
    links = [(ents_left[i], ents_right[i]) for i in order]
    return SynthResult(left, right, truth, dictionary,
                       links[:n_train],
                       links[n_train:n_train + n_valid],
                       links[n_train + n_valid:])


DATASET_FILES = ("rel_triples_1", "attr_triples_1", "rel_triples_2",
                 "attr_triples_2", "ill_ent_pairs")


def write_dataset(result: SynthResult, out_dir) -> list[str]:
    """Write the five dataset files plus ground-truth extras; returns the
    dataset file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    left, right = result.left, result.right
    files = {"ill_ent_pairs": result.all_ills(), "ill_train": result.ill_train,
             "ill_valid": result.ill_valid, "ill_test": result.ill_test,
             "truth_dictionary": sorted(result.dictionary.items()),
             "truth_attr_pairs": [(left.attr_labels[a], right.attr_labels[b])
                                  for a, b in sorted(result.truth.attr_pairs)],
             "truth_rel_pairs": [(left.rel_labels[a], right.rel_labels[b])
                                 for a, b in sorted(result.truth.rel_pairs)]}
    for side, g in (("1", left), ("2", right)):
        ents = g.ent_labels
        files[f"rel_triples_{side}"] = [(ents[h], g.rel_labels[r], ents[t])
                                        for h, r, t in g.rel_triples]
        files[f"attr_triples_{side}"] = [(ents[h], g.attr_labels[a], v.raw)
                                         for h, a, v in g.attr_triples]
    for name, rows in files.items():
        write_rows(out / name, rows)
    return [str(out / name) for name in DATASET_FILES]
