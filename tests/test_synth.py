"""Synthetic graph-pair generator and its ground truth."""

import hashlib

import numpy as np
import pytest

from kgalign.synth import SynthSpec, generate_synth, write_dataset


class TestGenerateSynth:
    def test_isomorphic_at_zero_drop(self):
        res = generate_synth(SynthSpec(n_entities=30, drop_prob=0.0, rng_seed=1))
        left, right = res.left, res.right
        assert left.num_entities == right.num_entities
        assert len(left.rel_triples) == len(right.rel_triples)
        assert len(left.attr_triples) == len(right.attr_triples)
        ent_map = dict(res.truth.ent_pairs)
        rel_map = dict(res.truth.rel_pairs)
        right_triples = set(right.rel_triples)
        for h, r, t in left.rel_triples:
            assert (ent_map[h], rel_map[r], ent_map[t]) in right_triples

    def test_dictionary_is_bijective_and_round_trips(self):
        res = generate_synth(SynthSpec(n_entities=20, rng_seed=2))
        assert len(set(res.dictionary.values())) == len(res.dictionary)
        inverse = {v: k for k, v in res.dictionary.items()}
        for source, target in res.dictionary.items():
            assert inverse[target] == source

    def test_deterministic(self):
        spec = SynthSpec(n_entities=40, drop_prob=0.2, rng_seed=7)
        a = generate_synth(spec)
        b = generate_synth(spec)
        assert a.left.ent_labels == b.left.ent_labels
        assert a.left.rel_triples == b.left.rel_triples
        assert a.left.attr_triples == b.left.attr_triples
        assert a.right.attr_triples == b.right.attr_triples
        assert a.ill_train == b.ill_train
        assert a.dictionary == b.dictionary

    def test_unique_name_value_per_entity(self):
        res = generate_synth(SynthSpec(n_entities=25, rng_seed=3))
        name_attr = res.left.attr_labels.index("name")
        values = [v.raw for e in range(res.left.num_entities)
                  for _, a, v in res.left.attributes_of(e) if a == name_attr]
        assert len(values) == 25
        assert len(set(values)) == 25

    def test_value_truth_reachable_from_entity_and_attribute_truth(self):
        res = generate_synth(SynthSpec(n_entities=25, drop_prob=0.3, rng_seed=4))
        ent_map = dict(res.truth.ent_pairs)
        attr_map = dict(res.truth.attr_pairs)
        reachable = set()
        for left_ent, right_ent in res.truth.ent_pairs:
            for _, attr, value in res.left.attributes_of(left_ent):
                counterpart = attr_map.get(attr)
                if counterpart is None:
                    continue
                for _, attr2, value2 in res.right.attributes_of(right_ent):
                    if attr2 == counterpart:
                        reachable.add((value, value2))
        assert res.truth.val_pairs <= reachable

    def test_drop_prob_thins_non_name_triples(self):
        spec = SynthSpec(n_entities=120, drop_prob=0.3, rng_seed=5)
        res = generate_synth(spec)
        n = spec.n_entities
        non_name_left = len(res.left.attr_triples) - n
        non_name_right = len(res.right.attr_triples) - n
        # binomial 3-sigma bound around the 0.7 retention rate
        expected = 0.7 * non_name_left
        sigma = np.sqrt(non_name_left * 0.3 * 0.7)
        assert abs(non_name_right - expected) <= 3 * sigma
        # name triples are never dropped
        name_attr = res.right.attr_labels.index("name")
        assert sum(1 for _, a, _ in res.right.attr_triples if a == name_attr) == n

    def test_split_respects_seed_fraction(self):
        res = generate_synth(SynthSpec(n_entities=100, seed_fraction=0.3, rng_seed=6))
        assert len(res.ill_train) == 30
        assert len(res.ill_valid) == round(70 / 11)
        assert len(res.ill_train) + len(res.ill_valid) + len(res.ill_test) == 100
        combined = set(res.all_ills())
        assert len(combined) == 100

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(drop_prob=1.0)
        with pytest.raises(ValueError):
            SynthSpec(seed_fraction=0.0)
        with pytest.raises(ValueError):
            SynthSpec(n_entities=1)


class TestWriteDataset:
    def test_five_files_and_counts(self, tmp_path):
        res = generate_synth(SynthSpec(n_entities=20, rng_seed=8))
        files = write_dataset(res, tmp_path)
        assert len(files) == 5
        lines = {p: len((tmp_path / p).read_text().splitlines())
                 for p in ("rel_triples_1", "attr_triples_1", "rel_triples_2",
                           "attr_triples_2", "ill_ent_pairs")}
        assert lines["rel_triples_1"] == len(res.left.rel_triples)
        assert lines["attr_triples_1"] == len(res.left.attr_triples)
        assert lines["rel_triples_2"] == len(res.right.rel_triples)
        assert lines["attr_triples_2"] == len(res.right.attr_triples)
        assert lines["ill_ent_pairs"] == 20

    def test_round_trip_through_loader(self, tmp_path):
        from kgalign.kg import load_graph
        res = generate_synth(SynthSpec(n_entities=15, rng_seed=9))
        write_dataset(res, tmp_path)
        g = load_graph(tmp_path / "rel_triples_1", tmp_path / "attr_triples_1")
        assert g.num_entities == res.left.num_entities
        assert len(g.rel_triples) == len(res.left.rel_triples)
        assert len(g.attr_triples) == len(res.left.attr_triples)

    @pytest.mark.parametrize("spec, digest", [
        (SynthSpec(n_entities=300, drop_prob=0.3, rng_seed=5),
         "b4004ca75e5d5f28a0b1d9de98c6fde86406fe0fad917bb4d743a8dffbcb4e33"),
        # the right graph keeps only 5 of the 12 relations
        (SynthSpec(n_entities=40, n_relations=12, drop_prob=0.95, rng_seed=2),
         "6b43e01fefa69eb728ae25eb327b66de17e4e172a28f075f30dc3ed029ea071f"),
    ])
    def test_frozen_bytes(self, tmp_path, spec, digest):
        # every file, its name included, in sorted order
        write_dataset(generate_synth(spec), tmp_path)
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
        assert h.hexdigest() == digest
