"""Subcommand behavior, config round-trips, and end-to-end determinism."""

import dataclasses
import json

import numpy as np
import pytest

from kgalign import cli
from kgalign.attribute_model import SimilarityMatrix, write_similarity_dump
from kgalign.synth import SynthSpec, generate_synth, write_dataset


def gen_args(out, seed=0, entities=60, drop=0.0):
    return ["gen", "--out", str(out), "--entities", str(entities),
            "--drop-prob", str(drop), "--seed", str(seed)]


def config_for(data_dir, out_dir, **overrides):
    cfg = cli.PipelineConfig(
        rel_1=str(data_dir / "rel_triples_1"), attr_1=str(data_dir / "attr_triples_1"),
        rel_2=str(data_dir / "rel_triples_2"), attr_2=str(data_dir / "attr_triples_2"),
        ill_train=str(data_dir / "ill_train"), ill_valid=str(data_dir / "ill_valid"),
        ill_test=str(data_dir / "ill_test"),
        value_dim=40, m_slots=10, min_count=5, em_iterations=10,
        dim=32, epochs=40, max_iterations=5, out_dir=str(out_dir))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestGen:
    def test_creates_five_dataset_files(self, tmp_path, capsys):
        assert cli.main(gen_args(tmp_path / "d")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["files"]) == 5
        for path in summary["files"]:
            lines = open(path, encoding="utf-8").read().splitlines()
            assert len(lines) > 0
        assert summary["rel_triples"][0] == len(
            open(summary["files"][0], encoding="utf-8").read().splitlines())

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        cli.main(gen_args(tmp_path / "a", seed=3))
        cli.main(gen_args(tmp_path / "b", seed=3))
        capsys.readouterr()
        for name in ("rel_triples_1", "attr_triples_1", "rel_triples_2",
                     "attr_triples_2", "ill_ent_pairs"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_drop_prob_within_binomial_bound(self, tmp_path, capsys):
        cli.main(gen_args(tmp_path / "full", seed=5, entities=120, drop=0.0))
        cli.main(gen_args(tmp_path / "thin", seed=5, entities=120, drop=0.3))
        capsys.readouterr()
        full = len((tmp_path / "full" / "attr_triples_2").read_text().splitlines()) - 120
        thin = len((tmp_path / "thin" / "attr_triples_2").read_text().splitlines()) - 120
        sigma = np.sqrt(full * 0.3 * 0.7)
        assert abs(thin - 0.7 * full) <= 3 * sigma

    def test_invalid_spec_exits_two(self, tmp_path):
        assert cli.main(gen_args(tmp_path / "x", drop=1.5)) == 2


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    res = generate_synth(SynthSpec(n_entities=60, drop_prob=0.0, rng_seed=11))
    write_dataset(res, root)
    return root


class TestAlign:
    def test_forced_optimum_exit_zero_hr1(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out")
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        payload = json.loads(capsys.readouterr().out)
        merged = [r for r in payload["reports"] if r["source"] == "merged"][0]
        assert merged["hr"]["1"] == 1.0
        assert (tmp_path / "out" / "alignments.tsv").is_file()
        assert (tmp_path / "out" / "iterations.jsonl").is_file()
        assert (tmp_path / "out" / "report.json").is_file()

    def test_unsplit_ill_file_is_divided(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out")
        cfg.ill_train = cfg.ill_valid = cfg.ill_test = ""
        cfg.ill = str(dataset / "ill_ent_pairs")
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 60 links split 4:1:10 -> 16 train, 4 valid, 40 test
        assert payload["reports"][0]["n_test"] == 40

    def test_missing_triple_file_exit_two(self, dataset, tmp_path, caplog):
        cfg = config_for(dataset, tmp_path / "out")
        cfg.rel_1 = str(tmp_path / "nowhere.tsv")
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert "nowhere.tsv" in caplog.text

    def test_malformed_ill_line_exit_two_with_location(self, dataset, tmp_path, caplog):
        bad = tmp_path / "ill_valid"
        lines = (dataset / "ill_valid").read_text(encoding="utf-8").splitlines()
        bad.write_text(lines[0] + "\n" + lines[1].replace("\t", " ") + "\n", encoding="utf-8")
        cfg = config_for(dataset, tmp_path / "out", ill_valid=str(bad))
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{bad}:2: expected 2 tab-separated fields, got 1" in caplog.text

    @pytest.mark.parametrize("name", ["ill_train", "ill_valid", "ill_test", "ill_ent_pairs"])
    def test_unknown_ill_entity_exit_two_with_location(self, dataset, tmp_path, caplog, name):
        bad = tmp_path / name
        lines = (dataset / name).read_text(encoding="utf-8").splitlines()
        bad.write_text("\n".join(lines + ["nosuch\tf0"]) + "\n", encoding="utf-8")
        field = "ill" if name == "ill_ent_pairs" else name
        cfg = config_for(dataset, tmp_path / "out", **{field: str(bad)})
        if field == "ill":
            cfg.ill_train = cfg.ill_valid = cfg.ill_test = ""
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{bad}:{len(lines) + 1}: unknown left entity 'nosuch'" in caplog.text

    def test_identical_runs_identical_dumps(self, dataset, tmp_path, capsys):
        for name in ("a", "b"):
            cfg = config_for(dataset, tmp_path / name)
            cfg.to_file(tmp_path / f"{name}.ini")
            assert cli.main(["align", "--config", str(tmp_path / f"{name}.ini")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "a" / "alignments.tsv").read_bytes()
                == (tmp_path / "b" / "alignments.tsv").read_bytes())

    def test_dumped_matrix_feeds_eval_subcommand(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out", dump_matrices=True)
        cfg.to_file(tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        align_payload = json.loads(capsys.readouterr().out)
        merged = [r for r in align_payload["reports"] if r["source"] == "merged"][0]
        # rebuild the test index pairs the same way align resolved them
        from kgalign.kg import load_graph
        g = load_graph(dataset / "rel_triples_1", dataset / "attr_triples_1")
        g2 = load_graph(dataset / "rel_triples_2", dataset / "attr_triples_2")
        rows = []
        for line in (dataset / "ill_test").read_text().splitlines():
            a, b = line.split("\t")
            rows.append(f"{g.entity_id(a)}\t{g2.entity_id(b)}")
        (tmp_path / "test_idx.tsv").write_text("".join(r + "\n" for r in rows))
        assert cli.main(["eval", "--matrix", str(tmp_path / "out" / "s_merged.bin"),
                         "--test", str(tmp_path / "test_idx.tsv")]) == 0
        eval_payload = json.loads(capsys.readouterr().out)
        # float32 round trip keeps the ranking, hence identical HR@1
        assert eval_payload["hr"]["1"] == merged["hr"]["1"]

    def test_merge_modes_diverge_on_conflict_fixture(self, tmp_path, capsys):
        data = tmp_path / "conflict"
        res = generate_synth(SynthSpec(n_entities=50, drop_prob=0.35, rng_seed=22))
        write_dataset(res, data)
        dumps = {}
        for mode in ("M1", "M3"):
            cfg = config_for(data, tmp_path / mode, epochs=30, dim=24,
                             value_dim=32, m_slots=8, min_count=3, max_iterations=4)
            cfg.to_file(tmp_path / f"{mode}.ini")
            assert cli.main(["align", "--config", str(tmp_path / f"{mode}.ini"),
                             "--merge", mode]) == 0
            dumps[mode] = (tmp_path / mode / "alignments.tsv").read_text()
        capsys.readouterr()
        assert dumps["M1"] != dumps["M3"]


class TestEval:
    def test_identity_matrix(self, tmp_path, capsys):
        write_similarity_dump(SimilarityMatrix(np.eye(4), "merged"), tmp_path / "s.bin")
        (tmp_path / "test.tsv").write_text("0\t0\n1\t1\n2\t2\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "test.tsv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hr"]["1"] == 1.0

    def test_k_list_controls_report_keys(self, tmp_path, capsys):
        write_similarity_dump(SimilarityMatrix(np.eye(4), "merged"), tmp_path / "s.bin")
        (tmp_path / "test.tsv").write_text("0\t0\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "test.tsv"), "--ks", "1,10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["hr"]) == {"1", "10"}

    def test_matches_in_process_evaluation(self, tmp_path, capsys):
        from kgalign.metrics import evaluate
        rng = np.random.default_rng(31)
        scores = rng.random((5, 5)).astype(np.float32).astype(np.float64)
        write_similarity_dump(SimilarityMatrix(scores, "merged"), tmp_path / "s.bin")
        pairs = [(i, int(rng.integers(0, 5))) for i in range(5)]
        (tmp_path / "t.tsv").write_text("".join(f"{m}\t{n}\n" for m, n in pairs))
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = evaluate(scores, pairs, ks=(1, 10))
        assert payload["hr"]["1"] == pytest.approx(expected.hr[1])
        assert payload["mrr"] == pytest.approx(expected.mrr)

    @pytest.mark.parametrize("content, lineno", [("0\t0\n\n1\t1\t1\n", 3),
                                                  ("0\t0\nx\t1\n", 2)])
    def test_malformed_index_line_exit_two_with_location(self, tmp_path, caplog,
                                                         content, lineno):
        write_similarity_dump(SimilarityMatrix(np.eye(2), "merged"), tmp_path / "s.bin")
        (tmp_path / "t.tsv").write_text(content)
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv")]) == 2
        assert f"{tmp_path / 't.tsv'}:{lineno}:" in caplog.text

    def test_bad_dump_exit_two(self, tmp_path):
        (tmp_path / "s.bin").write_bytes(b"\x00\x01")
        (tmp_path / "t.tsv").write_text("0\t0\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv")]) == 2


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = cli.PipelineConfig(rel_1="a.tsv", attr_1="b.tsv", rel_2="c.tsv",
                                 attr_2="d.tsv", ill="ills.tsv", tau_e_attr=1.25,
                                 learning_rate=0.015, retrain_translator=False,
                                 eval_ks=(1, 5, 10), merge_mode="M2")
        cfg.to_file(tmp_path / "c.ini")
        loaded = cli.PipelineConfig.from_file(tmp_path / "c.ini")
        assert dataclasses.asdict(loaded) == dataclasses.asdict(cfg)
        loaded.to_file(tmp_path / "c2.ini")
        assert (tmp_path / "c.ini").read_text() == (tmp_path / "c2.ini").read_text()

    def test_missing_config_file_exit_two(self, tmp_path):
        assert cli.main(["align", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_none_threshold_round_trips(self, tmp_path):
        cfg = cli.PipelineConfig(tau_e_attr=None)
        cfg.to_file(tmp_path / "c.ini")
        assert cli.PipelineConfig.from_file(tmp_path / "c.ini").tau_e_attr is None
