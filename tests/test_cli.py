"""Subcommand behavior, config round-trips, and end-to-end determinism."""

import configparser
import dataclasses
import json
import logging
import re

import numpy as np
import pytest

from kgalign import cli
from kgalign.attribute_model import write_similarity_dump
from kgalign.kg import KnowledgeGraph, ParseError
from kgalign.metrics import split_ills
from kgalign.pipeline import PipelineSettings, Thresholds
from kgalign.synth import SynthSpec, generate_synth, write_dataset


def gen_args(out, seed=0, entities=60, drop=0.0):
    return ["gen", "--out", str(out), "--entities", str(entities),
            "--drop-prob", str(drop), "--seed", str(seed)]


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


def write_config(cfg, path) -> None:
    """Write every field of ``cfg`` under its INI section."""
    parser = configparser.ConfigParser()
    for f in dataclasses.fields(cfg):
        section = f.metadata["section"]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, f.name, _format_value(getattr(cfg, f.name)))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


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

    def test_defaults_write_the_default_spec(self, tmp_path, capsys):
        assert cli.main(["gen", "--out", str(tmp_path / "d")]) == 0
        write_dataset(generate_synth(SynthSpec()), tmp_path / "d2")
        written = sorted(path.name for path in (tmp_path / "d").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "d2").iterdir())
        for name in written:
            assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    res = generate_synth(SynthSpec(n_entities=60, drop_prob=0.0, rng_seed=11))
    write_dataset(res, root)
    return root


class TestAlign:
    def test_forced_optimum_exit_zero_hr1(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        payload = json.loads(capsys.readouterr().out)
        merged = [r for r in payload["reports"] if r["source"] == "merged"][0]
        assert merged["hr"]["1"] == 1.0
        assert (tmp_path / "out" / "alignments.tsv").is_file()
        assert (tmp_path / "out" / "iterations.jsonl").is_file()
        assert (tmp_path / "out" / "report.json").is_file()

    @pytest.mark.parametrize("max_iterations, level, word", [
        (1, logging.WARNING, "truncated"), (10, logging.INFO, "converged")])
    def test_truncated_run_logs_a_warning(self, dataset, tmp_path, caplog, capsys,
                                          max_iterations, level, word):
        cfg = config_for(dataset, tmp_path / "out", views="attr", max_iterations=max_iterations)
        write_config(cfg, tmp_path / "c.ini")
        with caplog.at_level(logging.INFO, logger="kgalign"):
            assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        capsys.readouterr()
        ends = [r for r in caplog.records if r.getMessage().startswith("pipeline ")]
        assert [(r.levelno, word in r.getMessage()) for r in ends] == [(level, True)]

    def test_unsplit_ill_file_is_divided(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out")
        cfg.ill_train = cfg.ill_valid = cfg.ill_test = ""
        cfg.ill = str(dataset / "ill_ent_pairs")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 60 links split 4:1:10 -> 16 train, 4 valid, 40 test
        assert payload["reports"][0]["n_test"] == 40

    def test_missing_triple_file_exit_two(self, dataset, tmp_path, caplog):
        cfg = config_for(dataset, tmp_path / "out")
        cfg.rel_1 = str(tmp_path / "nowhere.tsv")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert "nowhere.tsv" in caplog.text

    @pytest.mark.parametrize("views", ["both", "rel"])
    def test_fixed_tuning_without_view_threshold_exit_two(self, dataset, tmp_path, caplog,
                                                          views):
        cfg = config_for(dataset, tmp_path / "out", threshold_tuning="fixed",
                         tau_e_attr=0.5, views=views)
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert "tau_e_rel is unset" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("views", ["attr", "rel"])
    def test_sweep_without_validation_pairs_exit_two(self, dataset, tmp_path, caplog,
                                                     monkeypatch, views):
        def fail(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        (tmp_path / "ill_valid").write_bytes(b"")
        cfg = config_for(dataset, tmp_path / "out", ill_valid=str(tmp_path / "ill_valid"),
                         threshold_tuning="validation-sweep", views=views)
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"tau_e_{views} is unset" in caplog.text
        assert "0 validation pairs" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_empty_test_links_exit_two_before_pipeline(self, dataset, tmp_path, caplog,
                                                       monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        ill_test = tmp_path / "ill_test"
        ill_test.write_bytes(b"")
        cfg = config_for(dataset, tmp_path / "out", ill_test=str(ill_test), views="attr",
                         max_iterations=1)
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{ill_test}: no test links to evaluate" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["em_iterations", "max_iterations", "m_slots",
                                     "value_dim", "min_count"])
    def test_knob_below_one_exits_two_before_loading(self, dataset, tmp_path, caplog,
                                                     monkeypatch, key):
        def fail(*args, **kwargs):
            raise AssertionError("load_graph called")

        monkeypatch.setattr(cli, "load_graph", fail)
        cfg = config_for(dataset, tmp_path / "out", views="attr", **{key: 0})
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{key} must be >= 1, got 0" in caplog.text

    @pytest.mark.parametrize("eval_ks", [(), (0,), (1, -1)])
    def test_bad_eval_ks_exits_two_before_loading(self, dataset, tmp_path, caplog,
                                                  monkeypatch, eval_ks):
        def fail(*args, **kwargs):
            raise AssertionError("load_graph called")

        monkeypatch.setattr(cli, "load_graph", fail)
        cfg = config_for(dataset, tmp_path / "out", eval_ks=eval_ks)
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert "eval_ks: ks must be one or more integers >= 1" in caplog.text

    @pytest.mark.parametrize("unset", [("ill_valid", "ill_test"), ("ill_train",)])
    def test_partial_presplit_exits_two_before_loading(self, dataset, tmp_path, caplog,
                                                       monkeypatch, unset):
        def fail(*args, **kwargs):
            raise AssertionError("load_graph called")

        monkeypatch.setattr(cli, "load_graph", fail)
        cfg = config_for(dataset, tmp_path / "out", ill=str(dataset / "ill_ent_pairs"),
                         **{name: "" for name in unset})
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert ("ill_train, ill_valid and ill_test are set together or not at all; "
                f"missing {', '.join(map(repr, unset))}") in caplog.text

    def test_ill_and_presplit_together_exit_two_before_loading(self, dataset, tmp_path,
                                                                caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("load_graph called")

        monkeypatch.setattr(cli, "load_graph", fail)
        cfg = config_for(dataset, tmp_path / "out", ill=str(dataset / "ill_ent_pairs"))
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert ("config sets both 'ill' and ill_train/ill_valid/ill_test; "
                "keep one of the two forms") in caplog.text

    @pytest.mark.parametrize("links", ["presplit", "unsplit"])
    def test_negative_seed_exits_two_before_loading(self, dataset, tmp_path, caplog,
                                                   monkeypatch, links):
        def fail(*args, **kwargs):
            raise AssertionError("load_graph called")

        monkeypatch.setattr(cli, "load_graph", fail)
        cfg = config_for(dataset, tmp_path / "out")
        if links == "unsplit":
            cfg.ill, cfg.ill_train, cfg.ill_valid, cfg.ill_test = (
                str(dataset / "ill_ent_pairs"), "", "", "")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini"), "--seed", "-3"]) == 2
        assert "rng_seed must be >= 0" in caplog.text

    def test_zero_threads_exit_two(self, dataset, tmp_path, caplog):
        cfg = config_for(dataset, tmp_path / "out")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini"), "--threads", "0"]) == 2
        assert "workers must be >= 1" in caplog.text

    @pytest.mark.parametrize("name, field", [("attr_triples_1", "attr_1"),
                                             ("ill_train", "ill_train")])
    def test_non_utf8_line_exit_two_with_location(self, dataset, tmp_path, caplog, name,
                                                  field):
        bad = tmp_path / name
        data = (dataset / name).read_bytes()
        bad.write_bytes(data + b"\xff\xfe")
        cfg = config_for(dataset, tmp_path / "out", **{field: str(bad)})
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{bad}:{len(data.splitlines()) + 1}: not valid UTF-8" in caplog.text

    def test_runtime_error_in_pipeline_exit_one(self, dataset, tmp_path, caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        cfg = config_for(dataset, tmp_path / "out")
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 1
        assert "runtime failure: boom" in caplog.text

    def test_malformed_ill_line_exit_two_with_location(self, dataset, tmp_path, caplog):
        bad = tmp_path / "ill_valid"
        lines = (dataset / "ill_valid").read_text(encoding="utf-8").splitlines()
        bad.write_text(lines[0] + "\n" + lines[1].replace("\t", " ") + "\n", encoding="utf-8")
        cfg = config_for(dataset, tmp_path / "out", ill_valid=str(bad))
        write_config(cfg, tmp_path / "c.ini")
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
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert f"{bad}:{len(lines) + 1}: unknown left entity 'nosuch'" in caplog.text

    @pytest.mark.parametrize("name", ["ill_train", "ill_ent_pairs"])
    def test_link_file_not_one_to_one_exit_two_with_location(self, dataset, tmp_path, caplog,
                                                             name):
        bad = tmp_path / name
        lines = (dataset / name).read_text(encoding="utf-8").splitlines()
        left, right = lines[0].split("\t")
        other = lines[1].split("\t")[1]
        bad.write_text("\n".join(lines + [f"{left}\t{other}"]) + "\n", encoding="utf-8")
        field = "ill" if name == "ill_ent_pairs" else name
        cfg = config_for(dataset, tmp_path / "out", **{field: str(bad)})
        if field == "ill":
            cfg.ill_train = cfg.ill_valid = cfg.ill_test = ""
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert (f"{bad}:{len(lines) + 1}: left entity {left!r} is already linked "
                f"to {right!r}") in caplog.text

    @pytest.mark.parametrize("name", ["ill_train", "ill_valid"])
    def test_split_files_overlap_exit_two_before_pipeline(self, dataset, tmp_path, caplog,
                                                          monkeypatch, name):
        # A train line repeats the first test link, or a valid line ties its
        # left entity to another counterpart: either leaks test links.
        def fail(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        test_lines = (dataset / "ill_test").read_text(encoding="utf-8").splitlines()
        left, right = test_lines[0].split("\t")
        counterpart = right if name == "ill_train" else test_lines[1].split("\t")[1]
        bad = tmp_path / name
        bad.write_text((dataset / name).read_text(encoding="utf-8") + f"{left}\t{counterpart}\n",
                       encoding="utf-8")
        cfg = config_for(dataset, tmp_path / "out", **{name: str(bad)})
        write_config(cfg, tmp_path / "c.ini")
        assert cli.main(["align", "--config", str(tmp_path / "c.ini")]) == 2
        assert (f"{dataset / 'ill_test'}:1: left entity {left!r} is already linked "
                f"to {counterpart!r} in {bad}") in caplog.text
        assert not (tmp_path / "out").exists()

    def test_identical_runs_identical_dumps(self, dataset, tmp_path, capsys):
        for name in ("a", "b"):
            cfg = config_for(dataset, tmp_path / name)
            write_config(cfg, tmp_path / f"{name}.ini")
            assert cli.main(["align", "--config", str(tmp_path / f"{name}.ini")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "a" / "alignments.tsv").read_bytes()
                == (tmp_path / "b" / "alignments.tsv").read_bytes())

    def test_dumped_matrix_feeds_eval_subcommand(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "out", dump_matrices=True)
        write_config(cfg, tmp_path / "c.ini")
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
        for view in ("attr", "rel", "merged"):
            assert (tmp_path / "out" / f"s_{view}.bin").is_file()
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
            write_config(cfg, tmp_path / f"{mode}.ini")
            assert cli.main(["align", "--config", str(tmp_path / f"{mode}.ini"),
                             "--merge", mode]) == 0
            dumps[mode] = (tmp_path / mode / "alignments.tsv").read_text()
        capsys.readouterr()
        assert dumps["M1"] != dumps["M3"]


class TestReadPairs:
    def graphs(self):
        return (KnowledgeGraph([("e0", "r", "e1")], []), KnowledgeGraph([("f0", "r", "f1")], []))

    def test_repeated_line_accepted(self, tmp_path):
        path = tmp_path / "ill"
        path.write_text("e0\tf0\ne1\tf1\ne0\tf0\n", encoding="utf-8")
        assert cli._read_pairs(path, *self.graphs()) == [("e0", "f0"), ("e1", "f1")]

    def test_repeated_lines_stay_on_one_side_of_the_split(self, tmp_path):
        # Kept twice, a repeated link is permuted as two links, and its
        # copies can land in train and in test.
        g = KnowledgeGraph([(f"e{i}", "r", f"e{i + 1}") for i in range(30)], [])
        g2 = KnowledgeGraph([(f"f{i}", "r", f"f{i + 1}") for i in range(30)], [])
        links = [f"e{i}\tf{i}\n" for i in range(30)]
        path = tmp_path / "ill"
        path.write_text("".join(links[:10] + links), encoding="utf-8")
        train, valid, test = split_ills(cli._read_pairs(path, g, g2), rng_seed=0)
        assert sorted(train + valid + test) == sorted((f"e{i}", f"f{i}") for i in range(30))
        assert (len(train), len(valid), len(test)) == (8, 2, 20)

    def test_right_entity_linked_twice(self, tmp_path):
        path = tmp_path / "ill"
        path.write_text("e0\tf0\n\ne1\tf0\n", encoding="utf-8")
        message = f"{path}:3: right entity 'f0' is already linked to 'e0'"
        with pytest.raises(ParseError, match=re.escape(message)):
            cli._read_pairs(path, *self.graphs())


class TestEval:
    def test_identity_matrix(self, tmp_path, capsys):
        write_similarity_dump(np.eye(4), tmp_path / "s.bin")
        (tmp_path / "test.tsv").write_text("0\t0\n1\t1\n2\t2\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "test.tsv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hr"]["1"] == 1.0

    def test_k_list_controls_report_keys(self, tmp_path, capsys):
        write_similarity_dump(np.eye(4), tmp_path / "s.bin")
        (tmp_path / "test.tsv").write_text("0\t0\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "test.tsv"), "--ks", "1,10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["hr"]) == {"1", "10"}

    def test_matches_in_process_evaluation(self, tmp_path, capsys):
        from kgalign.metrics import evaluate
        rng = np.random.default_rng(31)
        scores = rng.random((5, 5)).astype(np.float32).astype(np.float64)
        write_similarity_dump(scores, tmp_path / "s.bin")
        pairs = [(i, int(rng.integers(0, 5))) for i in range(5)]
        (tmp_path / "t.tsv").write_text("".join(f"{m}\t{n}\n" for m, n in pairs))
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = evaluate(scores, pairs, ks=(1, 10))
        assert payload["hr"]["1"] == pytest.approx(expected.hr[1])
        assert payload["mrr"] == pytest.approx(expected.mrr)

    @pytest.mark.parametrize("content, lineno", [("0\t0\n\n1\t1\t1\n", 3),
                                                  ("0\t0\nx\t1\n", 2),
                                                  ("0\t0\n\n5\t1\n", 3),
                                                  ("0\t-1\n", 1)])
    def test_malformed_index_line_exit_two_with_location(self, tmp_path, caplog,
                                                         content, lineno):
        write_similarity_dump(np.eye(2), tmp_path / "s.bin")
        (tmp_path / "t.tsv").write_text(content)
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv")]) == 2
        assert f"{tmp_path / 't.tsv'}:{lineno}:" in caplog.text

    @pytest.mark.parametrize("ks", ["0", "", "1,0"])
    def test_empty_or_nonpositive_ks_exit_two(self, tmp_path, capsys, caplog, ks):
        write_similarity_dump(np.eye(2), tmp_path / "s.bin")
        (tmp_path / "t.tsv").write_text("0\t0\n")
        assert cli.main(["eval", "--matrix", str(tmp_path / "s.bin"),
                         "--test", str(tmp_path / "t.tsv"), "--ks", ks]) == 2
        assert capsys.readouterr().out == ""
        assert "ks must be one or more integers >= 1" in caplog.text

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
        write_config(cfg, tmp_path / "c.ini")
        loaded = cli.PipelineConfig.from_file(tmp_path / "c.ini")
        assert dataclasses.asdict(loaded) == dataclasses.asdict(cfg)
        write_config(loaded, tmp_path / "c2.ini")
        assert (tmp_path / "c.ini").read_text() == (tmp_path / "c2.ini").read_text()

    def test_defaults_map_to_pipeline_defaults(self):
        # threshold_tuning is the one default that differs, on purpose.
        assert cli.PipelineConfig().settings() == PipelineSettings(
            thresholds=Thresholds(tuning="validation-sweep"))

    def test_missing_config_file_exit_two(self, tmp_path):
        assert cli.main(["align", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_none_threshold_round_trips(self, tmp_path):
        cfg = cli.PipelineConfig(tau_e_attr=None)
        write_config(cfg, tmp_path / "c.ini")
        assert cli.PipelineConfig.from_file(tmp_path / "c.ini").tau_e_attr is None

    @pytest.mark.parametrize("text, message", [
        ("[model]\ntau_vv = 0.1\n", "unknown key 'tau_vv' in [model]"),
        ("[modle]\ntau_v = 0.1\n", "unknown section [modle]"),
        ("[DEFAULT]\ntau_v = 0.1\n", "unknown section [DEFAULT]"),
        ("[pipeline]\nblock_size = 64\n", "unknown key 'block_size' in [pipeline]"),
        ("[data]\ntau_v = 0.1\n", "unknown key 'tau_v' in [data]"),
    ], ids=["misspelled_key", "unknown_section", "default_section", "removed_block_size",
            "wrong_section"])
    def test_unknown_or_removed_key_exit_two(self, tmp_path, caplog, text, message):
        path = tmp_path / "c.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.PipelineConfig.from_file(path)
        assert cli.main(["align", "--config", str(path)]) == 2
        assert f"{path}: {message}" in caplog.text
