import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tableroute
from tableroute import cli, fileio, runconfig
from tableroute.cli import main
from tableroute.errors import ConfigError, ConnectionFailedError
from tableroute.gate import init_gate, save_checkpoint
from tableroute.runconfig import load_runconfig

from test_gate import (
    write_hand_built_checkpoint,
    write_legacy_checkpoint,
    write_non_utf8_metadata_checkpoint,
)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TABLEROUTE_CONFIG", raising=False)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def make_corpus(workdir, n=120, all_tags=False, seed=3):
    raw = workdir / "raw.jsonl"
    args = ["make-synthetic", "--out", raw, "--n", n, "--seed", seed]
    if all_tags:
        args.append("--all-tags")
    assert run(*args) == 0
    corpus = workdir / "corpus"
    assert run("ingest", "--raw", raw, "--out", corpus, "--seed", seed) == 0
    return corpus


class TestRunConfig:
    def test_defaults_load(self):
        cfg = load_runconfig(None)
        assert cfg.seed == 0
        assert cfg.train_config().batch_size == 8

    def test_unknown_key_rejected_with_path(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"train": {"learning_rate": 1}}))
        with pytest.raises(ConfigError) as err:
            load_runconfig(bad)
        assert err.value.key == "train.learning_rate"

    def test_unknown_top_level_key(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"made_up": 1}))
        with pytest.raises(ConfigError) as err:
            load_runconfig(bad)
        assert err.value.key == "made_up"

    @pytest.mark.parametrize("content,key", [({"train": 5}, "train"), ([1], "")],
                             ids=["section", "root"])
    def test_value_where_an_object_belongs_rejected(self, workdir, content, key):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(content))
        with pytest.raises(ConfigError, match=f"config key {key or '<root>'} must be an object"):
            load_runconfig(bad)

    def test_missing_config_file_rejected(self, workdir):
        with pytest.raises(ConfigError, match="config file not found: missing.json"):
            load_runconfig("missing.json")

    def test_config_file_that_is_not_json_rejected(self, workdir):
        (workdir / "bad.json").write_text('{"seed": ')
        with pytest.raises(ConfigError, match="config file bad.json is not valid JSON"):
            load_runconfig("bad.json")

    def test_latency_jitter_equal_to_its_mean_rejected(self):
        # such a jitter could draw a latency of 0
        with pytest.raises(ConfigError) as err:
            load_runconfig(None, {"backends": {"text_gen_latency": [1.0, 1.0]}})
        assert err.value.key == "backends.text_gen_latency"

    def test_missing_corpus_dir_rejected(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"corpus_dir": "nope/does/not/exist"}))
        with pytest.raises(ConfigError):
            load_runconfig(bad)

    def test_config_error_keeps_its_message_and_key(self):
        err = ConfigError("seed must be an integer", "seed")
        assert (str(err), err.key) == ("seed must be an integer", "seed")

    def test_resource_weight_flag_sets_the_train_key(self):
        args = cli.build_parser().parse_args(["train", "--resource-weight", "0.5"])
        assert cli._resolve_config(args).train_config().resource_weight == 0.5

    def test_overrides_merge(self):
        cfg = load_runconfig(None, overrides={"train": {"resource_weight": 0.5}})
        assert cfg.train_config().resource_weight == 0.5
        assert cfg.train_config().batch_size == 8


class TestExitCodes:
    def test_config_error_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"nonsense": True}))
        code = run("train", "--config", bad, "--run-dir", workdir / "r")
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, workdir, capsys):
        corpus = make_corpus(workdir, n=40)
        code = run("route", "--corpus", corpus, "--checkpoint",
                   workdir / "missing.ckpt", "--id", "syn-000000")
        assert code in (1, 2)

    def test_non_utf8_checkpoint_metadata_exits_1(self, workdir, capsys):
        (workdir / "corpus").mkdir()
        write_non_utf8_metadata_checkpoint(workdir / "bad.ckpt")
        assert run("route", "--corpus", "corpus", "--checkpoint", workdir / "bad.ckpt",
                   "--id", "syn-000000") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CheckpointIntegrityError: ")
        assert str(workdir / "bad.ckpt") in err[0]

    def test_zero_dimension_checkpoint_exits_1(self, workdir, capsys):
        (workdir / "corpus").mkdir()
        write_hand_built_checkpoint(workdir / "zero.ckpt", (0, 0, 0))
        assert run("route", "--corpus", "corpus", "--checkpoint", workdir / "zero.ckpt",
                   "--id", "syn-000000") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: IncompatibleCheckpointError: checkpoint dims (0, 0, 0) "
                       "include a zero"]

    @pytest.mark.parametrize("argv,cls,name", [
        (["route", "--corpus", "corpus", "--checkpoint", "adir", "--id", "syn-000000"],
         "IsADirectoryError", "adir"),
        (["train", "--corpus", "corpus", "--run-dir", "afile"], "FileExistsError", "afile"),
        (["make-synthetic", "--out", "afile/x.jsonl", "--n", "2"], "FileExistsError", "afile"),
    ], ids=["checkpoint-is-a-directory", "run-dir-is-a-file", "out-under-a-file"])
    def test_os_error_exits_1_with_one_line(self, workdir, capsys, argv, cls, name):
        make_corpus(workdir, n=8)
        (workdir / "adir").mkdir()
        (workdir / "afile").write_text("kept")
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cls}: ")
        assert name in err[0]
        assert (workdir / "afile").read_text() == "kept"

    @pytest.mark.parametrize("argv,message", [
        (["train", "--run-dir", "run"],
         "no corpus_dir configured (pass --corpus or set it in the config) (key: corpus_dir)"),
        (["ingest", "--raw", "missing.jsonl", "--out", "corpus"],
         "raw corpus not found: missing.jsonl"),
        (["route", "--id", "syn-000000"], "pass --checkpoint <gate.ckpt>"),
        (["route", "--checkpoint", "missing.ckpt", "--id", "syn-000000"],
         "checkpoint not found: missing.ckpt"),
    ], ids=["no-corpus", "no-raw-file", "no-checkpoint-flag", "no-checkpoint-file"])
    def test_missing_input_exits_2_before_writing(self, workdir, capsys, argv, message):
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(workdir.iterdir()) == []

    def test_make_synthetic_of_no_records_exits_1(self, workdir, capsys):
        assert run("make-synthetic", "--out", workdir / "raw.jsonl", "--n", 0) == 1
        assert "n_examples must be > 0" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_env_var_config(self, workdir, monkeypatch, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"boom": 1}))
        monkeypatch.setenv("TABLEROUTE_CONFIG", str(bad))
        assert run("make-synthetic", "--out", workdir / "x.jsonl") == 2

    def test_ingest_logs_each_skip_on_stderr(self, workdir, capsys, monkeypatch):
        # `main` sets up logging itself; pytest's own root handlers are set
        # aside so that it can
        monkeypatch.setattr(logging.root, "handlers", [])
        monkeypatch.setattr(logging.root, "level", logging.WARNING)
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 10) == 0
        records = [json.loads(ln) for ln in raw.read_text().splitlines()]
        records[3]["gold_answer"] = ""
        raw.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus") == 0
        assert capsys.readouterr().err == (
            "WARNING tableroute.ingest: skipping syn-000003: missing field 'gold_answer'\n")

    def test_ingest_skip_rate_exits_1(self, workdir, capsys):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 4) == 0
        records = [json.loads(ln) for ln in raw.read_text().splitlines()]
        for rec in records[:3]:
            rec["gold_answer"] = ""
        raw.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = run("ingest", "--raw", raw, "--out", workdir / "corpus")
        assert code == 1
        assert "skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", [b'{"id": "syn-x", "dataset": ', b"[1, 2]",
                                          b'{"id": "syn-\xff"}'],
                             ids=["cut-json", "not-an-object", "not-utf8"])
    def test_ingest_bad_raw_line_exits_1(self, workdir, capsys, bad_line):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 4) == 0
        lines = raw.read_bytes().splitlines()
        lines.insert(2, bad_line)
        raw.write_bytes(b"\n".join(lines) + b"\n")
        code = run("ingest", "--raw", raw, "--out", workdir / "corpus")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IngestError: ")
        assert f"{raw}:3:" in err
        assert not (workdir / "corpus").exists()

    @pytest.mark.parametrize(
        "labels",
        [None, [1], ["x", 0, 0], "101", [1.7, 0, 0], [2, 0, 0], [-1, 0, 1], [True, 0, 0],
         [1.0, 0, 0]],
        ids=["null", "one-entry", "not-a-number", "string", "fraction", "two", "negative",
             "bool", "float"])
    def test_ingest_bad_path_labels_exits_1(self, workdir, capsys, labels):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 5) == 0
        records = [json.loads(ln) for ln in raw.read_text().splitlines()]
        records[1]["path_labels"] = labels
        raw.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = run("ingest", "--raw", raw, "--out", workdir / "corpus")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IngestError: ")
        assert f"record {records[1]['id']}: path_labels" in err
        assert not (workdir / "corpus").exists()

    def test_ingest_record_without_path_labels_is_one_skip(self, workdir, capsys, caplog):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 10) == 0
        records = [json.loads(ln) for ln in raw.read_text().splitlines()]
        unlabelled = records[1]["id"]
        del records[1]["path_labels"]
        raw.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus") == 0
        assert "(1 skipped)" in capsys.readouterr().out
        assert (f"skipping {unlabelled}: simulated text expert has no correctness label "
                f"for example {unlabelled!r}") in caplog.text
        stored = (workdir / "corpus" / "corpus.jsonl").read_text().splitlines()
        assert [json.loads(ln)["id"] for ln in stored] == [r["id"] for r in records
                                                           if r["id"] != unlabelled]
        # The same skip among 4 records is 25%, over the 20% threshold.
        raw.write_text("\n".join(json.dumps(r) for r in records[:4]) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus4") == 1
        assert "skipped 1 of 4 records" in capsys.readouterr().err

    @pytest.mark.parametrize("table", [{"cols": []}, "| a | b |", {"columns": ["a"], "rows": "1"}],
                             ids=["missing-key", "string-table", "string-rows"])
    def test_ingest_bad_table_is_one_skip(self, workdir, capsys, caplog, table):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 10) == 0
        records = [json.loads(ln) for ln in raw.read_text().splitlines()]
        records[1]["table"] = table
        raw.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus") == 0
        assert "(1 skipped)" in capsys.readouterr().out
        assert f"skipping {records[1]['id']}: field 'table'" in caplog.text
        assert len((workdir / "corpus" / "corpus.jsonl").read_text().splitlines()) == 9
        # The same skip among 4 records is 25%, over the 20% threshold.
        raw.write_text("\n".join(json.dumps(r) for r in records[:4]) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus4") == 1
        assert "skipped 1 of 4 records" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra,config,key", [
        ("sweep-lambda", ["--lambdas", "0,abc"], None, "sweep.resource_weights"),
        ("sweep-lambda", ["--lambdas", "0,-1"], None, "sweep.resource_weights"),
        ("sweep-lambda", ["--lambdas", "0,nan"], None, "sweep.resource_weights"),
        ("sweep-lambda", ["--lambdas", ""], None, "sweep.resource_weights"),
        ("sweep-lambda", ["--lambdas", "0,,1"], None, "sweep.resource_weights"),
        ("sweep-lambda", ["--lambdas", "0,1,"], None, "sweep.resource_weights"),
        ("sweep-lambda", [], {"sweep": {"resource_weights": ["x"]}}, "sweep.resource_weights"),
        ("sweep-lambda", [], {"sweep": {"resource_weights": []}}, "sweep.resource_weights"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"n_per_dataset": "x"}},
         "bench.n_per_dataset"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"n_per_dataset": 0}},
         "bench.n_per_dataset"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"seeds": ["x"]}}, "bench.seeds"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"seeds": []}}, "bench.seeds"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"seeds": "01"}}, "bench.seeds"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"seeds": [0, 1.5]}}, "bench.seeds"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"seeds": [True]}}, "bench.seeds"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"n_per_dataset": 1.9}},
         "bench.n_per_dataset"),
        ("bench", ["--checkpoint", "gate.ckpt"], {"bench": {"n_per_dataset": True}},
         "bench.n_per_dataset"),
        ("train", [], {"seed": -1}, "seed"),
        ("train", [], {"seed": 1.5}, "seed"),
        ("train", [], {"seed": "7"}, "seed"),
        ("train", [], {"seed": True}, "seed"),
        ("train", [], {"seed": None}, "seed"),
        ("train", ["--seed", "-1"], None, "seed"),
        ("profile-cost", [], {"backends": {"embedding_seed": "x"}}, "backends.embedding_seed"),
        ("profile-cost", [], {"agent": {"tokens": "x"}}, "agent.tokens"),
        ("profile-cost", [], {"backends": {"text_gen_latency": [1.0]}},
         "backends.text_gen_latency"),
        ("profile-cost", [], {"backends": {"text_gen_latency": [0.05, 1.0]}},
         "backends.text_gen_latency"),
        ("train", [], {"train": {"val_fraction": False}}, "train.val_fraction"),
        ("train", [], {"cost_vector": ["1", 2, 3]}, "cost_vector"),
        ("train", [], {"cost_vector": [True, 2, 3]}, "cost_vector"),
        ("train", [], {"cost_vector": [0.73, 0.81]}, "cost_vector"),
        ("profile-cost", [], {"run_dir": 7}, "run_dir"),
        ("train", [], {"corpus_dir": 5}, "corpus_dir"),
        ("profile-cost", [], {"backends": {"embedding_bias_scale": -1}},
         "backends.embedding_bias_scale"),
        ("profile-cost", [], {"agent": {"latency": [-1, 0]}}, "agent.latency"),
        ("profile-cost", [], {"backends": {"timeout_s": 0}}, "backends.timeout_s"),
        ("profile-cost", [], {"backends": {"max_retries": "x"}}, "backends.max_retries"),
        ("profile-cost", [], {"agent": {"endpoint": 5}}, "agent.endpoint"),
        ("train", [], {"train": {"lr_max": 10**400}}, "train.lr_max"),
    ], ids=["lambda-not-a-number", "lambda-negative", "lambda-nan", "lambda-empty",
            "lambda-empty-entry", "lambda-trailing-comma", "weight-string", "no-weights",
            "n-not-a-number", "n-zero", "seed-not-a-number", "no-seeds",
            "seeds-string", "seed-float", "seed-bool", "n-float", "n-bool",
            "top-seed-negative", "top-seed-float", "top-seed-string", "top-seed-bool",
            "top-seed-null", "cli-seed-negative", "embedding-seed-string",
            "agent-tokens-string", "gen-latency-one-entry", "gen-latency-jitter-over-mean",
            "val-fraction-bool",
            "cost-string", "cost-bool", "cost-two-entries", "run-dir-number",
            "corpus-dir-number", "bias-scale-negative", "agent-latency-negative",
            "timeout-zero", "max-retries-string", "agent-endpoint-number",
            "lr-max-beyond-float"])
    def test_bad_sweep_or_bench_exits_2_before_writing(
        self, workdir, capsys, command, extra, config, key
    ):
        (workdir / "corpus").mkdir()
        args = [command, *extra]
        # A --corpus or --run-dir flag would override the config's own value.
        if key != "corpus_dir":
            args += ["--corpus", workdir / "corpus"]
        if key != "run_dir":
            args += ["--run-dir", workdir / "run"]
        if config is not None:
            (workdir / "cfg.json").write_text(json.dumps(config))
            args += ["--config", workdir / "cfg.json"]
        assert run(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"(key: {key})" in err
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("field,value", [
        ("val_fraction", 1.5), ("val_fraction", -0.1), ("val_fraction", float("nan")),
        ("warmup_ratio", 1.5), ("warmup_ratio", 1.0), ("warmup_ratio", -0.1),
        ("warmup_ratio", float("nan")), ("clip_norm", 0), ("clip_norm", -1.0),
        ("clip_norm", float("nan")), ("lr_max", float("nan")), ("lr_max", float("inf")),
        ("weight_decay", float("nan")), ("resource_weight", float("inf")),
        ("gate_temperature", float("nan")), ("target_temperature", float("nan")),
        ("gate_temperature", float("inf")), ("batch_size", 8.5), ("batch_size", 0),
        ("batch_size", "8"), ("grad_accum_steps", 4.0), ("grad_accum_steps", False),
        ("epochs", True), ("epochs", 1.5), ("epochs", None),
    ])
    def test_bad_train_value_exits_2_before_writing(self, workdir, capsys, field, value):
        # Python's json writes and reads NaN and Infinity.
        (workdir / "cfg.json").write_text(json.dumps({"train": {field: value}}))
        make_corpus(workdir, n=8)
        assert run("train", "--corpus", "corpus", "--run-dir", "run",
                   "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: train.{field} must be ")
        assert f"(key: train.{field})" in err
        assert not (workdir / "run").exists()


    @pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), -0.1, 1.5, True, None])
    def test_bad_skip_threshold_exits_2_before_writing(self, workdir, capsys, value):
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 4) == 0
        (workdir / "cfg.json").write_text(json.dumps({"ingest": {"skip_threshold": value}}))
        assert run("ingest", "--raw", raw, "--out", "corpus", "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ingest.skip_threshold must be a number in [0, 1]")
        assert "(key: ingest.skip_threshold)" in err
        assert not (workdir / "corpus").exists()

    @pytest.mark.parametrize("field,value", [
        ("samples_per_dataset", 0), ("samples_per_dataset", 2.5), ("samples_per_dataset", True),
        ("samples_per_dataset", "10"), ("warmup_runs", -1), ("warmup_runs", 1.0),
        ("warmup_runs", False), ("timed_runs", 0), ("timed_runs", float("nan")),
        ("timed_runs", True), ("timed_runs", None),
    ])
    def test_bad_profile_value_exits_2_before_writing(self, workdir, capsys, field, value):
        (workdir / "cfg.json").write_text(json.dumps({"profile": {field: value}}))
        (workdir / "corpus").mkdir()
        assert run("profile-cost", "--corpus", "corpus", "--run-dir", "run",
                   "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: profile." + field)
        assert f"(key: profile.{field})" in err
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("field", ["gate_latency_s", "fusion_api_overhead_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.001])
    def test_bad_engine_latency_exits_2_before_writing(self, workdir, capsys, field, value):
        (workdir / "cfg.json").write_text(json.dumps({"engine": {field: value}}))
        (workdir / "corpus").mkdir()
        assert run("bench", "--corpus", "corpus", "--run-dir", "run", "--checkpoint", "gate.ckpt",
                   "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: engine.{field} must be a finite number >= 0")
        assert f"(key: engine.{field})" in err
        assert not (workdir / "run").exists()

    def test_zero_engine_latencies_load(self):
        cfg = load_runconfig(None, {"engine": {"gate_latency_s": 0, "fusion_api_overhead_s": 0.0}})
        assert cfg.engine_config().gate_latency_s == 0

    def test_values_at_the_top_of_their_range_load(self):
        # the largest finite float, and a skip threshold of 1 (every record may be skipped)
        cfg = load_runconfig(None, {"engine": {"gate_latency_s": sys.float_info.max},
                                    "ingest": {"skip_threshold": 1}})
        assert cfg.engine_config().gate_latency_s == sys.float_info.max
        assert cfg["ingest"]["skip_threshold"] == 1

class TestAtomicOutputs:
    @pytest.mark.parametrize("target", ["config.snapshot.json", "bench.csv"])
    def test_failed_write_keeps_previous_outputs(self, workdir, monkeypatch, capsys, target):
        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return HalfWriter(fh) if target in Path(path).name else fh

        corpus = make_corpus(workdir, n=40)
        rd = workdir / "run"
        save_checkpoint(workdir / "gate.ckpt", init_gate(seed=0))
        (workdir / "bench.json").write_text(json.dumps({"bench": {"n_per_dataset": 4}}))
        bench = ["bench", "--config", workdir / "bench.json", "--corpus", corpus,
                 "--checkpoint", workdir / "gate.ckpt", "--run-dir", rd, "--seed", 3]
        assert run(*bench) == 0
        before = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert set(before) == {"config.snapshot.json", "bench.csv"}
        monkeypatch.setattr(fileio, "open", failing_open, raising=False)
        capsys.readouterr()
        assert run(*bench) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err.splitlines() == ["error: OSError: disk full"]
        assert {p.name: p.read_bytes() for p in rd.iterdir()} == before


class TestWriteCsv:
    def test_values_print_with_str(self, tmp_path):
        out = tmp_path / "t.csv"
        fileio.write_csv(out, "a,b,c", [(1, 0.1, "avg"), (np.float64(1 / 3), np.int64(2), 1e-20)])
        assert out.read_text() == "a,b,c\n1,0.1,avg\n0.3333333333333333,2,1e-20\n"

    def test_failing_row_keeps_previous_file(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("before\n")

        def rows():
            yield (1, 2)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            fileio.write_csv(out, "a,b", rows())
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert out.read_text() == "before\n"


class TestPipeline:
    def test_make_synthetic_writes_jsonl(self, workdir):
        out = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", out, "--n", 15) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 15
        rec = json.loads(lines[0])
        assert {"id", "dataset", "question", "table", "gold_answer", "path_labels"} == set(rec)

    def test_train_writes_run_artifacts(self, workdir):
        corpus = make_corpus(workdir)
        rd = workdir / "run"
        assert run("train", "--corpus", corpus, "--run-dir", rd, "--seed", 3) == 0
        assert (rd / "gate.ckpt").exists()
        assert (rd / "config.snapshot.json").exists()
        history = (rd / "history.csv").read_text().splitlines()
        assert history[0] == "step,lr,loss_total,loss_task,loss_resource,grad_norm"
        assert len(history) > 1
        snapshot = json.loads((rd / "config.snapshot.json").read_text())
        assert snapshot["train"]["resource_weight"] == 0.15
        assert snapshot["train"]["lr_max"] == 1e-4
        assert snapshot["train"]["batch_size"] == 8
        assert snapshot["train"]["grad_accum_steps"] == 4

    def test_route_prints_one_line_json(self, workdir, capsys):
        corpus = make_corpus(workdir)
        rd = workdir / "run"
        run("train", "--corpus", corpus, "--run-dir", rd, "--seed", 3)
        capsys.readouterr()
        code = run("route", "--corpus", corpus, "--checkpoint", rd / "gate.ckpt",
                   "--id", "syn-000000", "--seed", 3)
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(out[-1])
        assert payload["path"] in ("text", "image", "fusion")
        assert len(payload["probabilities"]) == 3

    def test_infer_reports_phases(self, workdir, capsys):
        corpus = make_corpus(workdir)
        rd = workdir / "run"
        run("train", "--corpus", corpus, "--run-dir", rd, "--seed", 3)
        capsys.readouterr()
        code = run("infer", "--corpus", corpus, "--checkpoint", rd / "gate.ckpt",
                   "--id", "syn-000001", "--seed", 3)
        assert code == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["parallel_latency"] == pytest.approx(
            rec["t_phase1"] + rec["t_phase2"] + rec["t_phase3"]
        )

    def test_profile_cost_csv(self, workdir):
        corpus = make_corpus(workdir, n=60)
        rd = workdir / "run"
        assert run("profile-cost", "--corpus", corpus, "--run-dir", rd, "--seed", 3) == 0
        lines = (rd / "costs.csv").read_text().splitlines()
        assert lines[0] == "path,avg_latency_s,avg_tps,cost"
        assert len(lines) == 4
        costs = {ln.split(",")[0]: float(ln.split(",")[3]) for ln in lines[1:]}
        assert costs["text"] == pytest.approx(0.73, abs=0.005)
        assert costs["image"] == pytest.approx(0.81, abs=0.005)
        assert costs["fusion"] == pytest.approx(0.96, abs=0.005)

    def test_bench_and_analyze(self, workdir):
        corpus = make_corpus(workdir, n=140, all_tags=True)
        rd = workdir / "run"
        run("train", "--corpus", corpus, "--run-dir", rd, "--seed", 3)
        bench_cfg = workdir / "bench.json"
        bench_cfg.write_text(json.dumps({"bench": {"n_per_dataset": 10, "seeds": [0, 1]}}))
        assert run("bench", "--config", bench_cfg, "--corpus", corpus,
                   "--checkpoint", rd / "gate.ckpt", "--run-dir", rd, "--seed", 3) == 0
        lines = (rd / "bench.csv").read_text().splitlines()
        assert lines[0] == "dataset,mode,seed,mean_latency_s,mean_tps"
        assert run("analyze", "--corpus", corpus, "--checkpoint", rd / "gate.ckpt",
                   "--run-dir", rd, "--seed", 3) == 0
        metrics = dict(
            ln.split(",", 1) for ln in (rd / "analysis.csv").read_text().splitlines()[1:]
        )
        assert "complementarity_rate" in metrics
        assert "heuristic_alignment" in metrics

    def test_bench_warns_once_when_inferences_degrade(self, workdir, monkeypatch, capsys):
        corpus = make_corpus(workdir, n=60, all_tags=True)
        ckpt = workdir / "gate.ckpt"
        save_checkpoint(ckpt, init_gate(seed=0))
        bench_cfg = workdir / "bench.json"
        bench_cfg.write_text(json.dumps({"bench": {"n_per_dataset": 2, "seeds": [0, 1]}}))
        bench = ["bench", "--config", bench_cfg, "--corpus", corpus, "--checkpoint", ckpt,
                 "--run-dir", workdir / "run", "--seed", 3]
        assert run(*bench) == 0
        assert "degraded" not in capsys.readouterr().err

        class UnreachableAgent:
            def complete(self, prompt, *, context=None):
                raise ConnectionFailedError("connection refused")

        def stack(cfg, examples):
            return runconfig.backends_from_corpus(cfg, examples)[0], UnreachableAgent()

        monkeypatch.setattr(cli, "backends_from_corpus", stack)
        assert run(*bench) == 0
        warning = [ln for ln in capsys.readouterr().err.splitlines() if "degraded" in ln]
        # always-fusion degrades each of its 2 examples per dataset in both seeds
        assert len(warning) == 1 and "wtq/non_adaptive 4" in warning[0]
        header = (workdir / "run" / "bench.csv").read_text().splitlines()[0]
        assert header == "dataset,mode,seed,mean_latency_s,mean_tps"

    def test_each_command_prints_its_summary_and_writes_its_snapshot(self, workdir, capsys):
        raw, corpus, rd = workdir / "raw.jsonl", workdir / "corpus", workdir / "run"
        snapshot = rd / cli.SNAPSHOT_NAME
        assert run("make-synthetic", "--out", raw, "--n", 40, "--seed", 3) == 0
        assert run("ingest", "--raw", raw, "--out", corpus, "--seed", 3) == 0
        assert capsys.readouterr().out == (f"wrote 40 raw records to {raw}\n"
                                           f"ingested 40 examples into {corpus} (0 skipped)\n")
        # each of the 5 tags holds 8 of the 40 records
        (workdir / "cfg.json").write_text(json.dumps({"bench": {"n_per_dataset": 8}}))
        common = ["--corpus", corpus, "--run-dir", rd, "--seed", 3,
                  "--config", workdir / "cfg.json"]
        ckpt = ["--checkpoint", rd / "gate.ckpt"]
        at = re.escape(str(rd))
        for argv, summary in [
            (["train"], r"trained 2 steps; best val routing accuracy \d\.\d{4}; "
                        rf"checkpoint at {at}/gate\.ckpt"),
            (["profile-cost"], r"measured path costs \(0\.7\d+, 0\.8\d+, 0\.9\d+\) "
                               rf"over 40 samples; CSV at {at}/costs\.csv"),
            (["bench", *ckpt], rf"bench complete: 30 rows; CSV at {at}/bench\.csv"),
            (["analyze", *ckpt], rf"analysis of 40 records written to {at}/analysis\.csv"),
            (["sweep-lambda", "--lambdas", "0,1"], rf"swept 2 resource weights; CSVs in {at}"),
        ]:
            snapshot.unlink(missing_ok=True)
            assert run(*argv, *common) == 0
            assert re.fullmatch(summary + "\n", capsys.readouterr().out), argv[0]
            assert json.loads(snapshot.read_text())["seed"] == 3

    def test_analyze_without_hard_cases_writes_undefined_synergy(self, workdir):
        # tatqa is the one training tag that both unimodal paths get wrong
        raw = workdir / "raw.jsonl"
        assert run("make-synthetic", "--out", raw, "--n", 20) == 0
        lines = [ln for ln in raw.read_text().splitlines()
                 if json.loads(ln)["dataset"] != "tatqa"]
        raw.write_text("\n".join(lines) + "\n")
        assert run("ingest", "--raw", raw, "--out", workdir / "corpus") == 0
        save_checkpoint(workdir / "gate.ckpt", init_gate(seed=0))
        assert run("analyze", "--corpus", workdir / "corpus", "--checkpoint",
                   workdir / "gate.ckpt", "--run-dir", workdir / "run") == 0
        rows = (workdir / "run" / "analysis.csv").read_text().splitlines()
        assert "synergy_success_rate,undefined" in rows

    def test_sweep_lambda_two_points(self, workdir):
        corpus = make_corpus(workdir, n=100)
        rd = workdir / "run"
        assert run("sweep-lambda", "--corpus", corpus, "--run-dir", rd,
                   "--seed", 3, "--lambdas", "0,1.0") == 0
        dist = (rd / "path_distribution.csv").read_text().splitlines()
        assert len(dist) == 3

    def test_sweep_lambda_without_validation_exits_1(self, workdir, capsys):
        corpus = make_corpus(workdir, n=40)
        (workdir / "cfg.json").write_text(json.dumps({"train": {"val_fraction": 0}}))
        rd = workdir / "run"
        assert run("sweep-lambda", "--corpus", corpus, "--run-dir", rd, "--config",
                   workdir / "cfg.json", "--lambdas", "0,1.0") == 1
        assert "lambda_sweep: empty validation split" in capsys.readouterr().err
        assert not (rd / "path_distribution.csv").exists()
        assert not (rd / "alignment_performance.csv").exists()

    def test_train_without_validation_removes_earlier_val_metrics(self, workdir, capsys):
        corpus = make_corpus(workdir, n=40)
        rd = workdir / "run"
        assert run("train", "--corpus", corpus, "--run-dir", rd) == 0
        assert (rd / "val_metrics.json").exists()
        (workdir / "cfg.json").write_text(json.dumps({"train": {"val_fraction": 0}}))
        assert run("train", "--corpus", corpus, "--run-dir", rd, "--config",
                   workdir / "cfg.json") == 0
        assert "best val routing accuracy nan" in capsys.readouterr().out
        assert not (rd / "val_metrics.json").exists()
        assert sorted(p.name for p in rd.iterdir()) == [
            "config.snapshot.json", "gate.ckpt", "history.csv"]

    def test_failed_run_leaves_the_run_directory_as_it_was(self, workdir, capsys):
        # The corpus directory exists, so the config loads, but holds no
        # corpus: `train` fails at run time, after the config has resolved.
        corpus = make_corpus(workdir, n=40)
        rd = workdir / "run"
        assert run("train", "--corpus", corpus, "--run-dir", rd, "--seed", 7) == 0
        before = {p.name: p.read_bytes() for p in rd.iterdir()}
        (workdir / "empty").mkdir()
        assert run("train", "--corpus", workdir / "empty", "--run-dir", rd, "--seed", 8) == 1
        assert "no corpus file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in rd.iterdir()} == before
        assert json.loads(before["config.snapshot.json"])["seed"] == 7

    def test_snapshot_reproduces_outputs_bitwise(self, workdir):
        corpus = make_corpus(workdir, n=80)
        rd1 = workdir / "run1"
        assert run("train", "--corpus", corpus, "--run-dir", rd1, "--seed", 3) == 0
        snapshot = rd1 / "config.snapshot.json"
        rd2 = workdir / "run2"
        assert run("train", "--config", snapshot, "--run-dir", rd2) == 0
        assert (rd1 / "history.csv").read_bytes() == (rd2 / "history.csv").read_bytes()
        assert (rd1 / "gate.ckpt").read_bytes() == (rd2 / "gate.ckpt").read_bytes()


# sha256 of what `make-synthetic --n 42 --all-tags --seed 1`, then `ingest`,
# `train`, `bench`, `analyze`, `profile-cost` and `sweep-lambda --lambdas
# 0,0.15,1.0` with `--seed 7` write, and of the `route` and `infer --id
# syn-000000` stdout on that run; they pin the evaluate outputs.
# The `route` digest was retaken when the gate began training in float32 and
# again when each training cycle became one batch: its probabilities moved,
# while bench.csv, analysis.csv and infer kept their bytes.
PINNED_EVALUATE_SHA256 = {
    "bench.csv": "9f4ede956eaf3cf88f3e2f65e35028fb8b1c790c554d50e558baa6477b902971",
    "analysis.csv": "d7fd926c78cac10a1f56d9962b21f0638d07614fd07247dec36e255a446cc982",
    "costs.csv": "544f4e13777d0e3d31b390cfe058f843b24530d5e5955a3f46ee0120fb40453c",
    "path_distribution.csv": "35cb5fa3a18dbdf9a7754b0076f5af55b88670f5bfdd8134f38b596ebcee459d",
    "alignment_performance.csv":
        "fae7582a0d3366cf172973ea882642d4400a2c86d6b4c494e10b9707a8520aae",
    "route": "b92e77a3f641c86c8b464c8c27c46f73bfa6786d585eb2bf4fef1a6073e9927e",
    "infer": "da6e4bbe3d1a70092358a2435ddad5ceed5bca2e79cb0603797ce4b540ad819f",
}


class TestEvaluateBytesPin:
    def test_cli_evaluate_bytes_pinned(self, workdir, capsys):
        raw, corpus, runs = workdir / "raw.jsonl", workdir / "corpus", workdir / "run"
        ckpt = runs / "gate.ckpt"
        assert run("make-synthetic", "--out", raw, "--n", 42, "--all-tags", "--seed", 1) == 0
        assert run("ingest", "--raw", raw, "--out", corpus, "--seed", 7) == 0
        assert run("train", "--corpus", corpus, "--run-dir", runs, "--seed", 7) == 0
        with pytest.warns(UserWarning, match="only 6 examples"):
            assert run("bench", "--corpus", corpus, "--checkpoint", ckpt, "--run-dir", runs,
                       "--seed", 7) == 0
        assert run("analyze", "--corpus", corpus, "--checkpoint", ckpt, "--run-dir", runs,
                   "--seed", 7) == 0
        assert run("profile-cost", "--corpus", corpus, "--run-dir", runs, "--seed", 7) == 0
        assert run("sweep-lambda", "--corpus", corpus, "--run-dir", runs, "--seed", 7,
                   "--lambdas", "0,0.15,1.0") == 0
        digests = {
            name: hashlib.sha256((runs / name).read_bytes()).hexdigest()
            for name in ("bench.csv", "analysis.csv", "costs.csv", "path_distribution.csv",
                         "alignment_performance.csv")
        }
        for command in ("route", "infer"):
            capsys.readouterr()
            assert run(command, "--corpus", corpus, "--checkpoint", ckpt,
                       "--id", "syn-000000", "--seed", 7) == 0
            digests[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == PINNED_EVALUATE_SHA256


class TestCheckpointWithMoments:
    def test_route_reads_a_checkpoint_that_carries_moments(self, workdir, capsys):
        # `train` writes no AdamW moments; a checkpoint written with them
        # (as `train` did before) still loads and routes the same.
        corpus = make_corpus(workdir, n=8)
        params = init_gate(seed=0)
        write_legacy_checkpoint(workdir / "moments.ckpt", params)
        save_checkpoint(workdir / "plain.ckpt", params)
        extra = (workdir / "moments.ckpt").stat().st_size - (workdir / "plain.ckpt").stat().st_size
        assert extra == 2 * 8 * params.param_count + 8 + 32
        stdout = {}
        for name in ("moments", "plain"):
            capsys.readouterr()
            assert run("route", "--corpus", corpus, "--checkpoint", workdir / f"{name}.ckpt",
                       "--id", "syn-000003") == 0
            stdout[name] = capsys.readouterr().out
        assert stdout["moments"] == stdout["plain"]


# sha256 of the `config.snapshot.json` that `train --corpus corpus --run-dir run
# --seed 7` writes with no config file: it pins every default of the run config.
PINNED_DEFAULT_SNAPSHOT_SHA256 = "5b672b9b5325931455a9bdeca892cdc47d70c7fe4b7e552da4e2302a8a365ab9"


class TestDefaultSnapshotPin:
    def test_default_snapshot_pinned(self, workdir):
        make_corpus(workdir, n=40)
        assert run("train", "--corpus", "corpus", "--run-dir", "run", "--seed", 7) == 0
        snapshot = (workdir / "run" / "config.snapshot.json").read_bytes()
        assert hashlib.sha256(snapshot).hexdigest() == PINNED_DEFAULT_SNAPSHOT_SHA256


# Imports the module named by the first argument in a fresh interpreter, runs
# the CLI command given by the rest (if any), then prints the modules loaded.
_MODULES_AFTER = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    from tableroute import cli
    assert cli.main(sys.argv[2:]) == 0
print(json.dumps(sorted(sys.modules)))
"""

# What `import tableroute.cli` loads. perfbench/tracer.py patches traced
# functions only in the modules loaded by then, so the CLI imports the traced
# layers at module level.
CLI_MODULES = {f"tableroute{m}" for m in (
    "", ".cli", ".corpus", ".engine", ".errors", ".experts", ".fileio", ".fusion", ".gate",
    ".numerics", ".paths", ".runconfig", ".trainer")}


class TestCommandImports:
    """Each command loads the CLI's layers and only the other modules it calls."""

    @pytest.fixture()
    def tiny(self, workdir):
        corpus = make_corpus(workdir, n=8)
        save_checkpoint(workdir / "gate.ckpt", init_gate(seed=0))
        return corpus, workdir / "gate.ckpt"

    def modules_after(self, module, *argv, prefix="tableroute"):
        env = {k: v for k, v in os.environ.items() if k != "TABLEROUTE_CONFIG"}
        env["PYTHONPATH"] = str(Path(tableroute.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", _MODULES_AFTER, module, *map(str, argv)],
                             env=env, capture_output=True, text=True, check=True).stdout
        return {m for m in json.loads(out.splitlines()[-1]) if m.startswith(prefix)}

    def test_bare_import_loads_no_submodule(self):
        assert self.modules_after("tableroute") == {"tableroute"}

    def test_runconfig_loads_only_errors_and_paths(self):
        assert self.modules_after("tableroute.runconfig") == {
            "tableroute", "tableroute.errors", "tableroute.paths", "tableroute.runconfig"}

    def test_cli_loads_the_traced_layers(self):
        assert self.modules_after("tableroute.cli") == CLI_MODULES

    def test_make_synthetic(self, workdir):
        loaded = self.modules_after("tableroute.cli", "make-synthetic",
                                    "--out", workdir / "raw.jsonl", "--n", 3)
        assert loaded == CLI_MODULES | {"tableroute.synthetic"}

    def test_route(self, tiny):
        corpus, ckpt = tiny
        loaded = self.modules_after("tableroute.cli", "route", "--corpus", corpus,
                                    "--checkpoint", ckpt, "--id", "syn-000003")
        assert "tableroute.gate" in loaded
        assert not loaded & {"tableroute.analysis", "tableroute.ingest", "tableroute.synthetic"}

    def test_route_leaves_numpy_random_unloaded(self, tiny):
        # `route` draws no random numbers; loading numpy.random would take
        # about 16 ms of each call.
        corpus, ckpt = tiny
        assert not self.modules_after("tableroute.cli", "route", "--corpus", corpus,
                                      "--checkpoint", ckpt, "--id", "syn-000003",
                                      prefix="numpy.random")

    def test_infer(self, tiny):
        corpus, ckpt = tiny
        loaded = self.modules_after("tableroute.cli", "infer", "--corpus", corpus,
                                    "--checkpoint", ckpt, "--id", "syn-000003")
        assert "tableroute.engine" in loaded
        assert not loaded & {"tableroute.analysis", "tableroute.ingest"}
