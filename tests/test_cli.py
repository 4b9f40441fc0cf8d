import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicameral
from bicameral import tensor as T
from bicameral.checkpoint import load_checkpoint, save_checkpoint
from bicameral.cli import main

TOY_LM = {"d_model": 64, "n_layers": 4, "n_heads": 4, "d_ff": 256, "max_seq_len": 256}
TOY_DOPPEL = {"d_shadow": 32, "n_objectives": 1, "n_heads_shadow": 4,
              "d_ff_shadow": 128}


def write_workspace(root, seed=5, lm=None, doppel=None, corpus_reps=30,
                    n_sequences=96, epochs=2):
    (root / "alphabet.txt").write_text(
        "\n".join(list("abcdefgh")) + "\n", encoding="utf-8")
    (root / "corpus.txt").write_text("abcdefgh" * corpus_reps, encoding="utf-8")
    config = {
        "seed": seed,
        "paths": {
            "alphabet": "alphabet.txt",
            "corpus": "corpus.txt",
            "dataset_train": "train.jsonl",
            "dataset_val": "val.jsonl",
            "checkpoint_in": "model.ckpt",
            "checkpoint_out": "model.ckpt",
            "log": "log.jsonl",
            "report": "report.jsonl",
        },
        "lm": lm or TOY_LM,
        "doppel": doppel or TOY_DOPPEL,
        "pretrain": {"epochs": epochs, "batch_size": 8, "lr": 1e-3, "window": 32},
        "train": {"epochs": epochs, "batch_size": 16, "lr": 3e-3},
        "task": {"kind": "forbidden-token", "forbidden_chars": ["f"],
                 "n_sequences": n_sequences, "val_fraction": 0.25,
                 "min_len": 8, "max_len": 16},
        "sampler": {"strategy": "greedy"},
    }
    (root / "run.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config


def edit_config(config, key_path, value):
    node = config
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value


def key_paths(node, prefix=()):
    """Every key path into a JSON value, through objects and lists."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def run(args, monkeypatch, where):
    monkeypatch.chdir(where)
    return main(args)


def trained_workspace(root, monkeypatch):
    """A checkpoint with both towers at the smallest useful scale."""
    write_workspace(root, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2, d_ff=32),
                    doppel=dict(TOY_DOPPEL, d_shadow=8, n_heads_shadow=2, d_ff_shadow=16),
                    n_sequences=16, epochs=1)
    for command in ("pretrain", "make-data", "train-doppel"):
        assert run(["--config", "run.json", command], monkeypatch, root) == 0


class TestPipeline:
    def test_full_pipeline_smoke_at_toy_scale(self, tmp_path, monkeypatch, capsys):
        write_workspace(tmp_path)
        start = time.time()
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "train-doppel"], monkeypatch, tmp_path) == 0
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "abc",
                    "--max-new", "8"], monkeypatch, tmp_path) == 0
        elapsed = time.time() - start
        events = [json.loads(line) for line in
                  capsys.readouterr().out.strip().splitlines()]
        assert len(events) == 3 + 8
        assert [e["pos"] for e in events] == list(range(11))
        assert all(len(e["scores"]) == 1 for e in events)
        assert all(set(e) == {"pos", "token", "id", "scores"} for e in events)
        assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
        # training log format: one record per epoch plus the baseline
        lines = (tmp_path / "log.jsonl").read_text().strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["epoch"] for e in entries] == list(range(len(entries)))
        assert all(set(e) == {"epoch", "train_loss", "grad_norm", "param_norm",
                              "val_loss", "val_acc"} for e in entries)

    def test_generate_max_new_zero_emits_prompt_scores_only(self, tmp_path,
                                                            monkeypatch, capsys):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=2, n_heads=2,
                                          d_ff=32),
                        doppel=dict(TOY_DOPPEL, d_shadow=8, n_heads_shadow=2,
                                    d_ff_shadow=16),
                        n_sequences=24)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "train-doppel"], monkeypatch, tmp_path) == 0
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "abcd",
                    "--max-new", "0"], monkeypatch, tmp_path) == 0
        events = capsys.readouterr().out.strip().splitlines()
        assert len(events) == 4

    def test_plain_format(self, tmp_path, monkeypatch, capsys):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32),
                        doppel=dict(TOY_DOPPEL, d_shadow=8, n_heads_shadow=2,
                                    d_ff_shadow=16),
                        n_sequences=16, epochs=1)
        run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path)
        run(["--config", "run.json", "make-data"], monkeypatch, tmp_path)
        run(["--config", "run.json", "train-doppel"], monkeypatch, tmp_path)
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "ab",
                    "--max-new", "2", "--format", "plain"],
                   monkeypatch, tmp_path) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4 and "[" in out[0]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, monkeypatch, capsys):
        assert run(["--config", "nope.json", "make-data"], monkeypatch, tmp_path) == 2

    def test_missing_seed(self, tmp_path, monkeypatch):
        (tmp_path / "bad.json").write_text("{}", encoding="utf-8")
        assert run(["--config", "bad.json", "gradcheck"], monkeypatch, tmp_path) == 2

    def test_malformed_json(self, tmp_path, monkeypatch):
        (tmp_path / "bad.json").write_text("{nope", encoding="utf-8")
        assert run(["--config", "bad.json", "gradcheck"], monkeypatch, tmp_path) == 2

    LEMMA = ["lemma-demo", "--instances", "1"]
    GENERATE = ["generate", "--prompt", "ab"]

    @pytest.mark.parametrize("key_path, value, command", [
        ((), [1, 2], ["--seed", "3", *LEMMA]),
        (("paths", "alphabet"), 3, ["make-data"]),
        (("paths", "alphabet"), None, ["make-data"]),
        (("paths", "report"), 5, LEMMA),
        (("pretrain",), [], ["pretrain"]),
        (("task", "forbidden_chars"), [1], ["make-data"]),
        (("task", "forbidden_chars"), [""], ["make-data"]),
        (("pretrain", "epochs"), 1.5, ["pretrain"]),
        (("pretrain", "batch_size"), 2.5, ["pretrain"]),
        (("pretrain", "window"), 2.5, ["pretrain"]),
        (("task", "n_sequences"), 3.5, ["make-data"]),
        (("seed",), 1.5, LEMMA),
        (("train", "lr"), float("nan"), ["train-doppel"]),
        (("train", "lr"), float("inf"), ["train-doppel"]),
        (("train", "lr"), True, ["train-doppel"]),
        pytest.param(("train", "lr"), 10**400, ["train-doppel"], id="train-lr-10**400"),
        (("train", "beta1"), 0.9, ["train-doppel"]),
        (("sampler", "temperature"), float("nan"), GENERATE),
        (("sampler", "temperature"), float("inf"), GENERATE),
        (("sampler", "temperature"), True, GENERATE),
        (("task", "val_fraction"), "x", ["make-data"]),
        (("task", "val_fraction"), 1.0, ["make-data"]),
        (("task", "seed"), -1, ["make-data"]),
        (("pretrain", "window"), 0, ["pretrain"]),
    ])
    def test_malformed_run_config_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                    key_path, value, command):
        config = write_workspace(tmp_path)
        if key_path:
            edit_config(config, key_path, value)
        else:
            config = value
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["--config", "run.json", *command], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not key_path or key_path[-1] in err

    @pytest.mark.parametrize("args, name", [
        (["--seed", "-5", *LEMMA], "seed"),
        (["lemma-demo", "--instances", "-1"], "--instances"),
    ])
    def test_out_of_range_flag_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                 args, name):
        write_workspace(tmp_path)
        assert run(["--config", "run.json", *args], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and name in err
        assert not (tmp_path / "report.jsonl").exists()

    @pytest.mark.parametrize("edits", [
        {("task", "val_fraction"): 0.0},  # an empty val split
        {("task", "n_sequences"): 1, ("task", "val_fraction"): 0.75},  # empty train
        {("task", "max_len"): 65, ("lm", "max_seq_len"): 64},
        {("task", "max_len"): 300, ("lm",): {}},  # LMConfig's max_seq_len, 256
    ], ids=["empty-val", "empty-train", "max_len-over-lm", "max_len-over-default"])
    def test_make_data_refuses_splits_train_doppel_cannot_use(self, tmp_path,
                                                              monkeypatch, capsys, edits):
        config = write_workspace(tmp_path)
        for key_path, value in edits.items():
            edit_config(config, key_path, value)
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not any(tmp_path.glob("*.jsonl*"))

    def test_train_doppel_refuses_unfrozen_checkpoint(self, tmp_path, monkeypatch,
                                                      capsys):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), n_sequences=16, epochs=1)
        assert run(["--config", "run.json", "pretrain", "--no-freeze"],
                   monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "train-doppel"],
                   monkeypatch, tmp_path) == 3
        assert "not frozen" in capsys.readouterr().err

    def test_train_doppel_rejects_non_finite_label(self, tmp_path, monkeypatch,
                                                  capsys):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), n_sequences=16, epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 0
        lines = (tmp_path / "train.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["labels"][0][0] = float("nan")
        lines[0] = json.dumps(first)
        (tmp_path / "train.jsonl").write_text("\n".join(lines) + "\n")
        checkpoint = (tmp_path / "model.ckpt").read_bytes()
        assert run(["--config", "run.json", "train-doppel"],
                   monkeypatch, tmp_path) == 2
        assert "finite" in capsys.readouterr().err
        assert (tmp_path / "model.ckpt").read_bytes() == checkpoint

    def test_generate_refuses_language_only_checkpoint(self, tmp_path, monkeypatch,
                                                       capsys):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "generate", "--prompt", "a"],
                   monkeypatch, tmp_path) == 3
        assert "no shadow-tower" in capsys.readouterr().err

    def test_version_mismatch_is_a_refusal(self, tmp_path, monkeypatch):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        raw = bytearray((tmp_path / "model.ckpt").read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        (tmp_path / "model.ckpt").write_bytes(bytes(raw))
        assert run(["--config", "run.json", "train-doppel"],
                   monkeypatch, tmp_path) == 3

    @pytest.mark.parametrize("case, message", [("missing-record", "missing"),
                                               ("unknown-lm-key", "n_experts"),
                                               ("wrong-shape", "shape"),
                                               ("short-alphabet", "alphabet")])
    def test_malformed_checkpoint_is_a_refusal(self, tmp_path, monkeypatch, capsys,
                                               case, message):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        ckpt = load_checkpoint(tmp_path / "model.ckpt")
        config, params = ckpt.config, dict(ckpt.params)
        if case == "missing-record":
            del params["lm.head"]
        elif case == "unknown-lm-key":
            config["lm"]["n_experts"] = 2
        elif case == "wrong-shape":
            params["lm.head"] = np.zeros((16, 7))
        else:
            config["alphabet"] = config["alphabet"][:2]
        save_checkpoint(tmp_path / "model.ckpt", config, list(params.items()))
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "a"],
                   monkeypatch, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("refused:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("line", [
        '{"labels": [[0.0]]}',                  # no tokens
        '{"tokens": [1]}',                      # no labels
        '[[1], [[0.0]]]',                       # an array, not an object
        '"tokens"',                             # a string, not an object
        '{"tokens": 1, "labels": [[0.0]]}',     # tokens not a list
        '{"tokens": [1.5], "labels": [[0.0]]}',  # a non-integer id
        '{"tokens": [1, 2], "labels": [[0.0], 0.5]}',  # ragged labels
        '{"tokens": [1], "labels": {"a": 0}}',  # labels not a list
    ])
    def test_malformed_dataset_line_is_a_config_error(self, tmp_path, monkeypatch,
                                                      capsys, line):
        trained_workspace(tmp_path, monkeypatch)
        lines = (tmp_path / "train.jsonl").read_text().splitlines()
        lines[2] = line
        (tmp_path / "train.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["--config", "run.json", "train-doppel"],
                   monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "train.jsonl line 3" in err

    @pytest.mark.parametrize("case", ["not-utf8", "not-json", "json-array"])
    def test_corrupt_config_block_is_a_refusal(self, tmp_path, monkeypatch, capsys,
                                               case):
        trained_workspace(tmp_path, monkeypatch)
        path = tmp_path / "model.ckpt"
        if case == "json-array":
            ckpt = load_checkpoint(path)
            save_checkpoint(path, [ckpt.config], list(ckpt.params.items()))
        else:
            raw = bytearray(path.read_bytes())
            raw[12] = 0xFF if case == "not-utf8" else ord("x")  # the block's "{"
            path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "a"],
                   monkeypatch, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("refused:") and err.count("\n") == 1
        assert "config block" in err

    def test_generate_refuses_non_finite_checkpoint(self, tmp_path, monkeypatch, capsys):
        trained_workspace(tmp_path, monkeypatch)
        ckpt = load_checkpoint(tmp_path / "model.ckpt")
        params = dict(ckpt.params)
        params["doppel.head.b"] = np.full_like(params["doppel.head.b"], np.nan)
        save_checkpoint(tmp_path / "model.ckpt", ckpt.config, list(params.items()))
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "abc",
                    "--max-new", "2"], monkeypatch, tmp_path) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("refused:") and err.count("\n") == 1
        assert "non-finite" in err and "doppel.head.b" in err

    def test_generate_into_a_closed_pipe_ends_cleanly(self, tmp_path, monkeypatch):
        trained_workspace(tmp_path, monkeypatch)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first event
        env = dict(os.environ, PYTHONPATH=str(Path(bicameral.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bicameral.cli", "--config", "run.json",
                 "generate", "--prompt", "abc", "--max-new", "40"],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_pretrain_non_finite_is_a_numeric_failure(self, tmp_path, monkeypatch,
                                                      capsys, recwarn):
        config = write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1,
                                                   n_heads=2, d_ff=32), epochs=2)
        config["pretrain"]["lr"] = 1e200
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "Traceback" not in err and not recwarn.list
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_pretrain_non_finite_gradient_is_a_numeric_failure(self, tmp_path,
                                                               monkeypatch, capsys):
        from bicameral import language

        original = language._group_loss

        def poisoned(model, *args):
            # the loss stays finite; its graph hands the head an infinite gradient
            loss, total, count = original(model, *args)
            head = model.head
            spike = T.Tensor(0.0, True, _parents=(head,), _backward=lambda g: setattr(
                head, "grad", np.full(head.shape, np.inf)))
            return T.add(loss, spike), total, count

        monkeypatch.setattr(language, "_group_loss", poisoned)
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "gradient" in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_doppel_non_finite_is_a_numeric_failure(self, tmp_path, monkeypatch,
                                                          capsys, recwarn):
        config = write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1,
                                                   n_heads=2, d_ff=32),
                                 n_sequences=16, epochs=1)
        assert run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path) == 0
        assert run(["--config", "run.json", "make-data"], monkeypatch, tmp_path) == 0
        config["train"]["lr"] = 1e200
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        checkpoint = (tmp_path / "model.ckpt").read_bytes()
        log = (tmp_path / "log.jsonl").read_bytes()
        capsys.readouterr()
        assert run(["--config", "run.json", "train-doppel"],
                   monkeypatch, tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "Traceback" not in err and not recwarn.list
        assert (tmp_path / "model.ckpt").read_bytes() == checkpoint
        assert (tmp_path / "log.jsonl").read_bytes() == log

    @pytest.mark.parametrize("key, command", [
        ("checkpoint_out", ["pretrain"]),
        ("log", ["pretrain"]),
        ("dataset_train", ["make-data"]),
        (None, [*LEMMA, "--report", "nodir/out"]),
    ])
    def test_unwritable_artifact_path_is_a_config_error(self, tmp_path, monkeypatch,
                                                        capsys, key, command):
        config = write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1,
                                                   n_heads=2, d_ff=32), epochs=1)
        if key:
            config["paths"][key] = "nodir/out"
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["--config", "run.json", *command], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "nodir/out" in err

    @pytest.mark.parametrize("section, key, value, command", [
        ("lm", "d_ff", 8.5, "pretrain"),
        ("lm", "n_layers", True, "pretrain"),
        ("doppel", "d_shadow", 8.0, "train-doppel"),
        ("sampler", "k", 2.0, "generate"),
        ("sampler", "seed", 1.5, "generate"),
    ])
    def test_non_integer_model_field_is_a_config_error(self, tmp_path, monkeypatch,
                                                       capsys, section, key, value,
                                                       command):
        config = write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1,
                                                   n_heads=2, d_ff=32),
                                 doppel=dict(TOY_DOPPEL, d_shadow=8, n_heads_shadow=2,
                                             d_ff_shadow=16), n_sequences=16, epochs=1)
        setup = {"pretrain": [], "train-doppel": ["pretrain", "make-data"],
                 "generate": ["pretrain", "make-data", "train-doppel"]}[command]
        for step in setup:
            assert run(["--config", "run.json", step], monkeypatch, tmp_path) == 0
        config[section][key] = value
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        args = ["--prompt", "ab", "--max-new", "1"] if command == "generate" else []
        assert run(["--config", "run.json", command, *args], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("section, key", [("lm", "d_ff"), ("doppel", "d_shadow")])
    def test_float_in_checkpoint_config_is_a_refusal(self, tmp_path, monkeypatch, capsys,
                                                     section, key):
        trained_workspace(tmp_path, monkeypatch)
        ckpt = load_checkpoint(tmp_path / "model.ckpt")
        ckpt.config[section][key] = float(ckpt.config[section][key])
        save_checkpoint(tmp_path / "model.ckpt", ckpt.config, list(ckpt.params.items()))
        capsys.readouterr()
        assert run(["--config", "run.json", "generate", "--prompt", "a"],
                   monkeypatch, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("refused:") and err.count("\n") == 1
        assert key in err

    def test_prompt_with_unknown_character(self, tmp_path, monkeypatch):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), n_sequences=16, epochs=1)
        run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path)
        run(["--config", "run.json", "make-data"], monkeypatch, tmp_path)
        run(["--config", "run.json", "train-doppel"], monkeypatch, tmp_path)
        assert run(["--config", "run.json", "generate", "--prompt", "a!z"],
                   monkeypatch, tmp_path) == 2


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A trained toy workspace and a config naming it by absolute paths, with
    outputs that leave the fuzzed inputs in place."""
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        trained_workspace(root, mp)
    config = json.loads((root / "run.json").read_text())
    config["paths"] = {key: str(root / name) for key, name in config["paths"].items()}
    config["paths"].update(checkpoint_out=str(root / "out.ckpt"),
                           log=str(root / "out.jsonl"))
    (root / "fuzz.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here is the traceback this rules out
    return code, err.getvalue()


class TestFuzz:
    FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

    def check(self, code, err):
        assert code in (0, 2, 3, 4)
        assert err.count("\n") <= 1 and "Traceback" not in err

    @FUZZ
    @given(where=st.integers(0, 2**20), byte=st.integers(0, 255))
    def test_checkpoint_byte_flips(self, fuzz_workspace, where, byte):
        path = fuzz_workspace / "model.ckpt"
        original = path.read_bytes()
        raw = bytearray(original)
        raw[where % len(raw)] = byte
        path.write_bytes(bytes(raw))
        try:
            self.check(*run_quietly(["--config", str(fuzz_workspace / "fuzz.json"),
                                     "generate", "--prompt", "ab", "--max-new", "1"]))
        finally:
            path.write_bytes(original)

    @FUZZ
    @given(line=st.integers(0, 2**10), where=st.integers(0, 2**10),
           edit=st.sampled_from(["replace", "insert", "delete"]),
           char=st.characters(min_codepoint=32, max_codepoint=126))
    def test_dataset_line_edits(self, fuzz_workspace, line, where, edit, char):
        path = fuzz_workspace / "train.jsonl"
        original = path.read_text()
        lines = original.splitlines()
        text = lines[line % len(lines)]
        i = where % len(text)
        lines[line % len(lines)] = text[:i] + {"replace": char, "insert": char + text[i],
                                               "delete": ""}[edit] + text[i + 1:]
        path.write_text("\n".join(lines) + "\n")
        try:
            self.check(*run_quietly(["--config", str(fuzz_workspace / "fuzz.json"),
                                     "train-doppel"]))
        finally:
            path.write_text(original)

    @FUZZ
    @given(which=st.integers(0, 2**10),
           value=st.sampled_from([[1], {"k": 1}, "x", 1.5, None, -3, 10**30, "",
                                  float("nan"), float("inf"), True, 0, 1e-320]))
    def test_run_config_edits(self, fuzz_workspace, which, value):
        config = json.loads((fuzz_workspace / "fuzz.json").read_text())
        paths = list(key_paths(config))
        edit_config(config, paths[which % len(paths)], value)
        edited = fuzz_workspace / "edited.json"
        edited.write_text(json.dumps(config), encoding="utf-8")
        self.check(*run_quietly(["--config", str(edited), "generate", "--prompt", "ab",
                                 "--max-new", "1"]))


class TestLemmaDemo:
    def test_writes_one_report_per_instance(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"seed": 3, "paths": {"report": "out.jsonl"}}), encoding="utf-8")
        assert run(["--config", "cfg.json", "lemma-demo", "--instances", "7"],
                   monkeypatch, tmp_path) == 0
        lines = (tmp_path / "out.jsonl").read_text().strip().splitlines()
        assert len(lines) == 7
        for line in lines:
            obj = json.loads(line)
            assert obj["verdict"] is True

    def test_report_flag_overrides_config(self, tmp_path, monkeypatch):
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1}), encoding="utf-8")
        assert run(["--config", "cfg.json", "lemma-demo", "--instances", "2",
                    "--report", "elsewhere.jsonl"], monkeypatch, tmp_path) == 0
        assert (tmp_path / "elsewhere.jsonl").exists()


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, tmp_path, monkeypatch, capsys):
        assert run(["--seed", "0", "gradcheck"], monkeypatch, tmp_path) == 0
        out = capsys.readouterr().out
        assert "bicameral loss" in out
        assert "FAIL" not in out


class TestReproducibility:
    def test_pipeline_artifacts_are_byte_identical_across_reruns(self, tmp_path,
                                                                 monkeypatch, capsys):
        small_lm = dict(TOY_LM, d_model=16, n_layers=2, n_heads=2, d_ff=32)
        small_dp = dict(TOY_DOPPEL, d_shadow=8, n_heads_shadow=2, d_ff_shadow=16)
        outs = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            write_workspace(root, lm=small_lm, doppel=small_dp, n_sequences=32,
                            epochs=2)
            run(["--config", "run.json", "pretrain"], monkeypatch, root)
            run(["--config", "run.json", "make-data"], monkeypatch, root)
            run(["--config", "run.json", "train-doppel"], monkeypatch, root)
            capsys.readouterr()
            run(["--config", "run.json", "generate", "--prompt", "abc",
                 "--max-new", "6"], monkeypatch, root)
            outs.append(capsys.readouterr().out)
        a, b = tmp_path / "a", tmp_path / "b"
        for artifact in ("model.ckpt", "train.jsonl", "val.jsonl", "log.jsonl"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), artifact
        assert outs[0] == outs[1]
