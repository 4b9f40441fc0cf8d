import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bicameral
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
        assert all(set(e) == {"epoch", "train_loss", "val_loss", "val_acc"}
                   for e in entries)

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

    def test_prompt_with_unknown_character(self, tmp_path, monkeypatch):
        write_workspace(tmp_path, lm=dict(TOY_LM, d_model=16, n_layers=1, n_heads=2,
                                          d_ff=32), n_sequences=16, epochs=1)
        run(["--config", "run.json", "pretrain"], monkeypatch, tmp_path)
        run(["--config", "run.json", "make-data"], monkeypatch, tmp_path)
        run(["--config", "run.json", "train-doppel"], monkeypatch, tmp_path)
        assert run(["--config", "run.json", "generate", "--prompt", "a!z"],
                   monkeypatch, tmp_path) == 2


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
