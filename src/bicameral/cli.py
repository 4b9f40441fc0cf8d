"""Command-line pipeline: pretrain, synthesize labelled data, train the
shadow tower, generate with per-token scores, run the dominance demo,
and finite-difference the gradients.

One JSON config file is the canonical record of a run; flags override
single values and the merged config is echoed verbatim to a
``<artifact>.config.json`` sidecar next to every written artifact.

Exit codes: 0 success, 2 config error, 3 contract refusal (unfrozen
language tower, incompatible checkpoint), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import training
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .doppelganger import (BicameralModel, DoppelConfig, init_doppelganger,
                           named_parameters as doppel_named)
from .doppelganger import load_parameters as doppel_load
from .generation import SamplerConfig, generate, render_plain
from .gradcheck import run_model_check, run_op_battery
from .language import (CharTokenizer, FrozenModelError, LMConfig, SequenceError,
                       freeze, init_language_model, named_parameters as lm_named,
                       pretrain)
from .language import load_parameters as lm_load
from .optim import NumericError, OptimConfig
from .reward_theory import (SplitLanguageFunction, random_instance,
                            verify_supremacy)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_NUMERIC = 4

CHECKPOINT_KIND = "bicameral-checkpoint"
SECTIONS = ("paths", "lm", "doppel", "pretrain", "train", "task", "sampler")


class ConfigError(ValueError):
    """Missing, malformed, or inconsistent run configuration."""


class RefusalError(RuntimeError):
    """A command declined to run because a contract would be violated."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _merge_flags(config: dict, args: argparse.Namespace) -> dict:
    merged = json.loads(json.dumps(config))  # deep copy, JSON-clean
    if args.seed is not None:
        merged["seed"] = args.seed
    if "seed" not in merged:
        raise ConfigError("a seed must be given, in the config file or via --seed")
    if type(merged["seed"]) is not int or merged["seed"] < 0:
        raise ConfigError(f"the seed must be an integer >= 0, got {merged['seed']!r}")
    merged.setdefault("paths", {})
    for section in SECTIONS:
        if not isinstance(merged.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    return merged


def _path(config: dict, key: str, must_exist: bool = False) -> Path:
    paths = config.get("paths", {})
    if key not in paths:
        raise ConfigError(f"config is missing paths.{key}")
    if not isinstance(paths[key], str) or not paths[key]:
        raise ConfigError(f"paths.{key} must be a non-empty string, got {paths[key]!r}")
    p = Path(paths[key])
    if must_exist and not p.exists():
        raise ConfigError(f"paths.{key} does not exist: {p}")
    return p


def _section(merged: dict, name: str, cls, seed_offset: int | None = None,
             drop: tuple[str, ...] = (), **fixed):
    """``cls`` built from config section ``name``, less the keys in ``drop``,
    plus ``fixed``; with a ``seed_offset``, the seed defaults to the run
    seed plus it. A refused value is a ``ConfigError``."""
    fields = {k: v for k, v in merged.get(name, {}).items() if k not in drop}
    if seed_offset is not None:
        fields.setdefault("seed", merged["seed"] + seed_offset)
    try:
        return cls(**fixed, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _write_sidecar(artifact: Path, merged_config: dict) -> None:
    sidecar = artifact.parent / (artifact.name + ".config.json")
    sidecar.write_text(json.dumps(merged_config, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def _write_log(merged: dict, log: list[dict]) -> None:
    if "log" in merged.get("paths", {}):
        log_path = _path(merged, "log")
        log_path.write_text("".join(json.dumps(e, allow_nan=False) + "\n" for e in log),
                            encoding="utf-8")
        _write_sidecar(log_path, merged)


def _save_models(path: Path, merged: dict, tokenizer: CharTokenizer,
                 lm, doppel=None) -> None:
    block = {"kind": CHECKPOINT_KIND,
             "lm": lm.config.to_dict(),
             "doppel": doppel.config.to_dict() if doppel is not None else None,
             "frozen": bool(lm.frozen),
             "alphabet": tokenizer.to_lines(),
             "run": merged}
    entries = [("lm." + n, p) for n, p in lm_named(lm)]
    if doppel is not None:
        entries += [("doppel." + n, p) for n, p in doppel_named(doppel)]
    save_checkpoint(path, block, entries)
    _write_sidecar(path, merged)


def _load_models(path: Path, need_doppel: bool = False):
    ckpt = load_checkpoint(path)
    block = ckpt.config
    if block.get("kind") != CHECKPOINT_KIND:
        raise RefusalError(f"{path} is not a {CHECKPOINT_KIND}")
    try:
        tokenizer = CharTokenizer(block["alphabet"])
        lm_cfg = LMConfig(**block["lm"])
        doppel_cfg = (DoppelConfig(**block["doppel"])
                      if block.get("doppel") is not None else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise RefusalError(f"{path} has an incompatible configuration: {exc}") from exc
    if tokenizer.vocab_size != lm_cfg.vocab_size:
        raise RefusalError(f"{path} has an alphabet of {tokenizer.vocab_size} characters "
                           f"for a vocabulary of {lm_cfg.vocab_size}")
    lm = init_language_model(lm_cfg)
    lm_load(lm, ckpt.params, prefix="lm.")
    if block.get("frozen"):
        freeze(lm)
    doppel = None
    if doppel_cfg is not None:
        doppel = init_doppelganger(lm.config, doppel_cfg)
        doppel_load(doppel, ckpt.params, prefix="doppel.")
    if need_doppel and doppel is None:
        raise RefusalError(f"{path} has no shadow-tower parameters; train one first")
    return lm, doppel, tokenizer, block


def _corpus_windows(text: str, tokenizer: CharTokenizer, window: int) -> list[list[int]]:
    ids = tokenizer.encode(text)
    if len(ids) < 2:
        raise ConfigError("corpus is too short to train on")
    out = []
    for start in range(0, len(ids), window):
        chunk = ids[start:start + window + 1]
        if len(chunk) >= 2:
            out.append(chunk)
    return out


def _chars_to_ids(tokenizer: CharTokenizer, chars: list[str], what: str) -> tuple[int, ...]:
    if not isinstance(chars, list) or any(type(c) is not str or len(c) != 1 for c in chars):
        raise ConfigError(f"{what} must be a list of single characters, got {chars!r}")
    try:
        return tuple(tokenizer.encode(c)[0] for c in chars)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_pretrain(merged: dict, do_freeze: bool = True) -> int:
    tokenizer = CharTokenizer.from_file(_path(merged, "alphabet", must_exist=True))
    corpus_text = _path(merged, "corpus", must_exist=True).read_text(encoding="utf-8")
    out_path = _path(merged, "checkpoint_out")

    lm_cfg = _section(merged, "lm", LMConfig, vocab_size=tokenizer.vocab_size)
    opt = _section(merged, "pretrain", OptimConfig, seed_offset=2, drop=("window",))
    window = merged.get("pretrain", {}).get("window", min(64, lm_cfg.max_seq_len - 1))
    if type(window) is not int or window < 1:
        raise ConfigError(f"pretrain.window must be an integer >= 1, got {window!r}")

    rng = np.random.default_rng(merged["seed"])
    lm = init_language_model(lm_cfg, rng)
    sequences = _corpus_windows(corpus_text, tokenizer, window)
    log = pretrain(lm, sequences, opt)
    if do_freeze:
        freeze(lm)
    _save_models(out_path, merged, tokenizer, lm)
    _write_log(merged, log)
    last = log[-1]["train_loss"] if log else float("nan")
    print(f"pretrained {lm_cfg.n_layers} modules on {len(sequences)} windows, "
          f"final loss {last:.4f}, frozen={do_freeze}, wrote {out_path}")
    return EXIT_OK


# task keys given as characters, and the SyntheticTaskSpec id fields they fill
CHAR_FIELDS = {"forbidden_chars": "forbidden_ids", "parity_chars": "parity_ids",
               "positive_chars": "positive_ids", "negative_chars": "negative_ids"}


def cmd_make_data(merged: dict) -> int:
    tokenizer = CharTokenizer.from_file(_path(merged, "alphabet", must_exist=True))
    train_path = _path(merged, "dataset_train")
    val_path = _path(merged, "dataset_val")
    task = merged.get("task", {})
    ids = {CHAR_FIELDS[k]: _chars_to_ids(tokenizer, v, k)
           for k, v in task.items() if k in CHAR_FIELDS}
    spec = _section(merged, "task", training.SyntheticTaskSpec, seed_offset=0,
                    drop=tuple(CHAR_FIELDS), vocab_size=tokenizer.vocab_size, **ids)
    # refused here, not first by train-doppel after the files are written
    n_train, n_val = spec.split_sizes()
    if not n_train or not n_val:
        raise ConfigError(f"task splits {spec.n_sequences} sequences into {n_train} "
                          f"train and {n_val} val; each split needs one at least")
    max_seq_len = _section(merged, "lm", LMConfig, vocab_size=tokenizer.vocab_size).max_seq_len
    if spec.max_len > max_seq_len:
        raise ConfigError(f"task.max_len={spec.max_len} exceeds "
                          f"lm.max_seq_len={max_seq_len}")
    train, val = training.generate_synthetic_dataset(spec)
    training.save_dataset(train_path, train)
    training.save_dataset(val_path, val)
    _write_sidecar(train_path, merged)
    print(f"wrote {len(train)} train / {len(val)} val sequences for "
          f"{spec.kind} to {train_path} and {val_path}")
    return EXIT_OK


def cmd_train_doppel(merged: dict) -> int:
    opt = _section(merged, "train", OptimConfig, seed_offset=3)
    lm, doppel, tokenizer, block = _load_models(_path(merged, "checkpoint_in",
                                                      must_exist=True))
    if not block.get("frozen"):
        raise RefusalError("checkpoint's language section is not frozen; "
                           "refusing to train the shadow tower against it")
    train = training.load_dataset(_path(merged, "dataset_train", must_exist=True))
    val = training.load_dataset(_path(merged, "dataset_val", must_exist=True))
    if doppel is None:
        rng = np.random.default_rng(merged["seed"] + 1)
        doppel = init_doppelganger(lm.config, _section(merged, "doppel", DoppelConfig), rng)
    bm = BicameralModel(language=lm, doppel=doppel)
    log = training.train_doppelganger(bm, train, val, opt)

    out_path = _path(merged, "checkpoint_out")
    _save_models(out_path, merged, tokenizer, lm, doppel)
    _write_log(merged, log)
    final = log[-1]
    print(f"trained shadow tower for {final['epoch']} epochs, val loss "
          f"{final['val_loss']:.4f}, val acc {final['val_acc']}, wrote {out_path}")
    return EXIT_OK


def cmd_generate(merged: dict, prompt: str, max_new: int, fmt: str) -> int:
    sampler = _section(merged, "sampler", SamplerConfig, seed_offset=0)
    lm, doppel, tokenizer, _ = _load_models(_path(merged, "checkpoint_in",
                                                  must_exist=True), need_doppel=True)
    bm = BicameralModel(language=lm, doppel=doppel)
    try:
        prompt_ids = tokenizer.encode(prompt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        for event in generate(bm, prompt_ids, max_new, sampler, tokenizer):
            print(event.to_json() if fmt == "jsonl" else render_plain(event))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the stream early (``generate ... | head -1``):
        # a clean end. Point stdout at devnull so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def cmd_lemma_demo(merged: dict, instances: int, report: str | None) -> int:
    if instances < 0:
        raise ConfigError(f"--instances must be >= 0, got {instances}")
    seed = merged["seed"]
    report_path = Path(report) if report else _path(merged, "report")
    lines = []
    holds = 0
    for k in range(instances):
        f, cr = random_instance(seed * 100_003 + k)
        rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr,
                               description=f"seeded instance {k}")
        holds += int(rep.verdict and rep.pointwise_ok and all(rep.per_objective_dominance))
        lines.append(rep.to_json())
    report_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _write_sidecar(report_path, merged)
    print(f"dominance held on {holds}/{instances} instances, wrote {report_path}")
    return EXIT_OK if holds == instances else EXIT_NUMERIC


def cmd_gradcheck(merged: dict) -> int:
    seed = merged["seed"]
    results = run_op_battery(seed)
    results.append(run_model_check(seed))
    for res in results:
        print(res.row())
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"{len(failed)} gradient check(s) FAILED")
        return EXIT_NUMERIC
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicameral",
        description="two-tower language model with per-token supervision scores")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train and freeze the language tower")
    p.add_argument("--no-freeze", action="store_true",
                   help="leave the language tower trainable (not usable for "
                        "shadow training)")
    sub.add_parser("make-data", help="synthesize a per-prefix labelled dataset")
    sub.add_parser("train-doppel", help="train the shadow tower on a frozen checkpoint")

    p = sub.add_parser("generate", help="decode with per-token scores")
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--format", choices=("jsonl", "plain"), default="jsonl")

    p = sub.add_parser("lemma-demo", help="run the split-objective dominance demo")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--report", help="override paths.report")

    sub.add_parser("gradcheck", help="finite-difference every operation")
    return parser


@np.errstate(over="ignore", invalid="ignore")  # NumericError reports these, in one line
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_flags(_load_config(args.config), args)
        if args.command == "pretrain":
            return cmd_pretrain(merged, do_freeze=not args.no_freeze)
        if args.command == "make-data":
            return cmd_make_data(merged)
        if args.command == "train-doppel":
            return cmd_train_doppel(merged)
        if args.command == "generate":
            return cmd_generate(merged, args.prompt, args.max_new, args.format)
        if args.command == "lemma-demo":
            return cmd_lemma_demo(merged, args.instances, args.report)
        if args.command == "gradcheck":
            return cmd_gradcheck(merged)
        raise ConfigError(f"unknown command {args.command!r}")
    except (RefusalError, FrozenModelError, CheckpointError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SequenceError, ValueError, OSError) as exc:  # OSError: say, a missing directory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
