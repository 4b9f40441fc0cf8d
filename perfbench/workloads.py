"""The four workloads: ``fit``, ``score``, ``generate`` and ``lemma``.

Each is a closed loop with one client. Its inputs come from the workload
seed alone, and it drives the package only through public functions and
``bicameral.cli.main``, looked up at call time so that the tracer's
wrappers are seen. A workload object is built once (set-up); then
``run_units`` repeats its ``step`` while time remains, ``check`` verifies
what was produced, and ``metrics`` turns the timings into the named
end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import bicameral.checkpoint as checkpoint
import bicameral.cli as cli
import bicameral.doppelganger as doppelganger
import bicameral.generation as generation
import bicameral.language as language
import bicameral.reward_theory as reward_theory
import bicameral.training as training

PERCENTILES = (99, 95, 90, 75, 50)


def timing(samples, scale: float = 1.0) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = np.sort(np.asarray(samples, dtype=np.float64)) * scale
    out = {"n": int(xs.size), "p50": float(np.median(xs)) if xs.size else float("nan")}
    for p in PERCENTILES:
        if xs.size * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(xs, p))
            out["tail"] = p
            break
    return out


def run_units(step, seconds: float) -> list:
    """Closed loop: call ``step(i)`` while the unit expected next (at the
    median time of those so far) still fits in ``seconds``; at least one
    unit runs. Each unit's result dict gets its wall time as ``"wall"``."""
    results, times = [], []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start + float(np.median(times)) <= seconds:
        t0 = perf_counter()
        unit = step(i)
        unit["wall"] = perf_counter() - t0
        results.append(unit)
        times.append(unit["wall"])
        i += 1
    return results


@contextlib.contextmanager
def quiet():
    """Keep the CLI's progress lines off the benchmark's standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def _finite(records) -> bool:
    def ok(v):
        if isinstance(v, (list, tuple)):
            return all(ok(x) for x in v)
        return not isinstance(v, float) or math.isfinite(v)
    return all(ok(v) for rec in records for v in rec.values())


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


# ---------------------------------------------------------------------------
# fit: the desk-scale pipeline through the CLI
# ---------------------------------------------------------------------------

class Fit:
    """pretrain -> make-data -> train-doppel -> load checkpoint + evaluate.

    Criterion-5 scale: default ``LMConfig(vocab 27)`` and ``DoppelConfig()``,
    256 forbidden-token sequences of 12-28 tokens. Patience equals the
    epoch count, so every pipeline does the same number of epochs.
    """

    name = "fit"
    ALPHABET = "abcdefghijklmnopqrstuvwxyz "
    WINDOW, WINDOWS, PRETRAIN_EPOCHS, SHADOW_EPOCHS = 64, 32, 2, 4
    MIN_ACC = 0.95

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        rng = np.random.default_rng(seed)
        chars = np.asarray(list(self.ALPHABET))
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        self.alphabet = inputs / "alphabet.txt"
        self.corpus = inputs / "corpus.txt"
        self.alphabet.write_text("\n".join(self.ALPHABET) + "\n", encoding="utf-8")
        self.corpus.write_text("".join(rng.choice(chars, size=self.WINDOW * self.WINDOWS + 1)),
                               encoding="utf-8")
        self.pretrain_tokens = self.WINDOW * self.WINDOWS * self.PRETRAIN_EPOCHS

    def _config(self, root: Path) -> Path:
        files = {"dataset_train": "train.jsonl", "dataset_val": "val.jsonl",
                 "checkpoint_in": "model.ckpt", "checkpoint_out": "model.ckpt",
                 "log": "log.jsonl"}
        config = {
            "seed": self.seed,
            "paths": {"alphabet": str(self.alphabet), "corpus": str(self.corpus),
                      **{k: str(root / v) for k, v in files.items()}},
            "pretrain": {"epochs": self.PRETRAIN_EPOCHS, "batch_size": 16, "lr": 1e-3,
                         "window": self.WINDOW},
            "train": {"epochs": self.SHADOW_EPOCHS, "batch_size": 16, "lr": 3e-3,
                      "patience": self.SHADOW_EPOCHS},
            "task": {"kind": "forbidden-token", "forbidden_chars": ["x"],
                     "n_sequences": 256, "val_fraction": 0.25, "min_len": 12,
                     "max_len": 28},
        }
        path = root / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def _evaluate(self, root: Path) -> dict:
        ckpt = checkpoint.load_checkpoint(root / "model.ckpt")
        lm = language.init_language_model(language.LMConfig(**ckpt.config["lm"]))
        language.load_parameters(lm, ckpt.params, prefix="lm.")
        language.freeze(lm)
        dm = doppelganger.init_doppelganger(lm.config,
                                            doppelganger.DoppelConfig(**ckpt.config["doppel"]))
        doppelganger.load_parameters(dm, ckpt.params, prefix="doppel.")
        val = training.load_dataset(root / "val.jsonl")
        return training.evaluate(doppelganger.BicameralModel(language=lm, doppel=dm), val)

    def step(self, i: int, tag: str = "") -> dict:
        root = self.workdir / f"pipeline{tag}{i}"
        root.mkdir()
        config = str(self._config(root))
        steps: list[tuple[str, bool]] = []
        times = [perf_counter()]
        out = {"root": root, "steps": steps, "times": times}

        def command(name: str) -> bool:
            with quiet():
                rc = cli.main(["--config", config, name])
            times.append(perf_counter())
            return rc == 0

        ok = command("pretrain") and _finite(_read_jsonl(root / "log.jsonl"))
        steps.append(("pretrain", ok))
        if ok:
            ok = command("make-data")
            steps.append(("make-data", ok))
        if ok:
            ok = command("train-doppel")
            if ok:
                out["log"] = _read_jsonl(root / "log.jsonl")
                ok = _finite(out["log"])
            steps.append(("train-doppel", ok))
        if ok:
            result = self._evaluate(root)
            times.append(perf_counter())
            out["eval"] = result
            ok = (result["accuracy"][0] >= self.MIN_ACC
                  and all(math.isfinite(a) for a in result["accuracy"])
                  and math.isfinite(result["bce"]))
            steps.append(("evaluate", ok))
        return out

    def check(self, units: list[dict]) -> tuple[int, int]:
        # a pipeline that stops at a failed step counts the steps it never
        # reached as attempted and failed
        attempted = 4 * len(units)
        return attempted, attempted - sum(ok for u in units for _, ok in u["steps"])

    def same_outputs(self, a: list[dict], b: list[dict]) -> bool:
        # the config block names each pipeline's directory, so compare the
        # parameter payload checksums rather than the file bytes
        def params(u):
            return checkpoint.load_checkpoint(u["root"] / "model.ckpt").checksum
        return all(params(x) == params(y) for x, y in zip(a, b))

    def _train_positions(self, root: Path) -> int:
        return sum(len(s.tokens) for s in training.load_dataset(root / "train.jsonl"))

    def metrics(self, units: list[dict]) -> dict:
        done = [u for u in units if len(u["times"]) == 5]
        walls = [u["times"][4] - u["times"][0] for u in done]
        pretrain = [u["times"][1] - u["times"][0] for u in done]
        shadow = [self._train_positions(u["root"]) * u["log"][-1]["epoch"]
                  / (u["times"][3] - u["times"][2]) for u in done]
        return {
            "fit_s": ("s", timing(walls)),
            "pretrain_tokens_per_s": ("1/s", float(np.median(
                [self.pretrain_tokens / t for t in pretrain]))),
            "shadow_positions_per_s": ("1/s", float(np.median(shadow))),
            "generic": {"throughput_per_s": float(np.median(shadow)),
                        "latency_ms_p50": float(np.median(walls)) * 1e3},
        }

    def layer_counts(self, tracer, units: list[dict]) -> dict:
        done = [u for u in units if "log" in u]
        epochs = sum(u["log"][-1]["epoch"] for u in done)
        to_acc = []
        for u in done:
            hits = [e["epoch"] for e in u["log"] if e["val_acc"][0] >= self.MIN_ACC]
            # never reached within the run reads as one epoch past the end
            to_acc.append(hits[0] if hits else u["log"][-1]["epoch"] + 1)
        seqs = sum(len(training.load_dataset(u["root"] / "val.jsonl")) for u in done
                   if "eval" in u)
        ev_passes = tracer.count_within("doppelganger.doppel_forward", "training.evaluate")
        tr_passes = tracer.count_within("doppelganger.doppel_forward",
                                        "training.train_doppelganger")
        return {
            "training.tap_passes": tracer.count_within("language.forward",
                                                       "training.train_doppelganger"),
            "training.shadow_passes_per_epoch": tr_passes / epochs if epochs else 0.0,
            "training.epochs_run": epochs / len(done) if done else 0.0,
            "training.epochs_to_acc": float(np.mean(to_acc)) if to_acc else 0.0,
            "training.evaluate.seqs": seqs,
            "training.evaluate.doppel_passes_per_seq": ev_passes / seqs if seqs else 0.0,
        }


# ---------------------------------------------------------------------------
# score and generate: the two kinds of request served by a frozen model
# ---------------------------------------------------------------------------

class _Serving:
    """A seeded desk-scale model (default ``LMConfig(vocab 27)`` and
    ``DoppelConfig()``), frozen, serving one request per unit of work.

    Pass cost does not depend on weight values, so seeded initial
    weights stand in for trained ones. Prompt lengths are drawn from
    strata (one draw per stratum, in seeded order), so every run covers
    the same spread of lengths whatever the seed.
    """

    STRATA = 16
    UNITS = 2000  # the stream repeats after this many requests

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cfg = language.LMConfig(vocab_size=27)
        lm = language.init_language_model(self.cfg, rng)
        language.freeze(lm)
        dm = doppelganger.init_doppelganger(self.cfg, doppelganger.DoppelConfig(), rng)
        self.bm = doppelganger.BicameralModel(language=lm, doppel=dm)
        edges = np.linspace(self.MIN_PROMPT, self.MAX_PROMPT + 1, self.STRATA + 1).astype(int)
        lengths = []
        while len(lengths) < self.UNITS:
            draws = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
            lengths += [draws[k] for k in rng.permutation(self.STRATA)]
        self.requests = [self._request(rng, i, plen) for i, plen in enumerate(lengths)]

    def step(self, i: int, tag: str = "") -> dict:
        prompt, max_new, sampler = self.requests[i % self.UNITS]
        t0 = perf_counter()
        events, times = [], []
        for event in generation.generate(self.bm, prompt, max_new, sampler):
            events.append(event)
            times.append(perf_counter())
        plen = len(prompt)
        # kept as arrays, so memory held for checking does not grow with
        # the number of requests a run completes
        return {"prompt": prompt, "max_new": max_new,
                "pos": np.asarray([e.pos for e in events]),
                "tokens": [e.token_id for e in events],
                "scores": np.asarray([e.scores for e in events], dtype=np.float64),
                "prefill": times[plen - 1] - t0, "gaps": np.diff(times[plen - 1:]).tolist()}

    def _request_ok(self, req: dict) -> bool:
        prompt, tokens, scores = req["prompt"], req["tokens"], req["scores"]
        n = len(prompt) + req["max_new"]
        if len(tokens) != n or not np.array_equal(req["pos"], np.arange(n)):
            return False
        if tokens[:len(prompt)] != prompt:
            return False
        if not np.all((scores > 0.0) & (scores < 1.0)):
            return False
        # criterion-3 contract: each generated event equals, bitwise,
        # recomputation on the prefix that ends at it
        return all(scores[t].tobytes() == doppelganger.score_prefixes(
            self.bm, tokens[:t + 1]).data[-1].tobytes() for t in range(len(prompt), n))

    def check(self, units: list[dict]) -> tuple[int, int]:
        return len(units), sum(not self._request_ok(u) for u in units)

    def same_outputs(self, a: list[dict], b: list[dict]) -> bool:
        return all(x["tokens"] == y["tokens"] and x["scores"].tobytes() == y["scores"].tobytes()
                   for x, y in zip(a, b))

    def layer_counts(self, tracer, units: list[dict]) -> dict:
        tokens = sum(len(u["gaps"]) for u in units)
        if not tokens:
            return {}
        # the first pass of each request covers its prompt; the rest are
        # one pass per generated token
        passes = tracer.count_within("language.forward", "generation.generate")
        rows = tracer.counts["language.forward.rows"] - sum(len(u["prompt"]) for u in units)
        return {"generation.tokens": tokens,
                "generation.passes_per_token": (passes - len(units)) / tokens,
                "generation.rows_per_token": rows / tokens}


class Score(_Serving):
    """Score-only requests: a prompt of 64-256 tokens and ``max_new=0``,
    so each request is one full pass, like scoring existing text."""

    name = "score"
    MIN_PROMPT, MAX_PROMPT = 64, 256

    def _request(self, rng, i: int, plen: int):
        return ([int(t) for t in rng.integers(0, self.cfg.vocab_size, size=plen)], 0,
                generation.SamplerConfig())

    def metrics(self, units: list[dict]) -> dict:
        prefill = [u["prefill"] for u in units]
        positions_per_s = sum(len(u["prompt"]) for u in units) / sum(prefill)
        pre = timing(prefill, 1e3)
        return {"serve_prefill_ms": ("ms", pre),
                "score_positions_per_s": ("1/s", positions_per_s),
                "generic": {"throughput_per_s": positions_per_s, "latency_ms_p50": pre["p50"]}}


class Generate(_Serving):
    """Long generations: a prompt of 8-64 tokens run to within 8 tokens of
    ``max_seq_len``, one pass per token over a growing prefix; greedy,
    top_k and temperature sampling in turn. The first request is greedy;
    its outputs are the digest compared across commits."""

    name = "generate"
    MIN_PROMPT, MAX_PROMPT = 8, 64
    STRATA, UNITS = 3, 60
    SAMPLERS = (("greedy", {}), ("top_k", {"k": 5}), ("temperature", {"temperature": 0.8}))

    def _request(self, rng, i: int, plen: int):
        strategy, kw = self.SAMPLERS[i % len(self.SAMPLERS)]
        max_new = self.cfg.max_seq_len - plen - int(rng.integers(0, 9))
        sampler = generation.SamplerConfig(strategy=strategy, seed=int(rng.integers(2**31)), **kw)
        return [int(t) for t in rng.integers(0, self.cfg.vocab_size, size=plen)], max_new, sampler

    def digest(self, units: list[dict]) -> str:
        h = hashlib.sha256(np.asarray(units[0]["tokens"], dtype=np.int64).tobytes())
        h.update(units[0]["scores"].tobytes())
        return h.hexdigest()

    def metrics(self, units: list[dict]) -> dict:
        gaps = [g for u in units for g in u["gaps"]]
        tokens_per_s = len(gaps) / sum(gaps)
        gap = timing(gaps, 1e3)
        return {"serve_prefill_ms": ("ms", timing([u["prefill"] for u in units], 1e3)),
                "serve_gap_ms": ("ms", gap),
                "serve_tokens_per_s": ("1/s", tokens_per_s),
                "generic": {"throughput_per_s": tokens_per_s, "latency_ms_p50": gap["p50"]}}

    def prefix_mismatches(self, units: list[dict], per_request: int = 32) -> tuple[int, int]:
        """Truncations t where score_prefixes(tokens[:t]) differs bitwise
        from score_prefixes(tokens)[:t]: (mismatches, truncations checked)."""
        rng = np.random.default_rng(0)
        mismatches = checks = 0
        for u in units:
            tokens = u["tokens"]
            full = doppelganger.score_prefixes(self.bm, tokens).data
            for t in rng.choice(np.arange(1, len(tokens)), size=per_request, replace=False):
                part = doppelganger.score_prefixes(self.bm, tokens[:t]).data
                mismatches += int(not np.array_equal(part, full[:t]))
                checks += 1
        return mismatches, checks


# ---------------------------------------------------------------------------
# lemma: the dominance demo through the CLI
# ---------------------------------------------------------------------------

class Lemma:
    """``bicameral lemma-demo`` in-process, ``INSTANCES`` seeded instances
    per call; call i uses CLI seed ``seed * 10000 + i``."""

    name = "lemma"
    INSTANCES = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def step(self, i: int, tag: str = "") -> dict:
        report = self.workdir / f"report{tag}{i}.jsonl"
        with quiet():
            cli.main(["--seed", str(self.seed * 10000 + i), "lemma-demo",
                      "--instances", str(self.INSTANCES), "--report", str(report)])
        # the report decides each instance; a refused call leaves none
        return {"report": report}

    def check(self, units: list[dict]) -> tuple[int, int]:
        attempted = failed = 0
        for u in units:
            lines = _read_jsonl(u["report"]) if u["report"].exists() else []
            good = sum(r["verdict"] and r["pointwise_ok"] and all(r["per_objective_dominance"])
                       for r in lines)
            attempted += self.INSTANCES
            failed += self.INSTANCES - good
        # the equality case and the negative control, once per run
        f, cr = reward_theory.make_separable_instance()
        rep = reward_theory.verify_supremacy(
            f, reward_theory.SplitLanguageFunction.from_shared(f), cr)
        failed += not (rep.verdict and rep.separable_equality
                       and abs(rep.split_value - rep.shared_value) <= 1e-12)
        f, cr = reward_theory.make_negative_control()
        neg = reward_theory.verify_supremacy(
            f, reward_theory.SplitLanguageFunction.from_shared(f), cr, allow_non_monotone=True)
        failed += not (not neg.monotone and not neg.verdict)
        return attempted + 2, failed

    def same_outputs(self, a: list[dict], b: list[dict]) -> bool:
        return all(x["report"].read_bytes() == y["report"].read_bytes() for x, y in zip(a, b))

    def metrics(self, units: list[dict]) -> dict:
        walls = [u["wall"] for u in units]
        rate = self.INSTANCES * len(walls) / sum(walls)
        call = timing(walls, 1e3)
        return {
            "lemma_instances_per_s": ("1/s", rate),
            "lemma_call_ms": ("ms", call),
            "generic": {"throughput_per_s": rate, "latency_ms_p50": call["p50"]},
        }

    def layer_counts(self, tracer, units: list[dict]) -> dict:
        return {}


WORKLOADS = {"fit": Fit, "score": Score, "generate": Generate, "lemma": Lemma}
