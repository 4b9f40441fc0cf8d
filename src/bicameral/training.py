"""Phase-two training: fit the shadow tower on per-prefix labels while the
language tower stays frozen.

Labels come from synthetic tasks whose ground truth is an exact, pure
function of the token prefix, so every supervision target is verifiable
by recomputation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import parameter_checksum
from .doppelganger import BicameralModel, doppel_forward, parameters as doppel_parameters
from .language import FrozenModelError, forward, named_parameters as lm_named
from .optim import NumericError, OptimConfig, check_fields, epochs, groups, norm, pad
from .tensor import Tensor


@dataclass
class SupervisedSequence:
    """Token ids plus one label row per prefix.

    labels[t][i] is ground-truth signal i for the prefix tokens[0..t],
    always finite and in [0, 1]. There is at least one token.
    """

    tokens: list[int]
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if len(self.tokens) == 0:
            raise ValueError("a supervised sequence needs at least one token")
        if self.labels.ndim != 2 or self.labels.shape[0] != len(self.tokens):
            raise ValueError(f"labels shape {self.labels.shape} does not give one "
                             f"row per token ({len(self.tokens)})")
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if self.labels.size and (self.labels.min() < 0.0 or self.labels.max() > 1.0):
            raise ValueError("labels must lie in [0, 1]")

    @property
    def n_objectives(self) -> int:
        return self.labels.shape[1]


TASK_KINDS = ("forbidden-token", "prefix-parity", "sentiment-lexicon")

CALIBRATION_BUCKETS = 10  # equal-width score buckets in evaluate's table


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """A labelled-data stand-in whose labels are exact prefix functions.

    kinds:
      forbidden-token   label 1 once any forbidden id has appeared
      prefix-parity     label = parity of how often a marked id appeared
      sentiment-lexicon label = (1 + mean lexicon polarity so far) / 2,
                        0.5 before any lexicon token
    """

    kind: str
    vocab_size: int
    n_sequences: int = 256
    val_fraction: float = 0.25
    min_len: int = 12
    max_len: int = 28
    seed: int = 0
    forbidden_ids: tuple[int, ...] = ()
    parity_ids: tuple[int, ...] = ()
    positive_ids: tuple[int, ...] = ()
    negative_ids: tuple[int, ...] = ()
    corpus_tokens: tuple[int, ...] | None = None

    def __post_init__(self):
        check_fields(self, val_fraction=0.0, max_len=self.min_len, seed=0)
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}")
        if self.val_fraction >= 1.0:
            raise ValueError(f"SyntheticTaskSpec.val_fraction must be below 1, "
                             f"got {self.val_fraction!r}")
        if self.corpus_tokens is not None and len(self.corpus_tokens) == 0:
            raise ValueError("corpus is empty")
        for name in ("forbidden_ids", "parity_ids", "positive_ids", "negative_ids"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.corpus_tokens is not None:
            object.__setattr__(self, "corpus_tokens", tuple(self.corpus_tokens))

    def split_sizes(self) -> tuple[int, int]:
        """How many of the sequences go to the train and to the val split."""
        n_val = int(round(self.n_sequences * self.val_fraction))
        return self.n_sequences - n_val, n_val

    def label_fn(self):
        """The task's pure prefix-label function, tokens -> [T, 1] floats."""
        if self.kind == "forbidden-token":
            forbidden = frozenset(self.forbidden_ids)

            def fn(tokens):
                hit = np.fromiter((t in forbidden for t in tokens), dtype=np.float64)
                return np.maximum.accumulate(hit)[:, None]
        elif self.kind == "prefix-parity":
            marked = frozenset(self.parity_ids)

            def fn(tokens):
                hits = np.fromiter((t in marked for t in tokens), dtype=np.float64)
                return (np.cumsum(hits) % 2.0)[:, None]
        else:
            pos, neg = frozenset(self.positive_ids), frozenset(self.negative_ids)

            def fn(tokens):
                p = np.cumsum([t in pos for t in tokens]).astype(np.float64)
                n = np.cumsum([t in neg for t in tokens]).astype(np.float64)
                total = p + n
                polarity = np.divide(p - n, total, out=np.zeros_like(total),
                                     where=total > 0)
                return ((1.0 + polarity) / 2.0)[:, None]
        return fn


def _draw_tokens(spec: SyntheticTaskSpec, rng: np.random.Generator) -> list[int]:
    length = int(rng.integers(spec.min_len, spec.max_len + 1))
    if spec.corpus_tokens is not None:
        corpus = spec.corpus_tokens
        if len(corpus) < length:
            length = len(corpus)
        start = int(rng.integers(0, len(corpus) - length + 1))
        return list(corpus[start:start + length])
    tokens = rng.integers(0, spec.vocab_size, size=length)
    if spec.kind == "forbidden-token" and spec.forbidden_ids:
        # keep both label classes present: half the sequences are scrubbed
        # clean, the rest get at least one forbidden token at a random spot
        forbidden = np.asarray(sorted(spec.forbidden_ids))
        if rng.uniform() < 0.5:
            clean = np.setdiff1d(np.arange(spec.vocab_size), forbidden)
            tokens = clean[rng.integers(0, len(clean), size=length)]
        elif not np.isin(tokens, forbidden).any():
            tokens[rng.integers(0, length)] = forbidden[rng.integers(0, len(forbidden))]
    return [int(t) for t in tokens]


def generate_synthetic_dataset(spec: SyntheticTaskSpec
                               ) -> tuple[list[SupervisedSequence], list[SupervisedSequence]]:
    """Draw sequences and label every prefix with the task's exact function."""
    rng = np.random.default_rng(spec.seed)
    label = spec.label_fn()
    data = []
    for _ in range(spec.n_sequences):
        tokens = _draw_tokens(spec, rng)
        data.append(SupervisedSequence(tokens=tokens, labels=label(tokens)))
    n_train, _ = spec.split_sizes()
    return data[:n_train], data[n_train:]


def save_dataset(path: str | Path, data: list[SupervisedSequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in data:
            fh.write(json.dumps({"tokens": list(seq.tokens),
                                 "labels": seq.labels.tolist()}) + "\n")


def load_dataset(path: str | Path) -> list[SupervisedSequence]:
    """One ``{"tokens": [...], "labels": [[...], ...]}`` object per line; a
    malformed line raises ValueError naming the file and the line."""
    data = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                tokens = list(obj["tokens"])
                if not all(type(t) is int for t in tokens):
                    raise ValueError("tokens must be integer ids")
                data.append(SupervisedSequence(tokens=tokens, labels=obj["labels"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {number}: {type(exc).__name__}: {exc}") from exc
    return data


def _padded(bm: BicameralModel, data: list[SupervisedSequence], name: str):
    """The padded table of the ``name`` dataset ``data``: the frozen tower's
    taps, one [N, T_max, d_model] array per tap, the labels [N, T_max, n]
    and the lengths [N].

    The tower is frozen, so one pass per group of rows, in data order,
    serves every epoch; a row's padding sits after its real positions,
    where causal attention keeps it out of them.
    """
    _check_labels(data, bm.doppel.config.n_objectives, name)
    cfg = bm.language.config
    lengths = np.array([len(s.tokens) for s in data])
    tokens = pad([np.asarray(s.tokens) for s in data])
    taps = [np.zeros(tokens.shape + (cfg.d_model,)) for _ in range(cfg.n_layers + 1)]
    for group, real in groups(np.arange(len(data)), lengths):
        span = real.shape[1]
        _, group_taps = forward(bm.language, tokens[group, :span])
        for table, tap in zip(taps, group_taps):
            table[group, :span] = tap.data
    return taps, pad([s.labels for s in data]), lengths


def _group_forward(model, taps, labels, group, real):
    """Shadow scores [G, span, n] of the rows ``group`` of a padded table,
    with their labels."""
    span = real.shape[1]
    return doppel_forward(model, [Tensor(t[group, :span]) for t in taps]), labels[group, :span]


def _check_labels(data: list[SupervisedSequence], n_objectives: int, name: str):
    if not data:
        raise ValueError(f"{name} dataset is empty")
    for seq in data:
        if seq.n_objectives != n_objectives:
            raise ValueError(f"{name} labels have {seq.n_objectives} objectives, "
                             f"model predicts {n_objectives}")


def _real_scores(model, taps, labels, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels at every real position of a padded table,
    [positions, n], from one gradient-free shadow pass per group."""
    scores, real_labels = [], []
    with T.no_grad():
        for group, real in groups(np.arange(len(lengths)), lengths):
            s, y = _group_forward(model, taps, labels, group, real)
            scores.append(s.data[real])
            real_labels.append(y[real])
    return np.concatenate(scores), np.concatenate(real_labels)


def _mean_bce(scores: np.ndarray, labels: np.ndarray) -> float:
    return T.binary_cross_entropy(Tensor(scores), Tensor(labels)).item()


def _loss_and_metrics(scores: np.ndarray, labels: np.ndarray):
    accuracy = np.mean((scores >= 0.5) == (labels >= 0.5), axis=0)
    return _mean_bce(scores, labels), accuracy.tolist()


def _group_loss(model, taps, labels, group, real, batch_len: int):
    """Training loss of the rows ``group`` of a padded table from an
    optimizer batch of ``batch_len`` sequences, with the summed BCE of
    their real positions and the count of those positions.

    Position t of sequence i weighs 1 / (batch_len * len_i * n_objectives)
    and padding weighs 0, so the losses of a batch's groups sum to the
    mean over each sequence's entries, then over the batch.
    """
    scores, labels = _group_forward(model, taps, labels, group, real)
    lengths = real.sum(axis=1, keepdims=True)
    weights = real / (batch_len * lengths * labels.shape[-1])
    loss = T.binary_cross_entropy(scores, Tensor(labels), weights=weights)
    count = int(lengths.sum())
    return loss, count * _mean_bce(scores.data[real], labels[real]), count


def train_doppelganger(bm: BicameralModel, train: list[SupervisedSequence],
                       val: list[SupervisedSequence], opt: OptimConfig) -> list[dict]:
    """Minimize mean BCE over all positions and objectives, updating only the
    shadow tower.

    Early-stops when validation BCE fails to improve for ``opt.patience``
    epochs and restores the best-validation parameters. Each log record
    is ``optim.epochs``' (epoch, train loss, gradient and parameter norms)
    plus the validation loss and accuracy. Epoch 0 is the untouched
    baseline; it takes no step, so its ``grad_norm`` is None.
    """
    if not bm.language.frozen:
        raise FrozenModelError("the language component must be frozen before "
                               "training the shadow tower")
    checksum_before = parameter_checksum(lm_named(bm.language))
    params = doppel_parameters(bm.doppel)

    train_taps, train_labels, train_lengths = _padded(bm, train, "train")
    val_table = _padded(bm, val, "val")

    base_train = _mean_bce(*_real_scores(bm.doppel, train_taps, train_labels, train_lengths))
    base_val, base_acc = _loss_and_metrics(*_real_scores(bm.doppel, *val_table))
    log = [{"epoch": 0, "train_loss": base_train, "grad_norm": None,
            "param_norm": norm(p.data for p in params), "val_loss": base_val,
            "val_acc": base_acc}]

    group_loss = partial(_group_loss, bm.doppel, train_taps, train_labels)
    best_val = base_val
    best_params = [p.data.copy() for p in params]
    since_best = 0
    for record in epochs(params, train_lengths, group_loss, opt):
        val_loss, val_acc = _loss_and_metrics(*_real_scores(bm.doppel, *val_table))
        if not np.isfinite(val_loss):
            raise NumericError(f"validation loss is {val_loss} in epoch {record['epoch']}")
        log.append({**record, "val_loss": val_loss, "val_acc": val_acc})
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = [p.data.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= opt.patience:
                break
    for p, best in zip(params, best_params):
        p.data = best

    if parameter_checksum(lm_named(bm.language)) != checksum_before:
        raise FrozenModelError("language parameters changed during shadow training")
    return log


def evaluate(bm: BicameralModel, data: list[SupervisedSequence]) -> dict:
    """Pure evaluation: per-objective accuracy, mean BCE, and calibration
    buckets of predicted score vs mean label."""
    scores, labels = _real_scores(bm.doppel, *_padded(bm, data, "eval"))
    bce, acc = _loss_and_metrics(scores, labels)

    edges = np.linspace(0.0, 1.0, CALIBRATION_BUCKETS + 1)
    idx = np.clip(np.digitize(scores, edges) - 1, 0, CALIBRATION_BUCKETS - 1).ravel()
    counts = np.bincount(idx, minlength=CALIBRATION_BUCKETS)
    pred_sum = np.bincount(idx, weights=scores.ravel(), minlength=CALIBRATION_BUCKETS)
    label_sum = np.bincount(idx, weights=labels.ravel(), minlength=CALIBRATION_BUCKETS)
    calibration = []
    for b in range(CALIBRATION_BUCKETS):
        calibration.append({
            "bucket": [float(edges[b]), float(edges[b + 1])],
            "count": int(counts[b]),
            "mean_score": float(pred_sum[b] / counts[b]) if counts[b] else None,
            "mean_label": float(label_sum[b] / counts[b]) if counts[b] else None,
        })
    return {"bce": bce, "accuracy": acc, "calibration": calibration,
            "n_positions": int(len(scores))}
