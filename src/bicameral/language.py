"""Decoder-only transformer whose per-module outputs are exposed as taps.

Blocks are pre-norm residual (norm -> attention -> add, norm -> FFN ->
add). The tap recorded for module k is its post-residual output, i.e.
exactly the tensor the next module receives; tap 0 is the positionally
encoded token embeddings. Once frozen, the tower's parameters stop
tracking gradients, so its taps enter downstream graphs as plain values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_named, parameter_checksum
from .optim import OptimConfig, check_fields, epochs, pad
from .tensor import Tensor


class FrozenModelError(RuntimeError):
    """A training step was asked to mutate a frozen model."""


class SequenceError(ValueError):
    """Token sequence violates a forward-pass precondition."""


@dataclass(frozen=True)
class LMConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 256

    def __post_init__(self):
        check_fields(self)
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} is not divisible by "
                             f"n_heads={self.n_heads}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AttentionModuleParams:
    """One attention module: q/k/v projections, output mix, FFN, norms.

    ``wq``, ``wk`` and ``wv`` are [d, d]; head h owns columns
    h*dh:(h+1)*dh of each, so the shapes do not depend on the head count.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
                (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo),
                (f"{prefix}.ffn.w1", self.w1), (f"{prefix}.ffn.b1", self.b1),
                (f"{prefix}.ffn.w2", self.w2), (f"{prefix}.ffn.b2", self.b2),
                (f"{prefix}.ln1.gain", self.ln1_gain), (f"{prefix}.ln1.bias", self.ln1_bias),
                (f"{prefix}.ln2.gain", self.ln2_gain), (f"{prefix}.ln2.bias", self.ln2_bias)]


@dataclass
class LanguageModel:
    config: LMConfig
    embedding: Tensor
    blocks: list[AttentionModuleParams]
    lnf_gain: Tensor
    lnf_bias: Tensor
    head: Tensor
    frozen: bool = False
    checksum: int | None = None
    forward_calls: int = 0


def init_matrix(rng: np.random.Generator | None, rows: int, cols: int,
                std: float = 0.02) -> Tensor:
    if rng is None:
        data = np.zeros((rows, cols))
    else:
        data = rng.normal(0.0, std, size=(rows, cols))
    return Tensor(data, requires_grad=True)


def init_attention_module(d: int, d_ff: int,
                          rng: np.random.Generator | None) -> AttentionModuleParams:
    ones = lambda n: Tensor(np.ones(n), requires_grad=True)
    zeros = lambda n: Tensor(np.zeros(n), requires_grad=True)
    return AttentionModuleParams(
        wq=init_matrix(rng, d, d), wk=init_matrix(rng, d, d), wv=init_matrix(rng, d, d),
        wo=init_matrix(rng, d, d),
        w1=init_matrix(rng, d, d_ff), b1=zeros(d_ff),
        w2=init_matrix(rng, d_ff, d), b2=zeros(d),
        ln1_gain=ones(d), ln1_bias=zeros(d),
        ln2_gain=ones(d), ln2_bias=zeros(d),
    )


def init_language_model(config: LMConfig,
                        rng: np.random.Generator | None = None) -> LanguageModel:
    """Fresh model: normal(0, 0.02) projections, zero biases, unit norm gains.

    The embedding table starts at unit scale so token identity is not
    drowned out by the unit-scale positional table; a frozen tower's
    probes must carry the token signal as-is.

    ``rng=None`` zero-initializes, for models about to be loaded from a
    checkpoint.
    """
    return LanguageModel(
        config=config,
        embedding=init_matrix(rng, config.vocab_size, config.d_model, std=1.0),
        blocks=[init_attention_module(config.d_model, config.d_ff, rng)
                for _ in range(config.n_layers)],
        lnf_gain=Tensor(np.ones(config.d_model), requires_grad=True),
        lnf_bias=Tensor(np.zeros(config.d_model), requires_grad=True),
        head=init_matrix(rng, config.d_model, config.vocab_size),
    )


def named_parameters(model: LanguageModel) -> list[tuple[str, Tensor]]:
    out = [("embedding", model.embedding)]
    for k, block in enumerate(model.blocks):
        out += block.named(f"block{k}")
    out += [("lnf.gain", model.lnf_gain), ("lnf.bias", model.lnf_bias),
            ("head", model.head)]
    return out


def parameters(model: LanguageModel) -> list[Tensor]:
    return [p for _, p in named_parameters(model)]


def load_parameters(model: LanguageModel, values: dict[str, np.ndarray],
                    prefix: str = "") -> None:
    load_named(named_parameters(model), values, prefix)


def freeze(model: LanguageModel) -> None:
    """Mark the tower immutable and record its parameter checksum.

    Frozen parameters stop requiring gradients, so every downstream
    graph sees the tower's outputs as constants.
    """
    model.frozen = True
    for p in parameters(model):
        p.requires_grad = False
    model.checksum = parameter_checksum(named_parameters(model))


def positional_encode(embeddings: Tensor, max_seq_len: int, start: int = 0) -> Tensor:
    """Add the fixed sinusoidal position table to [T, d] (or [G, T, d])
    embeddings of positions start..start+T-1.

    pe[pos, 2i] = sin(pos / 10000^(2i/d)), pe[pos, 2i+1] = cos(same).
    The table is a pure function of position, independent of the tokens.
    """
    t, d = embeddings.shape[-2:]
    if start + t > max_seq_len:
        raise SequenceError(f"sequence of length {start + t} exceeds "
                            f"max_seq_len={max_seq_len}")
    pe = sinusoid_table(max_seq_len, d)[start:start + t]
    return T.add(embeddings, Tensor(np.broadcast_to(pe, embeddings.shape)))


@lru_cache(maxsize=None)
def sinusoid_table(t: int, d: int) -> np.ndarray:
    """The [t, d] table, cached and read-only. Its first n rows equal
    ``sinusoid_table(n, d)`` bitwise, so one table serves every length."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    pe = np.zeros((t, d))
    half = (d + 1) // 2
    div = np.power(10000.0, (2.0 * np.arange(half)) / d)
    angles = pos / div[None, :]
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d // 2])
    pe.flags.writeable = False
    return pe


class KVCache:
    """One tower's keys and values for the positions of one sequence run so
    far, so that it can be decoded a few positions per call.

    ``length`` positions have run. Attention module i keeps its keys and
    values for them in the first rows of two zero-filled [..., capacity, d]
    arrays, made on first use; a first call that fills the cache keeps its
    own arrays instead. A call with a cache runs only the positions after
    ``length`` and attends to the cached ones too; those enter as
    constants, with no gradient path. A call without one runs on a fresh
    cache sized to it, so a full pass and a decode step are the same code.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.length = 0
        self._kv: list[tuple[np.ndarray, np.ndarray]] = []

    def extend(self, index: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Store module ``index``'s keys and values of the new positions and
        return those of every position so far: on an empty cache, ``k`` and
        ``v`` themselves, so a full pass keeps its graph."""
        end = self.length + k.shape[-2]
        if end > self.capacity:
            raise SequenceError(f"a cache of {self.capacity} positions cannot "
                                f"hold {end}")
        if index == len(self._kv):
            if self.length == 0 and end == self.capacity:
                self._kv.append((k.data, v.data))
                return k, v
            shape = (*k.shape[:-2], self.capacity, k.shape[-1])
            self._kv.append((np.zeros(shape), np.zeros(shape)))
        keys, values = self._kv[index]
        keys[..., self.length:end, :] = k.data
        values[..., self.length:end, :] = v.data
        if self.length == 0:
            return k, v
        return Tensor(keys[..., :end, :]), Tensor(values[..., :end, :])


def attention_module(params: AttentionModuleParams, x: Tensor, n_heads: int,
                     cache: KVCache | None = None, index: int = 0) -> Tensor:
    """Pre-norm residual block: causal multi-head attention then FFN.

    ``x`` is [..., n, d], the rows of positions ``cache.length`` onward;
    their keys and values join module ``index``'s in ``cache``. The q, k
    and v projections stay [..., n, d]; ``causal_attention`` splits and
    merges the heads inside the op.
    """
    cache = KVCache(x.shape[-2]) if cache is None else cache
    start = cache.length
    h = T.layer_norm(x, params.ln1_gain, params.ln1_bias)
    q, k, v = (T.matmul(h, w, start) for w in (params.wq, params.wk, params.wv))
    k, v = cache.extend(index, k, v)
    x = T.add(x, T.matmul(T.causal_attention(q, k, v, n_heads), params.wo, start))

    f = T.layer_norm(x, params.ln2_gain, params.ln2_bias)
    f = T.add(T.matmul(f, params.w1, start), params.b1)
    f = T.add(T.matmul(T.gelu(f), params.w2, start), params.b2)
    return T.add(x, f)


def _validate_ids(tokens, vocab_size: int, max_seq_len: int, start: int) -> np.ndarray:
    ids = np.asarray(tokens)
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise SequenceError("token ids must be a non-empty [T] or [G, T] array")
    if not np.issubdtype(ids.dtype, np.integer):
        raise SequenceError("token ids must be integers")
    if ids.min() < 0 or ids.max() >= vocab_size:
        bad = int(ids[(ids < 0) | (ids >= vocab_size)][0])
        raise SequenceError(f"token id {bad} out of range for vocabulary "
                            f"of {vocab_size}")
    if start + ids.shape[-1] > max_seq_len:
        raise SequenceError(f"sequence of length {start + ids.shape[-1]} exceeds "
                            f"max_seq_len={max_seq_len}")
    return ids


def forward(model: LanguageModel, tokens,
            cache: KVCache | None = None) -> tuple[Tensor, list[Tensor]]:
    """Causal forward pass: next-token logits plus the taps.

    ``tokens`` is one sequence [T] or a group [G, T] of equal-length rows;
    a group gives [G, T, ...] logits and taps. ``taps[0]`` is the
    positionally encoded embeddings and ``taps[k]`` the output of
    attention module k, each [..., T, d_model]. With a ``cache``, the
    tokens are the positions after the ``cache.length`` already run, and
    the results cover those positions alone.

    logits[t] depends only on tokens[0..t], and so do all taps at position
    t, bitwise across lengths: every product runs on tiles whose shape and
    offsets the position sets, so the rows of a prefix are the same bits
    whether it runs alone, as part of a longer sequence, or a few positions
    per call through a cache. A right-padded row's real positions never
    see its padding.
    """
    cfg = model.config
    start = 0 if cache is None else cache.length
    ids = _validate_ids(tokens, cfg.vocab_size, cfg.max_seq_len, start)
    cache = KVCache(ids.shape[-1]) if cache is None else cache
    model.forward_calls += 1

    x = positional_encode(T.embedding_lookup(model.embedding, ids), cfg.max_seq_len, start)
    taps = [x]
    for index, block in enumerate(model.blocks):
        x = attention_module(block, x, cfg.n_heads, cache, index)
        taps.append(x)
    cache.length += ids.shape[-1]
    h = T.layer_norm(x, model.lnf_gain, model.lnf_bias)
    logits = T.matmul(h, model.head, start)
    return logits, taps


def _group_loss(model: LanguageModel, tokens: np.ndarray, group, real: np.ndarray,
                batch_len: int):
    """Next-token loss of the rows ``group`` of the padded ``tokens`` from a
    batch of ``batch_len``, their summed mean losses and their count. Row
    i's len_i predicted positions (``real``) weigh 1 / (batch_len * len_i)
    and padding 0: the mean per sequence, then per batch."""
    weights = real / (batch_len * real.sum(axis=1, keepdims=True))
    rows = tokens[group, :real.shape[1] + 1]
    logits, _ = forward(model, rows[:, :-1])
    loss = T.cross_entropy(logits, rows[:, 1:], weights=weights)
    return loss, loss.item() * batch_len, len(group)


def pretrain(model: LanguageModel, corpus: list, opt: OptimConfig) -> list[dict]:
    """Next-token training on a list of token sequences.

    Gradients are averaged over each batch of sequences before the Adam
    step. Returns one record per epoch, as ``optim.epochs`` yields it:
    {"epoch", "train_loss", "grad_norm", "param_norm"}, ``train_loss``
    being the mean over sequences of each sequence's mean next-token loss.
    """
    if model.frozen:
        raise FrozenModelError("cannot pretrain a frozen language model")
    sequences = [np.asarray(s) for s in corpus]
    if not sequences:
        raise ValueError("pretraining corpus is empty")
    if any(s.size < 2 for s in sequences):
        raise ValueError("next-token training needs sequences of length >= 2")

    lengths = np.array([len(s) - 1 for s in sequences])
    group_loss = partial(_group_loss, model, pad(sequences))
    return list(epochs(parameters(model), lengths, group_loss, opt))


# ---------------------------------------------------------------------------
# character tokenizer
# ---------------------------------------------------------------------------

_ALPHABET_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\\\": "\\"}


class CharTokenizer:
    """Character-level tokenizer over a fixed alphabet.

    The alphabet file holds one character per line; the line index is
    the token id. The escape lines ``\\n``, ``\\t`` and ``\\\\`` stand
    for newline, tab and backslash.
    """

    def __init__(self, chars: list[str]):
        if not chars:
            raise ValueError("alphabet is empty")
        if any(len(c) != 1 for c in chars):
            bad = next(c for c in chars if len(c) != 1)
            raise ValueError(f"alphabet entries must be single characters, got {bad!r}")
        if len(set(chars)) != len(chars):
            raise ValueError("alphabet contains duplicate characters")
        self.chars = list(chars)
        self._to_id = {c: i for i, c in enumerate(chars)}

    @classmethod
    def from_file(cls, path: str | Path) -> "CharTokenizer":
        chars = []
        for line in Path(path).read_text(encoding="utf-8").split("\n"):
            if line == "":
                continue
            chars.append(_ALPHABET_ESCAPES.get(line, line))
        return cls(chars)

    @property
    def vocab_size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> list[int]:
        try:
            return [self._to_id[c] for c in text]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} is not in the alphabet") from exc

    def decode(self, ids) -> str:
        return "".join(self.chars[int(i)] for i in ids)

    def to_lines(self) -> list[str]:
        reverse = {v: k for k, v in _ALPHABET_ESCAPES.items()}
        return [reverse.get(c, c) for c in self.chars]
