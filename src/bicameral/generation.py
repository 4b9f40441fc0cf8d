"""Autoregressive decoding that emits each token together with the shadow
tower's score vector for the sequence up to and including that token.

Every generated token costs exactly one bicameral forward pass of one
row: the pass that first contains position t provides both that
position's scores and the logits used to sample position t+1. A per-call
pair of ``KVCache`` holds both towers' keys and values, so that pass runs
the new position alone; fixed row and key tiles make its scores bitwise
those of a full pass over the prefix. Scores never feed back into
sampling; what to do with them is the consumer's business.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .doppelganger import BicameralModel, bicameral_forward
from .language import CharTokenizer, KVCache, SequenceError
from .optim import check_fields
from .tensor import no_grad

STRATEGIES = ("greedy", "temperature", "top_k")


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "greedy"
    temperature: float = 1.0
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        check_fields(self, seed=0)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")


@dataclass(frozen=True)
class GenerationEvent:
    """One position of the output stream: token plus its prefix scores."""

    pos: int
    token_id: int
    token_text: str
    scores: tuple[float, ...]

    def to_json(self) -> str:
        return json.dumps({"pos": self.pos, "token": self.token_text,
                           "id": self.token_id, "scores": list(self.scores)},
                          allow_nan=False)


def sample(logits_row: np.ndarray, sampler: SamplerConfig,
           rng: np.random.Generator) -> int:
    """Pick a token id from one row of logits.

    greedy: argmax, ties to the lowest id. temperature: categorical over
    softmax(logits / tau). top_k: the same, renormalized over the k
    largest logits (ties at the boundary resolved toward lower ids).
    """
    row = np.asarray(logits_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"sample expects one row of logits, got shape {row.shape}")
    if sampler.strategy == "greedy":
        return int(np.argmax(row))
    if sampler.strategy == "top_k":
        if sampler.k > row.size:
            raise ValueError(f"top_k k={sampler.k} exceeds vocabulary of {row.size}")
        keep = np.argsort(-row, kind="stable")[:sampler.k]
    else:
        keep = np.arange(row.size)
    z = row[keep] - row[keep].max()  # shifted first: a tiny tau then gives -inf, not NaN
    with np.errstate(over="ignore"):
        p = np.exp(z / sampler.temperature)
    p /= p.sum()
    return int(keep[rng.choice(keep.size, p=p)])


def generate(bm: BicameralModel, prompt, max_new: int,
             sampler: SamplerConfig,
             tokenizer: CharTokenizer | None = None) -> Iterator[GenerationEvent]:
    """Stream events for every prompt position, then one per new token.

    The prompt events all come from the first forward pass; each
    generated token's event comes from the single one-row pass in which
    its position first exists, reading the earlier positions' keys and
    values from a cache that this call owns. Each pass runs under
    ``no_grad``, so it builds no graph. Nothing is stored on the model
    and its parameters are never touched, so concurrent calls on one
    frozen model are safe.
    """
    prompt = [int(t) for t in np.asarray(prompt).reshape(-1)]
    if not prompt:
        raise SequenceError("prompt must be non-empty")
    cfg = bm.language.config
    if len(prompt) + max_new > cfg.max_seq_len:
        raise SequenceError(f"prompt of {len(prompt)} plus {max_new} new tokens "
                            f"exceeds max_seq_len={cfg.max_seq_len}")
    if max_new < 0:
        raise ValueError("max_new must be >= 0")

    def text(token_id: int) -> str:
        return tokenizer.decode([token_id]) if tokenizer is not None else ""

    cache = (KVCache(cfg.max_seq_len), KVCache(cfg.max_seq_len))

    def bicameral_pass(tokens: list[int]):
        # entered and left within one call, never across a yield, so the
        # consumer's own ops keep their gradient setting
        with no_grad():
            return bicameral_forward(bm, tokens, cache)

    rng = np.random.default_rng(sampler.seed)
    logits, scores = bicameral_pass(prompt)
    for pos, token_id in enumerate(prompt):
        yield GenerationEvent(pos, token_id, text(token_id),
                              tuple(float(s) for s in scores.data[pos]))
    for pos in range(len(prompt), len(prompt) + max_new):
        next_id = sample(logits.data[-1], sampler, rng)
        logits, scores = bicameral_pass([next_id])
        yield GenerationEvent(pos, next_id, text(next_id),
                              tuple(float(s) for s in scores.data[-1]))


def render_plain(event: GenerationEvent) -> str:
    """Text rendering: the token followed by its score vector."""
    shown = event.token_text if event.token_text else str(event.token_id)
    scores = ",".join(f"{s:.3f}" for s in event.scores)
    return f"{shown!r}@{event.pos}[{scores}]"
