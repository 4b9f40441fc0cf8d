"""The shadow tower: scores every prefix of a sequence while the language
tower generates.

Shadow module k receives a linear fusion of the concatenation of
language tap k-1 (the output of the previous attention module) and the
previous shadow module's output. The first shadow input is the shared
positionally encoded embedding tap, projected down to the shadow width.
A normalized linear head with a sigmoid per objective turns the final
shadow state into per-position supervision scores in (0, 1).

The language tower's final tap deliberately feeds nothing: each fusion
reads the *previous* module's output, and the chain stops at module N.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .checkpoint import load_named
from .language import (AttentionModuleParams, KVCache, LanguageModel, LMConfig,
                       attention_module, forward, init_attention_module, init_matrix)
from .optim import check_fields
from .tensor import Tensor


@dataclass(frozen=True)
class DoppelConfig:
    d_shadow: int = 32
    n_objectives: int = 1
    n_heads_shadow: int = 4
    d_ff_shadow: int = 128

    def __post_init__(self):
        check_fields(self)
        if self.d_shadow % self.n_heads_shadow != 0:
            raise ValueError(f"d_shadow={self.d_shadow} is not divisible by "
                             f"n_heads_shadow={self.n_heads_shadow}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DoppelgangerModel:
    config: DoppelConfig
    lm_config: LMConfig
    input_proj: Tensor
    blocks: list[AttentionModuleParams]
    fusion_w: list[Tensor]
    fusion_b: list[Tensor]
    lnf_gain: Tensor
    lnf_bias: Tensor
    head_w: Tensor
    head_b: Tensor


def init_doppelganger(lm_config: LMConfig, config: DoppelConfig,
                      rng: np.random.Generator | None = None) -> DoppelgangerModel:
    """Fresh shadow tower with one shadow module per language module.

    Fusion matrices start with the shadow-path rows at identity and the
    language-tap rows small-random, so early training mostly carries the
    shadow state through while the probe weights grow in.
    """
    d, ds = lm_config.d_model, config.d_shadow
    fusion_w = []
    for _ in range(lm_config.n_layers):
        probe_rows = init_matrix(rng, d, ds).data
        fusion_w.append(Tensor(np.concatenate([probe_rows, np.eye(ds)]), requires_grad=True))
    proj = init_matrix(rng, d, ds)
    head = init_matrix(rng, ds, config.n_objectives)
    return DoppelgangerModel(
        config=config,
        lm_config=lm_config,
        input_proj=proj,
        blocks=[init_attention_module(ds, config.d_ff_shadow, rng)
                for _ in range(lm_config.n_layers)],
        fusion_w=fusion_w,
        fusion_b=[Tensor(np.zeros(ds), requires_grad=True)
                  for _ in range(lm_config.n_layers)],
        lnf_gain=Tensor(np.ones(ds), requires_grad=True),
        lnf_bias=Tensor(np.zeros(ds), requires_grad=True),
        head_w=head,
        head_b=Tensor(np.zeros(config.n_objectives), requires_grad=True),
    )


def named_parameters(model: DoppelgangerModel) -> list[tuple[str, Tensor]]:
    out = [("input_proj", model.input_proj)]
    for k, block in enumerate(model.blocks):
        out.append((f"fusion{k}.w", model.fusion_w[k]))
        out.append((f"fusion{k}.b", model.fusion_b[k]))
        out += block.named(f"block{k}")
    out += [("lnf.gain", model.lnf_gain), ("lnf.bias", model.lnf_bias),
            ("head.w", model.head_w), ("head.b", model.head_b)]
    return out


def parameters(model: DoppelgangerModel) -> list[Tensor]:
    return [p for _, p in named_parameters(model)]


def load_parameters(model: DoppelgangerModel, values: dict[str, np.ndarray],
                    prefix: str = "") -> None:
    load_named(named_parameters(model), values, prefix)


def doppel_forward(model: DoppelgangerModel, taps: list[Tensor],
                   cache: KVCache | None = None) -> Tensor:
    """Supervision scores, [T, n_objectives], one row per prefix (or
    [G, T, n_objectives] for taps of a group), from the language tower's
    taps as ``forward`` returns them. With a ``cache`` of the shadow
    tower's keys and values, the taps are those of the positions after
    ``cache.length``, as ``forward`` returns them with its own cache.

    scores[t] is the prediction for the prefix ending at position t.
    Shadow attention is causal like the language side, so position t never
    sees later taps; like it, the scores of a prefix are the same bits
    however many positions run with it.
    """
    n_modules = len(model.blocks)
    if len(taps) != n_modules + 1:
        raise ValueError(f"expected {n_modules + 1} taps for {n_modules} shadow "
                         f"modules, got {len(taps)}")
    if taps[0].shape[-1] != model.lm_config.d_model:
        raise ValueError(f"tap width {taps[0].shape[-1]} does not match language "
                         f"width {model.lm_config.d_model}")

    cache = KVCache(taps[0].shape[-2]) if cache is None else cache
    start = cache.length
    shadow = T.matmul(taps[0], model.input_proj, start)
    for k, block in enumerate(model.blocks):
        fused = T.add(T.matmul(T.concat_last(taps[k], shadow), model.fusion_w[k], start),
                      model.fusion_b[k])
        shadow = attention_module(block, fused, model.config.n_heads_shadow, cache, k)
    cache.length += taps[0].shape[-2]
    h = T.layer_norm(shadow, model.lnf_gain, model.lnf_bias)
    return T.sigmoid(T.add(T.matmul(h, model.head_w, start), model.head_b))


@dataclass
class BicameralModel:
    """Frozen language tower paired with its trainable shadow tower."""

    language: LanguageModel
    doppel: DoppelgangerModel

    def __post_init__(self):
        lm_cfg = self.language.config
        if self.doppel.lm_config != lm_cfg:
            raise ValueError("language and shadow towers were built against "
                             "different language configurations")
        if len(self.doppel.blocks) != lm_cfg.n_layers:
            raise ValueError("shadow module count does not match language "
                             "module count")


def bicameral_forward(bm: BicameralModel, tokens,
                      cache: tuple[KVCache, KVCache] | None = None) -> tuple[Tensor, Tensor]:
    """One language pass serving both towers: (logits, scores). ``cache``
    is a (language, shadow) pair of ``KVCache`` for decoding one sequence
    a few positions per call; without it, the pass covers all of ``tokens``."""
    lm_cache, shadow_cache = (None, None) if cache is None else cache
    logits, taps = forward(bm.language, tokens, lm_cache)
    return logits, doppel_forward(bm.doppel, taps, shadow_cache)


def score_prefixes(bm: BicameralModel, tokens) -> Tensor:
    """Supervision scores for every prefix of ``tokens``, [T, n]."""
    _, scores = bicameral_forward(bm, tokens)
    return scores
