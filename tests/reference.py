"""Plain-numpy reference implementations used as hand-computation oracles.

These mirror the two towers without touching the Tensor graph machinery,
so agreement between the two paths checks the graph-building code.
"""

import math

import numpy as np
from scipy.special import erf

from bicameral.language import sinusoid_table


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def ref_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def ref_attention(q, k, v, n_heads):
    """Causal attention of [T, d] projections, one head at a time."""
    t, d = q.shape
    dh = d // n_heads
    heads = []
    for cols in (slice(i * dh, (i + 1) * dh) for i in range(n_heads)):
        s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        s = np.where(np.triu(np.ones((t, t), bool), 1), -np.inf, s)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        heads.append(p @ v[:, cols])
    return np.concatenate(heads, axis=-1)


def ref_block(x, blk, n_heads):
    h = ref_layer_norm(x, blk.ln1_gain.data, blk.ln1_bias.data)
    q, k, v = h @ blk.wq.data, h @ blk.wk.data, h @ blk.wv.data
    x = x + ref_attention(q, k, v, n_heads) @ blk.wo.data
    f = ref_layer_norm(x, blk.ln2_gain.data, blk.ln2_bias.data)
    f = ref_gelu(f @ blk.w1.data + blk.b1.data) @ blk.w2.data + blk.b2.data
    return x + f


def ref_forward(model, tokens):
    cfg = model.config
    x = model.embedding.data[np.asarray(tokens)] + sinusoid_table(len(tokens), cfg.d_model)
    taps = [x]
    for blk in model.blocks:
        x = ref_block(x, blk, cfg.n_heads)
        taps.append(x)
    h = ref_layer_norm(x, model.lnf_gain.data, model.lnf_bias.data)
    return h @ model.head.data, taps


def ref_doppel(dm, tap_arrays):
    s = tap_arrays[0] @ dm.input_proj.data
    for k, blk in enumerate(dm.blocks):
        fused = (np.concatenate([tap_arrays[k], s], axis=-1) @ dm.fusion_w[k].data
                 + dm.fusion_b[k].data)
        s = ref_block(fused, blk, dm.config.n_heads_shadow)
    h = ref_layer_norm(s, dm.lnf_gain.data, dm.lnf_bias.data)
    return ref_sigmoid(h @ dm.head_w.data + dm.head_b.data)
