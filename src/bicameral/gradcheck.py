"""Central finite-difference checking of reverse-mode gradients.

The numeric side re-evaluates the forward pass with perturbed inputs and
never touches stored gradients, so it is an independent oracle for the
autodiff path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, zero_grads


@dataclass
class GradCheckResult:
    name: str
    ok: bool
    max_abs_diff: float
    max_rel_err: float

    def row(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.name:<28} {status:<5} rel_err={self.max_rel_err:.3e}"


def numeric_gradient(fn: Callable[[], Tensor], param: Tensor,
                     indices: Sequence[tuple] | None = None,
                     step: float = 1e-5) -> np.ndarray:
    """Central differences of the scalar ``fn()`` w.r.t. entries of ``param``.

    ``fn`` must rebuild its forward pass on every call. When ``indices``
    is given only those entries are probed; the rest stay zero.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    if indices is None:
        probe = range(flat.size)
    else:
        probe = [int(np.ravel_multi_index(ix, param.shape)) for ix in indices]
    gflat = grad.reshape(-1)
    for i in probe:
        orig = flat[i]
        flat[i] = orig + step
        up = fn().item()
        flat[i] = orig - step
        down = fn().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def check_gradients(name: str, fn: Callable[[], Tensor], params: list[Tensor],
                    step: float = 1e-5, rtol: float = 1e-4, atol: float = 1e-7,
                    sample: int | None = None,
                    rng: np.random.Generator | None = None) -> GradCheckResult:
    """Compare analytic gradients of the scalar ``fn()`` against central
    differences on every entry of ``params`` (or a random sample of
    ``sample`` entries per parameter).

    An entry passes when |analytic - numeric| <= atol + rtol*max(|a|,|n|).
    """
    zero_grads(params)
    loss = fn()
    loss.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    worst_abs = 0.0
    worst_rel = 0.0
    ok = True
    # relative error is only meaningful where the gradient clears the
    # finite-difference noise floor; below that, atol decides
    rel_floor = 100.0 * atol
    for p, a in zip(params, analytic):
        if a is None:
            a = np.zeros_like(p.data)
        if sample is not None and p.size > sample:
            if rng is None:
                rng = np.random.default_rng(0)
            chosen = rng.choice(p.size, size=sample, replace=False)
            indices = [np.unravel_index(int(c), p.shape) for c in chosen]
        else:
            indices = [np.unravel_index(i, p.shape) for i in range(p.size)]
        numeric = numeric_gradient(fn, p, indices=indices, step=step)
        for ix in indices:
            av, nv = float(a[ix]), float(numeric[ix])
            diff = abs(av - nv)
            denom = max(abs(av), abs(nv))
            worst_abs = max(worst_abs, diff)
            if denom > rel_floor:
                worst_rel = max(worst_rel, diff / denom)
            if diff > atol + rtol * denom:
                ok = False
    zero_grads(params)
    return GradCheckResult(name, ok, worst_abs, worst_rel)


def run_op_battery(seed: int = 0, rtol: float = 1e-4) -> list[GradCheckResult]:
    """Finite-difference every differentiable op on random inputs in [-2, 2].

    An op's output is reduced to a scalar by a fixed random linear probe,
    ``binary_cross_entropy(Tensor(w), out)``: the loss is linear in its
    label argument, so it weights each entry of ``out`` by a fixed
    log((1 - w) / w).
    """
    from . import tensor as T

    rng = np.random.default_rng(seed)

    def t(*shape, lo=-2.0, hi=2.0, grad=True):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)

    def probed(name, op, params, weights=None):
        w = Tensor(rng.uniform(0.15, 0.85, size=op().shape))
        return check_gradients(
            name, lambda: T.binary_cross_entropy(w, op(), weights=weights), params)

    results = []

    a, b = t(3, 4), t(3, 4)
    results.append(probed("add", lambda: T.add(a, b), [a, b]))
    bias = t(4)
    results.append(probed("add (row broadcast)", lambda: T.add(a, bias), [a, bias]))

    m1, m2 = t(3, 4), t(4, 2)
    results.append(probed("matmul", lambda: T.matmul(m1, m2), [m1, m2]))

    c1, c2 = t(3, 2), t(3, 5)
    results.append(probed("concat_last", lambda: T.concat_last(c1, c2), [c1, c2]))

    table = t(6, 3)
    ids = rng.integers(0, 6, size=5)
    results.append(probed("embedding_lookup", lambda: T.embedding_lookup(table, ids),
                          [table]))

    results.append(probed("gelu", lambda: T.gelu(a), [a]))
    results.append(probed("sigmoid", lambda: T.sigmoid(a), [a]))

    gain, lbias = t(4, lo=0.5, hi=1.5), t(4)
    results.append(probed("layer_norm", lambda: T.layer_norm(a, gain, lbias),
                          [a, gain, lbias]))

    logits = t(4, 5)
    targets = rng.integers(0, 5, size=4)
    results.append(check_gradients(
        "cross_entropy", lambda: T.cross_entropy(logits, targets), [logits]))

    # probabilities well inside the clamp so the cut gradient never triggers
    p = Tensor(rng.uniform(0.15, 0.85, size=(3, 2)), requires_grad=True)
    y = Tensor(rng.uniform(0.0, 1.0, size=(3, 2)), requires_grad=True)
    results.append(check_gradients(
        "binary_cross_entropy", lambda: T.binary_cross_entropy(p, y), [p, y],
        rtol=rtol))

    # the group forms: a leading axis of 2 over the same ops
    g1 = t(2, 3, 4)
    results.append(probed("matmul (3-d @ 2-d)", lambda: T.matmul(g1, m2), [g1, m2]))
    # the last position of each row is padding, with weight 0
    pg = Tensor(rng.uniform(0.15, 0.85, size=(2, 3, 2)), requires_grad=True)
    yg = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 2)), requires_grad=True)
    pw = np.array([[0.5, 0.25, 0.0], [1.0, 0.125, 0.0]])
    results.append(check_gradients(
        "binary_cross_entropy (pads)",
        lambda: T.binary_cross_entropy(pg, yg, weights=pw), [pg, yg], rtol=rtol))

    # a padded group of next-token logits; the second row ends in padding
    lg, tg = t(2, 3, 5), rng.integers(0, 5, size=(2, 3))
    cw = np.array([[0.5, 0.25, 0.25], [1.0, 0.125, 0.0]])
    results.append(check_gradients(
        "cross_entropy (3-d, pads)", lambda: T.cross_entropy(lg, tg, weights=cw), [lg]))

    # one sequence [T, d] and a group [G, T, d], at 1, 2 and 4 heads
    for lead in ((), (2,)):
        q, k, v = t(*lead, 4, 8), t(*lead, 4, 8), t(*lead, 4, 8)
        for n_heads in (1, 2, 4):
            results.append(probed(
                f"causal_attention ({n_heads}h, {len(lead) + 2}-d)",
                lambda: T.causal_attention(q, k, v, n_heads), [q, k, v]))
    # the second row ends in two padded positions, with weight 0
    results.append(probed(
        "causal_attention (pads)", lambda: T.causal_attention(q, k, v, 2), [q, k, v],
        weights=np.array([[1.0, 0.5, 0.25, 0.125], [1.0, 0.5, 0.0, 0.0]])))
    # 40 rows: two query blocks of causal_attention, the second reading both
    qb, kb, vb = t(40, 4), t(40, 4), t(40, 4)
    results.append(probed("causal_attention (2 blocks)",
                          lambda: T.causal_attention(qb, kb, vb, 2), [qb, kb, vb]))

    return results


def run_model_check(seed: int = 0, sample: int = 3,
                    rtol: float = 1e-4) -> GradCheckResult:
    """Finite-difference the full bicameral loss on a tiny two-tower model.

    The language tower is left trainable so gradients are exercised
    through the probe connections as well: the loss is next-token
    cross-entropy plus the per-prefix score loss.
    """
    from . import tensor as T
    from .doppelganger import (BicameralModel, DoppelConfig, doppel_forward,
                               init_doppelganger, parameters as doppel_parameters)
    from .language import LMConfig, forward, init_language_model, parameters as lm_parameters

    rng = np.random.default_rng(seed)
    lm_cfg = LMConfig(vocab_size=7, d_model=16, n_layers=2, n_heads=2,
                      d_ff=32, max_seq_len=16)
    d_cfg = DoppelConfig(d_shadow=8, n_objectives=2, n_heads_shadow=2, d_ff_shadow=16)
    lm = init_language_model(lm_cfg, rng)
    dm = init_doppelganger(lm_cfg, d_cfg, rng)
    bm = BicameralModel(language=lm, doppel=dm)

    tokens = rng.integers(0, lm_cfg.vocab_size, size=6)
    inputs, targets = tokens[:-1], tokens[1:]
    labels = Tensor(rng.uniform(0.2, 0.8, size=(len(inputs), d_cfg.n_objectives)))

    def loss():
        logits, taps = forward(bm.language, inputs)
        lm_loss = T.cross_entropy(logits, targets)
        scores = doppel_forward(bm.doppel, taps)
        return T.add(lm_loss, T.binary_cross_entropy(scores, labels))

    params = lm_parameters(lm) + doppel_parameters(dm)
    return check_gradients("bicameral loss", loss, params, sample=sample,
                           rtol=rtol, rng=rng)
