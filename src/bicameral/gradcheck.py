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
    """Finite-difference every differentiable op on random inputs in [-2, 2]."""
    from . import tensor as T

    rng = np.random.default_rng(seed)

    def t(*shape, lo=-2.0, hi=2.0, grad=True):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)

    w = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))  # fixed probe weights

    results = []

    a, b = t(3, 4), t(3, 4)
    results.append(check_gradients("add", lambda: T.mean(T.mul(T.add(a, b), w)), [a, b]))

    bias = t(4)
    results.append(check_gradients(
        "add (row broadcast)", lambda: T.mean(T.mul(T.add(a, bias), w)), [a, bias]))

    results.append(check_gradients("mul", lambda: T.mean(T.mul(T.mul(a, b), w)), [a, b]))
    results.append(check_gradients("scale", lambda: T.mean(T.scale(a, 1.7)), [a]))

    m1, m2 = t(3, 4), t(4, 2)
    results.append(check_gradients(
        "matmul", lambda: T.mean(T.matmul(m1, m2)), [m1, m2]))

    wt = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4)))
    results.append(check_gradients(
        "transpose", lambda: T.mean(T.mul(T.transpose(m2), wt)), [m2]))
    wr = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
    results.append(check_gradients(
        "reshape", lambda: T.mean(T.mul(T.reshape(a, (4, 3)), wr)), [a]))

    c1, c2 = t(3, 2), t(3, 5)
    wc = Tensor(rng.uniform(-1.0, 1.0, size=(3, 7)))
    results.append(check_gradients(
        "concat_last", lambda: T.mean(T.mul(T.concat_last(c1, c2), wc)), [c1, c2]))

    mask = rng.uniform(size=(3, 4)) < 0.4
    results.append(check_gradients(
        "masked_fill", lambda: T.mean(T.mul(T.masked_fill(a, mask, -3.0), w)), [a]))

    table = t(6, 3)
    ids = rng.integers(0, 6, size=5)
    we = Tensor(rng.uniform(-1.0, 1.0, size=(5, 3)))
    results.append(check_gradients(
        "embedding_lookup",
        lambda: T.mean(T.mul(T.embedding_lookup(table, ids), we)), [table]))

    results.append(check_gradients("gelu", lambda: T.mean(T.mul(T.gelu(a), w)), [a]))
    results.append(check_gradients("sigmoid", lambda: T.mean(T.mul(T.sigmoid(a), w)), [a]))
    results.append(check_gradients("softmax", lambda: T.mean(T.mul(T.softmax(a), w)), [a]))

    gain, lbias = t(4, lo=0.5, hi=1.5), t(4)
    results.append(check_gradients(
        "layer_norm", lambda: T.mean(T.mul(T.layer_norm(a, gain, lbias), w)),
        [a, gain, lbias]))

    results.append(check_gradients("mean", lambda: T.mean(a), [a]))

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
    g1, g2 = t(2, 3, 4), t(2, 4, 2)
    wg = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3, 2)))
    results.append(check_gradients(
        "matmul (3-d @ 2-d)", lambda: T.mean(T.mul(T.matmul(g1, m2), wg)), [g1, m2]))
    results.append(check_gradients(
        "matmul (3-d @ 3-d)", lambda: T.mean(T.mul(T.matmul(g1, g2), wg)), [g1, g2]))
    wt3 = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4, 3)))
    results.append(check_gradients(
        "transpose (3-d)", lambda: T.mean(T.mul(T.transpose(g1), wt3)), [g1]))
    ws = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3, 4)))
    results.append(check_gradients(
        "masked_fill (shared mask)",
        lambda: T.mean(T.mul(T.masked_fill(g1, mask, -3.0), ws)), [g1]))
    # the last position of each row is padding, with weight 0
    pg = Tensor(rng.uniform(0.15, 0.85, size=(2, 3, 2)), requires_grad=True)
    yg = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 2)), requires_grad=True)
    pw = np.array([[0.5, 0.25, 0.0], [1.0, 0.125, 0.0]])
    results.append(check_gradients(
        "binary_cross_entropy (pads)",
        lambda: T.binary_cross_entropy(pg, yg, weights=pw), [pg, yg], rtol=rtol))

    # the head-batched forms: a [G, H, ...] stack, and heads moved onto
    # their own axis
    h1, h2 = t(2, 2, 3, 4), t(2, 2, 4, 2)
    wh = Tensor(rng.uniform(-1.0, 1.0, size=(2, 2, 3, 2)))
    results.append(check_gradients(
        "matmul (4-d @ 4-d)", lambda: T.mean(T.mul(T.matmul(h1, h2), wh)), [h1, h2]))
    wsw = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3, 2, 4)))
    results.append(check_gradients(
        "transpose (axes -3, -2)",
        lambda: T.mean(T.mul(T.transpose(h1, -3, -2), wsw)), [h1]))

    # a padded group of next-token logits; the second row ends in padding
    lg, tg = t(2, 3, 5), rng.integers(0, 5, size=(2, 3))
    cw = np.array([[0.5, 0.25, 0.25], [1.0, 0.125, 0.0]])
    results.append(check_gradients(
        "cross_entropy (3-d, pads)", lambda: T.cross_entropy(lg, tg, weights=cw), [lg]))

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
