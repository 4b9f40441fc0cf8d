"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is row-major, gradients are exact, and the graph is rebuilt on
every forward pass. Broadcasting is deliberately narrow: adding a vector
to every row, and leading axes on ``matmul`` (a group of sequences) with
one shared right operand. ``causal_attention`` splits and merges the
heads of an attention module inside the op, on numpy views, so no head
axis ever reaches the graph; its queries may be the last rows of longer
keys and values, so one op serves a full pass and a cached decode step.
It never hands ``exp`` a -inf, and keeps its [..., H, n, t] weights only
when it builds a graph.

Forward products run on fixed tiles: ``matmul`` on 8-row tiles
(``row_tiles``), ``causal_attention`` on 32-position blocks whose query
tiles and zero-padded keys have one shape per block. A row therefore
meets BLAS in products whose shapes its position alone sets, and its
value is the same bits however many rows come with it. Backward
products are plain BLAS. The op set covers exactly what the two
transformer towers need: ``add``, ``matmul``, ``concat_last``,
``embedding_lookup``, ``gelu``, ``sigmoid``, ``layer_norm``,
``causal_attention``, ``cross_entropy`` and ``binary_cross_entropy``.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

BCE_EPS = 1e-7
LAYER_NORM_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's fixed decays and guard
ROW_TILE = 8  # rows per tile of a matmul forward product
ATTENTION_BLOCK = 32  # positions per block of causal_attention; 64 times alike
_ABOVE_DIAGONAL = np.triu(np.ones((ATTENTION_BLOCK, ATTENTION_BLOCK), dtype=bool), k=1)
_ABOVE_DIAGONAL.flags.writeable = False

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# A context variable, so each thread (and task) has its own setting.
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Within this block, ops build no graph: every result is a plain value."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """Invalid interaction with a computation graph."""


class Tensor:
    """A dense n-dimensional float64 array, optionally tracking gradients.

    Results of operations on gradient-tracking inputs remember their
    parents and a backward closure; ``backward()`` on a scalar fills
    ``grad`` on every ancestor that requires it. Tensors that do not
    require gradients carry no graph links at all, so a frozen model's
    outputs are plain values.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, *,
                 _parents: tuple = (), _backward=None, _op: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward
        self._op = _op
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _scalar_err(self)

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through its graph.

        Each graph node is visited exactly once, in reverse topological
        order. Once a node has passed its gradient on, its gradient,
        closure and parent links are released, so interior buffers are
        freed during the sweep; leaf tensors keep ``grad``. Calling
        backward twice on the same result without rebuilding the graph
        is an error.
        """
        if self.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward on a tensor with no gradient path")
        if self._backward_done:
            raise GraphError("backward already ran on this graph; rebuild the "
                             "forward pass before differentiating again")
        nodes = build_graph(self)
        self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad = None
                node._backward_fn = None
                node._parents = ()
        self._backward_done = True

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def build_graph(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root`` through parent links, parents
    strictly before children. The graph is acyclic by construction:
    parent links are fixed at creation time."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _scalar_err(t: Tensor):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


def _builds_graph(parents: tuple[Tensor, ...]) -> bool:
    """Grad mode is on and an input requires grad: the op records a node."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    if _builds_graph(parents):
        return Tensor(data, True, _parents=parents, _backward=backward, _op=op)
    return Tensor(data)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g  # no backward hands one array to two parents, so no copy
    else:
        t.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a vector ``b`` broadcast across rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    row_broadcast = (b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0])
    if not row_broadcast and a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = a.data + b.data

    def backward(g):
        _accumulate(a, g)
        if row_broadcast:
            _accumulate(b, g.reshape(-1, b.shape[0]).sum(axis=0))
        else:
            _accumulate(b, g.copy())

    return _make(out, (a, b), backward, "add")


def matmul(a: Tensor, b: Tensor, start: int = 0) -> Tensor:
    """``[..., m, k] @ [k, p]``: one right operand shared by every leading
    index. The forward product runs on fixed row tiles (``row_tiles``) with
    row i at tile offset ``(start + i) % ROW_TILE``, so the rows of one
    sequence from position ``start`` on are bitwise those of the whole
    sequence's product. Backward is plain BLAS."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    k, p = b.shape
    out = row_tiles(a.data, b.data, start)

    def backward(g):
        g2 = g.reshape(-1, p)
        _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
        _accumulate(b, a.data.reshape(-1, k).T @ g2)

    return _make(out, (a, b), backward, "matmul")


def _padded(a: np.ndarray, lo: int, rows: int) -> np.ndarray:
    """``a`` [..., m, k] placed at rows lo..lo+m of a [..., rows, k] array
    of zeros; only the padding is zeroed, not the whole array."""
    out = np.empty(a.shape[:-2] + (rows, a.shape[-1]))
    out[..., :lo, :] = 0.0
    out[..., lo + a.shape[-2]:, :] = 0.0
    out[..., lo:lo + a.shape[-2], :] = a
    return out


def row_tiles(a: np.ndarray, b: np.ndarray, start: int = 0) -> np.ndarray:
    """``a [..., k] @ b [k, p]`` as ``[n, ROW_TILE, k] @ [k, p]``: the
    flattened rows of ``a``, zero-padded in front to offset ``start %
    ROW_TILE`` and behind to a whole tile, so that each row meets BLAS in a
    product of one fixed shape, at an offset set by its index alone."""
    k, p = b.shape
    n = a.size // k
    lo = start % ROW_TILE
    rows = -(-(lo + n) // ROW_TILE) * ROW_TILE
    tiles = a.reshape(n, k)
    if rows != n:
        tiles = _padded(tiles, lo, rows)
    out = tiles.reshape(-1, ROW_TILE, k) @ b
    return out.reshape(rows, p)[lo:lo + n].reshape(a.shape[:-1] + (p,))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; all leading axes must agree."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last shape mismatch: {a.shape} ++ {b.shape}")
    p = a.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def backward(g):
        _accumulate(a, g[..., :p])
        _accumulate(b, g[..., p:])

    return _make(out, (a, b), backward, "concat_last")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows ``table[ids]`` for a 1-d or 2-d id array; gradients
    scatter-add back into the table."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got shape {table.shape}")
    if ids.ndim not in (1, 2) or not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("ids must be a 1-d or 2-d integer array")
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"id out of range for table with {vocab} rows: "
                         f"{int(ids[(ids < 0) | (ids >= vocab)][0])}")
    out = table.data[ids].copy()

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accumulate(table, gt)

    return _make(out, (table,), backward, "embedding_lookup")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, 0.5*x*(1 + erf(x/sqrt(2)))."""
    a = _as_tensor(a)
    cdf = erf(a.data / _SQRT_2)
    cdf += 1.0
    cdf *= 0.5
    out = a.data * cdf

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        _accumulate(a, g * (cdf + a.data * pdf))

    return _make(out, (a,), backward, "gelu")


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid_stable(a.data)

    def backward(g):
        _accumulate(a, g * out * (1.0 - out))

    return _make(out, (a,), backward, "sigmoid")


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance,
    then apply the per-feature affine ``gain * xhat + bias``.

    A constant row has zero variance; the ``LAYER_NORM_EPS`` guard maps it
    to zeros before the affine.
    """
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match feature width {d}")
    # row means as sum / d: the same values as np.mean, without its overhead
    xhat = a.data - np.sum(a.data, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(np.sum(xhat * xhat, axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        gh = g * gain.data
        if a.requires_grad:
            term = gh - np.sum(gh, axis=-1, keepdims=True) / d
            term -= xhat * (np.sum(gh * xhat, axis=-1, keepdims=True) / d)
            term *= inv_std
            _accumulate(a, term)
        lead = tuple(range(a.ndim - 1))
        _accumulate(gain, np.sum(g * xhat, axis=lead))
        _accumulate(bias, np.sum(g, axis=lead))

    return _make(out, (a, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Causal multi-head scaled dot-product attention. ``k`` and ``v`` are
    the [..., t, d] key and value projections of positions 0..t-1 and ``q``
    [..., n, d] the queries of the last n of them: n = t for a whole
    sequence, fewer for a decode step whose earlier keys come from a cache.
    Head h owns columns h*dh:(h+1)*dh.

    The heads are split and merged on numpy views, and q is scaled by
    1/sqrt(dh). Position i attends to positions 0..i only: later keys get
    exactly zero weight, so row i of the result does not depend on later
    rows of k or v. Positions go in blocks of ``ATTENTION_BLOCK``. Block
    [r0, r1) is one fixed-shape query tile, its queries at their positions'
    offsets and zeros elsewhere, scoring the keys [0, r1) zero-padded past
    t; each row masks the keys after its own position, -inf for the
    max-subtracted softmax's row max, then 0 for ``exp`` (slow on -inf) and
    exactly 0 after it. Every product and row reduction thus has a shape
    set by the block alone, so a row is bitwise the same however many
    positions or queries come with it. The [..., H, n, t] weights P are
    kept only when the op builds a graph, for backward:
    dS = P * (dP - rowsum(dP * P)).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or k.shape != v.shape or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1] or q.shape[-2] > k.shape[-2]
            or q.shape[-1] % n_heads):
        raise ShapeError(f"causal_attention needs [..., n, d] queries for the last n "
                         f"of equal [..., t, d] keys and values, d divisible by "
                         f"{n_heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    *lead, n, d = q.shape
    t = k.shape[-2]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    first = t - n  # the position of the first query
    end = -(-t // ATTENTION_BLOCK) * ATTENTION_BLOCK

    def split(a: np.ndarray) -> np.ndarray:  # [..., m, d] -> [..., H, m, dh]
        return a.reshape(*lead, a.shape[-2], n_heads, dh).swapaxes(-3, -2)

    def merge(a: np.ndarray) -> np.ndarray:  # [..., H, m, dh] -> [..., m, d]
        return a.swapaxes(-3, -2).reshape(*lead, a.shape[-2], d)

    lo = first - first % ATTENTION_BLOCK  # the first query's block
    # query tiles, zero where no query, and keys and values zero past t
    qp = split(_padded(q.data * scale, first - lo, end - lo))
    kp, vp = split(_padded(k.data, 0, end)), split(_padded(v.data, 0, end))
    graph = _builds_graph((q, k, v))
    p = np.zeros((*lead, n_heads, n, t)) if graph else None
    out = np.empty(q.shape)

    def attend(r0: int) -> None:  # block [r0, r1); its scores die on return
        r1 = r0 + ATTENTION_BLOCK
        rows = slice(max(first, r0) - r0, min(t, r1) - r0)  # the tile's queries
        s = qp[..., r0 - lo:r1 - lo, :] @ kp[..., :r1, :].swapaxes(-1, -2)
        # each row's softmax stands alone: a tile of few queries runs it on
        # a compact copy of them, a fuller one on the whole tile in place
        compact = 2 * (rows.stop - rows.start) <= ATTENTION_BLOCK
        soft = rows if compact else slice(None)
        w = s[..., soft, :].copy() if compact else s
        diag, masked = w[..., r0:], _ABOVE_DIAGONAL[soft]
        np.copyto(diag, -np.inf, where=masked)
        w -= np.max(w, axis=-1, keepdims=True)
        np.copyto(diag, 0.0, where=masked)
        np.exp(w, out=w)
        np.copyto(diag, 0.0, where=masked)
        w /= np.sum(w, axis=-1, keepdims=True)
        if compact:
            s[..., rows, :] = w
        queries = slice(r0 + rows.start - first, r0 + rows.stop - first)
        split(out)[..., queries, :] = (s @ vp[..., :r1, :])[..., rows, :]
        if graph:
            p[..., queries, :r1] = s[..., rows, :t]

    for r0 in range(lo, t, ATTENTION_BLOCK):
        attend(r0)

    def backward(g):
        gh, qh = split(g), split(q.data) * scale
        kh, vh = split(k.data), split(v.data)
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= np.sum(ds * p, axis=-1, keepdims=True)
        ds *= p
        dq = ds @ kh
        dq *= scale
        _accumulate(q, merge(dq))
        _accumulate(k, merge(ds.swapaxes(-1, -2) @ qh))
        _accumulate(v, merge(p.swapaxes(-1, -2) @ gh))

    return _make(out, (q, k, v), backward, "causal_attention")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _reduce(terms: np.ndarray, weights, op: str):
    """A loss from per-entry ``terms`` [..., k] and the matching scaling of entry
    gradients: the mean, or the sum weighted by position (``weights`` [...])."""
    if weights is None:
        return np.asarray(np.mean(terms)), lambda x: x / terms.size
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != terms.shape[:-1]:
        raise ShapeError(f"{op} weights shape {w.shape} does not match "
                         f"positions {terms.shape[:-1]}")
    w = w[..., None]
    return np.asarray(np.sum(w * terms)), lambda x: x * w


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean negative log-softmax of the target id at each position, for
    [..., T, V] logits and [..., T] targets; with ``weights``, the weighted
    sum over positions instead."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim < 2 or targets.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy targets shape {targets.shape} does not "
                         f"match [..., T, V] logits {logits.shape}")
    v = logits.shape[-1]
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeError("cross_entropy targets must be integer ids")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        bad = int(targets[(targets < 0) | (targets >= v)][0])
        raise IndexError(f"target id {bad} out of range for vocabulary of {v}")
    x = logits.data.reshape(-1, v)
    ids = targets.reshape(-1)
    rows = np.arange(ids.size)
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    lse = m[:, 0] + np.log(np.sum(e, axis=-1))
    nll = (lse - x[rows, ids]).reshape(targets.shape + (1,))
    out, reduce = _reduce(nll, weights, "cross_entropy")

    def backward(g):
        p = e / np.sum(e, axis=-1, keepdims=True)
        p[rows, ids] -= 1.0
        _accumulate(logits, reduce(float(g) * p.reshape(logits.shape)))

    return _make(out, (logits,), backward, "cross_entropy")


def binary_cross_entropy(p: Tensor, y: Tensor, weights=None) -> Tensor:
    """Mean of -[y*log(p) + (1-y)*log(1-p)] with p clamped to
    [BCE_EPS, 1 - BCE_EPS].

    With ``weights``, one per position (shape ``p.shape[:-1]``), the result
    is instead the weighted sum of every entry's loss, each entry taking
    its position's weight; a zero weight drops a position, padding
    included. Entries that hit the clamp pass no gradient.
    """
    p, y = _as_tensor(p), _as_tensor(y)
    if p.shape != y.shape:
        raise ShapeError(f"binary_cross_entropy shape mismatch: {p.shape} vs {y.shape}")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    terms = -(y.data * np.log(pc) + (1.0 - y.data) * np.log1p(-pc))
    out, reduce = _reduce(terms, weights, "binary_cross_entropy")
    inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)

    def backward(g):
        if p.requires_grad:
            gp = (pc - y.data) / (pc * (1.0 - pc)) * inside
            _accumulate(p, reduce(float(g) * gp))
        if y.requires_grad:
            _accumulate(y, reduce(float(g) * (np.log1p(-pc) - np.log(pc))))

    return _make(out, (p, y), backward, "binary_cross_entropy")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment buffers and the shared step count."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(step=0,
                   m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray | None],
              state: AdamState, lr: float = 3e-4) -> None:
    """One bias-corrected Adam update, in place on ``params``, with the
    fixed ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    A ``None`` gradient is treated as zero (the moments still decay).
    """
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError("params, grads and optimizer state are misaligned")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None
