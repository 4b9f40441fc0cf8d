"""Optimizer settings and the one training loop of both phases: pretraining
the language tower and training the shadow tower."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T

# Sequences per padded group: one autodiff graph covers this many. Larger
# groups save no more time at desk scale but hold more graph memory.
GROUP_SIZE = 4


class NumericError(ArithmeticError):
    """Training produced a non-finite loss, gradient or parameter."""


def check_fields(config, **floors) -> None:
    """Refuse, with one ``ValueError`` naming ``Class.field``, a dataclass
    whose ``int`` field is not an ``int`` (a bool is not) or whose ``float``
    field is not a finite int or float, or whose value is below its floor:
    ``floors[name]`` if given, else 1 for an int and above 0 for a float."""
    for f in fields(config):
        if f.type not in ("int", "float"):
            continue
        x, is_int = getattr(config, f.name), f.type == "int"
        floor = floors.get(f.name, 1 if is_int else 0)
        strict = not is_int and f.name not in floors
        if is_int:
            number = type(x) is int
        else:  # not math.isfinite, which raises on an int past the float range
            number = (type(x) is not bool and isinstance(x, (int, float))
                      and abs(x) <= sys.float_info.max)
        if not number or (x <= floor if strict else x < floor):
            raise ValueError(f"{type(config).__name__}.{f.name} must be "
                             f"{'an integer' if is_int else 'a finite number'} "
                             f"{'>' if strict else '>='} {floor}, got {x!r}")


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 3e-4
    batch_size: int = 16
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(self, epochs=0, seed=0)


def pad(rows: list[np.ndarray]) -> np.ndarray:
    """Stack [len_i, ...] arrays into [N, max len_i, ...], zero-padded on the right."""
    out = np.zeros((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:],
                   dtype=np.result_type(*rows))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def groups(indices: np.ndarray, lengths: np.ndarray):
    """Split ``indices`` into consecutive groups of ``GROUP_SIZE``, yielding
    each ``(group, real)``: ``real`` is the [G, span] mask of the group's
    real positions, ``lengths[i]`` of them in row i, and ``span`` is the
    longest such length in the group. A group's rows of a padded table are
    ``table[group, :span]``."""
    for start in range(0, len(indices), GROUP_SIZE):
        group = indices[start:start + GROUP_SIZE]
        n = lengths[group]
        yield group, np.arange(n.max()) < n[:, None]


def norm(arrays) -> float:
    """The global L2 norm of some arrays, skipping ``None``."""
    return float(np.sqrt(sum(np.sum(a * a) for a in arrays if a is not None)))


def epochs(params: list[T.Tensor], lengths: np.ndarray, group_loss, opt: OptimConfig):
    """Train ``params`` on items 0..len(lengths)-1, item i having
    ``lengths[i]`` loss positions, yielding after each epoch its record:
    ``epoch``, ``train_loss`` (the epoch's group sums over their counts),
    ``grad_norm`` (the mean over its steps of the summed gradient's global
    L2 norm, before the step) and ``param_norm`` (after the epoch). Each
    batch of a seeded shuffle is split into ``groups`` whose gradients
    accumulate before one Adam step. ``group_loss(group, real, batch_len)``
    returns the group's loss tensor, a sum and a count. A non-finite loss,
    summed gradient (checked before the step) or parameter raises
    ``NumericError``."""
    state = T.AdamState.for_params(params)
    rng = np.random.default_rng(opt.seed)
    T.zero_grads(params)
    for epoch in range(1, opt.epochs + 1):
        order = rng.permutation(len(lengths))
        total, count, grad_norms = 0.0, 0, []
        for start in range(0, len(order), opt.batch_size):
            batch = order[start:start + opt.batch_size]
            for group, real in groups(batch, lengths):
                loss, group_total, group_count = group_loss(group, real, len(batch))
                if not np.isfinite(loss.item()):
                    raise NumericError(f"training loss is {loss.item()} in epoch {epoch}")
                loss.backward()
                total, count = total + group_total, count + group_count
            if not all(p.grad is None or np.isfinite(p.grad).all() for p in params):
                raise NumericError(f"a non-finite gradient in epoch {epoch}")
            grad_norms.append(norm(p.grad for p in params))
            T.adam_step(params, [p.grad for p in params], state, lr=opt.lr)
            T.zero_grads(params)
            if not all(np.isfinite(p.data).all() for p in params):
                raise NumericError(f"a step left a non-finite parameter in epoch {epoch}")
        yield {"epoch": epoch, "train_loss": total / count,
               "grad_norm": float(np.mean(grad_norms)),
               "param_norm": norm(p.data for p in params)}
