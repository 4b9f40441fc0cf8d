"""Span tracer that instruments the bicameral package from outside.

``install`` replaces public functions with timing wrappers at the names
their callers look them up by (``bicameral.tensor.matmul``, which the
towers reach through ``T.``; ``forward`` as imported into
``doppelganger`` and ``training``; ``Tensor.backward`` on the class) and
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

Each wrapped call records one span: name, start, end and the index of
the span that was open when it began. Spans stay in memory, in flat
arrays, until ``save`` writes them out. ``layer_metrics`` turns them
into the per-layer numbers: calls, inclusive time, self time (a span's
duration minus the time its child spans cover) and a few counts taken at
the same boundaries (rows, matmul FLOPs, gradient-tracking results).

A name that a future version of the package no longer has is skipped,
so the tracer reports zero calls for it instead of failing.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# The towers' public ops. Each is looked up as bicameral.tensor.<op>.
TENSOR_OPS = ("matmul", "add", "scale", "transpose", "masked_fill", "softmax",
              "concat_last", "layer_norm", "gelu", "sigmoid", "embedding_lookup",
              "cross_entropy", "binary_cross_entropy")

# Layers in report order; a span's layer is the text before its first dot.
LAYERS = ("tensor", "language", "doppelganger", "training", "generation",
          "checkpoint", "reward_theory", "cli")


def _count_forward(tr, args, kwargs, result):
    tr.counts["language.forward.rows"] += int(np.asarray(args[1]).size)


def _count_doppel(tr, args, kwargs, result):
    tr.counts["doppelganger.doppel_forward.rows"] += int(np.shape(args[1][0].data)[0])


def _count_matmul(tr, args, kwargs, result):
    a, b = (np.shape(getattr(x, "data", x)) for x in args[:2])
    tr.counts["tensor.matmul.flop"] += 2 * a[0] * a[1] * b[1]


def _count_pairs(tr, args, kwargs, result):
    points = 1
    for values in args[1]:
        points *= len(np.unique(np.asarray(values, dtype=np.float64)))
    tr.counts["reward_theory.check_monotone.pairs"] += points * points


def _count_save(tr, args, kwargs, result):
    tr.counts["checkpoint.bytes"] += Path(args[0]).stat().st_size


# span name -> (places it is looked up by, optional counter). A place is
# "module:attr" or "module:Class.attr".
TARGETS = {
    **{f"tensor.{op}": ([f"bicameral.tensor:{op}"],
                        _count_matmul if op == "matmul" else None)
       for op in TENSOR_OPS},
    "tensor.backward": (["bicameral.tensor:Tensor.backward"], None),
    "tensor.adam_step": (["bicameral.tensor:adam_step"], None),
    "language.forward": (["bicameral.language:forward", "bicameral.doppelganger:forward",
                          "bicameral.training:forward"], _count_forward),
    "language.attention_module": (["bicameral.language:attention_module"], None),
    "language.pretrain": (["bicameral.language:pretrain", "bicameral.cli:pretrain"], None),
    "doppelganger.doppel_forward": (["bicameral.doppelganger:doppel_forward",
                                     "bicameral.training:doppel_forward"], _count_doppel),
    "doppelganger.attention_module": (["bicameral.doppelganger:attention_module"], None),
    "training.train_doppelganger": (["bicameral.training:train_doppelganger"], None),
    "training.evaluate": (["bicameral.training:evaluate"], None),
    "generation.sample": (["bicameral.generation:sample"], None),
    "checkpoint.save": (["bicameral.checkpoint:save_checkpoint",
                         "bicameral.cli:save_checkpoint"], _count_save),
    "checkpoint.load": (["bicameral.checkpoint:load_checkpoint",
                         "bicameral.cli:load_checkpoint"], None),
    "checkpoint.parameter_checksum": (["bicameral.checkpoint:parameter_checksum",
                                       "bicameral.language:parameter_checksum",
                                       "bicameral.training:parameter_checksum"], None),
    "reward_theory.random_instance": (["bicameral.reward_theory:random_instance",
                                       "bicameral.cli:random_instance"], None),
    "reward_theory.verify_supremacy": (["bicameral.reward_theory:verify_supremacy",
                                        "bicameral.cli:verify_supremacy"], None),
    "reward_theory.check_monotone": (["bicameral.reward_theory:check_monotone"], _count_pairs),
    "reward_theory.RewardFunction.is_monotone_on": (
        ["bicameral.reward_theory:RewardFunction.is_monotone_on"], None),
    "reward_theory.optimize_shared": (["bicameral.reward_theory:optimize_shared"], None),
    "reward_theory.optimize_split": (["bicameral.reward_theory:optimize_split"], None),
    "cli.main": (["bicameral.cli:main"], None),
}

# generate is a generator function: its span covers each resumption.
GENERATOR_TARGETS = {"generation.generate": ["bicameral.generation:generate"]}


class Tracer:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn, counter=None):
        nid = self.name_id(name)
        tensor_op = name.startswith("tensor.") and name[7:] in TENSOR_OPS
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if tensor_op:
                counts["tensor.op_results"] += 1
                if getattr(result, "requires_grad", False):
                    counts["tensor.grad_nodes"] += 1
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                t0 = perf_counter()
                try:
                    event = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, t0)
                yield event

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, (places, counter) in TARGETS.items():
            self._patch(places, lambda fn, n=name, c=counter: self.wrap(n, fn, c))
        for name, places in GENERATOR_TARGETS.items():
            self._patch(places, lambda fn, n=name: self.wrap_generator(n, fn))

    def _patch(self, places: list[str], make) -> None:
        wrappers: dict[int, object] = {}  # one wrapper per original function
        for place in places:
            owner, attr = _resolve(place)
            if owner is None:
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            setattr(owner, attr, wrappers[id(original)])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent) to a compressed .npz."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, start=start, end=end,
                            names=np.asarray(json.dumps(self.names)))

    def count_within(self, name: str, outer: str) -> int:
        """How many ``name`` spans began inside an ``outer`` span."""
        if name not in self._ids or outer not in self._ids:
            return 0
        names, _, start, end = self.arrays()
        inner = start[names == self._ids[name]]
        mask = names == self._ids[outer]
        o_start, o_end = start[mask], end[mask]  # disjoint, in start order
        k = np.searchsorted(o_start, inner, side="right") - 1
        ok = k >= 0
        return int(np.count_nonzero(inner[ok] <= o_end[k[ok]]))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_s = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_s, minlength=n)
        return {nm: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, nm in enumerate(self.names)}


def _resolve(place: str):
    module_name, _, attr = place.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    if "." in attr:
        cls_name, attr = attr.split(".", 1)
        owner = getattr(owner, cls_name, None)
        if owner is None or attr not in owner.__dict__:
            return None, attr
    elif not hasattr(owner, attr):
        return None, attr
    return owner, attr


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, times and counts, keyed by per-layer metric name."""
    spans = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.calls"] = get(f"tensor.{op}", "calls")
        out[f"tensor.{op}.s"] = get(f"tensor.{op}", "s")
    flop = counts["tensor.matmul.flop"]
    out["tensor.matmul.gflop"] = flop / 1e9
    mm_s = get("tensor.matmul", "s")
    out["tensor.matmul.gflops_per_s"] = flop / 1e9 / mm_s if mm_s else 0.0
    out["tensor.op_results"] = counts["tensor.op_results"]
    out["tensor.grad_nodes"] = counts["tensor.grad_nodes"]
    for fn in ("backward", "adam_step"):
        out[f"tensor.{fn}.calls"] = get(f"tensor.{fn}", "calls")
        out[f"tensor.{fn}.s"] = get(f"tensor.{fn}", "s")

    out["language.forward.calls"] = get("language.forward", "calls")
    out["language.forward.rows"] = counts["language.forward.rows"]
    out["language.forward.s"] = get("language.forward", "s")
    out["language.attention_module.s"] = get("language.attention_module", "s")
    out["language.pretrain.s"] = get("language.pretrain", "s")

    out["doppelganger.doppel_forward.calls"] = get("doppelganger.doppel_forward", "calls")
    out["doppelganger.doppel_forward.rows"] = counts["doppelganger.doppel_forward.rows"]
    out["doppelganger.doppel_forward.s"] = get("doppelganger.doppel_forward", "s")
    out["doppelganger.attention_module.s"] = get("doppelganger.attention_module", "s")
    out["doppelganger.fusion_self_s"] = get("doppelganger.doppel_forward", "self_s")

    out["training.train_doppelganger.s"] = get("training.train_doppelganger", "s")
    out["training.evaluate.s"] = get("training.evaluate", "s")
    out["generation.generate.s"] = get("generation.generate", "s")
    out["generation.sample.calls"] = get("generation.sample", "calls")
    out["generation.sample.s"] = get("generation.sample", "s")

    out["checkpoint.save.s"] = get("checkpoint.save", "s")
    out["checkpoint.load.s"] = get("checkpoint.load", "s")
    out["checkpoint.bytes"] = counts["checkpoint.bytes"]
    out["checkpoint.parameter_checksum.calls"] = get("checkpoint.parameter_checksum", "calls")
    out["checkpoint.parameter_checksum.s"] = get("checkpoint.parameter_checksum", "s")

    for fn in ("random_instance", "verify_supremacy", "check_monotone",
               "RewardFunction.is_monotone_on"):
        out[f"reward_theory.{fn}.s"] = get(f"reward_theory.{fn}", "s")
    out["reward_theory.check_monotone.pairs"] = counts["reward_theory.check_monotone.pairs"]
    for fn in ("optimize_shared", "optimize_split"):
        out[f"reward_theory.{fn}.calls"] = get(f"reward_theory.{fn}", "calls")
        out[f"reward_theory.{fn}.s"] = get(f"reward_theory.{fn}", "s")

    # self time summed per layer; cli.self_s is the command's own share
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for nm, v in spans.items()
                                     if nm.split(".", 1)[0] == layer)
    return out
