"""Forward products are bitwise invariant across prefix lengths: the rows
of a prefix, run alone, are the same bits as the same rows of the whole
sequence's pass. Checked at the desk scale for a 256-token sequence and a
70-token one at ``max_seq_len=72``, in this process and once more in a
subprocess whose BLAS thread count is left at the library's default."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bicameral.doppelganger import (BicameralModel, DoppelConfig, init_doppelganger,
                                    score_prefixes)
from bicameral.language import LMConfig, forward, freeze, init_language_model
from bicameral.tensor import no_grad

CASES = ((256, 256), (70, 72))  # (sequence length, max_seq_len)


def prefix_mismatches(length: int, max_seq_len: int, seed: int = 0) -> list[str]:
    """Every prefix length t whose scores, logits or any tap differ bitwise
    from the first t rows of the full pass, with what differs."""
    lm_cfg = LMConfig(vocab_size=27, max_seq_len=max_seq_len)
    rng = np.random.default_rng(seed)
    lm = init_language_model(lm_cfg, rng)
    freeze(lm)
    bm = BicameralModel(language=lm, doppel=init_doppelganger(lm_cfg, DoppelConfig(), rng))
    tokens = rng.integers(0, lm_cfg.vocab_size, size=length)
    with no_grad():
        scores = score_prefixes(bm, tokens).data
        logits, taps = forward(lm, tokens)
        bad = []
        for t in range(1, length + 1):
            part_logits, part_taps = forward(lm, tokens[:t])
            parts = {"scores": (score_prefixes(bm, tokens[:t]).data, scores),
                     "logits": (part_logits.data, logits.data),
                     **{f"tap {k}": (a.data, b.data)
                        for k, (a, b) in enumerate(zip(part_taps, taps))}}
            bad += [f"t={t} {name}" for name, (part, full) in parts.items()
                    if part.tobytes() != full[:t].tobytes()]
    return bad


def test_prefixes_match_the_full_pass_bitwise():
    for length, max_seq_len in CASES:
        assert prefix_mismatches(length, max_seq_len) == []


def test_prefixes_match_with_default_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = ("from test_invariance import CASES, prefix_mismatches\n"
            "print(sum(len(prefix_mismatches(*case, seed=1)) for case in CASES))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
