import sys
import threading

import numpy as np
import pytest
from reference import ref_doppel

from bicameral.doppelganger import (BicameralModel, DoppelConfig, bicameral_forward,
                                    doppel_forward, init_doppelganger, score_prefixes)
from bicameral.doppelganger import named_parameters as doppel_named
from bicameral.language import LMConfig, forward, freeze, init_language_model
from bicameral.language import named_parameters as lm_named
from bicameral.tensor import Tensor, binary_cross_entropy


def make_pair(lm_kw=None, d_kw=None, seed=0, frozen=True):
    lm_cfg = LMConfig(**{**dict(vocab_size=6, d_model=8, n_layers=2, n_heads=2,
                                d_ff=16, max_seq_len=32), **(lm_kw or {})})
    d_cfg = DoppelConfig(**{**dict(d_shadow=4, n_objectives=2, n_heads_shadow=2,
                                   d_ff_shadow=8), **(d_kw or {})})
    rng = np.random.default_rng(seed)
    lm = init_language_model(lm_cfg, rng)
    if frozen:
        freeze(lm)
    dm = init_doppelganger(lm_cfg, d_cfg, rng)
    return BicameralModel(language=lm, doppel=dm)


class TestConfig:
    def test_shadow_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            DoppelConfig(d_shadow=6, n_heads_shadow=4)

    def test_objective_count_positive(self):
        with pytest.raises(ValueError):
            DoppelConfig(n_objectives=0)

    def test_mismatched_towers_rejected(self):
        lm = init_language_model(LMConfig(vocab_size=6, d_model=8, n_layers=2,
                                          n_heads=2, d_ff=16), np.random.default_rng(0))
        other_cfg = LMConfig(vocab_size=6, d_model=16, n_layers=2, n_heads=2, d_ff=16)
        dm = init_doppelganger(other_cfg, DoppelConfig(d_shadow=4, n_heads_shadow=2),
                               np.random.default_rng(1))
        with pytest.raises(ValueError, match="different language configurations"):
            BicameralModel(language=lm, doppel=dm)


class TestDoppelForward:
    def test_zero_head_scores_half_everywhere(self):
        bm = make_pair()
        bm.doppel.head_w.data[:] = 0.0
        bm.doppel.head_b.data[:] = 0.0
        scores = score_prefixes(bm, [0, 1, 2, 3])
        np.testing.assert_array_equal(scores.data, np.full((4, 2), 0.5))

    def test_scores_strictly_inside_unit_interval(self):
        bm = make_pair(seed=3)
        scores = score_prefixes(bm, [5, 4, 3, 2, 1, 0]).data
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_prompt_only_query_is_scored(self):
        bm = make_pair()
        scores = score_prefixes(bm, [2])
        assert scores.shape == (1, 2)

    def test_causality_by_mutation(self):
        bm = make_pair(seed=5)
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, 6, size=12)
        scores = score_prefixes(bm, tokens).data
        for cut in (2, 6, 11):
            mutated = tokens.copy()
            mutated[cut:] = (mutated[cut:] + 3) % 6
            mutated_scores = score_prefixes(bm, mutated).data
            assert np.array_equal(scores[:cut], mutated_scores[:cut])

    def test_determinism(self):
        bm = make_pair(seed=7)
        a = score_prefixes(bm, [1, 2, 3]).data
        b = score_prefixes(bm, [1, 2, 3]).data
        assert np.array_equal(a, b)

    def test_matches_doppel_forward_composition(self):
        bm = make_pair(seed=8)
        tokens = [0, 3, 5, 1]
        _, taps = forward(bm.language, tokens)
        direct = doppel_forward(bm.doppel, taps).data
        composed = score_prefixes(bm, tokens).data
        assert np.array_equal(direct, composed)

    def test_tap_count_mismatch_rejected(self):
        bm = make_pair()
        other = make_pair(lm_kw=dict(n_layers=3), seed=1)
        _, taps = forward(other.language, [0, 1])
        with pytest.raises(ValueError, match="taps"):
            doppel_forward(bm.doppel, taps)

    def test_tap_width_mismatch_rejected(self):
        bm = make_pair()
        wide = make_pair(lm_kw=dict(d_model=16, n_heads=2), seed=2)
        _, taps = forward(wide.language, [0, 1])
        with pytest.raises(ValueError, match="width"):
            doppel_forward(bm.doppel, taps)


class TestHandComputation:
    def test_one_shadow_module_matches_reference(self):
        lm_cfg = LMConfig(vocab_size=3, d_model=4, n_layers=1, n_heads=1, d_ff=8,
                          max_seq_len=8)
        d_cfg = DoppelConfig(d_shadow=2, n_objectives=1, n_heads_shadow=1,
                             d_ff_shadow=4)
        lm = init_language_model(lm_cfg, np.random.default_rng(0))
        freeze(lm)
        dm = init_doppelganger(lm_cfg, d_cfg, rng=None)
        # hand-set shadow weights over the fuse -> attention -> norm ->
        # head -> sigmoid chain
        dm.input_proj.data = np.linspace(-0.4, 0.4, 8).reshape(4, 2)
        dm.fusion_w[0].data = np.linspace(0.3, -0.3, 12).reshape(6, 2)
        dm.fusion_b[0].data = np.array([0.1, -0.1])
        blk = dm.blocks[0]
        blk.wq.data = np.linspace(-0.2, 0.2, 4).reshape(2, 2)
        blk.wk.data = np.linspace(0.25, -0.15, 4).reshape(2, 2)
        blk.wv.data = np.linspace(-0.1, 0.3, 4).reshape(2, 2)
        blk.wo.data = np.linspace(0.2, -0.2, 4).reshape(2, 2)
        blk.w1.data = np.linspace(-0.3, 0.3, 8).reshape(2, 4)
        blk.b1.data = np.full(4, 0.02)
        blk.w2.data = np.linspace(0.35, -0.35, 8).reshape(4, 2)
        blk.b2.data = np.full(2, -0.01)
        dm.head_w.data = np.array([[0.7], [-0.4]])
        dm.head_b.data = np.array([0.05])

        _, taps = forward(lm, [0, 2])
        got = doppel_forward(dm, taps).data
        want = ref_doppel(dm, [t.data for t in taps])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_deep_random_shadow_matches_reference(self):
        bm = make_pair(seed=11)
        _, taps = forward(bm.language, [1, 4, 2, 0, 5])
        got = doppel_forward(bm.doppel, taps).data
        want = ref_doppel(bm.doppel, [t.data for t in taps])
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestFrozenSeparation:
    def test_no_gradient_reaches_language_parameters(self):
        bm = make_pair(seed=9)
        scores = score_prefixes(bm, [0, 1, 2])
        loss = binary_cross_entropy(scores, Tensor(np.full((3, 2), 0.3)))
        loss.backward()
        assert all(p.grad is None for _, p in lm_named(bm.language))
        doppel_params = [p for _, p in doppel_named(bm.doppel)]
        assert any(p.grad is not None for p in doppel_params)

    def test_taps_from_frozen_tower_track_no_graph(self):
        bm = make_pair(seed=10)
        _, taps = forward(bm.language, [0, 1])
        assert all(not t.requires_grad for t in taps)
        assert all(t._parents == () for t in taps)


class TestConcurrency:
    def test_one_language_pass_serves_logits_and_scores(self):
        bm = make_pair(seed=12)
        before = bm.language.forward_calls
        logits, scores = bicameral_forward(bm, [0, 1, 2, 3])
        assert bm.language.forward_calls == before + 1
        assert logits.shape == (4, 6) and scores.shape == (4, 2)


    def test_concurrent_scoring_on_a_shared_model_matches_serial(self):
        # an unused max_seq_len, so the threads race to build the position
        # table; lengths cross attention block boundaries
        bm = make_pair(lm_kw=dict(max_seq_len=123), seed=13)
        rng = np.random.default_rng(14)
        seqs = [rng.integers(0, 6, size=n) for n in (5, 32, 33, 70, 123)]
        results, errors = {}, []

        def worker(w):
            try:
                for i in np.random.default_rng(w).permutation(len(seqs)):
                    results[w, int(i)] = score_prefixes(bm, seqs[i]).data.tobytes()
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and not errors
        serial = [score_prefixes(bm, s).data.tobytes() for s in seqs]
        assert results == {(w, i): serial[i] for w in range(4) for i in range(len(seqs))}


class TestFootprint:
    def test_half_width_shadow_is_smaller_than_language_tower(self):
        # default desk scale with d_shadow = d_model / 2
        lm_cfg = LMConfig(vocab_size=27)
        d_cfg = DoppelConfig(d_shadow=lm_cfg.d_model // 2)
        rng = np.random.default_rng(0)
        lm = init_language_model(lm_cfg, rng)
        dm = init_doppelganger(lm_cfg, d_cfg, rng)
        count = lambda named: sum(p.size for _, p in named)
        assert count(doppel_named(dm)) < count(lm_named(lm))
