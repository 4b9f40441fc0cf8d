import json
import sys
import threading

import numpy as np
import pytest

from bicameral import generation
from bicameral import tensor as T
from bicameral.doppelganger import (BicameralModel, DoppelConfig, bicameral_forward,
                                    init_doppelganger, score_prefixes)
from bicameral.doppelganger import named_parameters as doppel_named
from bicameral.generation import GenerationEvent, SamplerConfig, generate, sample
from bicameral.language import (CharTokenizer, KVCache, LMConfig, SequenceError,
                                forward, freeze, init_language_model)
from bicameral.language import named_parameters as lm_named


def make_bicameral(seed=0, n_objectives=2, max_seq_len=64):
    lm_cfg = LMConfig(vocab_size=6, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                      max_seq_len=max_seq_len)
    rng = np.random.default_rng(seed)
    lm = init_language_model(lm_cfg, rng)
    freeze(lm)
    dm = init_doppelganger(lm_cfg, DoppelConfig(d_shadow=8, n_objectives=n_objectives,
                                                n_heads_shadow=2, d_ff_shadow=16), rng)
    return BicameralModel(language=lm, doppel=dm)


class TestSample:
    def test_greedy_takes_argmax(self):
        assert sample(np.array([0.0, 5.0, 1.0]), SamplerConfig(),
                      np.random.default_rng(0)) == 1

    def test_greedy_tie_breaks_to_lowest_id(self):
        assert sample(np.array([2.0, 2.0]), SamplerConfig(),
                      np.random.default_rng(0)) == 0

    def test_low_temperature_matches_greedy(self):
        rng = np.random.default_rng(1)
        logits = np.array([0.3, 2.0, -1.0, 1.2])
        cfg = SamplerConfig(strategy="temperature", temperature=1e-4, seed=0)
        draws = {sample(logits, cfg, rng) for _ in range(1000)}
        assert draws == {1}

    def test_tiny_temperature_takes_greedy_limit(self):
        row = np.array([0.3, 2.0, -1.0, 1.2])
        cfg = SamplerConfig(strategy="temperature", temperature=1e-320)
        assert sample(row, cfg, np.random.default_rng(0)) == np.argmax(row)

    def test_temperature_sampling_covers_support(self):
        rng = np.random.default_rng(2)
        logits = np.zeros(3)
        cfg = SamplerConfig(strategy="temperature", temperature=1.0)
        draws = {sample(logits, cfg, rng) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_top_k_restricts_support(self):
        rng = np.random.default_rng(3)
        logits = np.array([5.0, 4.0, -50.0, 3.9])
        cfg = SamplerConfig(strategy="top_k", k=2, temperature=1.0)
        draws = {sample(logits, cfg, rng) for _ in range(300)}
        assert draws == {0, 1}

    def test_top_k_exceeding_vocab_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample(np.zeros(3), SamplerConfig(strategy="top_k", k=4),
                   np.random.default_rng(0))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(strategy="beam")
        for temperature in (0.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="SamplerConfig.temperature"):
                SamplerConfig(temperature=temperature)


class TestGenerate:
    def test_max_new_zero_yields_prompt_events_only(self):
        bm = make_bicameral()
        events = list(generate(bm, [0, 1, 2], 0, SamplerConfig()))
        assert len(events) == 3
        assert [e.pos for e in events] == [0, 1, 2]
        assert [e.token_id for e in events] == [0, 1, 2]

    def test_greedy_is_bitwise_deterministic(self):
        bm = make_bicameral(seed=4)
        runs = [list(generate(bm, [1, 2], 8, SamplerConfig())) for _ in range(2)]
        assert [e.token_id for e in runs[0]] == [e.token_id for e in runs[1]]
        assert [e.scores for e in runs[0]] == [e.scores for e in runs[1]]

    def test_scores_never_steer_tokens(self):
        # a plain language-only greedy loop is the oracle for the stream
        bm = make_bicameral(seed=5)
        events = list(generate(bm, [3, 0], 6, SamplerConfig()))
        seq = [3, 0]
        for _ in range(6):
            logits, _ = forward(bm.language, seq)
            seq.append(int(np.argmax(logits.data[-1])))
        assert [e.token_id for e in events] == seq

    def test_event_scores_match_recomputation_exactly(self):
        bm = make_bicameral(seed=6)
        events = list(generate(bm, [0, 1, 2], 5, SamplerConfig()))
        tokens = [e.token_id for e in events]
        prompt_scores = score_prefixes(bm, tokens[:3]).data
        for e in events[:3]:
            assert e.scores == tuple(prompt_scores[e.pos])
        for e in events[3:]:
            recomputed = score_prefixes(bm, tokens[:e.pos + 1]).data[-1]
            assert e.scores == tuple(recomputed)

    def test_event_scores_match_recomputation_across_blocks(self):
        # no-graph passes against recomputation with a graph, 30 to 70 tokens
        bm = make_bicameral(seed=13, max_seq_len=72)
        prompt = [int(t) for t in np.random.default_rng(13).integers(0, 6, size=30)]
        events = list(generate(bm, prompt, 40, SamplerConfig()))
        tokens = [e.token_id for e in events]
        prompt_scores = score_prefixes(bm, prompt)
        assert prompt_scores.requires_grad
        for e in events[:30]:
            assert e.scores == tuple(prompt_scores.data[e.pos])
        for e in events[30:]:
            recomputed = score_prefixes(bm, tokens[:e.pos + 1]).data[-1]
            assert e.scores == tuple(recomputed)

    def test_one_forward_per_generated_token(self):
        bm = make_bicameral(seed=7)
        bm.language.forward_calls = 0
        list(generate(bm, [0, 1], 10, SamplerConfig()))
        assert bm.language.forward_calls == 11

    def test_positions_strictly_increasing_and_width_n(self):
        bm = make_bicameral(seed=8, n_objectives=3)
        events = list(generate(bm, [0, 1], 4, SamplerConfig()))
        assert [e.pos for e in events] == list(range(6))
        assert all(len(e.scores) == 3 for e in events)
        assert all(0.0 < s < 1.0 for e in events for s in e.scores)

    def test_parameters_never_mutated(self):
        bm = make_bicameral(seed=9)
        named = ([("lm." + n, p) for n, p in lm_named(bm.language)]
                 + [("doppel." + n, p) for n, p in doppel_named(bm.doppel)])
        before = {n: p.data.copy() for n, p in named}
        list(generate(bm, [0], 6, SamplerConfig(strategy="temperature",
                                                temperature=0.8, seed=3)))
        for n, p in named:
            assert np.array_equal(before[n], p.data)

    def test_length_overflow_rejected(self):
        bm = make_bicameral(max_seq_len=8)
        with pytest.raises(SequenceError, match="exceeds"):
            list(generate(bm, [0, 1, 2], 6, SamplerConfig()))

    def test_empty_prompt_rejected(self):
        bm = make_bicameral()
        with pytest.raises(SequenceError, match="non-empty"):
            list(generate(bm, [], 4, SamplerConfig()))

    def test_invalid_prompt_id_rejected(self):
        bm = make_bicameral()
        with pytest.raises(SequenceError, match="out of range"):
            list(generate(bm, [0, 17], 2, SamplerConfig()))

    def test_token_text_and_json_shape(self):
        bm = make_bicameral(seed=10)
        tok = CharTokenizer(list("abcdef"))
        events = list(generate(bm, tok.encode("ba"), 3, SamplerConfig(), tok))
        assert events[0].token_text == "b"
        obj = json.loads(events[-1].to_json())
        assert set(obj.keys()) == {"pos", "token", "id", "scores"}
        assert obj["id"] == events[-1].token_id

    def test_json_is_strict(self):
        with pytest.raises(ValueError):
            GenerationEvent(0, 1, "a", (float("nan"),)).to_json()

    def test_passes_build_no_graph(self, monkeypatch):
        bm = make_bicameral(seed=12)  # the shadow tower is trainable
        graphs = []

        def recording(bm, tokens, cache):
            logits, scores = bicameral_forward(bm, tokens, cache)
            graphs.append(scores.requires_grad)
            return logits, scores

        monkeypatch.setattr(generation, "bicameral_forward", recording)
        x = T.Tensor([1.0], requires_grad=True)
        for _ in generate(bm, [0, 1], 3, SamplerConfig()):
            assert T.add(x, x).requires_grad  # the consumer keeps its own setting
        assert graphs == [False] * 4

    def test_stream_is_lazy(self):
        bm = make_bicameral(seed=11)
        bm.language.forward_calls = 0
        stream = generate(bm, [0, 1], 16, SamplerConfig())
        next(stream)  # prompt event: exactly one pass so far
        assert bm.language.forward_calls == 1


def model_state(bm):
    """Each parameter's bytes and flags, and every attribute of the pair and
    of both towers, by value or, for tensors, by identity; the language
    tower's pass counter aside, since generating advances it."""
    named = ([("lm." + n, p) for n, p in lm_named(bm.language)]
             + [("doppel." + n, p) for n, p in doppel_named(bm.doppel)])
    params = {n: (p.data.tobytes(), p.requires_grad, p.grad is None, p._parents)
              for n, p in named}
    attrs = [{k: v for k, v in vars(obj).items() if k != "forward_calls"}
             for obj in (bm, bm.language, bm.doppel)]
    return params, attrs


class TestCachedDecode:
    SAMPLERS = {"greedy": SamplerConfig(),
                "top_k": SamplerConfig(strategy="top_k", k=3, seed=5),
                "temperature": SamplerConfig(strategy="temperature", temperature=0.8,
                                             seed=6)}

    @pytest.mark.parametrize("strategy", SAMPLERS)
    @pytest.mark.parametrize("prompt_len", [1, 31, 32, 33])
    def test_every_event_equals_recomputation_up_to_max_seq_len(self, strategy,
                                                                prompt_len):
        # one-row steps through both towers' caches, across block boundaries
        bm = make_bicameral(seed=20 + prompt_len, max_seq_len=72)
        prompt = np.random.default_rng(prompt_len).integers(0, 6, size=prompt_len)
        events = list(generate(bm, prompt, 72 - prompt_len, self.SAMPLERS[strategy]))
        tokens = [e.token_id for e in events]
        assert [e.pos for e in events] == list(range(72))
        for e in events:
            recomputed = score_prefixes(bm, tokens[:e.pos + 1]).data[-1]
            assert np.asarray(e.scores).tobytes() == recomputed.tobytes()

    def test_each_generated_token_runs_one_row(self, monkeypatch):
        bm = make_bicameral(seed=21)
        rows = []

        def recording(bm, tokens, cache):
            rows.append(len(tokens))
            return bicameral_forward(bm, tokens, cache)

        monkeypatch.setattr(generation, "bicameral_forward", recording)
        list(generate(bm, [0, 1, 2], 5, SamplerConfig()))
        assert rows == [3] + [1] * 5

    def test_concurrent_generation_on_a_shared_model_matches_serial(self):
        bm = make_bicameral(seed=22, max_seq_len=72)
        requests = [([0, 1, 2], 60, self.SAMPLERS["greedy"]),
                    ([3] * 31, 41, self.SAMPLERS["top_k"]),
                    ([5, 4], 40, self.SAMPLERS["temperature"]),
                    ([1, 2] * 16 + [0], 39, self.SAMPLERS["greedy"])]

        def run(request):
            return [(e.pos, e.token_id, e.scores) for e in generate(bm, *request)]

        before = model_state(bm)
        serial = [run(r) for r in requests]
        results, errors = {}, []

        def worker(w):
            try:
                for i in np.random.default_rng(w).permutation(len(requests)):
                    results[w, int(i)] = run(requests[i])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and not errors
        assert results == {(w, i): serial[i] for w in range(4) for i in range(len(requests))}
        assert model_state(bm) == before

    def test_cache_overflow_rejected(self):
        bm = make_bicameral(seed=23, max_seq_len=8)
        cache = (KVCache(8), KVCache(8))
        bicameral_forward(bm, [0] * 6, cache)
        with pytest.raises(SequenceError, match="exceeds"):
            bicameral_forward(bm, [0] * 3, cache)
