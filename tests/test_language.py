import math

import numpy as np
import pytest
from reference import ref_block, ref_forward

from bicameral import language, optim
from bicameral.checkpoint import parameter_checksum
from bicameral.language import (CharTokenizer, FrozenModelError, LMConfig,
                                SequenceError, attention_module,
                                forward, freeze, init_attention_module,
                                init_language_model, named_parameters,
                                positional_encode, pretrain, sinusoid_table)
from bicameral.optim import OptimConfig
from bicameral.tensor import Tensor, build_graph, cross_entropy, zero_grads


def tiny_config(**kw):
    base = dict(vocab_size=5, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                max_seq_len=32)
    base.update(kw)
    return LMConfig(**base)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            LMConfig(vocab_size=4, d_model=6, n_heads=4)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            LMConfig(vocab_size=0)


class TestPositionalEncoding:
    def test_position_zero_adds_sin0_cos1(self):
        x = Tensor(np.zeros((1, 6)))
        out = positional_encode(x, max_seq_len=8).data[0]
        np.testing.assert_allclose(out[0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(out[1::2], 1.0, atol=1e-15)

    def test_position_one_at_width_two(self):
        x = Tensor(np.zeros((2, 2)))
        out = positional_encode(x, max_seq_len=8).data
        np.testing.assert_allclose(out[1], [math.sin(1.0), math.cos(1.0)], rtol=1e-15)

    def test_pure_function_of_position(self):
        # the added table never depends on what the embeddings contain
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        table = sinusoid_table(4, 6)
        np.testing.assert_array_equal(positional_encode(Tensor(a), 8).data, a + table)
        np.testing.assert_array_equal(positional_encode(Tensor(b), 8).data, b + table)

    def test_angle_formula(self):
        table = sinusoid_table(3, 4)
        for pos in range(3):
            for i in range(2):
                angle = pos / (10000.0 ** (2 * i / 4))
                assert table[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
                assert table[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)

    def test_sequence_too_long(self):
        with pytest.raises(SequenceError, match="exceeds"):
            positional_encode(Tensor(np.zeros((9, 4))), max_seq_len=8)


class TestForward:
    def test_shapes_at_t1(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        logits, taps = forward(model, [3])
        assert logits.shape == (1, 5)
        assert len(taps) == model.config.n_layers + 1
        assert all(t.shape == (1, 8) for t in taps)

    def test_tap_shapes_at_any_length(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        _, taps = forward(model, [0, 1, 2, 3, 4, 0])
        assert all(t.shape == (6, 8) for t in taps)

    def test_causality_by_mutation(self):
        # changing any suffix leaves every earlier position bitwise intact
        model = init_language_model(tiny_config(), np.random.default_rng(1))
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, 5, size=10)
        logits, taps = forward(model, tokens)
        for cut in (3, 7, 9):
            mutated = tokens.copy()
            mutated[cut:] = (mutated[cut:] + 1) % 5
            m_logits, m_taps = forward(model, mutated)
            assert np.array_equal(logits.data[:cut], m_logits.data[:cut])
            for a, b in zip(taps, m_taps):
                assert np.array_equal(a.data[:cut], b.data[:cut])

    def test_one_layer_forward_matches_hand_computation(self):
        cfg = LMConfig(vocab_size=3, d_model=4, n_layers=1, n_heads=1, d_ff=8,
                       max_seq_len=8)
        model = init_language_model(cfg, rng=None)
        # hand-set weights: distinct, asymmetric, nothing random left over
        vals = np.arange(1, 1 + 3 * 4).reshape(3, 4) / 10.0
        model.embedding.data = vals
        blk = model.blocks[0]
        blk.wq.data = np.linspace(-0.3, 0.3, 16).reshape(4, 4)
        blk.wk.data = np.linspace(0.2, -0.4, 16).reshape(4, 4)
        blk.wv.data = np.linspace(-0.1, 0.5, 16).reshape(4, 4)
        blk.wo.data = np.linspace(0.4, -0.2, 16).reshape(4, 4)
        blk.w1.data = np.linspace(-0.25, 0.25, 32).reshape(4, 8)
        blk.b1.data = np.full(8, 0.05)
        blk.w2.data = np.linspace(0.3, -0.3, 32).reshape(8, 4)
        blk.b2.data = np.full(4, -0.02)
        model.head.data = np.linspace(-0.5, 0.5, 12).reshape(4, 3)

        logits, taps = forward(model, [0, 2])
        ref_logits, ref_taps = ref_forward(model, [0, 2])
        np.testing.assert_allclose(logits.data, ref_logits, rtol=1e-12)
        for got, want in zip(taps, ref_taps):
            np.testing.assert_allclose(got.data, want, rtol=1e-12)

    def test_deep_forward_matches_reference(self):
        model = init_language_model(tiny_config(n_layers=3), np.random.default_rng(4))
        tokens = [0, 1, 2, 3, 4]
        logits, _ = forward(model, tokens)
        ref_logits, _ = ref_forward(model, tokens)
        np.testing.assert_allclose(logits.data, ref_logits, rtol=1e-10)

    def test_empty_sequence_rejected(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        with pytest.raises(SequenceError, match="non-empty"):
            forward(model, [])

    def test_out_of_range_id_rejected(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        with pytest.raises(SequenceError, match="out of range"):
            forward(model, [0, 5])

    def test_forward_counter_increments(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        assert model.forward_calls == 0
        forward(model, [1])
        forward(model, [1, 2])
        assert model.forward_calls == 2


def random_module(rng, d=8, d_ff=16):
    blk = init_attention_module(d, d_ff, rng)
    for _, p in blk.named("m"):  # larger than init scale, so heads differ
        p.data = rng.normal(0.0, 0.5, size=p.shape)
    return blk


class TestFusedAttention:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_per_head_reference(self, n_heads, lead):
        rng = np.random.default_rng(n_heads)
        blk = random_module(rng)
        x = rng.normal(size=lead + (5, 8))
        got = attention_module(blk, Tensor(x), n_heads).data
        for ix in np.ndindex(*lead):
            np.testing.assert_allclose(got[ix], ref_block(x[ix], blk, n_heads),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_graph_size_does_not_depend_on_head_count(self, n_heads):
        blk = random_module(np.random.default_rng(0))
        assert len(blk.named("m")) == 12
        assert all(isinstance(p, Tensor) for _, p in blk.named("m"))
        x = Tensor(np.ones((5, 8)), requires_grad=True)
        out = attention_module(blk, x, n_heads)
        assert sum(1 for node in build_graph(out) if node._op) == 14


class TestPretrain:
    def test_repeating_corpus_reaches_low_loss(self):
        # a deterministic source has zero entropy, so the loss can fall
        # arbitrarily close to zero; 0.1 nats is the bar
        tok = CharTokenizer(list("abc"))
        ids = tok.encode("abc" * 30)
        sequences = [ids[i:i + 24] for i in range(0, len(ids) - 24, 24)]
        cfg = LMConfig(vocab_size=3, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                       max_seq_len=32)
        model = init_language_model(cfg, np.random.default_rng(0))
        log = pretrain(model, sequences,
                       OptimConfig(lr=3e-3, epochs=60, batch_size=4, seed=0))
        assert log[-1]["train_loss"] < 0.1
        assert log[0]["train_loss"] > log[-1]["train_loss"]

    def test_single_token_vocabulary_has_zero_loss(self):
        cfg = LMConfig(vocab_size=1, d_model=4, n_layers=1, n_heads=1, d_ff=8,
                       max_seq_len=16)
        model = init_language_model(cfg, np.random.default_rng(0))
        log = pretrain(model, [[0] * 8], OptimConfig(epochs=1, seed=0))
        assert log[0]["train_loss"] == pytest.approx(0.0, abs=1e-12)

    def test_initial_loss_near_log_vocab(self):
        cfg = LMConfig(vocab_size=11, d_model=32, n_layers=2, n_heads=2, d_ff=64,
                       max_seq_len=32)
        model = init_language_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 11, size=20)
        from bicameral.tensor import cross_entropy
        logits, _ = forward(model, seq[:-1])
        loss = cross_entropy(logits, seq[1:]).item()
        assert loss == pytest.approx(math.log(11), abs=0.1)

    def test_frozen_model_refuses_training(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        freeze(model)
        with pytest.raises(FrozenModelError):
            pretrain(model, [[0, 1, 2]], OptimConfig(epochs=1))

    def test_group_loss_matches_per_sequence_loop(self):
        # a padded group of unequal lengths must reproduce the per-sequence
        # computation, loss and every gradient
        model = init_language_model(tiny_config(), np.random.default_rng(16))
        rng = np.random.default_rng(17)
        sequences = [rng.integers(0, 5, size=n) for n in (6, 12, 2, 9)]
        params = [p for _, p in named_parameters(model)]
        batch_len = len(sequences) + 3  # the group is part of a larger batch

        zero_grads(params)
        ref_sum = 0.0
        for seq in sequences:
            logits, _ = forward(model, seq[:-1])
            loss = cross_entropy(logits, seq[1:])
            ref_sum += loss.item()
            loss.backward()
        ref_loss = ref_sum / batch_len
        ref_grads = [p.grad / batch_len for p in params]

        zero_grads(params)
        lengths = np.array([len(seq) - 1 for seq in sequences])
        [(group, real)] = optim.groups(np.arange(len(sequences)), lengths)
        loss, total, count = language._group_loss(model, optim.pad(sequences), group, real,
                                                   batch_len)
        loss.backward()
        assert loss.item() == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        assert total == pytest.approx(ref_sum, rel=1e-12) and count == len(sequences)
        for p, ref in zip(params, ref_grads):
            np.testing.assert_allclose(p.grad, ref, rtol=1e-12)

    def test_one_forward_per_group(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        sequences = [[0, 1, 2, 3]] * 10
        pretrain(model, sequences, OptimConfig(epochs=2, batch_size=8, seed=0))
        # batches of 8 and 2 split into groups of 4, 4 and 2: 3 per epoch
        assert model.forward_calls == 6


class TestFreeze:
    def test_freeze_records_checksum_and_detaches(self):
        model = init_language_model(tiny_config(), np.random.default_rng(0))
        assert not model.frozen
        freeze(model)
        assert model.frozen
        assert model.checksum == parameter_checksum(named_parameters(model))
        assert all(not p.requires_grad for _, p in named_parameters(model))
        logits, taps = forward(model, [0, 1])
        assert not logits.requires_grad
        assert all(not t.requires_grad for t in taps)


class TestTokenizer:
    def test_round_trip(self):
        tok = CharTokenizer(list("abc x"))
        assert tok.decode(tok.encode("cab bax")) == "cab bax"

    def test_unknown_character(self):
        tok = CharTokenizer(list("ab"))
        with pytest.raises(ValueError, match="not in the alphabet"):
            tok.encode("abz")

    def test_duplicate_characters_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CharTokenizer(["a", "a"])

    def test_file_round_trip_with_escapes(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("a\nb\n\\n\n\\t\n\\\\\n \n", encoding="utf-8")
        tok = CharTokenizer.from_file(path)
        assert tok.chars == ["a", "b", "\n", "\t", "\\", " "]
        assert tok.vocab_size == 6
        (tmp_path / "again.txt").write_text("\n".join(tok.to_lines()) + "\n",
                                            encoding="utf-8")
        again = CharTokenizer.from_file(tmp_path / "again.txt")
        assert again.chars == tok.chars
