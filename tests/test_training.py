import numpy as np
import pytest

from bicameral import optim, training
from bicameral import tensor as T
from bicameral.checkpoint import parameter_checksum
from bicameral.doppelganger import (BicameralModel, DoppelConfig, doppel_forward,
                                    init_doppelganger, score_prefixes)
from bicameral.doppelganger import named_parameters as doppel_named
from bicameral.language import (FrozenModelError, LMConfig, forward, freeze,
                                init_language_model)
from bicameral.language import named_parameters as lm_named
from bicameral.optim import OptimConfig
from bicameral.training import (SupervisedSequence, SyntheticTaskSpec, evaluate,
                                generate_synthetic_dataset, load_dataset,
                                save_dataset, train_doppelganger)


def make_bicameral(n_objectives=1, seed=0, vocab_size=8):
    lm_cfg = LMConfig(vocab_size=vocab_size, d_model=16, n_layers=2, n_heads=2,
                      d_ff=32, max_seq_len=48)
    rng = np.random.default_rng(seed)
    lm = init_language_model(lm_cfg, rng)
    freeze(lm)
    dm = init_doppelganger(lm_cfg, DoppelConfig(d_shadow=8, n_objectives=n_objectives,
                                                n_heads_shadow=2, d_ff_shadow=16), rng)
    return BicameralModel(language=lm, doppel=dm)


def forbidden_spec(**kw):
    base = dict(kind="forbidden-token", vocab_size=8, forbidden_ids=(5,),
                n_sequences=64, val_fraction=0.25, min_len=6, max_len=14, seed=0)
    base.update(kw)
    return SyntheticTaskSpec(**base)


class TestLabels:
    def test_forbidden_prefix_labels(self):
        spec = forbidden_spec(forbidden_ids=(2,))
        labels = spec.label_fn()([0, 1, 2, 3])
        np.testing.assert_array_equal(labels[:, 0], [0.0, 0.0, 1.0, 1.0])

    def test_empty_forbidden_set_gives_all_zero(self):
        spec = forbidden_spec(forbidden_ids=())
        labels = spec.label_fn()([0, 1, 2, 3, 4])
        np.testing.assert_array_equal(labels, np.zeros((5, 1)))

    def test_parity_labels_match_independent_recomputation(self):
        spec = SyntheticTaskSpec(kind="prefix-parity", vocab_size=6, parity_ids=(1, 4),
                                 n_sequences=200, min_len=3, max_len=20, seed=3)
        train, val = generate_synthetic_dataset(spec)
        marked = {1, 4}
        for seq in train + val:
            count = 0
            for t, token in enumerate(seq.tokens):
                if token in marked:
                    count += 1
                assert seq.labels[t, 0] == float(count % 2)

    def test_sentiment_labels(self):
        spec = SyntheticTaskSpec(kind="sentiment-lexicon", vocab_size=6,
                                 positive_ids=(0,), negative_ids=(1,),
                                 n_sequences=1, seed=0)
        labels = spec.label_fn()([2, 0, 0, 1, 3])
        # neutral prefix scores 0.5; then all-positive, then 2 pos / 1 neg
        np.testing.assert_allclose(labels[:, 0], [0.5, 1.0, 1.0, (1 + 1 / 3) / 2,
                                                  (1 + 1 / 3) / 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            SyntheticTaskSpec(kind="nope", vocab_size=4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            forbidden_spec(corpus_tokens=())


class TestDatasetGeneration:
    def test_split_sizes(self):
        train, val = generate_synthetic_dataset(forbidden_spec(n_sequences=40,
                                                               val_fraction=0.25))
        assert len(train) == 30 and len(val) == 10

    def test_deterministic_given_seed(self):
        a_train, a_val = generate_synthetic_dataset(forbidden_spec(seed=9))
        b_train, b_val = generate_synthetic_dataset(forbidden_spec(seed=9))
        for a, b in zip(a_train + a_val, b_train + b_val):
            assert a.tokens == b.tokens
            assert np.array_equal(a.labels, b.labels)

    def test_both_label_classes_present(self):
        train, _ = generate_synthetic_dataset(forbidden_spec(n_sequences=64))
        finals = [seq.labels[-1, 0] for seq in train]
        assert 0.0 in finals and 1.0 in finals

    def test_corpus_windows_respect_source(self):
        corpus = tuple(range(8)) * 10
        spec = forbidden_spec(corpus_tokens=corpus, n_sequences=16)
        train, val = generate_synthetic_dataset(spec)
        joined = list(corpus)
        for seq in train + val:
            n = len(seq.tokens)
            assert any(joined[i:i + n] == seq.tokens for i in range(len(joined) - n + 1))

    def test_jsonl_round_trip(self, tmp_path):
        train, _ = generate_synthetic_dataset(forbidden_spec(n_sequences=8))
        path = tmp_path / "data.jsonl"
        save_dataset(path, train)
        again = load_dataset(path)
        assert len(again) == len(train)
        for a, b in zip(train, again):
            assert a.tokens == b.tokens
            assert np.array_equal(a.labels, b.labels)

    def test_label_range_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SupervisedSequence(tokens=[0, 1], labels=np.array([[0.5], [1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SupervisedSequence(tokens=[0, 1], labels=np.array([[0.5], [bad]]))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            SupervisedSequence(tokens=[], labels=np.zeros((0, 1)))

    def test_label_length_validated(self):
        with pytest.raises(ValueError, match="one\\s+row per token"):
            SupervisedSequence(tokens=[0, 1, 2], labels=np.zeros((2, 1)))


class TestTrainDoppelganger:
    def test_refuses_unfrozen_language(self):
        lm_cfg = LMConfig(vocab_size=8, d_model=16, n_layers=2, n_heads=2, d_ff=32)
        rng = np.random.default_rng(0)
        lm = init_language_model(lm_cfg, rng)  # never frozen
        dm = init_doppelganger(lm_cfg, DoppelConfig(d_shadow=8, n_heads_shadow=2,
                                                    d_ff_shadow=16), rng)
        bm = BicameralModel(language=lm, doppel=dm)
        train, val = generate_synthetic_dataset(forbidden_spec())
        with pytest.raises(FrozenModelError, match="frozen"):
            train_doppelganger(bm, train, val, OptimConfig(epochs=1))

    def test_label_width_mismatch_rejected(self):
        bm = make_bicameral(n_objectives=2)
        train, val = generate_synthetic_dataset(forbidden_spec())
        with pytest.raises(ValueError, match="objectives"):
            train_doppelganger(bm, train, val, OptimConfig(epochs=1))

    def test_zero_epochs_changes_nothing(self):
        bm = make_bicameral()
        before = [p.data.copy() for _, p in doppel_named(bm.doppel)]
        train, val = generate_synthetic_dataset(forbidden_spec())
        log = train_doppelganger(bm, train, val, OptimConfig(epochs=0))
        assert len(log) == 1 and log[0]["epoch"] == 0
        assert set(log[0].keys()) == {"epoch", "train_loss", "grad_norm", "param_norm",
                                      "val_loss", "val_acc"}
        after = [p.data for _, p in doppel_named(bm.doppel)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_learns_forbidden_token_task(self):
        bm = make_bicameral(seed=1)
        train, val = generate_synthetic_dataset(forbidden_spec(n_sequences=96, seed=2))
        log = train_doppelganger(bm, train, val,
                                 OptimConfig(lr=3e-3, epochs=25, batch_size=16, seed=0))
        assert log[-1]["train_loss"] < 0.5 * log[0]["train_loss"]
        assert log[-1]["val_acc"][0] >= 0.9

    def test_language_checksum_untouched(self):
        bm = make_bicameral(seed=4)
        checksum = parameter_checksum(lm_named(bm.language))
        train, val = generate_synthetic_dataset(forbidden_spec(seed=5))
        train_doppelganger(bm, train, val, OptimConfig(epochs=3, seed=0))
        assert parameter_checksum(lm_named(bm.language)) == checksum
        assert checksum == bm.language.checksum

    def test_deterministic_final_parameters(self):
        train, val = generate_synthetic_dataset(forbidden_spec(seed=6))

        def run():
            bm = make_bicameral(seed=7)
            train_doppelganger(bm, train, val, OptimConfig(epochs=4, seed=1))
            return [p.data.copy() for _, p in doppel_named(bm.doppel)]

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_phase_updates_touch_disjoint_parameter_sets(self):
        # phase 1 moved only lm.*; phase 2 must move only doppel.*
        bm = make_bicameral(seed=8)
        lm_before = {n: p.data.copy() for n, p in lm_named(bm.language)}
        dop_before = {n: p.data.copy() for n, p in doppel_named(bm.doppel)}
        train, val = generate_synthetic_dataset(forbidden_spec(seed=9))
        train_doppelganger(bm, train, val, OptimConfig(epochs=3, seed=0))
        assert all(np.array_equal(lm_before[n], p.data)
                   for n, p in lm_named(bm.language))
        assert any(not np.array_equal(dop_before[n], p.data)
                   for n, p in doppel_named(bm.doppel))


class TestPaddedGroups:
    """A padded group must reproduce the per-sequence computation."""

    def group_of_unequal_lengths(self, n_objectives=2):
        bm = make_bicameral(n_objectives=n_objectives, seed=14)
        rng = np.random.default_rng(15)
        data = [SupervisedSequence(tokens=rng.integers(0, 8, size=n).tolist(),
                                   labels=rng.uniform(size=(n, n_objectives)))
                for n in (5, 11, 1, 8)]
        return bm, data

    def test_loss_and_gradients_match_per_sequence_loop(self):
        bm, data = self.group_of_unequal_lengths()
        params = [p for _, p in doppel_named(bm.doppel)]
        batch_len = len(data) + 2  # the group is part of a larger batch

        # reference: the per-sequence loop, one graph per sequence
        T.zero_grads(params)
        ref_loss, ref_total = 0.0, 0.0
        for seq in data:
            scores = score_prefixes(bm, seq.tokens)
            loss = T.binary_cross_entropy(scores, T.Tensor(seq.labels))
            ref_loss += loss.item() / batch_len
            ref_total += len(seq.tokens) * loss.item()
            loss.backward()
        ref_grads = [p.grad / batch_len for p in params]

        T.zero_grads(params)
        taps, labels, lengths = training._padded(bm, data, "test")
        [(group, real)] = optim.groups(np.arange(len(data)), lengths)
        loss, total, count = training._group_loss(bm.doppel, taps, labels, group, real,
                                                  batch_len)
        loss.backward()
        assert loss.item() == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for p, ref in zip(params, ref_grads):
            np.testing.assert_allclose(p.grad, ref, rtol=1e-12)
        assert count == sum(len(s.tokens) for s in data)
        assert total == pytest.approx(ref_total, rel=1e-12)

    def test_real_rows_match_each_sequence_alone(self):
        bm, data = self.group_of_unequal_lengths()
        taps, labels, lengths = training._padded(bm, data, "test")
        [(group, real)] = optim.groups(np.arange(len(data)), lengths)
        scores, _ = training._group_forward(bm.doppel, taps, labels, group, real)
        assert scores.shape[:2] == real.shape == (len(data), 11)
        for i, seq in enumerate(data):
            alone = score_prefixes(bm, seq.tokens).data
            assert real[i].sum() == len(seq.tokens)
            np.testing.assert_allclose(scores.data[i, :len(seq.tokens)], alone,
                                       rtol=0.0, atol=1e-12)

    def test_rows_from_different_tap_passes_match_each_sequence_alone(self):
        # taps are filled by language passes over rows 0-3 and 4-7; a
        # training group mixes them and drops row 6's span of 13
        bm = make_bicameral(n_objectives=2, seed=18)
        rng = np.random.default_rng(19)
        data = [SupervisedSequence(tokens=rng.integers(0, 8, size=n).tolist(),
                                   labels=rng.uniform(size=(n, 2)))
                for n in (4, 9, 2, 6, 3, 7, 13, 5)]
        taps, labels, lengths = training._padded(bm, data, "test")
        [(group, real)] = optim.groups(np.array([0, 5, 2, 7]), lengths)
        scores, y = training._group_forward(bm.doppel, taps, labels, group, real)
        assert scores.shape[:2] == real.shape == (4, 7)
        for row, i in enumerate(group):
            n = len(data[i].tokens)
            assert real[row].sum() == n
            np.testing.assert_array_equal(y[row, :n], data[i].labels)
            np.testing.assert_allclose(scores.data[row, :n],
                                       score_prefixes(bm, data[i].tokens).data,
                                       rtol=0.0, atol=1e-12)


class TestGroups:
    def test_order_spans_masks_and_short_last_group(self):
        assert optim.GROUP_SIZE == 4
        lengths = np.array([2, 5, 1, 3, 4, 1, 2])
        out = list(optim.groups(np.array([6, 1, 4, 0, 3, 5]), lengths))
        assert [group.tolist() for group, _ in out] == [[6, 1, 4, 0], [3, 5]]
        np.testing.assert_array_equal(out[0][1], [[1, 1, 0, 0, 0],
                                                  [1, 1, 1, 1, 1],
                                                  [1, 1, 1, 1, 0],
                                                  [1, 1, 0, 0, 0]])
        np.testing.assert_array_equal(out[1][1], [[1, 1, 1],
                                                  [1, 0, 0]])
        assert all(real.dtype == bool for _, real in out)


def inf_gradient_node(param):
    """A finite 0-d value whose graph hands ``param`` an infinite gradient."""
    return T.Tensor(0.0, True, _parents=(param,),
                    _backward=lambda g: setattr(param, "grad", np.full(param.shape, np.inf)))


class TestEpochs:
    def test_non_finite_gradient_raises_before_the_step(self):
        params = [T.Tensor(np.ones(3), requires_grad=True),
                  T.Tensor(np.zeros(2), requires_grad=True)]
        before = [p.data.copy() for p in params]

        def group_loss(group, real, batch_len):
            return T.add(T.Tensor(0.5), inf_gradient_node(params[0])), 0.5, len(group)

        with pytest.raises(optim.NumericError, match="non-finite gradient"):
            list(optim.epochs(params, np.ones(6, dtype=int), group_loss,
                              OptimConfig(epochs=1, batch_size=6)))
        for p, b in zip(params, before):
            assert p.data.tobytes() == b.tobytes()


    def test_records_carry_gradient_and_parameter_norms(self):
        # a batch of 6 splits into groups of 4 and 2, each adding g: the one
        # step per epoch sees the summed gradient 2g
        params = [T.Tensor(np.ones(3), requires_grad=True),
                  T.Tensor(np.zeros(2), requires_grad=True)]
        g = np.array([3.0, -4.0, 12.0])

        def constant_gradient(group, real, batch_len):
            def backward(_):
                params[0].grad = g.copy() if params[0].grad is None else params[0].grad + g
            node = T.Tensor(0.0, True, _parents=(params[0],), _backward=backward)
            return T.add(T.Tensor(0.5), node), 0.5, len(group)

        records = list(optim.epochs(params, np.ones(6, dtype=int), constant_gradient,
                                    OptimConfig(epochs=2, batch_size=6)))
        assert [r["epoch"] for r in records] == [1, 2]
        assert all(r["grad_norm"] == 26.0 for r in records)  # |2g| = 2 * 13
        assert records[-1]["param_norm"] == pytest.approx(
            np.sqrt(sum(np.sum(p.data ** 2) for p in params)), rel=1e-15)
        assert records[0]["param_norm"] != records[1]["param_norm"]

    def test_norms_are_deterministic(self):
        train, val = generate_synthetic_dataset(forbidden_spec(seed=6))
        logs = [train_doppelganger(make_bicameral(seed=7), train, val,
                                   OptimConfig(epochs=2, seed=1)) for _ in range(2)]
        assert logs[0] == logs[1]
        assert logs[0][0]["grad_norm"] is None
        assert all(r["grad_norm"] > 0.0 and r["param_norm"] > 0.0 for r in logs[0][1:])


class TestEvaluate:
    def test_one_shadow_pass_per_group(self, monkeypatch):
        bm = make_bicameral(seed=16)
        data, _ = generate_synthetic_dataset(forbidden_spec(n_sequences=10,
                                                            val_fraction=0.0, seed=17))
        calls = []

        def counting(model, taps):
            calls.append(taps[0].shape)
            return doppel_forward(model, taps)

        monkeypatch.setattr(training, "doppel_forward", counting)
        metrics = evaluate(bm, data)
        assert len(calls) == -(-len(data) // optim.GROUP_SIZE)
        assert sum(b["count"] for b in metrics["calibration"]) == metrics["n_positions"]

    def test_pure_and_structured(self):
        bm = make_bicameral(seed=10)
        data, _ = generate_synthetic_dataset(forbidden_spec(n_sequences=12,
                                                            val_fraction=0.0, seed=11))
        before = [p.data.copy() for _, p in doppel_named(bm.doppel)]
        metrics = evaluate(bm, data)
        after = [p.data for _, p in doppel_named(bm.doppel)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert 0.0 < metrics["bce"]
        assert len(metrics["accuracy"]) == 1
        assert len(metrics["calibration"]) == 10
        assert sum(b["count"] for b in metrics["calibration"]) == metrics["n_positions"]

    def test_logits_unchanged_by_evaluation(self):
        bm = make_bicameral(seed=12)
        probe = [0, 1, 2, 3]
        logits_before = forward(bm.language, probe)[0].data
        data, _ = generate_synthetic_dataset(forbidden_spec(n_sequences=6,
                                                            val_fraction=0.0, seed=13))
        evaluate(bm, data)
        assert np.array_equal(logits_before, forward(bm.language, probe)[0].data)
