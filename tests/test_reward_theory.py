import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bicameral.reward_theory import (CompositeReward, FiniteLanguageFunction,
                                     InstanceError, MinOf, RewardFunction,
                                     ShiftedProduct, Space, SplitLanguageFunction,
                                     WeightedSum, check_monotone,
                                     make_antagonistic_instance,
                                     make_negative_control,
                                     make_separable_instance, optimize_shared,
                                     optimize_split, random_instance,
                                     verify_supremacy)

TOL = 1e-12


# A second, independently written enumerator: plain python loops, no numpy
# vectorization, first-strictly-greater tie handling.
def oracle_shared(f, cr):
    best_j, best_v = None, None
    for j in range(len(f.thetas)):
        per_obj = []
        for i in range(f.n):
            vals = [cr.rewards[i](int(f.table[j, t, i]))
                    for t in range(len(f.inputs))]
            per_obj.append(sum(vals) / len(vals))
        v = cr.compose(per_obj)
        if best_v is None or v > best_v:
            best_j, best_v = j, v
    return best_j, best_v


def oracle_split(split, cr):
    picks, achieved = [], []
    for i in range(split.n):
        best_j, best_m = None, None
        for j in range(len(split.theta_grids[i])):
            vals = [cr.rewards[i](int(split.tables[i][j, t]))
                    for t in range(len(split.inputs))]
            m = sum(vals) / len(vals)
            if best_m is None or m > best_m:
                best_j, best_m = j, m
        picks.append(best_j)
        achieved.append(best_m)
    return tuple(picks), cr.compose(achieved)


# The pair form of monotonicity, written out: every grid pair u <= v
# (componentwise) must have M(u) <= M(v) + TOL.
def oracle_monotone(compose, value_sets):
    grids = [sorted(set(float(v) for v in vs)) for vs in value_sets]
    points = list(itertools.product(*grids))
    values = [float(compose(np.array(p))) for p in points]
    for u, mu in zip(points, values):
        for v, mv in zip(points, values):
            if all(a <= b for a, b in zip(u, v)) and mu > mv + TOL:
                return False
    return True


# The pointwise statement input by input: on each single input, the best
# (or the pinned) shared parameter's composite value is at most that of the
# per-objective best parameters on that input.
def oracle_pointwise(f, split, cr, shared_theta=None):
    for t in range(len(f.inputs)):
        shared = [cr.compose([cr.rewards[i](int(f.table[j, t, i])) for i in range(f.n)])
                  for j in range(len(f.thetas))]
        sh = max(shared) if shared_theta is None else shared[shared_theta]
        sp = cr.compose([max(cr.rewards[i](int(split.tables[i][j, t]))
                             for j in range(len(split.theta_grids[i])))
                         for i in range(split.n)])
        if not sh <= sp + TOL:
            return False
    return True


def random_map(rng, n):
    """A composite map that may or may not be monotone."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return WeightedSum(rng.uniform(0.0, 1.0, size=n))
    if kind == 1:
        return MinOf()
    if kind == 2:
        return ShiftedProduct(rng.uniform(-1.5, 1.5, size=n))
    a, b = rng.uniform(-0.2, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n)
    return lambda r: np.asarray(r) @ a + (np.asarray(r) ** 2) @ b


def single_objective_instance():
    space = Space(points=((0.0,), (0.5,), (1.0,)))
    reward = RewardFunction(values=(0.0, 0.5, 1.0))
    table = np.array([[[0]], [[2]], [[1]]])
    f = FiniteLanguageFunction(inputs=("t",), thetas=("a", "b", "c"),
                               spaces=(space,), table=table)
    return f, CompositeReward(rewards=(reward,), compose=WeightedSum([1.0]))


class TestOptimizeShared:
    def test_single_point_grid(self):
        space = Space(points=((1.0,),))
        f = FiniteLanguageFunction(inputs=("t",), thetas=("only",),
                                   spaces=(space,), table=np.zeros((1, 1, 1), int))
        cr = CompositeReward(rewards=(RewardFunction(values=(0.7,)),),
                             compose=WeightedSum([1.0]))
        idx, value = optimize_shared(f, cr)
        assert idx == 0 and value == pytest.approx(0.7, abs=TOL)

    def test_n1_reduces_to_single_reward_maximization(self):
        f, cr = single_objective_instance()
        idx, value = optimize_shared(f, cr)
        assert f.thetas[idx] == "b" and value == pytest.approx(1.0, abs=TOL)

    def test_matches_independent_enumerator_on_large_grid(self):
        rng = np.random.default_rng(100)
        spaces, rewards = [], []
        for _ in range(2):
            pts = tuple((float(x),) for x in rng.uniform(-1, 1, size=6))
            spaces.append(Space(points=pts))
            rewards.append(RewardFunction(values=tuple(p[0] for p in pts)))
        table = np.stack([rng.integers(0, 6, size=(100, 3)) for _ in range(2)], axis=-1)
        f = FiniteLanguageFunction(inputs=tuple(range(3)), thetas=tuple(range(100)),
                                   spaces=tuple(spaces), table=table)
        cr = CompositeReward(rewards=tuple(rewards),
                             compose=WeightedSum(rng.uniform(0.1, 1.0, size=2)))
        got = optimize_shared(f, cr)
        want = oracle_shared(f, cr)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=TOL)

        split = SplitLanguageFunction.from_shared(f)
        got_s = optimize_split(split, cr)
        want_s = oracle_split(split, cr)
        assert got_s[0] == want_s[0]
        assert got_s[1] == pytest.approx(want_s[1], abs=TOL)

    def test_tie_breaks_to_grid_order(self):
        space = Space(points=((1.0,),))
        f = FiniteLanguageFunction(inputs=("t",), thetas=("first", "second"),
                                   spaces=(space,), table=np.zeros((2, 1, 1), int))
        cr = CompositeReward(rewards=(RewardFunction(values=(1.0,)),),
                             compose=WeightedSum([1.0]))
        assert optimize_shared(f, cr)[0] == 0

    def test_enumeration_guard(self):
        space = Space(points=((0.0,),))
        n_thetas = 2_000_001
        table = np.zeros((n_thetas, 5, 1), dtype=np.intp)
        f = FiniteLanguageFunction(inputs=tuple(range(5)), thetas=tuple(range(n_thetas)),
                                   spaces=(space,), table=table)
        cr = CompositeReward(rewards=(RewardFunction(values=(0.0,)),),
                             compose=WeightedSum([1.0]))
        with pytest.raises(InstanceError, match="guard"):
            optimize_shared(f, cr)


class TestOptimizeSplit:
    def test_identical_objectives_tie_with_shared(self):
        space = Space(points=((0.0,), (1.0,)))
        r = RewardFunction(values=(0.0, 1.0))
        table = np.stack([[[0], [1]], [[0], [1]]], axis=-1)  # both objectives equal
        f = FiniteLanguageFunction(inputs=("t",), thetas=("lo", "hi"),
                                   spaces=(space, space), table=table)
        cr = CompositeReward(rewards=(r, r), compose=WeightedSum([1.0, 1.0]))
        _, shared_value = optimize_shared(f, cr)
        _, split_value = optimize_split(SplitLanguageFunction.from_shared(f), cr)
        assert split_value == pytest.approx(shared_value, abs=TOL)

    def test_antagonistic_instance_splits_strictly_better(self):
        f, cr = make_antagonistic_instance()
        _, shared_value = optimize_shared(f, cr)
        _, split_value = optimize_split(SplitLanguageFunction.from_shared(f), cr)
        assert split_value > shared_value + 0.5

    def test_degenerate_weights_reduce_to_first_objective(self):
        f, cr2 = make_antagonistic_instance()
        cr = CompositeReward(rewards=cr2.rewards, compose=WeightedSum([1.0, 0.0]))
        picks, value = optimize_split(SplitLanguageFunction.from_shared(f), cr)
        max_mean_r1 = max(
            np.mean([cr.rewards[0](int(f.table[j, t, 0]))
                     for t in range(len(f.inputs))])
            for j in range(len(f.thetas)))
        assert value == pytest.approx(max_mean_r1, abs=TOL)


class TestMonotonicity:
    def test_builtin_families_are_monotone(self):
        values = [(-1.0, 0.0, 2.0), (0.5, 1.5)]
        assert check_monotone(WeightedSum([0.3, 0.7]), values)
        assert check_monotone(MinOf(), values)
        assert check_monotone(ShiftedProduct([1.1, 0.0]), values)

    def test_decreasing_map_detected(self):
        assert not check_monotone(ShiftedProduct([-2.0, 0.0]), [(0.0, 1.0), (0.0, 1.0)])

    def test_agrees_with_pair_oracle_on_seeded_maps(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for _ in range(600):
            n = int(rng.integers(1, 4))
            # rounded values repeat, so grids also carry ties
            value_sets = [np.round(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 6))), 1)
                          for _ in range(n)]
            compose = random_map(rng, n)
            want = oracle_monotone(compose, value_sets)
            assert check_monotone(compose, value_sets) == want
            verdicts.append(want)
        assert 100 <= sum(verdicts) <= 500  # both kinds are well represented

    def test_memory_stays_linear_in_the_grid(self):
        value_sets = [np.linspace(-1.0, 1.0, 8) + k for k in range(4)]  # 4096 points
        tracemalloc.start()
        try:
            assert check_monotone(WeightedSum([0.1, 0.2, 0.3, 0.4]), value_sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_negative_weight_rejected_at_construction(self):
        with pytest.raises(InstanceError):
            WeightedSum([0.5, -0.1])

    def test_non_monotone_reward_function_detected(self):
        space = Space(points=((0.0,), (1.0,)))
        bad = RewardFunction(values=(1.0, 0.0))  # decreasing against the order
        assert not bad.is_monotone_on(space)
        good = RewardFunction(values=(0.0, 1.0))
        assert good.is_monotone_on(space)

    def test_incomparable_points_are_unconstrained(self):
        space = Space(points=((0.0, 1.0), (1.0, 0.0)))
        any_values = RewardFunction(values=(5.0, -5.0))
        assert any_values.is_monotone_on(space)


class TestVerifySupremacy:
    def test_separable_instance_is_exactly_equal_with_flag(self):
        f, cr = make_separable_instance()
        rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr)
        assert rep.verdict
        assert rep.separable_equality
        assert abs(rep.split_value - rep.shared_value) <= TOL

    def test_antagonistic_instance_reports_strict_margin(self):
        f, cr = make_antagonistic_instance()
        rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr)
        assert rep.verdict and rep.margin > 0.5
        assert not rep.separable_equality

    def test_holds_on_200_seeded_random_instances(self):
        for k in range(200):
            f, cr = random_instance(seed=1000 + k)
            rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr,
                                   description=f"instance {k}")
            assert rep.verdict, f"instance {k}: {rep.to_dict()}"
            assert all(rep.per_objective_dominance), f"instance {k}"
            assert rep.pointwise_ok, f"instance {k}"
            assert rep.monotone

    def test_a_fortiori_with_suboptimal_shared_theta(self):
        rng = np.random.default_rng(77)
        for k in range(30):
            f, cr = random_instance(seed=500 + k)
            pinned = int(rng.integers(0, len(f.thetas)))
            rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr,
                                   shared_theta=pinned)
            assert rep.verdict
            assert rep.pointwise_ok

    def test_negative_control_violates_the_inequality(self):
        f, cr = make_negative_control()
        with pytest.raises(InstanceError, match="monotonicity"):
            verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr)
        rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr,
                               allow_non_monotone=True)
        assert not rep.monotone
        assert not rep.verdict  # the hypothesis is load-bearing
        assert not rep.pointwise_ok

    def test_pointwise_matches_per_input_oracle(self):
        rng = np.random.default_rng(31)
        outcomes = []
        for k in range(120):
            f, cr = random_instance(seed=9000 + k)
            if k % 2:  # half the instances get a map that may break the claim
                cr = CompositeReward(rewards=cr.rewards, compose=random_map(rng, f.n))
            split = SplitLanguageFunction.from_shared(f)
            for pinned in (None, int(rng.integers(0, len(f.thetas)))):
                rep = verify_supremacy(f, split, cr, shared_theta=pinned,
                                       allow_non_monotone=True)
                want = oracle_pointwise(f, split, cr, shared_theta=pinned)
                assert rep.pointwise_ok == want, f"instance {k}, pinned {pinned}"
                outcomes.append(want)
        assert not all(outcomes) and any(outcomes)

    def test_non_monotone_reward_rejected(self):
        f, cr = single_objective_instance()
        bad = CompositeReward(rewards=(RewardFunction(values=(1.0, 0.5, 0.0)),),
                              compose=WeightedSum([1.0]))
        with pytest.raises(InstanceError, match="reward 0"):
            verify_supremacy(f, SplitLanguageFunction.from_shared(f), bad)

    def test_construction_precondition_enforced(self):
        f, cr = make_antagonistic_instance()
        split = SplitLanguageFunction.from_shared(f)
        broken = SplitLanguageFunction(inputs=split.inputs, spaces=split.spaces,
                                       theta_grids=(("a",), ("a", "b")),
                                       tables=(split.tables[0][:1], split.tables[1]))
        with pytest.raises(InstanceError, match="missing shared parameter"):
            verify_supremacy(f, broken, cr)

        tampered_tables = (split.tables[0].copy(), split.tables[1])
        tampered_tables[0][0, 0] = 1 - tampered_tables[0][0, 0]
        tampered = SplitLanguageFunction(inputs=split.inputs, spaces=split.spaces,
                                         theta_grids=split.theta_grids,
                                         tables=tampered_tables)
        with pytest.raises(InstanceError, match="disagrees"):
            verify_supremacy(f, tampered, cr)

    def test_report_json_round_trip(self):
        f, cr = make_separable_instance()
        rep = verify_supremacy(f, SplitLanguageFunction.from_shared(f), cr)
        obj = json.loads(rep.to_json())
        assert obj["verdict"] is True
        assert obj["separable_equality"] is True
        assert obj["margin"] == pytest.approx(0.0, abs=TOL)


class TestRandomInstances:
    def test_generator_is_deterministic(self):
        f1, cr1 = random_instance(seed=42)
        f2, cr2 = random_instance(seed=42)
        assert np.array_equal(f1.table, f2.table)
        assert all(a.values == b.values for a, b in zip(cr1.rewards, cr2.rewards))

    def test_generator_respects_declared_ranges(self):
        for k in range(40):
            f, cr = random_instance(seed=k)
            assert 2 <= f.n <= 4
            assert 4 <= len(f.thetas) <= 64
            assert 1 <= len(f.inputs) <= 5
            assert all(2 <= len(s) <= 8 for s in f.spaces)
            for reward, space in zip(cr.rewards, f.spaces):
                assert reward.is_monotone_on(space)
