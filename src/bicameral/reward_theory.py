"""Brute-force demonstration that split-objective models dominate
shared-parameter models under monotone composite rewards.

Everything is finite: inputs, parameter grids, and output spaces, so
optima come from exact enumeration and the dominance inequality is
checked, not argued. An instance's rewards are gathered once into a table
``rewards[theta, t, i]``. A configuration's composite value is the
composite map applied to its per-objective mean rewards over the input
set; the split model optimizes each objective's parameters against that
objective's mean reward alone. The same construction on each single
input, read off the same table, checks the pointwise statement.

Monotonicity is never assumed. Reward functions are checked exhaustively
against the componentwise order of their space's points. Composite maps
are checked on the grid of attainable reward values: M is monotone there
exactly when no grid point v has a down-set {u <= v} whose maximum of M
exceeds M(v). That maximum is a running max along each axis in turn (a
summed-area table with max in place of +), so the check is exact and
needs memory linear in the grid size. Instances with a non-monotone
composite map are rejected unless explicitly admitted as negative
controls, where the inequality is allowed to fail.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

TOL = 1e-12
ENUMERATION_GUARD = 10_000_000


class InstanceError(ValueError):
    """The instance violates a construction precondition or a size guard."""


@dataclass(frozen=True)
class Space:
    """A finite set of real vectors, ordered componentwise."""

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.points:
            raise InstanceError("a space needs at least one point")
        dims = {len(p) for p in self.points}
        if len(dims) != 1:
            raise InstanceError(f"mixed point dimensions in space: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RewardFunction:
    """Real-valued reward per point of a space, indexed by point position."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __call__(self, point_index: int) -> float:
        return self.values[point_index]

    def is_monotone_on(self, space: Space) -> bool:
        """Exhaustive pair check against the componentwise order."""
        if len(self.values) != len(space):
            raise InstanceError("reward table does not cover the space")
        points = np.asarray(space.points, dtype=np.float64)
        values = np.asarray(self.values)
        below = (points[:, None, :] <= points[None, :, :]).all(axis=-1)
        return not (below & (values[:, None] > values[None, :] + TOL)).any()


# ---------------------------------------------------------------------------
# composite maps: each takes rewards [..., n] and returns values [...]
# ---------------------------------------------------------------------------

class WeightedSum:
    """sum_i w_i * r_i with w_i >= 0; monotone by construction."""

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=np.float64)
        if (self.weights < 0).any():
            raise InstanceError("weighted-sum weights must be nonnegative")

    def __call__(self, rewards) -> np.ndarray:
        return np.asarray(rewards, dtype=np.float64) @ self.weights


class MinOf:
    """min_i r_i; monotone."""

    def __call__(self, rewards) -> np.ndarray:
        return np.min(np.asarray(rewards, dtype=np.float64), axis=-1)


class ShiftedProduct:
    """prod_i (r_i + shift_i); monotone whenever every shifted factor stays
    nonnegative over the attainable reward values (the monotonicity check
    enforces exactly that)."""

    def __init__(self, shifts: Sequence[float]):
        self.shifts = np.asarray(shifts, dtype=np.float64)

    def __call__(self, rewards) -> np.ndarray:
        return np.prod(np.asarray(rewards, dtype=np.float64) + self.shifts, axis=-1)


@dataclass
class CompositeReward:
    """Component rewards combined by a single monotone map."""

    rewards: tuple[RewardFunction, ...]
    compose: object

    def __post_init__(self):
        self.rewards = tuple(self.rewards)
        if not self.rewards:
            raise InstanceError("a composite reward needs at least one component")

    @property
    def n(self) -> int:
        return len(self.rewards)


def check_monotone(compose, value_sets: Sequence[Sequence[float]]) -> bool:
    """Exact dominance check of a composite map over the grid of attainable
    reward values: M(u) <= M(v) + TOL for every pair u <= v (componentwise).

    The maximum of M over each point's down-set is a running max along
    every axis of the sorted grid in turn; the map fails exactly where that
    maximum exceeds the point's own value by more than TOL.
    """
    grids = [np.unique(np.asarray(vs, dtype=np.float64)) for vs in value_sets]
    points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
    values = compose(points.reshape(-1, len(grids))).reshape(points.shape[:-1])
    down_max = values
    for axis in range(values.ndim):
        down_max = np.maximum.accumulate(down_max, axis=axis)
    return not (down_max > values + TOL).any()


# ---------------------------------------------------------------------------
# language-function instances
# ---------------------------------------------------------------------------

@dataclass
class FiniteLanguageFunction:
    """A shared-parameter model over finite everything.

    ``table[j, t, i]`` is the index of the point in ``spaces[i]`` that
    parameter ``thetas[j]`` produces on input ``inputs[t]`` for
    objective i. Evaluation is total and deterministic by construction.
    """

    inputs: tuple
    thetas: tuple
    spaces: tuple[Space, ...]
    table: np.ndarray

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.thetas = tuple(self.thetas)
        self.spaces = tuple(self.spaces)
        self.table = np.asarray(self.table, dtype=np.intp)
        expected = (len(self.thetas), len(self.inputs), len(self.spaces))
        if self.table.shape != expected:
            raise InstanceError(f"evaluation table shape {self.table.shape} != {expected}")
        for i, space in enumerate(self.spaces):
            sub = self.table[:, :, i]
            if sub.min() < 0 or sub.max() >= len(space):
                raise InstanceError(f"objective {i} table indexes outside its space")

    @property
    def n(self) -> int:
        return len(self.spaces)


@dataclass
class SplitLanguageFunction:
    """Per-objective parameter grids with independent evaluation maps.

    ``tables[i][j, t]`` is the point index objective i's parameter j
    produces on input t. The grids are mutually independent: choosing
    theta_i never constrains theta_j.
    """

    inputs: tuple
    spaces: tuple[Space, ...]
    theta_grids: tuple[tuple, ...]
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.spaces = tuple(self.spaces)
        self.theta_grids = tuple(tuple(g) for g in self.theta_grids)
        self.tables = tuple(np.asarray(t, dtype=np.intp) for t in self.tables)
        if len(self.theta_grids) != len(self.spaces) or len(self.tables) != len(self.spaces):
            raise InstanceError("need one grid and one table per objective")
        for i, (grid, table) in enumerate(zip(self.theta_grids, self.tables)):
            if table.shape != (len(grid), len(self.inputs)):
                raise InstanceError(f"objective {i} table shape {table.shape} != "
                                    f"{(len(grid), len(self.inputs))}")
            if table.min() < 0 or table.max() >= len(self.spaces[i]):
                raise InstanceError(f"objective {i} table indexes outside its space")

    @property
    def n(self) -> int:
        return len(self.spaces)

    @classmethod
    def from_shared(cls, f: FiniteLanguageFunction) -> "SplitLanguageFunction":
        """The existence construction: reuse the shared grid per objective,
        with each objective's map the projection of the shared map."""
        return cls(inputs=f.inputs, spaces=f.spaces,
                   theta_grids=tuple(f.thetas for _ in range(f.n)),
                   tables=tuple(f.table[:, :, i] for i in range(f.n)))


def _guard(n_thetas: int, n_inputs: int) -> None:
    if n_thetas * n_inputs > ENUMERATION_GUARD:
        raise InstanceError(f"enumeration of {n_thetas} x {n_inputs} evaluations "
                            f"exceeds the {ENUMERATION_GUARD} guard")


def _reward_table(f: FiniteLanguageFunction, cr: CompositeReward) -> np.ndarray:
    """``rewards[theta, t, i]``: objective i's reward for shared parameter
    theta on input t."""
    return np.stack([np.asarray(r.values)[f.table[:, :, i]]
                     for i, r in enumerate(cr.rewards)], axis=-1)


def optimize_shared(f: FiniteLanguageFunction, cr: CompositeReward):
    """Exact enumeration of the best shared theta.

    The objective is the composite map applied to the per-objective mean
    rewards over the input set. Ties break toward the earliest grid
    entry. Returns (theta_index, composite_value).
    """
    if cr.n != f.n:
        raise InstanceError(f"composite reward has {cr.n} components, "
                            f"instance has {f.n} objectives")
    _guard(len(f.thetas), len(f.inputs))
    composite = cr.compose(_reward_table(f, cr).mean(axis=1))
    best = int(np.argmax(composite))  # argmax keeps the first of equal values
    return best, float(composite[best])


def optimize_split(split: SplitLanguageFunction, cr: CompositeReward):
    """Optimize each objective's grid against its own mean reward alone.

    Returns (theta_indices, composite_value) where the value is the
    composite map applied to the per-objective optima's mean rewards.
    """
    if cr.n != split.n:
        raise InstanceError(f"composite reward has {cr.n} components, "
                            f"instance has {split.n} objectives")
    picks = []
    achieved = np.empty(split.n)
    for i in range(split.n):
        _guard(len(split.theta_grids[i]), len(split.inputs))
        means = np.asarray(cr.rewards[i].values)[split.tables[i]].mean(axis=1)
        picks.append(int(np.argmax(means)))
        achieved[i] = means[picks[-1]]
    return tuple(picks), float(cr.compose(achieved))


# ---------------------------------------------------------------------------
# the dominance check itself
# ---------------------------------------------------------------------------

@dataclass
class SupremacyReport:
    description: str
    n_objectives: int
    shared_theta: object
    shared_value: float
    split_thetas: tuple
    split_value: float
    verdict: bool
    monotone: bool
    separable_equality: bool
    per_objective_dominance: list[bool]
    pointwise_ok: bool
    margin: float = field(init=False)

    def __post_init__(self):
        self.margin = self.split_value - self.shared_value

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _check_construction(f: FiniteLanguageFunction, split: SplitLanguageFunction) -> None:
    """Each objective's grid must contain every shared theta and agree with
    the shared map's projection there."""
    if split.inputs != f.inputs or len(split.spaces) != f.n:
        raise InstanceError("split instance was not built over the same inputs "
                            "and spaces as the shared one")
    for i in range(f.n):
        index_of = {label: j for j, label in enumerate(split.theta_grids[i])}
        for label in f.thetas:
            if label not in index_of:
                raise InstanceError(f"objective {i} grid is missing shared "
                                    f"parameter {label!r}")
        rows = split.tables[i][[index_of[label] for label in f.thetas]]
        differs = (rows != f.table[:, :, i]).any(axis=1)
        if differs.any():
            raise InstanceError(f"objective {i} map disagrees with the shared projection "
                                f"at parameter {f.thetas[int(np.argmax(differs))]!r}")


def verify_supremacy(f: FiniteLanguageFunction, split: SplitLanguageFunction,
                     cr: CompositeReward, description: str = "",
                     allow_non_monotone: bool = False,
                     shared_theta: int | None = None) -> SupremacyReport:
    """Check that the split optimum's composite value is at least the shared
    one's, plus the per-objective and pointwise forms of the claim.

    ``shared_theta`` pins the shared side to an arbitrary (possibly
    suboptimal) parameter instead of its optimum; the inequality must
    still hold, a fortiori. Non-monotone composite maps are rejected
    unless ``allow_non_monotone`` admits the instance as a negative
    control, in which case the verdict may legitimately be false.
    """
    _check_construction(f, split)
    for i, (reward, space) in enumerate(zip(cr.rewards, f.spaces)):
        if not reward.is_monotone_on(space):
            raise InstanceError(f"reward {i} is not monotone for its declared order")
    monotone = check_monotone(cr.compose, [r.values for r in cr.rewards])
    if not monotone and not allow_non_monotone:
        raise InstanceError("composite map failed the monotonicity check; pass "
                            "allow_non_monotone=True to run it as a negative control")

    rewards = _reward_table(f, cr)  # [theta, t, i]
    means = rewards.mean(axis=1)
    if shared_theta is None:
        shared_idx, shared_value = optimize_shared(f, cr)
    else:
        shared_idx = int(shared_theta)
        shared_value = float(cr.compose(means[shared_idx]))
    split_picks, split_value = optimize_split(split, cr)

    # split_rewards[i][j, t]: objective i's reward for its parameter j on input t
    split_rewards = [np.asarray(r.values)[table] for r, table in zip(cr.rewards, split.tables)]
    shared_mean = means[shared_idx]
    dominance = [bool(r.mean(axis=1).max() >= shared_mean[i] - TOL)
                 for i, r in enumerate(split_rewards)]
    separable = bool(np.all(shared_mean >= means.max(axis=0) - TOL))

    # the same construction on each single input: values per input, [t]
    if shared_theta is None:
        shared_t = cr.compose(rewards).max(axis=0)
    else:
        shared_t = cr.compose(rewards[shared_idx])
    split_t = cr.compose(np.stack([r.max(axis=0) for r in split_rewards], axis=-1))
    pointwise_ok = bool(np.all(shared_t <= split_t + TOL))

    verdict = bool(shared_value <= split_value + TOL)
    return SupremacyReport(
        description=description or f"{f.n} objectives, {len(f.thetas)} shared "
                                   f"parameters, {len(f.inputs)} inputs",
        n_objectives=f.n,
        shared_theta=f.thetas[shared_idx],
        shared_value=shared_value,
        split_thetas=tuple(split.theta_grids[i][j] for i, j in enumerate(split_picks)),
        split_value=split_value,
        verdict=verdict,
        monotone=monotone,
        separable_equality=separable and abs(split_value - shared_value) <= TOL,
        per_objective_dominance=dominance,
        pointwise_ok=pointwise_ok,
    )


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def random_instance(seed: int) -> tuple[FiniteLanguageFunction, CompositeReward]:
    """A seeded random valid instance: monotone rewards over componentwise-
    ordered point sets, a monotone composite map, and an arbitrary
    evaluation table."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    n_thetas = int(rng.integers(4, 65))
    n_inputs = int(rng.integers(1, 6))

    spaces, rewards = [], []
    for _ in range(n):
        size = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        points = tuple(tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=dim))
                       for _ in range(size))
        space = Space(points=points)
        weights = rng.uniform(0.1, 1.0, size=dim)
        rewards.append(RewardFunction(
            values=tuple(float(np.dot(weights, p)) for p in points)))
        spaces.append(space)

    family = rng.integers(0, 3)
    if family == 0:
        compose = WeightedSum(rng.uniform(0.0, 1.0, size=n))
    elif family == 1:
        compose = MinOf()
    else:
        shifts = [0.1 - min(r.values) for r in rewards]
        compose = ShiftedProduct(shifts)

    table = np.stack([rng.integers(0, len(s), size=(n_thetas, n_inputs))
                      for s in spaces], axis=-1)
    f = FiniteLanguageFunction(inputs=tuple(range(n_inputs)),
                               thetas=tuple(range(n_thetas)),
                               spaces=tuple(spaces), table=table)
    return f, CompositeReward(rewards=tuple(rewards), compose=compose)


def make_separable_instance() -> tuple[FiniteLanguageFunction, CompositeReward]:
    """An instance where one shared parameter maximizes every objective at
    once, so the split model can do no better and values are equal."""
    s1 = Space(points=((0.0,), (1.0,)))
    s2 = Space(points=((0.0,), (2.0,)))
    r1 = RewardFunction(values=(0.0, 1.0))
    r2 = RewardFunction(values=(0.0, 2.0))
    # theta "best" hits the top point of both spaces on every input
    table = np.array([[[1, 1], [1, 1]],
                      [[0, 1], [1, 0]],
                      [[0, 0], [0, 0]]])
    f = FiniteLanguageFunction(inputs=("t0", "t1"), thetas=("best", "mixed", "worst"),
                               spaces=(s1, s2), table=table)
    cr = CompositeReward(rewards=(r1, r2), compose=WeightedSum([1.0, 1.0]))
    return f, cr


def make_antagonistic_instance() -> tuple[FiniteLanguageFunction, CompositeReward]:
    """No shared parameter is good at both objectives, so splitting wins
    strictly."""
    s = Space(points=((0.0,), (1.0,)))
    r = RewardFunction(values=(0.0, 1.0))
    table = np.array([[[1, 0]],
                      [[0, 1]]])
    f = FiniteLanguageFunction(inputs=("t0",), thetas=("a", "b"),
                               spaces=(s, s), table=table)
    cr = CompositeReward(rewards=(r, r), compose=WeightedSum([1.0, 1.0]))
    return f, cr


def make_negative_control() -> tuple[FiniteLanguageFunction, CompositeReward]:
    """A composite map that falls as the second reward rises, (r1 - 2) * r2:
    the dominance inequality provably fails (shared optimum 0, split value
    -1), showing the monotonicity hypothesis is load-bearing."""
    f, cr = make_antagonistic_instance()
    return f, CompositeReward(rewards=cr.rewards, compose=ShiftedProduct([-2.0, 0.0]))
