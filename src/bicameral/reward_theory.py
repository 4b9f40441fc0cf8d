"""Brute-force demonstration that split-objective models dominate
shared-parameter models under monotone composite rewards.

Everything is finite: inputs, parameter grids, and output spaces, so
optima come from exact enumeration and the dominance inequality is
checked, not argued. A configuration's composite value is the composite
map applied to its per-objective mean rewards over the input set; the
split model optimizes each objective's parameters against that
objective's mean reward alone. The same construction is also run
restricted to each single input, which checks the pointwise statement.

Monotonicity is never assumed: reward functions are checked exhaustively
against their space's declared partial order, and composite maps against
the attainable reward-value grid. Instances with a non-monotone
composite map are rejected unless explicitly admitted as negative
controls, where the inequality is allowed to fail.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TOL = 1e-12
ENUMERATION_GUARD = 10_000_000


class InstanceError(ValueError):
    """The instance violates a construction precondition or a size guard."""


def componentwise_leq(u: Sequence[float], v: Sequence[float]) -> bool:
    return all(a <= b for a, b in zip(u, v))


@dataclass(frozen=True)
class Space:
    """A finite set of real vectors with a declared partial order."""

    points: tuple[tuple[float, ...], ...]
    leq: Callable[[Sequence[float], Sequence[float]], bool] = componentwise_leq

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
        """Exhaustive pair check against the space's declared order."""
        if len(self.values) != len(space):
            raise InstanceError("reward table does not cover the space")
        for i, j in itertools.product(range(len(space)), repeat=2):
            if space.leq(space.points[i], space.points[j]) and \
                    self.values[i] > self.values[j] + TOL:
                return False
        return True


# ---------------------------------------------------------------------------
# composite maps
# ---------------------------------------------------------------------------

class WeightedSum:
    """sum_i w_i * r_i with w_i >= 0; monotone by construction."""

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=np.float64)
        if (self.weights < 0).any():
            raise InstanceError("weighted-sum weights must be nonnegative")

    def __call__(self, rewards: Sequence[float]) -> float:
        return float(np.dot(self.weights, np.asarray(rewards, dtype=np.float64)))

    def batch(self, rewards: np.ndarray) -> np.ndarray:
        return rewards @ self.weights

    def describe(self) -> dict:
        return {"kind": "weighted_sum", "weights": self.weights.tolist()}


class MinOf:
    """min_i r_i; monotone."""

    def __call__(self, rewards: Sequence[float]) -> float:
        return float(np.min(np.asarray(rewards, dtype=np.float64)))

    def batch(self, rewards: np.ndarray) -> np.ndarray:
        return np.min(rewards, axis=-1)

    def describe(self) -> dict:
        return {"kind": "min"}


class ShiftedProduct:
    """prod_i (r_i + shift_i); monotone whenever every shifted factor stays
    nonnegative over the attainable reward values (the monotonicity check
    enforces exactly that)."""

    def __init__(self, shifts: Sequence[float]):
        self.shifts = np.asarray(shifts, dtype=np.float64)

    def __call__(self, rewards: Sequence[float]) -> float:
        return float(np.prod(np.asarray(rewards, dtype=np.float64) + self.shifts))

    def batch(self, rewards: np.ndarray) -> np.ndarray:
        return np.prod(rewards + self.shifts, axis=-1)

    def describe(self) -> dict:
        return {"kind": "shifted_product", "shifts": self.shifts.tolist()}


class TableMap:
    """Arbitrary user composition; admitted only if the exhaustive
    monotonicity check passes (or the caller opts into a negative control)."""

    def __init__(self, fn: Callable[[Sequence[float]], float], name: str = "custom"):
        self.fn = fn
        self.name = name

    def __call__(self, rewards: Sequence[float]) -> float:
        return float(self.fn(rewards))

    def describe(self) -> dict:
        return {"kind": "table", "name": self.name}


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


def _compose_rows(compose, rows: np.ndarray) -> np.ndarray:
    """The composite map applied to each row of reward vectors."""
    if hasattr(compose, "batch"):
        return compose.batch(rows)
    return np.asarray([compose(row) for row in rows])


def check_monotone(compose, value_sets: Sequence[Sequence[float]]) -> bool:
    """Exhaustive dominance check of a composite map over the grid of
    attainable reward values.

    For every pair of reward vectors u <= v (componentwise) the map must
    satisfy M(u) <= M(v).
    """
    grids = [np.unique(np.asarray(vs, dtype=np.float64)) for vs in value_sets]
    points = np.array(list(itertools.product(*grids)))
    vals = _compose_rows(compose, points)
    le = np.ones((len(points), len(points)), dtype=bool)
    for axis in range(points.shape[1]):
        le &= points[:, None, axis] <= points[None, :, axis]
    violation = le & (vals[:, None] > vals[None, :] + TOL)
    return not violation.any()


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

    def evaluate(self, theta_index: int, input_index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.table[theta_index, input_index])


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


def _shared_means(f: FiniteLanguageFunction, cr: CompositeReward,
                  input_subset: Sequence[int] | None = None) -> np.ndarray:
    """Per-objective mean rewards for every shared theta, [|thetas|, n]."""
    cols = np.arange(len(f.inputs)) if input_subset is None else np.asarray(input_subset)
    means = np.empty((len(f.thetas), f.n))
    for i in range(f.n):
        values = np.asarray(cr.rewards[i].values)
        means[:, i] = values[f.table[:, cols, i]].mean(axis=1)
    return means


def optimize_shared(f: FiniteLanguageFunction, cr: CompositeReward,
                    input_subset: Sequence[int] | None = None):
    """Exact enumeration of the best shared theta.

    The objective is the composite map applied to the per-objective mean
    rewards over the input set. Ties break toward the earliest grid
    entry. Returns (theta_index, composite_value).
    """
    if cr.n != f.n:
        raise InstanceError(f"composite reward has {cr.n} components, "
                            f"instance has {f.n} objectives")
    _guard(len(f.thetas), len(f.inputs))
    composite = _compose_rows(cr.compose, _shared_means(f, cr, input_subset))
    best = int(np.argmax(composite))  # argmax keeps the first of equal values
    return best, float(composite[best])


def optimize_split(split: SplitLanguageFunction, cr: CompositeReward,
                   input_subset: Sequence[int] | None = None):
    """Optimize each objective's grid against its own mean reward alone.

    Returns (theta_indices, composite_value) where the value is the
    composite map applied to the per-objective optima's mean rewards.
    """
    if cr.n != split.n:
        raise InstanceError(f"composite reward has {cr.n} components, "
                            f"instance has {split.n} objectives")
    cols = (np.arange(len(split.inputs)) if input_subset is None
            else np.asarray(input_subset))
    picks = []
    achieved = np.empty(split.n)
    for i in range(split.n):
        _guard(len(split.theta_grids[i]), len(split.inputs))
        values = np.asarray(cr.rewards[i].values)
        means = values[split.tables[i][:, cols]].mean(axis=1)
        j = int(np.argmax(means))
        picks.append(j)
        achieved[i] = means[j]
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
        return {"description": self.description,
                "n_objectives": self.n_objectives,
                "shared_theta": self.shared_theta,
                "shared_value": self.shared_value,
                "split_thetas": list(self.split_thetas),
                "split_value": self.split_value,
                "verdict": self.verdict,
                "monotone": self.monotone,
                "separable_equality": self.separable_equality,
                "per_objective_dominance": self.per_objective_dominance,
                "pointwise_ok": self.pointwise_ok,
                "margin": self.margin}

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
        for j, label in enumerate(f.thetas):
            if label not in index_of:
                raise InstanceError(f"objective {i} grid is missing shared "
                                    f"parameter {label!r}")
            if not np.array_equal(split.tables[i][index_of[label]], f.table[j, :, i]):
                raise InstanceError(f"objective {i} map disagrees with the shared "
                                    f"projection at parameter {label!r}")


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

    means = _shared_means(f, cr)
    if shared_theta is None:
        shared_idx, shared_value = optimize_shared(f, cr)
    else:
        shared_idx = int(shared_theta)
        shared_value = float(cr.compose(means[shared_idx]))
    split_picks, split_value = optimize_split(split, cr)

    shared_mean = means[shared_idx]
    dominance = []
    for i in range(f.n):
        values = np.asarray(cr.rewards[i].values)
        split_best = values[split.tables[i]].mean(axis=1).max()
        dominance.append(bool(split_best >= shared_mean[i] - TOL))

    separable = bool(np.all(shared_mean >= means.max(axis=0) - TOL))

    pointwise_ok = True
    for t in range(len(f.inputs)):
        if shared_theta is None:
            _, sh_t = optimize_shared(f, cr, input_subset=[t])
        else:
            sh_t = float(cr.compose(_shared_means(f, cr, input_subset=[t])[shared_idx]))
        _, sp_t = optimize_split(split, cr, input_subset=[t])
        if not sh_t <= sp_t + TOL:
            pointwise_ok = False

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
    """A decreasing composite map: the dominance inequality provably fails,
    showing the monotonicity hypothesis is load-bearing."""
    f, _ = make_antagonistic_instance()
    r = RewardFunction(values=(0.0, 1.0))
    cr = CompositeReward(rewards=(r, r),
                         compose=TableMap(lambda rew: -rew[0], name="negate_first"))
    return f, cr
