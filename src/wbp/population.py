"""Weighted typed populations and their one-step branching dynamics.

A generation is a weighted empirical measure ``sum_e w_e . delta(X_e)``
stored as flat arrays (weights, types, parent bookkeeping). Individuals
are addressed by Ulam-Harris style labels: a child's label appends its
sibling rank to the parent's label. Reproduction laws supply, per parent
type, a finite batch of (weight factor, child type) pairs; generation
advance multiplies factors into parent weights, drops zero-weight
children and enforces a hard particle cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_PARTICLE_CAP = 10_000_000


class BranchingError(Exception):
    """Base class for population errors."""


class PopulationCapError(BranchingError):
    """Raised when a generation would exceed the configured particle cap."""

    def __init__(self, count, cap, generation_index):
        super().__init__(
            f"generation {generation_index} would hold {count} particles "
            f"(cap {cap}); no resampling is performed"
        )
        self.count = count
        self.cap = cap
        self.generation_index = generation_index


class ProgenyError(BranchingError):
    """Raised when a sampled offspring factor is negative or non-finite."""


class AncestryUnavailableError(BranchingError):
    """Raised when lineage data was discarded (generation-only storage)."""


@dataclass(frozen=True)
class Label:
    """Ulam-Harris address: initial-atom id plus the descent word."""

    root: int = 0
    path: tuple[int, ...] = ()

    @property
    def generation(self) -> int:
        return len(self.path)

    def child(self, rank: int) -> "Label":
        return Label(self.root, self.path + (rank,))

    def is_ancestor_of(self, other: "Label") -> bool:
        """True when this label is a prefix of ``other`` (self included)."""
        if self.root != other.root or len(self.path) > len(other.path):
            return False
        return other.path[: len(self.path)] == self.path

    def __str__(self) -> str:
        return f"{self.root}:" + ".".join(str(i) for i in self.path)


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite progeny point processes are made finite.

    ``exact-finite`` asserts the law is almost surely finite; tail-bounded
    mode promises the discarded tail mass of any single draw is at most
    ``epsilon``.
    """

    mode: str = "exact-finite"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.mode not in ("exact-finite", "tail-bounded"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    @staticmethod
    def exact_finite() -> "TruncationPolicy":
        return TruncationPolicy("exact-finite", 0.0)

    @staticmethod
    def tail_bounded(epsilon: float) -> "TruncationPolicy":
        return TruncationPolicy("tail-bounded", float(epsilon))


@dataclass(frozen=True)
class Individual:
    label: Label
    weight: float
    typ: object


class ProgenyBatch:
    """Offspring of a whole generation, flattened in parent order."""

    __slots__ = ("weights", "types", "parent_index", "discarded_mass")

    def __init__(self, weights, types, parent_index, discarded_mass=0.0):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.types = np.asarray(types)
        self.parent_index = np.asarray(parent_index, dtype=np.int64)
        self.discarded_mass = float(discarded_mass)


def cumulative_probs(probs, name: str = "probs") -> np.ndarray:
    """Cumulative table of a probability vector, for ``searchsorted(side="right")``.

    The entries from the last positive probability on are set to exactly
    1.0: a sum that reaches 1 only up to rounding (ten atoms of 0.1 add up
    to 0.9999999999999999) would otherwise let a uniform in ``[cum[-1], 1)``
    index one past the last atom.
    """
    pr = np.asarray(probs, dtype=np.float64)
    if np.any(pr < 0) or not np.isclose(pr.sum(), 1.0):
        raise ValueError(f"{name} must form a probability vector")
    cum = np.minimum(np.cumsum(pr), 1.0)
    cum[np.flatnonzero(pr)[-1] :] = 1.0
    return cum


class ReproductionLaw:
    """Base reproduction law.

    Subclasses implement ``sample_progeny`` (one parent). Populations
    advance through ``sample_generation`` (a whole generation), which
    here loops ``sample_progeny`` over the parents; every law in this
    package overrides it with a vectorized batch path, and its
    ``sample_progeny`` stays as the per-parent reference for that path:
    on the same stream both give bit-identical children, except for
    ``IfsLaw``, whose batch path draws all weights before all maps. Laws
    that know their first / p-th moment kernels expose them through
    ``moment_rows``.
    """

    truncation: TruncationPolicy = TruncationPolicy.exact_finite()

    def sample_progeny(self, x, rng) -> tuple[list[tuple[float, object]], float]:
        """Progeny of one parent of type ``x``: (list of (u, y), discarded mass)."""
        raise NotImplementedError

    def sample_generation(self, weights, types, rng) -> ProgenyBatch:
        child_w = []
        child_t = []
        parent = []
        discarded = 0.0
        for i in range(len(weights)):
            offspring, lost = self.sample_progeny(types[i], rng)
            discarded += lost
            for u, y in offspring:
                if not np.isfinite(u) or u < 0:
                    raise ProgenyError(f"offspring factor {u!r} from type {types[i]!r}")
                child_w.append(weights[i] * u)
                child_t.append(y)
                parent.append(i)
        return ProgenyBatch(
            np.array(child_w, dtype=np.float64),
            np.array(child_t) if child_t else np.empty(0, dtype=np.asarray(types).dtype),
            np.array(parent, dtype=np.int64),
            discarded,
        )

    def moment_rows(self, grid, order: float):
        """Analytic moment measures ``A -> E(sum_i u_i^order 1{Y_i in A})`` on grid cells.

        Returns ``(cols, vals)`` of shape ``(grid.size, k)``: row ``i`` puts
        mass ``vals[i, s]`` on cell ``cols[i, s]`` for a parent at
        ``grid.points[i]``, and a cell may repeat within a row (its masses
        add in slot order). Returns ``None`` when the law has no closed
        form (Monte Carlo estimation is used instead).
        """
        return None


@dataclass
class Generation:
    """One generation: ``G_n = sum_e w_e . delta(X_e)``.

    ``parent_index`` and ``child_rank`` address each particle as (slot of
    parent in the previous generation, rank among siblings); with the
    ``parent`` chain retained they reconstruct full Ulam-Harris labels.
    """

    weights: np.ndarray
    types: np.ndarray
    index: int = 0
    parent_index: Optional[np.ndarray] = None
    child_rank: Optional[np.ndarray] = None
    parent: Optional["Generation"] = None
    discarded_mass: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.types = np.asarray(self.types)
        if self.weights.shape[0] != self.types.shape[0]:
            raise ValueError("weights and types must have equal leading length")

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def individual(self, i: int) -> Individual:
        return Individual(self.label_of(i), float(self.weights[i]), self.types[i])

    def label_of(self, i: int) -> Label:
        """Full label of particle ``i`` (needs the retained parent chain)."""
        path = []
        gen = self
        while gen.index > 0:
            if gen.child_rank is None or gen.parent_index is None:
                raise AncestryUnavailableError(
                    "labels need parent bookkeeping; re-run with retain=True"
                )
            path.append(int(gen.child_rank[i]))
            if gen.parent is None:
                raise AncestryUnavailableError(
                    "ancestry was discarded (generation-only storage)"
                )
            i = int(gen.parent_index[i])
            gen = gen.parent
        return Label(root=i, path=tuple(reversed(path)))

    def labels(self) -> list[Label]:
        return [self.label_of(i) for i in range(self.size)]

    def find(self, label: Label) -> int:
        for i in range(self.size):
            if self.label_of(i) == label:
                return i
        raise KeyError(f"no particle with label {label}")


def initial_generation(weights, types) -> Generation:
    """Finite initial configuration ``G_0``."""
    return Generation(np.asarray(weights, dtype=np.float64), np.asarray(types), index=0)


def advance_generation(
    g: Generation,
    law: ReproductionLaw,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
    retain: bool = False,
) -> Generation:
    """Advance one generation: every particle reproduces independently.

    Child weights are parent weight times the sampled factor; zero-weight
    children are dropped. Raises :class:`PopulationCapError` when the new
    generation would exceed ``cap`` particles.
    """
    batch = law.sample_generation(g.weights, g.types, rng)
    w, types, parent = batch.weights, batch.types, batch.parent_index
    lowest = w.min() if w.size else np.inf
    # NaN fails both comparisons, so NaN, +-inf and negative weights are all rejected
    if w.size and not (lowest >= 0.0 and w.max() < np.inf):
        raise ProgenyError("sampled offspring produced a negative or non-finite weight")
    if law.truncation.mode == "tail-bounded" and batch.discarded_mass > law.truncation.epsilon:
        raise ProgenyError(
            f"discarded tail mass {batch.discarded_mass} exceeds bound "
            f"{law.truncation.epsilon}"
        )
    if lowest == 0.0:
        keep = w > 0.0
        w, types, parent = w[keep], types[keep], parent[keep]
    if w.size > cap:
        raise PopulationCapError(w.size, cap, g.index + 1)
    rank = _sibling_ranks(parent) if retain else None
    return Generation(
        w,
        types,
        index=g.index + 1,
        parent_index=parent,
        child_rank=rank,
        parent=g if retain else None,
        discarded_mass=batch.discarded_mass,
    )


def _sibling_ranks(parent_index: np.ndarray) -> np.ndarray:
    """Rank of each child among the children of its parent (parent order)."""
    n = parent_index.shape[0]
    rank = np.zeros(n, dtype=np.int64)
    if n == 0:
        return rank
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = parent_index[1:] == parent_index[:-1]
    run = np.arange(n)
    start = np.where(~same, run, 0)
    np.maximum.accumulate(start, out=start)
    return run - start


def integrate(g: Generation, f) -> float:
    """``G_n(f) = sum_e w_e f(X_e)``; ``f`` is a callable or a per-type table."""
    if g.size == 0:
        return 0.0
    values = evaluate_on_types(f, g.types)
    return float(np.dot(g.weights, values))


def evaluate_on_types(f, types) -> np.ndarray:
    if callable(f):
        out = f(types)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), (types.shape[0],))
    table = np.asarray(f, dtype=np.float64)
    return table[np.asarray(types, dtype=np.int64)]


def pth_power_measure(g: Generation, p: float) -> Generation:
    """Generation with weights raised to ``p``; labels and types unchanged."""
    if p <= 0:
        raise ValueError("power must be positive")
    return Generation(
        np.power(g.weights, p),
        g.types,
        index=g.index,
        parent_index=g.parent_index,
        child_rank=g.child_rank,
        parent=g.parent,
    )


@dataclass
class LineageMeasure:
    """Uniform measure on the types along one particle's ancestry.

    Atoms are the types at generations ``1..n`` of the lineage (the
    particle itself included), each with mass ``1/n``.
    """

    types: np.ndarray
    mass: float

    def integrate(self, f) -> float:
        return float(np.sum(evaluate_on_types(f, self.types)) * self.mass)


def lineage_types(g: Generation, i: int) -> np.ndarray:
    """Types along the lineage of particle ``i``, generations 1..n."""
    if g.index == 0:
        raise ValueError("a generation-0 particle has an empty lineage")
    out = []
    gen = g
    while gen.index > 0:
        out.append(gen.types[i])
        if gen.parent is None or gen.parent_index is None:
            raise AncestryUnavailableError(
                "ancestry was discarded (generation-only storage); "
                "re-run with retain=True"
            )
        i = int(gen.parent_index[i])
        gen = gen.parent
    out.reverse()
    return np.array(out)


def lineage_measure(g: Generation, particle) -> LineageMeasure:
    """Empirical measure of one lineage; ``particle`` is an index or Label."""
    i = g.find(particle) if isinstance(particle, Label) else int(particle)
    types = lineage_types(g, i)
    return LineageMeasure(types, 1.0 / g.index)


def sample_progeny(law: ReproductionLaw, x, rng) -> list[tuple[float, object]]:
    """Draw one parent's progeny and validate the sampled factors."""
    offspring, discarded = law.sample_progeny(x, rng)
    for u, _ in offspring:
        if not np.isfinite(u) or u < 0:
            raise ProgenyError(f"offspring factor {u!r} is negative or non-finite")
    if law.truncation.mode == "tail-bounded" and discarded > law.truncation.epsilon:
        raise ProgenyError(
            f"discarded tail mass {discarded} exceeds bound {law.truncation.epsilon}"
        )
    return offspring


def simulate_trajectory(
    law: ReproductionLaw,
    g0: Generation,
    horizon: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
    retain: bool = False,
) -> list[Generation]:
    """Generations ``G_0 .. G_horizon`` of one replicate."""
    traj = [g0]
    g = g0
    for _ in range(horizon):
        g = advance_generation(g, law, rng, cap=cap, retain=retain)
        traj.append(g)
    return traj
