"""Weighted typed populations and their one-step branching dynamics.

A generation is a weighted empirical measure ``sum_e w_e . delta(X_e)``
stored as two flat arrays, weights and types. A reproduction law gives
every parent a finite list of (weight factor, child type) pairs, drawn
for a whole generation at once by ``sample_generation`` in fixed-width
broods: parent ``i``'s children fill slots ``i*brood .. i*brood+brood-1``,
and a parent with fewer children pads its brood with weight-0 children.
Generation advance multiplies factors into parent weights, drops the
zero-weight children (padding included) and enforces a hard particle cap.
Every progeny is finite, so no mass is ever truncated away. A generation
may hold many independent trees at once, each particle tagged with the
index of its tree (``Generation.root``). A ``Generation`` need not be a
whole generation: the replicate runner (``harness._replicate_rows``)
steps a tree depth-first in pieces of at most ``harness._PIECE``
particles, each piece a slot-order slice of one generation, so a law and
``advance_generation`` never see more parents than one piece holds there.
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


class ProgenyBatch:
    """Offspring of a whole generation in fixed-width broods of ``brood`` slots.

    Slot ``i * brood + k`` holds the ``k``-th child of parent ``i``, so
    ``np.repeat(parent_values, brood)`` lines a per-parent array up with
    the children; slots past a parent's last child carry weight 0.

    The arrays are stored as the law built them, without a copy or a
    cast: ``weights`` must be a float64 array and ``types`` an array whose
    first axis runs over the slots.
    """

    __slots__ = ("weights", "types", "brood")

    def __init__(self, weights: np.ndarray, types: np.ndarray, brood: int):
        self.weights = weights
        self.types = types
        self.brood = brood


def cumulative_probs(probs, name: str = "probs") -> np.ndarray:
    """Cumulative table of a probability vector: atom ``j`` owns ``[cum[j-1], cum[j])``.

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


def atom_thresholds(probs, name: str = "probs") -> list:
    """A law's one atom table: the :func:`cumulative_probs` entries below 1.0, as a list.

    A batch draw counts them with :func:`count_thresholds`; a per-parent draw
    takes ``bisect_right(thresholds, rng.random())``, the same count for the
    double that ``rng.random(1)`` would draw.
    """
    cum = cumulative_probs(probs, name)
    return cum[cum < 1.0].tolist()


def count_thresholds(u: np.ndarray, thresholds) -> np.ndarray:
    """Atom index of each uniform in ``u``: how many ``thresholds`` are ``<= u``.

    ``thresholds`` is a law's :func:`atom_thresholds` list, the one its
    per-parent draw bisects. A uniform ``u < 1`` never reaches the entries
    at 1.0, so this is ``searchsorted(cum, u, side="right")``. One comparison
    pass over ``u`` per threshold beats a binary search per draw for tables
    of a few atoms, such as every bench model's.
    """
    if not thresholds:
        return np.zeros(u.shape, dtype=np.intp)
    # the first comparison is cast whole, not added into zeros: adding a bool
    # array into an intp one runs numpy's buffered cast, about 1.5 us at one
    # parent; later ones add in place, so a long ``u`` holds one intp array
    j = (u >= thresholds[0]).astype(np.intp)
    for c in thresholds[1:]:
        np.add(j, u >= c, out=j)
    return j


class ReproductionLaw:
    """Base reproduction law: the three methods a law provides.

    - ``sample_generation(weights, types, rng)`` is the batch sampler that
      advances a population. It returns a :class:`ProgenyBatch` of
      ``brood * len(weights)`` slots, parent ``i``'s children in slots
      ``i*brood ..`` in draw order and weight-0 children padding a shorter
      list, so no per-child parent index is ever built. The base version
      loops ``sample_progeny`` over the parents and pads every list to the
      longest; every law here overrides it with a vectorized path. At the
      populations of a typical replicate (one to 10^4 parents) a step pays
      for numpy's per-call overhead more than for arithmetic, so the batch
      paths share three idioms: a table row is gathered with
      ``take(idx, axis=0)``, never with fancy indexing; an atom is drawn
      with :func:`count_thresholds` on the law's :func:`atom_thresholds`
      list (a multi-type law counts each parent's own list in place); and
      the arrays built are handed to ``ProgenyBatch`` as they are.
    - ``sample_progeny(x, rng)`` returns the finite list of ``(u, y)``
      children of one parent of type ``x``. It is the per-parent draw of
      the dispersion estimate in ``certify``, so every law that lives on a
      grid has one, and draws an atom with ``bisect_right`` on the list
      that the batch path counts. On the same stream it gives the children
      of the batch path, except for ``IfsLaw``, whose batch path draws all
      weights before all maps.
    - ``moment_rows(grid, order)`` gives the closed-form moment measures
      that grid kernels are built from. Every law that lives on a grid
      has them; the base version raises ``NotImplementedError``.
    """

    def sample_progeny(self, x, rng) -> list[tuple[float, object]]:
        """Children of one parent of type ``x``: a list of (u, y)."""
        raise NotImplementedError

    def sample_generation(self, weights, types, rng) -> ProgenyBatch:
        progenies = [self.sample_progeny(x, rng) for x in types]
        brood = max(map(len, progenies), default=0)
        child_w = []
        child_t = []
        for w, x, kids in zip(weights, types, progenies):
            for u, y in kids:
                if not np.isfinite(u) or u < 0:
                    raise ProgenyError(f"offspring factor {u!r} from type {x!r}")
                child_w.append(w * u)
                child_t.append(y)
            # padding: weight 0 on the parent's own type
            child_w += [0.0] * (brood - len(kids))
            child_t += [x] * (brood - len(kids))
        return ProgenyBatch(
            np.array(child_w, dtype=np.float64),
            np.array(child_t) if child_t else np.empty(0, dtype=np.asarray(types).dtype),
            brood,
        )

    def moment_rows(self, grid, order: float):
        """Analytic moment measures ``A -> E(sum_i u_i^order 1{Y_i in A})`` on grid cells.

        Returns ``(cols, vals)`` of shape ``(grid.size, k)``: row ``i`` puts
        mass ``vals[i, s]`` on cell ``cols[i, s]`` for a parent at
        ``grid.points[i]``, and a cell may repeat within a row (its masses
        add in slot order).
        """
        raise NotImplementedError(f"{type(self).__name__} has no closed-form moment rows")


@dataclass
class Generation:
    """One generation: ``G_n = sum_e w_e . delta(X_e)``; ``index`` is ``n``.

    ``root`` is ``None`` for a single tree. A block of independent trees
    simulated as one generation gives each particle the index of its tree
    in ``root``, so a functional reduces per tree as
    ``np.bincount(root, w * phi, minlength=trees)``.
    """

    weights: np.ndarray
    types: np.ndarray
    index: int = 0
    root: Optional[np.ndarray] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.types = np.asarray(self.types)
        if self.weights.shape[0] != self.types.shape[0]:
            raise ValueError("weights and types must have equal leading length")
        if self.root is not None:
            self.root = np.asarray(self.root)
            if self.root.shape != self.weights.shape:
                raise ValueError("root must hold one tree index per particle")

    @classmethod
    def _of(cls, weights: np.ndarray, types: np.ndarray, index: int, root: Optional[np.ndarray]):
        """A generation of arrays already checked, without ``__post_init__``."""
        g = object.__new__(cls)
        g.weights, g.types, g.index, g.root = weights, types, index, root
        return g

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    def total_mass(self) -> float:
        return float(self.weights.sum())


def initial_generation(weights, types) -> Generation:
    """Finite initial configuration ``G_0``."""
    return Generation(np.asarray(weights, dtype=np.float64), np.asarray(types), index=0)


def advance_generation(
    g: Generation,
    law: ReproductionLaw,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> Generation:
    """Advance one generation: every particle reproduces independently.

    Child weights are parent weight times the sampled factor; zero-weight
    children, brood padding among them, are dropped, and the survivors
    keep their slot order. A multi-root generation's children inherit
    their parent's ``root``. Raises :class:`PopulationCapError` when the
    new generation would exceed ``cap`` particles in one tree: ``cap``
    bounds each tree of a multi-root generation, not their sum.

    The result holds the law's arrays, or their survivors, as they are:
    :class:`ProgenyBatch` already fixes their dtypes, so the layout is
    checked here and ``Generation.__post_init__`` is not run again.
    """
    batch = law.sample_generation(g.weights, g.types, rng)
    w, types, root = batch.weights, batch.types, g.root
    slots = w.shape[0]
    n = g.index + 1
    if slots != batch.brood * g.weights.shape[0]:
        raise ProgenyError(
            f"generation {n}: {slots} children from {g.size} parents in broods of {batch.brood}"
        )
    if types.shape[0] != slots:
        raise ProgenyError(f"generation {n}: {types.shape[0]} child types for {slots} children")
    if root is not None:
        root = np.repeat(root, batch.brood)
    if slots:
        lowest = np.minimum.reduce(w)
        # NaN fails both comparisons, so NaN, +-inf and negative weights are all rejected
        if not (lowest >= 0.0 and np.maximum.reduce(w) < np.inf):
            raise ProgenyError(f"generation {n}: a sampled weight is negative or not finite")
        if lowest == 0.0:
            # one index array serves the weights and types of any rank
            keep = (w > 0.0).nonzero()[0]
            w, types = w.take(keep), types.take(keep, axis=0)
            if root is not None:
                root = root.take(keep)
    if w.shape[0] > cap:
        count = w.shape[0] if root is None else int(np.bincount(root).max())
        if count > cap:
            raise PopulationCapError(count, cap, n)
    return Generation._of(w, types, n, root)


def simulate_trajectory(
    law: ReproductionLaw,
    g0: Generation,
    horizon: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> list[Generation]:
    """Generations ``G_0 .. G_horizon`` of one replicate, or of one block of roots."""
    traj = [g0]
    g = g0
    for _ in range(horizon):
        g = advance_generation(g, law, rng, cap=cap)
        traj.append(g)
    return traj
