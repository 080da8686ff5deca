"""Mean kernels on finite type grids and their spectral data.

The mean kernel ``M[i, j]`` is the expected offspring mass (first or p-th
moment) a parent at grid point ``i`` sends to grid cell ``j``. Iterated
kernels drive all expectation-level predictions; the dominant eigentriple
``(theta, eta, nu)`` and the deviation sequence ``alpha_n`` quantify how
fast ``theta^-n Q^n f`` stabilizes.

A parent reaches only a few cells (an IFS parent one per map), so a kernel
is stored as fixed-width sparse rows (ELL, see :class:`MeanKernel`): the
cells ``cols`` and masses ``matrix`` of each row, both of shape ``(d, w)``
with ``w`` the most cells any row reaches. ``Q v`` is one gather and a row
sum, ``v Q`` one ``np.bincount`` over the cells, and no product builds a
d x d array: a 2^-14 IFS grid (16 384 cells) needs ``(16 384, 2)`` rows
where a dense kernel would take 2 GiB. The masses keep the attribute name
``matrix`` of the dense layout, so readers of ``kernel.matrix`` (row
sums, the benchmark tracer's count of stored cells) keep working.

Each product rounds every ``mass * v[cell]`` on its own and then sums a
row (``apply``) or a cell's column in row order (``apply_t``). That equals
the dense BLAS product it replaced bit for bit when those products are
exact (dyadic masses, or unit weights) and each row, or each column for
``apply_t``, has at most two nonzero cells, since any summation order then
rounds once. Otherwise the last bit may differ: BLAS sums in its own order
and fuses multiply-adds, which round once where a product and a sum here
round twice. The benchmark's kernels (two maps, or a single type) give
byte-identical output files either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .population import ReproductionLaw


class SpectralConvergenceError(Exception):
    """Power iteration failed: non-primitive or slowly mixing kernel."""


@dataclass(frozen=True)
class TypeGrid:
    """Finite carrier for a type space.

    ``finite`` grids enumerate native discrete types (stored as their
    indices); ``interval`` grids are midpoint discretizations of a real
    interval with cell width ``h``.
    """

    points: np.ndarray
    kind: str = "finite"
    h: Optional[float] = None
    lo: float = 0.0

    @property
    def size(self) -> int:
        return int(np.asarray(self.points).shape[0])

    def locate(self, xs) -> np.ndarray:
        """Grid cell index of each point in ``xs``."""
        if self.kind == "finite":
            return np.asarray(xs, dtype=np.int64)
        idx = np.floor((np.asarray(xs, dtype=np.float64) - self.lo) / self.h).astype(np.int64)
        return np.clip(idx, 0, self.size - 1)

    @staticmethod
    def finite(n: int) -> "TypeGrid":
        return TypeGrid(np.arange(n, dtype=np.int64), kind="finite")

    @staticmethod
    def interval(lo: float, hi: float, h: float) -> "TypeGrid":
        if h <= 0 or hi <= lo:
            raise ValueError("need hi > lo and h > 0")
        n = int(round((hi - lo) / h))
        pts = lo + (np.arange(n) + 0.5) * h
        return TypeGrid(pts, kind="interval", h=float(h), lo=float(lo))


@dataclass
class MeanKernel:
    """A moment kernel on a grid, stored as fixed-width sparse rows (ELL).

    Row ``i`` holds the cells ``cols[i]`` that a parent at grid point ``i``
    reaches and their masses ``matrix[i]``; both have shape ``(d, w)`` with
    ``w`` the largest number of cells in one row. A cell appears at most
    once in a row, and shorter rows are padded with zero-mass slots on cell
    0, which add an exact zero to every product. The masses keep the name
    ``matrix`` from the dense layout this replaced, so code that reads
    ``kernel.matrix`` (the benchmark tracer counts ``matrix.size`` as the
    cells a product touches) sees the stored entries. ``stderr``, when
    set, is aligned with ``matrix``.

    Products go through :meth:`apply` and :meth:`apply_t` (the module
    docstring says when they round like a dense product); :meth:`dense`
    rebuilds the d x d matrix for tests and small-``d`` checks only.
    """

    cols: np.ndarray
    matrix: np.ndarray
    grid: TypeGrid
    order: float = 1.0
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if m.ndim != 2 or cols.shape != m.shape or m.shape[0] != self.grid.size:
            raise ValueError("kernel rows must have shape (grid size, width) for cols and masses")
        if cols.size and (cols.min() < 0 or cols.max() >= m.shape[0]):
            raise ValueError("kernel cells must index the grid")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("kernel entries must be finite and non-negative")
        self.cols = cols
        self.matrix = m

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_rows(cls, cols, vals, grid: TypeGrid, order: float = 1.0) -> "MeanKernel":
        """Kernel from ``(d, k)`` row entries in which a cell may repeat.

        Repeated cells of a row add up in slot order, as ``np.add.at``
        into a zero row would; cells whose total is zero are dropped.
        """
        vals = np.asarray(vals, dtype=np.float64)
        d = vals.shape[0]
        key = (np.arange(d, dtype=np.int64)[:, None] * d + np.asarray(cols, dtype=np.int64)).ravel()
        cells, slot = np.unique(key, return_inverse=True)
        total = np.zeros(cells.size)
        np.add.at(total, slot, vals.ravel())
        keep = total != 0.0
        packed_cols, (packed,) = _pack_rows(*np.divmod(cells[keep], d), d, total[keep])
        return cls(packed_cols, packed, grid, order)

    @classmethod
    def from_dense(cls, m, grid: TypeGrid, order: float = 1.0) -> "MeanKernel":
        """Kernel of a dense ``d x d`` matrix (tests and small-``d`` checks)."""
        m = np.asarray(m, dtype=np.float64)
        return cls.from_rows(np.broadcast_to(np.arange(m.shape[1]), m.shape), m, grid, order)

    def apply(self, v) -> np.ndarray:
        """``Q v``: one gather and a row sum."""
        return (self.matrix * np.asarray(v, dtype=np.float64)[self.cols]).sum(axis=1)

    def apply_t(self, v) -> np.ndarray:
        """``v Q``: each row's masses, scaled by ``v``, summed into their cells in row order."""
        w = self.matrix * np.asarray(v, dtype=np.float64)[:, None]
        return np.bincount(self.cols.ravel(), weights=w.ravel(), minlength=self.size)

    def dense(self) -> np.ndarray:
        """The d x d matrix (tests and small-``d`` checks only)."""
        m = np.zeros((self.size, self.size))
        np.add.at(m, (np.arange(self.size)[:, None], self.cols), self.matrix)
        return m


def _pack_rows(rows, cols, d: int, *values):
    """ELL arrays from entries sorted by row, each cell at most once per row.

    Returns ``cols`` of shape ``(d, w)`` and one ``(d, w)`` array per
    array in ``values``; padding slots point at cell 0 with value 0.
    """
    counts = np.bincount(rows, minlength=d)
    width = max(int(counts.max(initial=0)), 1)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    packed_cols = np.zeros((d, width), dtype=np.int64)
    packed_cols[rows, slot] = cols
    packed = []
    for v in values:
        out = np.zeros((d, width))
        out[rows, slot] = v
        packed.append(out)
    return packed_cols, packed


def build_mean_kernel(
    law: ReproductionLaw,
    grid: TypeGrid,
    order: float = 1.0,
    mc_budget: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> MeanKernel:
    """Exact (analytic) or Monte Carlo estimate of the moment kernel.

    Analytic rows come from ``law.moment_rows``; laws without closed forms
    need ``mc_budget`` draws per grid point and report per-entry standard
    errors, one for each cell a draw reached.
    """
    rows = law.moment_rows(grid, order)
    if rows is not None:
        k = MeanKernel.from_rows(*rows, grid, order)
        _check_row_masses(k.matrix)
        return k

    if mc_budget is None or rng is None:
        raise ValueError("law has no analytic moments; supply mc_budget and rng")
    d = grid.size
    owners, cells, means, ses = [], [], [], []
    for i in range(d):
        us, ys, counts = _progeny_table(law, grid.points[i], grid, mc_budget, rng)
        owner = np.repeat(np.arange(mc_budget), counts)
        # builtin pow (libm) and draw-order sums: bit-identical to adding
        # u**order child by child
        powers = np.fromiter(map(pow, us.tolist(), repeat(order)), dtype=np.float64, count=us.size)
        acc = np.zeros((mc_budget, d))
        np.add.at(acc, (owner, ys), powers)
        hit = np.unique(ys)
        owners.append(np.full(hit.size, i, dtype=np.int64))
        cells.append(hit)
        means.append(acc.mean(axis=0)[hit])
        ses.append(acc.std(axis=0, ddof=1)[hit] / np.sqrt(mc_budget))
    cols, (matrix, stderr) = _pack_rows(
        np.concatenate(owners), np.concatenate(cells), d, np.concatenate(means), np.concatenate(ses)
    )
    _check_row_masses(matrix)
    return MeanKernel(cols, matrix, grid, order, stderr=stderr)


def _progeny_table(law: ReproductionLaw, x, grid: TypeGrid, budget: int, rng):
    """``budget`` progenies of a parent at ``x``, flattened in draw order.

    Returns the children's factors ``us`` (float64), their grid cells
    ``ys`` and the number of children of each draw ``counts``; draw ``b``
    owns the ``counts[b]`` entries after those of draws ``0..b-1``.
    """
    us, ys, counts = [], [], []
    for _ in range(budget):
        offspring, _ = law.sample_progeny(x, rng)
        counts.append(len(offspring))
        for u, y in offspring:
            us.append(u)
            ys.append(y)
    return np.array(us, dtype=np.float64), grid.locate(ys), np.array(counts, dtype=np.int64)


def _check_row_masses(matrix):
    masses = matrix.sum(axis=1)
    if not np.all(np.isfinite(masses)):
        raise ValueError("kernel row with non-finite total mass")


def kernel_power_apply(k: MeanKernel, f, n: int, return_logscale: bool = False):
    """``Q^n f`` by repeated matrix-vector products.

    Internally renormalized so huge ``n`` cannot overflow; with
    ``return_logscale`` the result is the sup-normalized vector plus the
    log of the discarded scale.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    v = np.asarray(f, dtype=np.float64).astype(np.float64, copy=True)
    logscale = 0.0
    for _ in range(n):
        v = k.apply(v)
        m = float(np.max(np.abs(v)))
        if m > 0.0 and not (1e-140 < m < 1e140):
            v = v / m
            logscale += np.log(m)
    if return_logscale:
        m = float(np.max(np.abs(v)))
        if m > 0.0:
            v = v / m
            logscale += np.log(m)
        return v, logscale
    return v * np.exp(logscale)


def kernel_power_expect(k: MeanKernel, init_measure, f, n: int) -> float:
    """``<init, Q^n f>``: the expected generation-``n`` integral of ``f``."""
    return float(np.dot(np.asarray(init_measure, dtype=np.float64), kernel_power_apply(k, f, n)))


@dataclass
class SpectralData:
    """Dominant eigendata of a mean kernel.

    ``eta`` is the right eigenvector (sup-norm 1), ``nu`` the left one
    (total mass 1), ``beta`` the polynomial degree of the growth
    correction (0 for primitive kernels). ``alpha`` holds the measured
    deviation sequence once :func:`alpha_sequence` ran.
    """

    theta: float
    beta: int
    eta: np.ndarray
    nu: np.ndarray
    residual_right: float = 0.0
    residual_left: float = 0.0
    alpha: Optional[np.ndarray] = None
    alpha_burn_in: Optional[int] = None
    psi1: Optional[np.ndarray] = None

    def eta_f(self, f) -> np.ndarray:
        """Rank-one limit profile ``eta * nu(f)`` for the observable ``f``."""
        return self.eta * float(np.dot(self.nu, np.asarray(f, dtype=np.float64)))


def power_iteration(k: MeanKernel, tol: float = 1e-12, max_iter: int = 100_000) -> SpectralData:
    """Dominant eigentriple ``(theta, eta, nu)`` of a non-negative kernel.

    Rejects the zero kernel and irreducible kernels of period 2 or more
    outright (their scaled powers oscillate, so there is no limit to
    iterate to), and raises :class:`SpectralConvergenceError` when the
    iteration does not settle (nearly reducible kernels).
    """
    if not np.any(k.matrix > 0):
        raise SpectralConvergenceError("zero kernel has no dominant eigenvalue")
    period = support_period(k)
    if period is not None and period > 1:
        raise SpectralConvergenceError(
            f"periodic kernel: its support graph is irreducible with period {period}, "
            "so theta^-n Q^n f oscillates instead of converging"
        )
    d = k.size
    theta, eta = _power_iterate(k.apply, np.ones(d), tol, max_iter)
    if d > 1:
        # primitivity probe: a skewed start must reach the same growth rate
        # (periodic kernels oscillate, near-reducible ones crawl)
        probe = 0.5 + np.arange(d) / (2.0 * d)
        theta_probe, _ = _power_iterate(k.apply, probe, tol, max_iter)
        if abs(theta_probe - theta) > 1e-6 * max(theta, theta_probe):
            raise SpectralConvergenceError(
                "growth rate depends on the start vector: non-primitive kernel"
            )
    theta_l, nu = _power_iterate(k.apply_t, np.ones(d), tol, max_iter)
    eta = eta / np.max(np.abs(eta))
    nu = nu / np.sum(nu)
    resid_r = float(np.max(np.abs(k.apply(eta) - theta * eta)) / np.max(np.abs(eta)))
    resid_l = float(np.sum(np.abs(k.apply_t(nu) - theta * nu)))
    return SpectralData(
        theta=float(theta),
        beta=0,
        eta=eta,
        nu=nu,
        residual_right=resid_r,
        residual_left=resid_l,
    )


def support_period(k: MeanKernel) -> Optional[int]:
    """Period of the support graph of ``k`` (its cells of positive mass), or
    ``None`` if that graph is reducible.

    A level BFS from type 0 gives each type its distance from 0. The graph
    is irreducible when every type is reached both forwards, along the
    rows, and backwards, along the rows of the transpose; its period is
    then the gcd of ``level[i] + 1 - level[j]`` over its edges ``i -> j``.
    """
    d = k.size
    live = k.matrix > 0
    src = np.broadcast_to(np.arange(d)[:, None], live.shape)[live]
    dst = k.cols[live]
    level = _bfs_levels(k.cols, live)
    if np.any(level < 0):
        return None
    order = np.argsort(dst, kind="stable")  # src is sorted already
    t_cols, (t_live,) = _pack_rows(dst[order], src[order], d, np.ones(order.size))
    if np.any(_bfs_levels(t_cols, t_live > 0) < 0):
        return None
    return int(np.gcd.reduce(np.abs(level[src] + 1 - level[dst])))


def _bfs_levels(cols, live):
    """Distance of each type from type 0 along the rows ``cols`` where ``live``;
    -1 where unreachable."""
    level = np.full(cols.shape[0], -1, dtype=np.int64)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        reached = np.unique(cols[frontier][live[frontier]])
        frontier = reached[level[reached] < 0]
        level[frontier] = depth
    return level


def _power_iterate(step, start, tol, max_iter):
    """Normalised iterates of ``step`` (``k.apply`` or ``k.apply_t``) from ``start``."""
    v = np.asarray(start, dtype=np.float64)
    v = v / np.max(np.abs(v))
    theta = 1.0
    for _ in range(max_iter):
        w = step(v)
        theta = float(np.max(np.abs(w)))
        if theta == 0.0:
            raise SpectralConvergenceError("iterate hit the kernel's null space")
        w = w / theta
        if float(np.max(np.abs(w - v))) <= tol:
            return theta, w
        v = w
    raise SpectralConvergenceError(
        f"no convergence after {max_iter} iterations: non-primitive or slowly mixing"
    )


@dataclass
class BetaFit:
    """Result of the polynomial-geometric growth fit."""

    theta: float
    beta: int
    beta_raw: float
    residual: float
    intercept: float
    window: tuple[int, int]


def log_sup_norms(k: MeanKernel, f, n_max: int) -> np.ndarray:
    """``log ||Q^n f||_inf`` for n = 0..n_max, overflow-safe."""
    v = np.asarray(f, dtype=np.float64).astype(np.float64, copy=True)
    out = np.empty(n_max + 1)
    logscale = 0.0
    for n in range(n_max + 1):
        m = float(np.max(np.abs(v)))
        if m == 0.0:
            raise ValueError(f"Q^{n} f vanished; growth fit undefined")
        out[n] = np.log(m) + logscale
        if n < n_max:
            v = v / m
            logscale += np.log(m)
            v = k.apply(v)
    return out


def estimate_beta(k: MeanKernel, f, window: Optional[range] = None) -> BetaFit:
    """Fit ``log ||Q^n f|| ~ n log(theta) + beta log(n) + c`` by least squares.

    ``beta`` is rounded to the nearest non-negative integer; fits whose raw
    exponent is farther than 0.25 from an integer are rejected. The default
    window sits high (n ~ 4096) where the polynomial term is cleanly
    separated and the geometric rate is accurate to ~1e-7.
    """
    if window is None:
        window = range(4096, 4161)
    ns = np.array(sorted(window), dtype=np.int64)
    if ns.size < 2 or ns[-1] - ns[0] < 8:
        raise ValueError("window must span at least 8 generations")
    if ns[0] < 1:
        raise ValueError("window must start at n >= 1")
    logs = log_sup_norms(k, f, int(ns[-1]))[ns]
    x = ns.astype(np.float64)
    design = np.column_stack([x, np.log(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = float(np.linalg.norm(design @ coef - logs))
    beta_raw = float(coef[1])
    beta = int(round(beta_raw))
    if beta < 0 or abs(beta_raw - beta) > 0.25:
        raise ValueError(
            f"growth fit rejected: raw polynomial degree {beta_raw:.3f} "
            "is not near a non-negative integer"
        )
    return BetaFit(
        theta=float(np.exp(coef[0])),
        beta=beta,
        beta_raw=beta_raw,
        residual=resid,
        intercept=float(coef[2]),
        window=(int(ns[0]), int(ns[-1])),
    )


def alpha_sequence(
    k: MeanKernel,
    f,
    sd: SpectralData,
    psi1,
    n_max: int,
) -> np.ndarray:
    """Deviation sequence ``alpha_n`` of the scaled kernel powers.

    ``alpha_n = max_x |n^-beta theta^-n (Q^n f)(x) - eta_f(x)| / psi1(x)``
    for n = 1..n_max, with the rank-one limit ``eta_f = eta * nu(f)``.
    """
    psi = np.asarray(psi1, dtype=np.float64)
    if np.any(psi <= 0):
        raise ValueError("psi1 must be strictly positive on the grid")
    eta_f = sd.eta_f(f)
    v = np.asarray(f, dtype=np.float64).astype(np.float64, copy=True)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        v = k.apply(v) / sd.theta
        scaled = v / float(n) ** sd.beta if sd.beta else v
        out[n - 1] = float(np.max(np.abs(scaled - eta_f) / psi))
    return out


def alpha_burn_in(alpha: np.ndarray, rel_slack: float = 1e-9) -> int:
    """Smallest index from which the sequence is non-increasing."""
    n = alpha.shape[0]
    b = n - 1
    for i in range(n - 2, -1, -1):
        if alpha[i] >= alpha[i + 1] - rel_slack * max(alpha[i + 1], 1.0):
            b = i
        else:
            break
    return b


def attach_alpha(k: MeanKernel, f, sd: SpectralData, psi1, n_max: int) -> SpectralData:
    """Compute ``alpha_n`` and record it (with burn-in) on the spectral data."""
    alpha = alpha_sequence(k, f, sd, psi1, n_max)
    sd.alpha = alpha
    sd.alpha_burn_in = alpha_burn_in(alpha)
    sd.psi1 = np.asarray(psi1, dtype=np.float64)
    return sd
