"""Certified constants for the L^p convergence bound.

A certificate packages everything the a-priori error bound needs, in sup
norms on the finite type grid: the growth constant ``c1`` of the scaled
powers ``theta^-n Q^n 1``, the dispersion envelope ``(c2=1, gamma_n)``
extracted as the exact pointwise witness from the p-th moment kernel,
the one-step dispersion constant ``c3`` (Monte Carlo, inflated to its
upper 99% confidence bound) and the tail sums ``Gamma_m`` with geometric
extrapolation beyond the computed horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .population import ReproductionLaw
from .spectral import MeanKernel, SpectralData, TypeGrid, scaled_powers

_Z99 = 2.3263478740408408  # one-sided 99% normal quantile


class CertificationError(Exception):
    """The requested certificate cannot be established."""


@dataclass
class MDCertificate:
    """Verified constants feeding :func:`theorem1_rhs`.

    ``gamma`` holds the witnesses for n = 0..n_max; ``tail_ratio`` is the
    per-step geometric decay used to extrapolate ``Gamma_m`` past the
    horizon. ``c0 = (2 c2 c3)^(1/p)``.
    """

    p: float
    c1: float
    c2: float
    c3: float
    gamma: np.ndarray
    tail_ratio: float
    n_max: int

    @property
    def c0(self) -> float:
        return (2.0 * self.c2 * self.c3) ** (1.0 / self.p)

    def Gamma(self, m: int) -> float:
        """Tail sum ``sum_{k >= m} gamma_k`` (geometric tail past n_max)."""
        if m < 0:
            raise ValueError("m must be non-negative")
        r = self.tail_ratio
        g_last = float(self.gamma[-1])
        if r >= 1.0:
            if g_last == 0.0:
                return float(np.sum(self.gamma[m:])) if m <= self.n_max else 0.0
            return np.inf
        if m <= self.n_max:
            return float(np.sum(self.gamma[m:])) + g_last * r / (1.0 - r)
        return g_last * r ** (m - self.n_max) / (1.0 - r)


def gamma_witness(kp: MeanKernel, theta: float, n_max: int) -> np.ndarray:
    """Exact pointwise witnesses ``gamma_n`` from the p-th moment kernel.

    ``gamma_n = max_x (theta^-pn ((Q^(p))^n 1)(x))^(1/p)`` with ``c2 = 1``;
    ``gamma_0 = 1``.
    """
    p = kp.order
    powers = scaled_powers(kp.apply, np.ones(kp.size), theta**p, n_max)
    return np.array([1.0] + [float(np.max(w)) ** (1.0 / p) for w in powers])


def estimate_c1(k1: MeanKernel, sd: SpectralData, n_max: int) -> float:
    """``c1 = max_{n <= n_max, x} n^-beta theta^-n (Q^n 1)(x)``."""
    c1 = 1.0  # n = 0 term
    for n, w in enumerate(scaled_powers(k1.apply, np.ones(k1.size), sd.theta, n_max), 1):
        scaled = w / float(n) ** sd.beta if sd.beta else w
        c1 = max(c1, float(np.max(scaled)))
    return c1


def _progeny_table(law: ReproductionLaw, x, grid: TypeGrid, budget: int, rng):
    """``budget`` progenies of a parent at ``x``, flattened in draw order.

    Returns the children's factors ``us`` (float64), their grid cells
    ``ys`` and the number of children of each draw ``counts``; draw ``b``
    owns the ``counts[b]`` entries after those of draws ``0..b-1``.
    """
    us, ys, counts = [], [], []
    for _ in range(budget):
        offspring = law.sample_progeny(x, rng)
        counts.append(len(offspring))
        for u, y in offspring:
            us.append(u)
            ys.append(y)
    return np.array(us, dtype=np.float64), grid.locate(ys), np.array(counts, dtype=np.int64)


def estimate_c3(
    law: ReproductionLaw,
    k1: MeanKernel,
    p: float,
    rng: np.random.Generator,
    budget: int = 2000,
    max_points: int = 32,
    max_cells: int = 16,
) -> float:
    """One-step dispersion constant, inflated to its 99% upper bound.

    The underlying inequality is a supremum over all test functions of
    unit sup norm; it is probed over a finite dictionary (grid-cell
    indicators and the constant 1) at a spread of grid points, and
    the Monte Carlo mean of each ``E|sum_i u_i g(Y_i) - Qg(x)|^p`` is
    inflated by 2.33 standard errors. A non-finite bound (a budget below 2
    leaves no standard error) raises :class:`CertificationError`.

    Each probe point draws its ``budget`` progenies one ``sample_progeny``
    call at a time and then evaluates all test functions on the flattened
    draws at once. Every brood sum adds the children's factors left to
    right, in the order the law returns them, whatever the brood size and
    the BLAS build:

    - an indicator column adds each child's factor to its cell in draw
      order (``np.add.at``);
    - the constant column is the brood total, one ``np.bincount`` over
      the draws. The constant -1 is left out: negation is exact, so its
      deviations would equal this column's bit for bit.

    ``|z - Qg(x)|^p`` is one array power, ``np.abs(z - Qg(x)) ** p``, over
    the ``(budget, tests)`` deviations of a probe point. ``np.power`` may
    round differently from the libm ``pow`` in the last bit (with numpy 2.4
    on an Intel Xeon, in about 0.08% of squares and 5% of values at
    p = 1.5), so ``c3`` may differ in its last bit from a scalar ``pow``
    loop over the same draws.
    """
    grid = k1.grid
    d = grid.size
    cells = np.unique(np.linspace(0, d - 1, min(d, max_cells)).astype(int))
    n_cells = cells.size
    dictionary = np.zeros((n_cells + 1, d))
    dictionary[np.arange(n_cells), cells] = 1.0
    dictionary[n_cells] = 1.0
    column = np.full(d, -1, dtype=np.int64)  # dictionary column of each grid cell
    column[cells] = np.arange(n_cells)
    points = np.unique(np.linspace(0, d - 1, min(d, max_points)).astype(int))
    qg = np.array([k1.apply(g) for g in dictionary])  # (Qg)(x) of every test function g

    c3 = 0.0
    for i in points:
        us, ys, counts = _progeny_table(law, grid.points[i], grid, budget, rng)
        owner = np.repeat(np.arange(budget), counts)
        z = np.zeros((budget, dictionary.shape[0]))
        col = column[ys]
        hit = col >= 0
        np.add.at(z, (owner[hit], col[hit]), us[hit])
        z[:, n_cells] = np.bincount(owner, weights=us, minlength=budget)
        devs = np.abs(z - qg[:, i]) ** p
        means = devs.mean(axis=0)
        ses = devs.std(axis=0, ddof=1) / np.sqrt(budget)
        bounds = means + _Z99 * ses
        if not np.all(np.isfinite(bounds)):
            j = int(np.argmin(np.isfinite(bounds)))
            raise CertificationError(
                f"dispersion bound {bounds[j]} at grid point {i}, test function {j}: "
                f"mean {means[j]}, standard error {ses[j]} from {budget} draws"
            )
        c3 = max(c3, float(bounds.max()))
    return c3


def fit_tail_ratio(gamma: np.ndarray, window: int = 5) -> float:
    """Per-step decay ratio of the last ``window`` witnesses."""
    g = gamma[np.nonzero(gamma)[0]]
    if g.size < 2:
        return 0.0
    w = min(window, g.size - 1)
    return float((g[-1] / g[-1 - w]) ** (1.0 / w))


def certify_md(
    k1: MeanKernel,
    kp: MeanKernel,
    sd: SpectralData,
    n_max: int,
    law: Optional[ReproductionLaw] = None,
    rng: Optional[np.random.Generator] = None,
    c3: Optional[float] = None,
    dispersion_budget: int = 2000,
) -> MDCertificate:
    """Assemble and validate the full certificate.

    ``c3`` may be passed directly (exact value known); otherwise it is
    estimated from ``law`` by Monte Carlo. Certification is refused when
    the dispersion witnesses show no decay while the dispersion constant
    is positive (the tail sums would diverge); a vanishing ``c3`` makes
    the gamma tail irrelevant because every term it multiplies is zero.
    """
    p = kp.order
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    c1 = estimate_c1(k1, sd, n_max)
    gamma = gamma_witness(kp, sd.theta, n_max)
    if c3 is None:
        if law is None or rng is None:
            raise ValueError("supply either c3 or (law, rng) for its estimation")
        c3 = estimate_c3(law, k1, p, rng, budget=dispersion_budget)
    ratio = fit_tail_ratio(gamma)
    if ratio >= 1.0 and c3 > 0.0:
        raise CertificationError(
            "dispersion witnesses gamma_n show no decay over the window; "
            "the tail sums diverge"
        )
    return MDCertificate(
        p=p,
        c1=c1,
        c2=1.0,
        c3=float(c3),
        gamma=gamma,
        tail_ratio=ratio,
        n_max=n_max,
    )


def theorem1_rhs(
    cert: MDCertificate,
    sd: SpectralData,
    f_norm: float,
    eta_f_norm: float,
    init_p_moment: float,
    init_mass_moment: float,
    m: int,
    n: int,
) -> float:
    """A-priori bound on the L^p distance of the scaled generation integral
    from the martingale limit, evaluated term by term.

    ``f_norm`` and ``eta_f_norm`` are the sup norms of the observable and
    of its limit profile; ``init_p_moment`` is the p-th mass moment
    ``E(sum_i w_i^p)`` of the initial generation's weights ``w_i`` and
    ``init_mass_moment`` is ``(E sum_i w_i)^p``.
    The polynomial ratio terms use the convention ``0^0 = 1`` when the
    degree is zero, and a vanishing ``c0`` annihilates the (possibly
    divergent) tail sums it multiplies.
    """
    if n < 1:
        raise ValueError("n must be at least 1 (the deviation sequence starts there)")
    if sd.alpha is None or len(sd.alpha) < n:
        raise ValueError("spectral data lacks the deviation sequence up to n")
    p, theta, beta = cert.p, sd.theta, sd.beta
    alpha_n = float(sd.alpha[n - 1])
    if beta == 0:
        ratio_prod = 1.0  # n^b m^b / (n+m)^b with the 0-exponent convention
        ratio_n = 1.0
    else:
        ratio_prod = (float(n) ** beta) * (float(m) ** beta) / float(n + m) ** beta
        ratio_n = float(n) ** beta / float(n + m) ** beta

    c0 = cert.c0
    root_p = init_p_moment ** (1.0 / p)
    root_1 = init_mass_moment ** (1.0 / p)
    if c0 == 0.0:
        term1 = 0.0
        inner = root_1
    else:
        term1 = c0 / theta * (cert.c1 * f_norm + eta_f_norm) * cert.Gamma(m) * root_p
        inner = c0 / theta * cert.Gamma(0) * root_p + root_1
    term2 = (alpha_n * ratio_prod * cert.c1 + eta_f_norm * (1.0 - ratio_n)) * inner
    return term1 + term2


def proxy_gap_bound(
    cert: MDCertificate, sd: SpectralData, eta_f_norm: float, init_p_moment: float, horizon: int
) -> float:
    """Bound on the L^p gap between the martingale at ``horizon`` and its limit."""
    if cert.c0 == 0.0:
        return 0.0
    return cert.c0 / sd.theta * eta_f_norm * cert.Gamma(horizon) * init_p_moment ** (1.0 / cert.p)

