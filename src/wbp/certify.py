"""Certified constants for the L^p convergence bound.

A certificate packages everything the a-priori error bound needs: the
growth constant ``c1`` for the weight function ``psi1``, the dispersion
envelope ``(c2=1, gamma_n)`` extracted as the exact pointwise witness
from the p-th moment kernel, the one-step dispersion constant ``c3``
(Monte Carlo, inflated to its upper 99% confidence bound) and the tail
sums ``Gamma_m`` with geometric extrapolation beyond the computed
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .population import ReproductionLaw
from .spectral import MeanKernel, SpectralData, _progeny_table

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
    psi1: np.ndarray
    psi2: np.ndarray
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


def gamma_witness(kp: MeanKernel, theta: float, psi2, n_max: int) -> np.ndarray:
    """Exact pointwise witnesses ``gamma_n`` from the p-th moment kernel.

    ``gamma_n = max_x (theta^-pn ((Q^(p))^n psi2^p)(x) / psi2^p(x))^(1/p)``
    with ``c2 = 1``; ``gamma_0 = 1``.
    """
    p = kp.order
    psi = np.asarray(psi2, dtype=np.float64)
    if np.any(psi <= 0):
        raise ValueError("psi2 must be strictly positive on the grid")
    v = psi**p
    scale = theta**p
    out = np.empty(n_max + 1)
    out[0] = 1.0
    w = v.copy()
    for n in range(1, n_max + 1):
        w = kp.apply(w) / scale
        out[n] = float(np.max(w / v)) ** (1.0 / p)
    return out


def estimate_c1(k1: MeanKernel, sd: SpectralData, psi1, n_max: int) -> float:
    """``c1 = max_{n <= n_max, x} n^-beta theta^-n (Q^n psi1)(x) / psi1(x)``."""
    psi = np.asarray(psi1, dtype=np.float64)
    if np.any(psi <= 0):
        raise ValueError("psi1 must be strictly positive on the grid")
    c1 = 1.0  # n = 0 term
    w = psi.copy()
    for n in range(1, n_max + 1):
        w = k1.apply(w) / sd.theta
        scaled = w / float(n) ** sd.beta if sd.beta else w
        c1 = max(c1, float(np.max(scaled / psi)))
    return c1


def estimate_c3(
    law: ReproductionLaw,
    k1: MeanKernel,
    psi1,
    psi2,
    p: float,
    rng: np.random.Generator,
    budget: int = 2000,
    max_points: int = 32,
    max_cells: int = 16,
) -> float:
    """One-step dispersion constant, inflated to its 99% upper bound.

    The underlying inequality is a supremum over all test functions with
    unit ``psi1`` norm; it is probed over a finite dictionary (grid-cell
    indicators and ``+-psi1``) at a spread of grid points, and the Monte
    Carlo mean of each ``E|sum_i u_i g(Y_i) - Qg(x)|^p`` is inflated by
    2.33 standard errors. A non-finite bound (a budget below 2 leaves no
    standard error) raises :class:`CertificationError`.

    Each probe point draws its ``budget`` progenies one ``sample_progeny``
    call at a time and then evaluates all test functions on the flattened
    draws at once. For broods of fewer than 16 children the result is
    bit-identical to taking one ``np.dot`` per draw and test function,
    because:

    - indicator sums add each child's factor to its cell's column in draw
      order (``np.add.at``); the products a dot product would add are
      exact (``u * 1`` and ``u * 0``), and ``np.dot`` sums a brood of
      fewer than 16 children in that same order (BLAS unrolls longer
      vectors, so such broods may differ in the last bit);
    - the ``psi1`` column still takes one ``np.dot`` per draw: BLAS fuses
      its multiply-adds, and no vectorised form (``gemv``, ``einsum``,
      multiply plus ``bincount``) rounds the same way; ``-psi1`` is that
      value negated, which is exact;
    - ``|z - Qg(x)|^p`` goes through the builtin ``pow`` (libm), because
      ``np.power`` rounds differently in the last bit.
    """
    grid = k1.grid
    d = grid.size
    psi1 = np.asarray(psi1, dtype=np.float64)
    psi2 = np.asarray(psi2, dtype=np.float64)
    cells = np.unique(np.linspace(0, d - 1, min(d, max_cells)).astype(int))
    n_cells = cells.size
    dictionary = np.zeros((n_cells + 2, d))
    dictionary[np.arange(n_cells), cells] = 1.0
    dictionary[n_cells] = psi1
    dictionary[n_cells + 1] = -psi1
    column = np.full(d, -1, dtype=np.int64)  # dictionary column of each grid cell
    column[cells] = np.arange(n_cells)
    norms = [float(np.max(np.abs(g / psi1))) for g in dictionary]
    points = np.unique(np.linspace(0, d - 1, min(d, max_points)).astype(int))
    qg = np.array([k1.apply(g) for g in dictionary])  # (Qg)(x) of every test function g

    c3 = 0.0
    for i in points:
        exact = qg[:, i]
        us, ys, counts = _progeny_table(law, grid.points[i], grid, budget, rng)
        owner = np.repeat(np.arange(budget), counts)
        z = np.zeros((budget, dictionary.shape[0]))
        col = column[ys]
        hit = col >= 0
        np.add.at(z, (owner[hit], col[hit]), us[hit])
        psi_y = psi1[ys]
        ends = np.cumsum(counts).tolist()
        starts = [0] + ends[:-1]
        z[:, n_cells] = [np.dot(us[s:e], psi_y[s:e]) for s, e in zip(starts, ends)]
        z[:, n_cells + 1] = -z[:, n_cells]
        dev = np.abs(z - exact).ravel().tolist()
        devs = np.fromiter(map(pow, dev, repeat(p)), dtype=np.float64, count=z.size).reshape(z.shape)
        means = devs.mean(axis=0)
        ses = devs.std(axis=0, ddof=1) / np.sqrt(budget)
        for j in range(len(dictionary)):
            bound = float((means[j] + _Z99 * ses[j]) / (psi2[i] ** p * norms[j] ** p))
            if not math.isfinite(bound):
                raise CertificationError(
                    f"dispersion bound {bound} at grid point {i}, test function {j}: "
                    f"mean {means[j]}, standard error {ses[j]} from {budget} draws"
                )
            c3 = max(c3, bound)
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
    psi1,
    psi2,
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
    psi1 = np.asarray(psi1, dtype=np.float64)
    psi2 = np.asarray(psi2, dtype=np.float64)
    c1 = estimate_c1(k1, sd, psi1, n_max)
    gamma = gamma_witness(kp, sd.theta, psi2, n_max)
    if c3 is None:
        if law is None or rng is None:
            raise ValueError("supply either c3 or (law, rng) for its estimation")
        c3 = estimate_c3(law, k1, psi1, psi2, p, rng, budget=dispersion_budget)
    ratio = fit_tail_ratio(gamma)
    if ratio >= 1.0 and c3 > 0.0:
        raise CertificationError(
            "dispersion witnesses gamma_n show no decay over the window; "
            "the tail sums diverge"
        )
    return MDCertificate(
        p=p,
        psi1=psi1,
        psi2=psi2,
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
    init_psi1_moment: float,
    m: int,
    n: int,
) -> float:
    """A-priori bound on the L^p distance of the scaled generation integral
    from the martingale limit, evaluated term by term.

    ``f_norm`` and ``eta_f_norm`` are the psi1-weighted sup norms of the
    observable and of its limit profile; ``init_p_moment`` is
    ``E(G_0^(p)(psi2^p))`` and ``init_psi1_moment`` is ``E((G_0 psi1)^p)``.
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
    root_1 = init_psi1_moment ** (1.0 / p)
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


def weighted_sup_norm(g, psi) -> float:
    """``max_x |g(x)| / psi(x)`` on the grid."""
    g = np.asarray(g, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    return float(np.max(np.abs(g) / psi))
