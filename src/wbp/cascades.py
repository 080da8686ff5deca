"""Multiplicative cascade laws on a one-point type space.

Children carry weight factors only; the total mass sequence ``G_n(1)`` is
the classical cascade martingale when the mean total offspring mass is 1.
All laws here expose closed-form moments of the offspring factors, which
makes them exact reference models for the convergence machinery. A law of
finitely many factor lists, deterministic or not, is a
:class:`FiniteCascade`: a ``MixtureFiniteTypeLaw`` on one type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_type import MixtureFiniteTypeLaw
from .population import (
    Generation,
    ProgenyBatch,
    ReproductionLaw,
    count_thresholds,
    initial_generation,
)


class MomentOverflowError(ArithmeticError):
    """A closed-form cascade moment lies past the range of a float64."""


def _in_range(name: str, order: float, moment, *args) -> float:
    """``moment(*args)`` as a float, or a ``MomentOverflowError`` naming the
    moment ``name`` and its ``order`` when it overflows float64."""
    try:
        with np.errstate(over="raise"):
            value = float(moment(*args))
    except (OverflowError, FloatingPointError):
        value = math.inf
    if math.isinf(value):
        raise MomentOverflowError(f"the cascade moment {name} of order {order} overflows float64")
    return value


class CascadeLaw(ReproductionLaw):
    """Base for laws whose type space is the single point ``{0}``.

    A law writes each closed-form moment as the method of its name with a
    leading underscore; the public one refuses a value past float64's range.
    """

    def mean_total_mass(self) -> float:
        return self.factor_moment(1.0)

    def factor_moment(self, q: float) -> float:
        """``E(sum_i u_i^q)`` over one progeny draw."""
        return _in_range("E(sum u^q)", q, self._factor_moment, q)

    def factor_log_moment(self) -> float:
        """``E(sum_i u_i log u_i)`` over the non-zero factors: the derivative of ``factor_moment`` at 1."""
        return _in_range("E(sum u log u)", 1, self._factor_log_moment)

    def total_mass_power(self, p: float) -> float:
        """``E((sum_i u_i)^p)``."""
        return _in_range("E((sum u)^p)", p, self._total_mass_power, p)

    def total_mass_loglog(self) -> float:
        """``E((sum_i u_i) log_+(sum_i u_i))``."""
        return _in_range("E((sum u) log+(sum u))", 1, self._total_mass_loglog)

    def moment_rows(self, grid, order: float):
        if grid.size != 1:
            raise ValueError("cascade laws live on a one-point grid")
        return np.zeros((1, 1), dtype=np.int64), np.array([[self.factor_moment(order)]])

    def root_generation(self) -> Generation:
        return initial_generation([1.0], np.zeros(1, dtype=np.int64))

    def sample_weights(self, weights, rng) -> tuple[np.ndarray, int]:
        """``(child_weights, brood)``: the batch draw, parent ``i``'s children in
        slots ``i*brood ..``. Besides the returned float64 array it allocates
        only per-parent temporaries, never a second array of the slots' size."""
        raise NotImplementedError

    def sample_generation(self, weights, types, rng):
        child_w, brood = self.sample_weights(weights, rng)
        return ProgenyBatch(child_w, np.zeros(child_w.shape[0], dtype=np.int64), brood)


class FiniteCascade(CascadeLaw, MixtureFiniteTypeLaw):
    """A finite mixture of factor lists: a :class:`MixtureFiniteTypeLaw` on one type.

    It keeps that law's table, checks, atom thresholds and ``sample_progeny``;
    the cascade's batch draw, one-point moment rows and root come first in
    the method order. A table of one atom, a deterministic cascade, draws no
    uniform on either path. The moments are sums over the atoms, weighted by
    their probabilities.
    """

    def __post_init__(self):
        super().__post_init__()
        atoms = self.atoms_per_type[0]
        self._probs = np.array([prob for prob, _ in atoms], dtype=np.float64)
        # each atom's factors unpadded: a padded row of ``_fac`` may sum in another order
        self._factors = [np.array([u for u, _ in kids], dtype=np.float64) for _, kids in atoms]

    def sample_weights(self, weights, rng):
        w = np.asarray(weights, dtype=np.float64)
        if not self._columns:  # one atom
            return (w[:, None] * self._fac[0]).ravel(), self._width
        child_w = self._fac.take(count_thresholds(rng.random(w.size), self._thresholds[0]), axis=0)
        child_w *= w[:, None]
        return child_w.ravel(), self._width

    def _factor_moment(self, q):
        return np.dot(self._probs, [np.sum(a[a > 0] ** q) for a in self._factors])

    def _factor_log_moment(self):
        return np.dot(self._probs, [sum(u * np.log(u) for u in a if u > 0) for a in self._factors])

    def _total_mass_power(self, p):
        return np.dot(self._probs, np.array([np.sum(a) for a in self._factors]) ** p)

    def _total_mass_loglog(self):
        sums = np.array([np.sum(a) for a in self._factors])
        # the floor keeps log off 0, where s log+ s is 0 anyway
        return np.dot(self._probs, sums * np.maximum(np.log(np.maximum(sums, 1e-300)), 0.0))


def finite_cascade(atoms, probs=(1.0,)) -> FiniteCascade:
    """The cascade whose parent has children of factors ``atoms[j]`` with
    probability ``probs[j]``; by default the deterministic law of one atom."""
    if len(atoms) != len(probs):
        raise ValueError("atoms and probs must align")
    return FiniteCascade(([(prob, [(u, 0) for u in factors]) for prob, factors in zip(probs, atoms)],))


@dataclass
class UniformSplitCascade(CascadeLaw):
    """Two children with factors ``(U, 1-U)``.

    With ``independent=False`` a single uniform drives both factors and the
    total offspring mass is exactly 1 pathwise. With ``independent=True``
    the second factor uses its own uniform, so the total mass disperses
    around 1 while every offspring moment E(u1^q + u2^q) is unchanged.
    """

    independent: bool = False

    def sample_progeny(self, x, rng):
        if self.independent:
            u, v = rng.random(), rng.random()
            return [(u, 0), (1.0 - v, 0)]
        u = rng.random()
        return [(u, 0), (1.0 - u, 0)]

    def sample_weights(self, weights, rng):
        # parent i gets children at slots 2i and 2i+1, formed in place
        w = np.asarray(weights, dtype=np.float64)
        p = w.size
        if self.independent:
            child_w = rng.random(2 * p)
            second = child_w[1::2]
            np.subtract(1.0, second, out=second)
            child_w[0::2] *= w
            second *= w
        else:
            u = rng.random(p)
            child_w = np.empty(2 * p)
            np.multiply(w, u, out=child_w[0::2])
            np.subtract(1.0, u, out=u)
            np.multiply(w, u, out=child_w[1::2])
        return child_w, 2

    def _factor_moment(self, q):
        return 2.0 / (q + 1.0)

    def _factor_log_moment(self):
        return -0.5

    def _total_mass_power(self, p):
        if not self.independent:
            return 1.0
        # total mass is 1 + (U - U'), a triangular perturbation on (0, 2)
        return (
            1.0 / (p + 2.0)
            + 2.0 * (2.0 ** (p + 1.0) - 1.0) / (p + 1.0)
            - (2.0 ** (p + 2.0) - 1.0) / (p + 2.0)
        )

    def _total_mass_loglog(self):
        if not self.independent:
            return 0.0
        return (4.0 / 3.0) * np.log(2.0) - 13.0 / 18.0


@dataclass
class ScaledUniformCascade(CascadeLaw):
    """One effective child of factor ``c * U`` (its sibling has factor 0)."""

    c: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.c < np.inf:
            raise ValueError(f"c must be finite and non-negative, got {self.c}")

    def sample_progeny(self, x, rng):
        u = rng.random()
        return [(self.c * u, 0), (0.0, 0)]

    def sample_weights(self, weights, rng):
        u = rng.random(len(weights))
        return np.multiply(weights, np.multiply(self.c, u, out=u), out=u), 1

    def _factor_moment(self, q):
        return self.c**q / (q + 1.0)

    def _factor_log_moment(self):
        return (self.c / 2.0) * (np.log(self.c) - 0.5) if self.c > 0 else 0.0

    def _total_mass_power(self, p):
        return self.c**p / (p + 1.0)

    def _total_mass_loglog(self):
        c = self.c
        if c <= 1.0:
            return 0.0
        return (c / 2.0) * np.log(c) - c / 4.0 + 1.0 / (4.0 * c)
