"""Prior and reward-noise families.

Priors describe the unknown parameter vector; noises describe the reward
given its conditional mean. Each prior family subclasses :class:`Prior`,
which draws one sample as the first of ``sample_many``; each noise family
subclasses :class:`Noise`, which holds the capability defaults (no
mean-range restriction, no finite outcome set) that
:class:`BernoulliMeanNoise` overrides as class data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .linalg import Array, PsdMatrix, check_unit_rows, psd_sqrt, unit_rows
from .tolerances import NORM_SLACK, PRIOR_WEIGHT_SUM_ABS


class MeanOutOfRange(ValueError):
    """A conditional reward mean fell outside the noise family's domain."""


def atom_moments(atoms: Array, weights: Array) -> Tuple[Array, PsdMatrix]:
    """Mean and covariance of the law putting ``weights[i]`` on ``atoms[i]``."""
    mean = weights @ atoms
    centered = atoms - mean
    cov = (weights[:, None] * centered).T @ centered
    return mean, PsdMatrix.unchecked(cov)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


class Prior:
    """A prior family; subclasses supply ``dim``, ``moments`` and ``sample_many``."""

    def sample(self, rng: np.random.Generator) -> Array:
        return self.sample_many(rng, 1)[0]


@dataclass(frozen=True, eq=False)
class GaussianPrior(Prior):
    """Multivariate Gaussian prior N(mean, cov).

    The support is unbounded, so regret bounds that assume a unit-ball
    parameter do not formally apply.
    """

    mean: Array
    cov: PsdMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if mean.shape[0] != self.cov.dim:
            raise ValueError(
                f"mean dim {mean.shape[0]} does not match cov dim {self.cov.dim}"
            )
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"mean must be finite, got {mean.tolist()}")
        mean = mean.copy()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def moments(self) -> Tuple[Array, PsdMatrix]:
        return self.mean, self.cov

    def sample_many(self, rng: np.random.Generator, size: int) -> Array:
        # psd_sqrt instead of Cholesky so singular covariances sample fine
        root = psd_sqrt(self.cov)
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ root.T


@dataclass(frozen=True, eq=False)
class FiniteSupportPrior(Prior):
    """Discrete prior on a fixed set of support points.

    Support points live in the unit ball; weights are a probability
    vector. Moments are exact sums, which makes this the reference family
    for enumeration oracles.
    """

    atoms: Array
    weights: Array

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if atoms.ndim != 2:
            raise ValueError(f"atoms must be (n, d), got shape {atoms.shape}")
        if weights.shape != (atoms.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match {atoms.shape[0]} atoms"
            )
        if atoms.shape[0] == 0:
            raise ValueError("need at least one support point")
        # each test below is written so that a NaN fails it
        if not np.all(weights >= 0):
            raise ValueError(f"weights must be nonnegative, got {weights.tolist()}")
        total = float(weights.sum())
        if not abs(total - 1.0) <= PRIOR_WEIGHT_SUM_ABS:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        check_unit_rows(atoms, "support point")
        atoms = atoms.copy()
        weights = weights.copy()
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def moments(self) -> Tuple[Array, PsdMatrix]:
        return atom_moments(self.atoms, self.weights)

    def sample_many(self, rng: np.random.Generator, size: int) -> Array:
        idx = rng.choice(self.atoms.shape[0], size=size, p=self.weights)
        return self.atoms[idx]


@dataclass(frozen=True, eq=False)
class UniformBallPrior(Prior):
    """Uniform prior on the Euclidean ball of the given radius.

    The covariance is radius^2 / (dim + 2) times the identity; for dim = 2
    and radius r that is r^2 / 4 * I.
    """

    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.radius <= 1.0:
            raise ValueError(f"radius must be in (0, 1], got {self.radius}")

    def moments(self) -> Tuple[Array, PsdMatrix]:
        mean = np.zeros(self.dim)
        cov = self.radius**2 / (self.dim + 2) * np.eye(self.dim)
        return mean, PsdMatrix.unchecked(cov)

    def sample_many(self, rng: np.random.Generator, size: int) -> Array:
        # direction from a normalized Gaussian, radius from U^(1/d) scaling
        directions = unit_rows(rng.standard_normal((size, self.dim)))
        radii = self.radius * rng.random(size) ** (1.0 / self.dim)
        return directions * radii[:, None]


# ---------------------------------------------------------------------------
# noises
# ---------------------------------------------------------------------------


def _check_positive(name: str, value: float) -> None:
    """Refuse a noise parameter that is not positive and finite (NaN too)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class Noise:
    """A noise family; subclasses supply ``sigma_sq_bound``, ``sample_reward``
    and ``likelihood``."""

    # the conditional mean must lie in [0, 1]
    requires_unit_interval_mean: bool = False
    # the possible rewards, when there are finitely many
    finite_outcomes: Optional[Tuple[float, ...]] = None

    def likelihood(self, y: float, mean: ArrayLike) -> Array:
        """The density (or mass) of reward y at each conditional mean.

        Elementwise: entry i is a function of y and ``mean[i]`` alone, so
        ``likelihood(y, mean)[idx]`` equals ``likelihood(y, mean[idx])``
        bit for bit, and a family that refuses a mean names the first one
        in array order. The result is a fresh array of the same shape,
        sharing no memory with ``mean``, which it never changes. The
        posterior engines reweight in place in that array, and the
        particle engine evaluates each distinct particle once for all its
        copies.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianNoise(Noise):
    """Reward = mean + N(0, sd^2)."""

    sd: float

    def __post_init__(self):
        _check_positive("sd", self.sd)

    @property
    def sigma_sq_bound(self) -> float:
        return self.sd**2

    def sample_reward(self, mean: float, rng: np.random.Generator) -> float:
        return float(mean + self.sd * rng.standard_normal())

    def likelihood(self, y: float, mean: ArrayLike) -> Array:
        mean = np.asarray(mean, dtype=np.float64)
        z = (y - mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class BernoulliMeanNoise(Noise):
    """Reward in {0, 1} with success probability equal to the mean.

    The conditional mean must lie in [0, 1]; anything else raises
    :class:`MeanOutOfRange`. The conditional variance mean*(1-mean) is
    bounded by 1/4 uniformly. ``likelihood`` checks an array of means
    and ``sample_reward`` one float, with the same bounds and message.
    """

    sigma_sq_bound = 0.25
    requires_unit_interval_mean = True
    finite_outcomes = (0.0, 1.0)

    @staticmethod
    def _out_of_range(value: float) -> MeanOutOfRange:
        return MeanOutOfRange(f"Bernoulli mean must lie in [0, 1], got {value}")

    # means within NORM_SLACK of [0, 1] are clipped into it; each test is
    # written so that a NaN fails it: min and max carry a NaN through, and
    # every comparison with NaN is false
    def _check_mean(self, mean: ArrayLike) -> Array:
        arr = np.asarray(mean, dtype=np.float64)
        if not (-NORM_SLACK <= arr.min() and arr.max() <= 1.0 + NORM_SLACK):
            outside = ~((arr >= -NORM_SLACK) & (arr <= 1.0 + NORM_SLACK))
            raise self._out_of_range(float(arr[outside][0]))
        return arr.clip(0.0, 1.0)

    def sample_reward(self, mean: float, rng: np.random.Generator) -> float:
        # the check of _check_mean on one float, without building an array
        mean = float(mean)
        if not -NORM_SLACK <= mean <= 1.0 + NORM_SLACK:
            raise self._out_of_range(mean)
        return float(rng.random() < min(max(mean, 0.0), 1.0))

    def likelihood(self, y: float, mean: ArrayLike) -> Array:
        p = self._check_mean(mean)
        if y == 1.0:
            return np.asarray(p)
        if y == 0.0:
            return np.asarray(1.0 - p)
        raise ValueError(f"Bernoulli outcome must be 0 or 1, got {y!r}")


@dataclass(frozen=True)
class UniformCenteredNoise(Noise):
    """Reward = mean + U(-half_width, half_width); variance half_width^2 / 3."""

    half_width: float

    def __post_init__(self):
        _check_positive("half_width", self.half_width)

    @property
    def sigma_sq_bound(self) -> float:
        return self.half_width**2 / 3.0

    def sample_reward(self, mean: float, rng: np.random.Generator) -> float:
        return float(mean + rng.uniform(-self.half_width, self.half_width))

    def likelihood(self, y: float, mean: ArrayLike) -> Array:
        mean = np.asarray(mean, dtype=np.float64)
        inside = np.abs(y - mean) <= self.half_width
        return np.where(inside, 1.0 / (2.0 * self.half_width), 0.0)


@dataclass(frozen=True)
class StudentTNoise(Noise):
    """Reward = mean + scale * t(dof); heavy tailed but finite variance.

    Requires dof > 2 so the conditional variance scale^2 * dof / (dof - 2)
    exists. Useful for exercising bounds that only need a second moment.
    """

    dof: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        if not 2 < self.dof < np.inf:
            raise ValueError(
                f"dof must exceed 2 for finite variance and be finite, got {self.dof}"
            )
        _check_positive("scale", self.scale)
        object.__setattr__(self, "_log_const", self._log_norm_const())

    @property
    def sigma_sq_bound(self) -> float:
        return self.scale**2 * self.dof / (self.dof - 2.0)

    def sample_reward(self, mean: float, rng: np.random.Generator) -> float:
        return float(mean + self.scale * rng.standard_t(self.dof))

    def _log_norm_const(self) -> float:
        # math.lgamma, not scipy.special.gammaln: as accurate, and a run
        # on this noise then imports no scipy
        return float(
            math.lgamma((self.dof + 1.0) / 2.0)
            - math.lgamma(self.dof / 2.0)
            - 0.5 * np.log(self.dof * np.pi)
            - np.log(self.scale)
        )

    def likelihood(self, y: float, mean: ArrayLike) -> Array:
        # exp(log_const - (dof + 1) / 2 * log1p(z * z / dof)) with
        # z = (y - mean) / scale, in that operation order, in one array
        mean = np.asarray(mean, dtype=np.float64)
        out = np.empty_like(mean)
        np.subtract(y, mean, out=out)
        out /= self.scale
        out *= out
        out /= self.dof
        np.log1p(out, out=out)
        out *= (self.dof + 1.0) / 2.0
        np.subtract(self._log_const, out, out=out)
        return np.exp(out, out=out)


def sample_reward(noise: Noise, mean: float, rng: np.random.Generator) -> float:
    """One reward draw with the given conditional mean."""
    return noise.sample_reward(mean, rng)
