"""Per-leaf diagonal-covariance Gaussian mixtures.

Each tree leaf gets its own mixture, fit by EM on that leaf's embeddings.
Initialization runs ``KMEANS_RESTARTS`` seeded restarts of greedy k-means++
followed by at most ``KMEANS_SWEEPS`` Lloyd sweeps each (a restart stops
early once its labels repeat), keeping the restart with the lowest inertia;
a one-component mixture runs one restart, as every restart ends at the mean.
EM then runs in log space (log-sum-exp responsibilities) until the relative
gain in total log-likelihood falls below ``EM_REL_TOL`` or ``EM_MAX_ITERS``
M-steps have run. Everything downstream of the seed is deterministic.

A component whose responsibility mass collapses below 1e-8 of the sample
count is re-seeded at the sample the mixture currently explains worst, with
the leaf's global variance and a fresh 1/m weight share, so the mixture
always keeps exactly m live components.

One kernel, ``_sq_distances``, gives every row-to-centre squared distance:
k-means++ seeding, the Lloyd sweeps, the inertia and, divided by the
variances, the Gaussian quadratic form of ``_log_joint`` (log density plus
log weight), which scores both EM and tagging; a fitted ``LeafGmm`` keeps
the row-independent terms (``_fixed_terms``), so tagging computes them once
per mixture, not once per call. ``_sq_distances`` works one centre at a
time, so no temporary is larger than the ``(n, d)`` data, and each row
reduces over ``d`` in the same order alone or inside any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientDataError,
    ValidationError,
)

__all__ = [
    "LeafGmm",
    "fit_gmm",
    "posterior_log_scores",
    "assign_component",
]

COLLAPSE_FRACTION = 1e-8
KMEANS_SWEEPS = 10
KMEANS_RESTARTS = 4
EM_MAX_ITERS = 200
EM_REL_TOL = 1e-6


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LeafGmm:
    """Fitted mixture for one leaf.

    Parameters are stored as stacked arrays: ``weights`` (m,), ``means`` and
    ``variances`` (m, d). ``n_samples`` records how many embeddings the fit
    saw, which reporting tools read back from saved models. The scoring
    terms that depend on the parameters alone are computed once, at
    construction.
    """

    leaf: str
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    n_samples: int
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "means", _frozen(self.means))
        object.__setattr__(self, "variances", _frozen(self.variances))
        if not self.leaf or not self.leaf.isalpha() or not self.leaf.islower():
            raise ValidationError(f"leaf letter must be lowercase alphabetic, got {self.leaf!r}")
        if self.weights.ndim != 1 or self.means.ndim != 2:
            raise ValidationError("weights must be 1-d and means 2-d")
        m = self.weights.shape[0]
        if m < 1 or self.means.shape[0] != m or self.variances.shape != self.means.shape:
            raise ValidationError(
                f"inconsistent mixture shapes: weights {self.weights.shape}, "
                f"means {self.means.shape}, variances {self.variances.shape}"
            )
        if self.means.shape[1] < 1:
            raise ValidationError("mixture dimension must be at least 1")
        for name, arr in (("weights", self.weights), ("means", self.means), ("variances", self.variances)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"mixture {name} must be finite")
        if np.any(self.weights <= 0.0):
            raise ValidationError("mixture weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"mixture weights sum to {self.weights.sum()!r}, expected 1")
        if np.any(self.variances <= 0.0):
            raise ValidationError("mixture variances must be positive")
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be at least 1, got {self.n_samples}")
        log_norm, log_weights = _fixed_terms(self.weights, self.variances)
        object.__setattr__(self, "log_norm", _frozen(log_norm))
        object.__setattr__(self, "log_weights", _frozen(log_weights))

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def log_joint(self, x: np.ndarray) -> np.ndarray:
        """``_log_joint`` of (n, d) rows under this mixture."""
        return _log_joint(x, self.means, self.variances, self.log_norm, self.log_weights)


def _sq_distances(
    x: np.ndarray, centers: np.ndarray, variances: np.ndarray | None = None
) -> np.ndarray:
    """(n, m) squared distances from (n, d) rows to (m, d) centres, each term
    divided by the centre's variances when given.

    One centre at a time, so the largest temporary is (n, d); a row sums its
    d terms in the same order as ``((x - c) ** 2).sum(axis=1)``.
    """
    out = np.empty((x.shape[0], centers.shape[0]))
    diff = np.empty(x.shape)
    for k, center in enumerate(centers):
        np.subtract(x, center, out=diff)
        diff *= diff
        if variances is not None:
            diff /= variances[k]
        diff.sum(axis=1, out=out[:, k])
    return out


def _fixed_terms(
    weights: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row-independent terms of ``_log_joint``: each component's log
    normaliser ``log(2*pi*var).sum()`` and its log weight."""
    return np.log(2.0 * np.pi * variances).sum(axis=1), np.log(weights)


def _log_joint(
    x: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    log_norm: np.ndarray,
    log_weights: np.ndarray,
) -> np.ndarray:
    """Unnormalized log posteriors, (n, m) for (n, d) rows: diagonal Gaussian
    log density plus log weight, given the ``_fixed_terms``."""
    return -0.5 * (log_norm + _sq_distances(x, means, variances)) + log_weights


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-d array, bitwise equal to scipy's.

    Follows ``scipy.special.logsumexp(a, axis=1)`` (scipy 1.17, real input):
    the row maxima are taken out of the sum and each added back as one
    ``log1p`` term, and rows whose result is not finite fall back to the
    direct ``log(sum(exp(a)))``.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=1)))
    return out


def _kmeans_plus_plus(
    x: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy k-means++: several D^2-sampled candidates per center, keeping
    the one that lowers the potential most. Returns the centres and the
    (n, m) ``_sq_distances`` to them, each column the chosen candidate's."""
    n = x.shape[0]
    trials = 2 + int(np.log(m))
    centers = np.empty((m, x.shape[1]))
    distances = np.empty((n, m))
    centers[0] = x[rng.integers(n)]
    closest = _sq_distances(x, centers[:1])[:, 0]
    distances[:, 0] = closest
    for k in range(1, m):
        total = closest.sum()
        if total > 0.0:
            candidates = rng.choice(n, size=trials, p=closest / total)
        else:
            candidates = rng.integers(n, size=trials)
        dist = _sq_distances(x, x[candidates])
        trimmed = [np.minimum(closest, dist[:, j]) for j in range(trials)]
        best = int(np.argmin([t.sum() for t in trimmed]))  # ties: the earliest candidate
        centers[k] = x[candidates[best]]
        distances[:, k] = dist[:, best]
        closest = trimmed[best]
    return centers, distances


def _run_kmeans(
    x: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """One seeded restart: (centres, labels, inertia), the labels and inertia
    those of the returned centres.

    A sweep recomputes the mean and the distance column of a cluster only if
    its members changed: the same members give the same mean, bit for bit,
    and the same centre the same distances.
    """
    centers, dist = _kmeans_plus_plus(x, m, rng)
    labels = np.argmin(dist, axis=1)
    stale = np.arange(m)
    for _ in range(KMEANS_SWEEPS):
        for k in stale:
            member = labels == k
            if member.any():
                centers[k] = x[member].mean(axis=0)
            # an emptied cluster keeps its previous center
        dist[:, stale] = _sq_distances(x, centers[stale])
        previous, labels = labels, np.argmin(dist, axis=1)
        changed = labels != previous
        if not changed.any():
            break  # repeated labels: the centres are their means already, a fixed point
        stale = np.union1d(previous[changed], labels[changed])
    return centers, labels, float(dist.min(axis=1).sum())


def _initial_parameters(
    x: np.ndarray, m: int, seed: int, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers, labels, best_inertia = _run_kmeans(x, m, rng)
    # with one component every restart's first sweep moves the centre to the
    # mean of all rows, whatever row seeded it, so a later restart never wins
    for _ in range(KMEANS_RESTARTS - 1 if m > 1 else 0):
        other, other_labels, inertia = _run_kmeans(x, m, rng)
        # strict < keeps the earliest restart on ties, for determinism
        if inertia < best_inertia:
            centers, labels, best_inertia = other, other_labels, inertia
    global_var = np.maximum(x.var(axis=0), floor)
    variances = np.empty_like(centers)
    for k in range(m):
        member = labels == k
        if member.any():
            variances[k] = np.maximum(x[member].var(axis=0), floor)
        else:
            variances[k] = global_var
    weights = np.full(m, 1.0 / m)
    return weights, centers, variances


def fit_gmm(
    samples: Sequence[np.ndarray] | np.ndarray,
    m: int,
    seed: int,
    *,
    leaf: str = "a",
    floor: float = 1e-6,
) -> tuple[LeafGmm, list[float]]:
    """Fit an m-component diagonal GMM by EM; deterministic given the seed.

    Returns the fitted mixture and the total log-likelihood trace. The first
    trace entry evaluates the k-means initialization and the last evaluates
    the returned parameters. EM updates never lower the trace, but reseeding
    a collapsed component can; the fit then stops at the reseeded parameters,
    so the trace may end below its maximum.
    """
    if m < 1:
        raise ConfigError(f"component count must be at least 1, got {m}")
    if floor <= 0.0:
        raise ConfigError(f"variance floor must be positive, got {floor}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValidationError(f"samples must form a 2-d array with at least one feature, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite")
    n = x.shape[0]
    if n < m:
        raise InsufficientDataError(f"cannot fit {m} components to {n} samples")

    weights, means, variances = _initial_parameters(x, m, seed, floor)
    global_var = np.maximum(x.var(axis=0), floor)
    trace: list[float] = []
    for step in range(EM_MAX_ITERS + 1):
        joint = _log_joint(x, means, variances, *_fixed_terms(weights, variances))
        per_sample = _logsumexp_rows(joint)
        trace.append(float(per_sample.sum()))
        if step == EM_MAX_ITERS:
            break
        if step and trace[-1] - trace[-2] < EM_REL_TOL * max(abs(trace[-2]), 1e-12):
            break
        resp = np.exp(joint - per_sample[:, None])
        mass = resp.sum(axis=0)
        collapsed = mass < COLLAPSE_FRACTION * n
        live = ~collapsed
        weights = np.where(live, mass / n, 1.0 / m)
        weights = weights / weights.sum()
        safe_mass = np.where(live, mass, 1.0)
        means = np.where(live[:, None], resp.T @ x / safe_mass[:, None], means)
        second = resp.T @ (x * x) / safe_mass[:, None]
        variances = np.where(
            live[:, None],
            np.maximum(second - means * means, floor),
            variances,
        )
        if collapsed.any():
            # worst-explained samples first; distinct seeds if several collapse at once
            worst = np.argsort(per_sample, kind="stable")
            for rank, k in enumerate(np.flatnonzero(collapsed)):
                means[k] = x[worst[rank % n]]
                variances[k] = global_var

    gmm = LeafGmm(
        leaf=leaf, weights=weights, means=means, variances=variances, n_samples=n
    )
    return gmm, trace


def posterior_log_scores(e: np.ndarray, gmm: LeafGmm) -> np.ndarray:
    """Unnormalized log posteriors: log density plus log weight, per component."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.shape[0] != gmm.d:
        raise DimensionMismatchError(
            f"embedding shape {e.shape} does not match mixture dimension {gmm.d}"
        )
    return gmm.log_joint(e[None, :])[0]


def assign_component(e: np.ndarray, gmm: LeafGmm) -> int:
    """Index of the maximum-posterior component; ties go to the smallest index."""
    return int(np.argmax(posterior_log_scores(e, gmm)))
