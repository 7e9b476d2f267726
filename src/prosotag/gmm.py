"""Per-leaf diagonal-covariance Gaussian mixtures.

Each tree leaf gets its own mixture, fit by EM on that leaf's embeddings.
Initialization runs ``KMEANS_RESTARTS`` seeded restarts of greedy k-means++
followed by at most ``KMEANS_SWEEPS`` Lloyd sweeps each (a restart stops
early once its labels repeat), keeping the restart with the lowest inertia.
A one-component mixture starts from its rows' mean and variance, where every
restart would end: it draws nothing from its seed. The k-means++ draws come
from ``_Pcg64``, the stream of ``numpy.random.default_rng(seed)`` computed in
Python, so no fit loads ``numpy.random``. EM then runs in log space
(log-sum-exp responsibilities) until the relative gain in total
log-likelihood falls below ``EM_REL_TOL`` or ``EM_MAX_ITERS`` M-steps have
run. Everything downstream of the seed is deterministic.

A component whose responsibility mass collapses below 1e-8 of the sample
count is re-seeded at the sample the mixture currently explains worst, with
the leaf's global variance and a fresh 1/m weight share, so the mixture
always keeps exactly m live components.

One kernel, ``_sq_distances``, gives every sample-to-centre squared
distance: k-means++ seeding, the Lloyd sweeps, the inertia and, divided by
the variances, the Gaussian quadratic form of ``_log_joint`` (log density
plus log weight), which scores both EM and tagging; a fitted ``LeafGmm``
keeps the sample-independent terms (``_fixed_terms``), so tagging computes
them once per mixture, not once per call.

Layout. A fit holds its leaf twice: as C-contiguous (n, d) rows (the rows
it was given, or a copy if they are laid out otherwise, so the fit does not
depend on their layout) and as one (d, n) copy with contiguous rows, the
columns (``_columns``). The kernel, the joint and the log-sum-exp work on
the columns and give (m, n) arrays, so every reduction over the short d or
m axis is a few long adds of whole rows, not one numpy reduction per
sample. The reductions over n stay on the (n, d) rows and on (n, m)
responsibilities: the Lloyd means (``mean(axis=0)``), the M-step's
``resp.sum(axis=0)`` and its ``resp.T @ x``, which a transpose, or rows
laid out otherwise, would sum in another order.

Summation order. ``_sum_rows`` adds the rows of a (k, n) array in the order
numpy's pairwise summation adds k contiguous terms (numpy 2.x, float64), so
each column's sum is bitwise the sum the same terms had as one row of an
(n, k) array: the distances equal ``((x - c) ** 2).sum(axis=1)`` and the
log-sum-exp equals scipy's, and model bytes do not depend on the layout.
``test_gmm.TestNumericKernels`` pins that order at every size where it
changes form, so a numpy that sums differently fails the tests rather than
changing model files. Arg-min and arg-max over the m axis take the first
extreme (``_first_index_of``), as ``np.argmin`` and ``np.argmax`` do.

Memory. ``_sq_distances`` works one centre at a time in one (d, n) buffer,
so no temporary is larger than the (n, d) data; with the columns, a fit
holds two copies of its leaf plus (m, n) scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._io import _exact_fields, _field, _from_fields
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    ModelFormatError,
    ParseError,
    ValidationError,
    _check_knobs,
)
from .gaussian import _NUMBER_TYPES, _in_float64_range, _ml_gaussian

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
    construction. A model names each mixture by its key in ``gmms``.
    """

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
            raise ValidationError(f"mixture weights sum to {float(self.weights.sum())!r}, expected 1")
        if np.any(self.variances <= 0.0):
            raise ValidationError("mixture variances must be positive")
        _exact_fields(self)
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be at least 1, got {self.n_samples}")
        with np.errstate(over="ignore"):
            log_norm, log_weights = _fixed_terms(self.weights, self.variances)
        if not np.all(np.isfinite(log_norm)):
            raise ValidationError("mixture variances overflow float64 in the log normaliser")
        object.__setattr__(self, "log_norm", _frozen(log_norm))
        object.__setattr__(self, "log_weights", _frozen(log_weights))

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def log_joint(self, xt: np.ndarray) -> np.ndarray:
        """``_log_joint`` of (d, n) columns under this mixture: (m, n)."""
        return _log_joint(xt, self.means, self.variances, self.log_norm, self.log_weights)

    def assign(self, xt: np.ndarray) -> np.ndarray:
        """The maximum-posterior component of each (d, n) column, ties to the
        smallest index, as ``np.argmax(self.log_joint(xt), axis=0)``."""
        joint = self.log_joint(xt)
        return _first_index_of(joint, joint.max(axis=0))

    def to_dict(self) -> dict:
        """The model file's record; ``tolist`` gives floats JSON writes exactly."""
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "vars": self.variances.tolist(),
            "n_samples": self.n_samples,
        }


def _numbers(value: object, ndim: int) -> bool:
    """Whether ``value`` is a JSON array of numbers nested ``ndim`` deep; a
    bool or a string is not a number."""
    if ndim == 0:
        return type(value) in _NUMBER_TYPES
    return type(value) is list and all(_numbers(v, ndim - 1) for v in value)


def _number_array(obj: Mapping, key: str, ndim: int) -> np.ndarray:
    """``obj[key]`` as a float64 array, if it holds numbers only."""
    value = _field(obj, key, list)
    if not _numbers(value, ndim):
        raise ParseError(f"{key} must be a {ndim}-d array of numbers")
    return np.asarray(value, dtype=np.float64)


def _gmm_from_dict(leaf: str, obj: object) -> LeafGmm:
    """A mixture record (the ``LeafGmm.to_dict`` form) as a mixture; any
    fault is a ``ModelFormatError`` naming leaf ``leaf``."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"gmm for leaf {leaf!r} is not an object")
    try:
        return _from_fields(
            LeafGmm,
            obj,
            weights=_number_array(obj, "weights", 1),
            means=_number_array(obj, "means", 2),
            variances=_number_array(obj, "vars", 2),
        )
    except (ValueError, OverflowError, ParseError, ValidationError) as exc:
        # ValueError: ragged arrays; OverflowError: an int beyond float range
        raise ModelFormatError(f"malformed gmm for leaf {leaf!r}: {exc}") from exc


def _columns(x: np.ndarray) -> np.ndarray:
    """The (d, n) columns of (n, d) rows, as ``_sq_distances`` reads them.

    Each row is contiguous and followed by one unused element, so numpy
    cannot merge rows into one loop and subtracts a centre coordinate from
    a row as a scalar. Over a C-contiguous copy numpy 2.4 merges two rows
    into one loop while they fit its 8,192-element buffer (n up to 4,096)
    and buffers the broadcast centre column instead: at d=16, n=3,000 that
    subtract took 53 µs a centre, against 15 µs here.
    """
    n, d = x.shape
    xt = np.empty((d, n + 1))[:, :n]
    xt[...] = x.T
    return xt


def _sum_rows(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum a (k, n) array over its k rows into ``out`` (n,), each column in the
    order numpy's pairwise summation adds one contiguous row of k terms, so
    ``out`` is bitwise ``a.T.sum(axis=1)``; ``a`` is overwritten.

    Below 8 rows the rows are added left to right. From 8 to 128 rows, rows
    0-7 are eight accumulators, each later full block of 8 rows is added to
    them, they are combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and
    the tail rows are added left to right. Above 128 rows the two halves,
    split at a multiple of 8, are summed so and added. Every step is one
    array operation over whole rows, so the cost per column is a few
    instructions, not numpy's per-row reduction overhead. The inputs here
    are never -0.0, where numpy's initial 0.0 would differ from row 0.
    """
    k = a.shape[0]
    if k < 8:
        np.copyto(out, a[0])
        for row in a[1:]:
            out += row
    elif k <= 128:
        acc = a[:8]
        full = k - k % 8
        for start in range(8, full, 8):
            acc += a[start : start + 8]
        pairs = acc[0::2] + acc[1::2]
        quads = pairs[0::2] + pairs[1::2]
        np.add(quads[0], quads[1], out=out)
        for row in a[full:]:
            out += row
    else:
        half = k // 2 - (k // 2) % 8
        _sum_rows(a[:half], out)
        out += _sum_rows(a[half:], np.empty_like(out))
    return out


def _first_index_of(a: np.ndarray, value: np.ndarray) -> np.ndarray:
    """For each column of an (m, n) array, the first row index whose entry
    equals ``value`` (n,), which every column must hold. Given the column
    minima or maxima this is ``np.argmin`` or ``np.argmax`` over axis 0 for
    NaN-free input, found by m - 1 long column compares."""
    index = np.full(a.shape[1], a.shape[0] - 1, dtype=np.intp)
    for k in range(a.shape[0] - 2, -1, -1):
        index[a[k] == value] = k
    return index


def _sq_distances(
    xt: np.ndarray, centers: np.ndarray, variances: np.ndarray | None = None
) -> np.ndarray:
    """(m, n) squared distances from the (d, n) columns to (m, d) centres,
    each term divided by the centre's variances when given.

    One centre at a time, so the largest temporary is (d, n); each column
    sums its d terms as ``((x - c) ** 2).sum(axis=1)`` sums a row of the
    (n, d) data (see ``_sum_rows``).
    """
    out = np.empty((centers.shape[0], xt.shape[1]))
    diff = np.empty(xt.shape)
    for k, center in enumerate(centers):
        np.subtract(xt, center[:, None], out=diff)
        diff *= diff
        if variances is not None:
            diff /= variances[k][:, None]
        _sum_rows(diff, out[k])
    return out


def _fixed_terms(
    weights: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row-independent terms of ``_log_joint``: each component's log
    normaliser ``log(2*pi*var).sum()`` and its log weight."""
    return np.log(2.0 * np.pi * variances).sum(axis=1), np.log(weights)


def _log_joint(
    xt: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    log_norm: np.ndarray,
    log_weights: np.ndarray,
) -> np.ndarray:
    """Unnormalized log posteriors, (m, n) for (d, n) columns: diagonal
    Gaussian log density plus log weight, given the ``_fixed_terms``."""
    joint = _sq_distances(xt, means, variances)
    joint += log_norm[:, None]
    joint *= -0.5
    joint += log_weights[:, None]
    return joint


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the rows of an (m, n) array, bitwise equal to scipy's
    over each column.

    Follows ``scipy.special.logsumexp(a.T, axis=1)`` (scipy 1.17, real
    input): the column maxima are taken out of the sum and each added back
    as one ``log1p`` term, and columns whose result is not finite fall back
    to the direct ``log(sum(exp(a)))``. Both sums run in ``_sum_rows``.
    """
    a_max = a.max(axis=0)
    top = a == a_max
    m = np.count_nonzero(top, axis=0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.where(top, -np.inf, a)
        shifted -= a_max
        s = _sum_rows(np.exp(shifted, out=shifted), np.empty(a.shape[1]))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore"):
            direct = np.log(_sum_rows(np.exp(a), np.empty(a.shape[1])))
        out = np.where(finite, out, direct)
    return out


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int) -> Callable[[int], int]:
    """SeedSequence's hash of a 32-bit word; each call advances its constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed >> 32 * i & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]

    def mix(acc: int, word: int) -> int:
        out = (0xCA01F9DD * acc - 0x4973F715 * hashmix(word)) & _MASK32
        return out ^ out >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], word)
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [output(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """The stream of ``np.random.default_rng(seed)``, bit for bit, for the
    draws k-means++ makes: ``integers(n)``, ``integers(n, size=k)`` and
    ``choice(n, size=k, p=p)``.

    PCG64 (O'Neill 2014): a 128-bit LCG with the XSL-RR output, 32-bit draws
    taking the halves of one 64-bit output, low half first. Bounded integers
    use Lemire's multiply-and-reject (ACM TOMS 45(1), 2019) on 32 bits below
    n = 2**32, the raw 32-bit draw at 2**32 and 64 bits above, as numpy's
    int64 ``integers`` does. It spares a fit the import of ``numpy.random``
    and keeps model bytes off numpy's ``Generator`` algorithms, which may
    change between numpy releases.
    """

    def __init__(self, seed: int) -> None:
        state_high, state_low, inc_high, inc_low = _seed_words(seed)
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        self._state = self._inc + (state_high << 64 | state_low)
        self._half: int | None = None
        self._next64()

    def _next64(self) -> int:
        self._state = (self._state * _PCG64_MULTIPLIER + self._inc) & _MASK128
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _below(self, n: int) -> int:
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        bits, draw = (32, self._next32) if n < 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        product = draw() * n
        if product & mask < n:
            threshold = (1 << bits) % n
            while product & mask < threshold:
                product = draw() * n
        return product >> bits

    def integers(self, n: int, size: int | None = None) -> int | np.ndarray:
        """A uniform integer in [0, n), or ``size`` of them as int64."""
        if size is None:
            return self._below(n)
        return np.array([self._below(n) for _ in range(size)], dtype=np.int64)

    def choice(self, n: int, size: int, p: np.ndarray) -> np.ndarray:
        """``size`` indices in [0, n) drawn with replacement with probabilities
        ``p`` (n,), which must be non-negative and sum to 1 within sqrt(eps);
        ``n`` is only ``len(p)``, taken as ``Generator.choice`` takes it."""
        total = p.sum()
        if np.isnan(total) or (p < 0).any() or abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
            raise ValueError(f"probabilities must be non-negative and sum to 1, got sum {total!r}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        uniforms = np.array([(self._next64() >> 11) * 2.0**-53 for _ in range(size)])
        return cdf.searchsorted(uniforms, side="right")


def _kmeans_plus_plus(
    x: np.ndarray, xt: np.ndarray, m: int, rng: _Pcg64
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy k-means++: several D^2-sampled candidates per center, keeping
    the one that lowers the potential most. Returns the centres and the
    (m, n) ``_sq_distances`` to them, each row the chosen candidate's."""
    n = x.shape[0]
    trials = 2 + int(np.log(m))
    centers = np.empty((m, x.shape[1]))
    distances = np.empty((m, n))
    centers[0] = x[rng.integers(n)]
    closest = distances[0] = _sq_distances(xt, centers[:1])[0]
    for k in range(1, m):
        total = closest.sum()
        if total > 0.0:
            candidates = rng.choice(n, size=trials, p=closest / total)
        else:
            candidates = rng.integers(n, size=trials)
        dist = _sq_distances(xt, x[candidates])
        trimmed = np.minimum(closest, dist)
        best = int(np.argmin([t.sum() for t in trimmed]))  # ties: the earliest candidate
        centers[k] = x[candidates[best]]
        distances[k] = dist[best]
        closest = trimmed[best]
    return centers, distances


def _run_kmeans(
    x: np.ndarray, xt: np.ndarray, m: int, rng: _Pcg64
) -> tuple[np.ndarray, np.ndarray, float]:
    """One seeded restart: (centres, labels, inertia), the labels and inertia
    those of the returned centres.

    A sweep recomputes the mean and the distance row of a cluster only if
    its members changed: the same members give the same mean, bit for bit,
    and the same centre the same distances. The means sum the (n, d) rows,
    in the order ``mean(axis=0)`` always has.
    """
    centers, dist = _kmeans_plus_plus(x, xt, m, rng)
    nearest = dist.min(axis=0)
    labels = _first_index_of(dist, nearest)
    stale = np.arange(m)
    for _ in range(KMEANS_SWEEPS):
        for k in stale:
            member = labels == k
            if member.any():
                centers[k] = x[member].mean(axis=0)
            # an emptied cluster keeps its previous center
        dist[stale] = _sq_distances(xt, centers[stale])
        nearest = dist.min(axis=0)
        previous, labels = labels, _first_index_of(dist, nearest)
        changed = labels != previous
        if not changed.any():
            break  # repeated labels: the centres are their means already, a fixed point
        touched = np.zeros(m, dtype=bool)
        touched[previous[changed]] = touched[labels[changed]] = True
        stale = np.flatnonzero(touched)
    return centers, labels, float(nearest.sum())


def _initial_parameters(
    x: np.ndarray, xt: np.ndarray, m: int, seed: int, floor: float, global_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if m == 1:
        # every k-means restart would end at the moments of ``x[member]``, a
        # copy of the C-contiguous rows, so of ``x`` itself, bit for bit
        return np.ones(1), x.mean(axis=0)[None], global_var[None]
    rng = _Pcg64(seed)
    centers, labels, best_inertia = _run_kmeans(x, xt, m, rng)
    for _ in range(KMEANS_RESTARTS - 1):
        other, other_labels, inertia = _run_kmeans(x, xt, m, rng)
        # strict < keeps the earliest restart on ties, for determinism
        if inertia < best_inertia:
            centers, labels, best_inertia = other, other_labels, inertia
    variances = np.empty_like(centers)
    for k in range(m):
        member = labels == k
        if member.any():
            variances[k] = np.maximum(x[member].var(axis=0), floor)
        else:
            variances[k] = global_var
    weights = np.full(m, 1.0 / m)
    return weights, centers, variances


def _em(
    x: np.ndarray, xt: np.ndarray, m: int, seed: int, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """``fit_gmm`` on checked (n, d) rows and their (d, n) columns."""
    n = x.shape[0]
    global_var = np.maximum(x.var(axis=0), floor)
    weights, means, variances = _initial_parameters(x, xt, m, seed, floor, global_var)
    trace: list[float] = []
    for step in range(EM_MAX_ITERS + 1):
        joint = _log_joint(xt, means, variances, *_fixed_terms(weights, variances))
        per_sample = _logsumexp_columns(joint)
        trace.append(float(per_sample.sum()))
        if step == EM_MAX_ITERS:
            break
        if step and trace[-1] - trace[-2] < EM_REL_TOL * max(abs(trace[-2]), 1e-12):
            break
        joint -= per_sample
        # the sums over n run on (n, m) responsibilities, in the order of the
        # column sum and the BLAS call the M-step has always made
        resp = np.exp(joint, out=joint).T.copy()
        mass = resp.sum(axis=0)
        collapsed = mass < COLLAPSE_FRACTION * n
        live = ~collapsed
        weights = np.where(live, mass / n, 1.0 / m)
        weights = weights / weights.sum()
        safe_mass = np.where(live, mass, 1.0)
        mean, var = _ml_gaussian(safe_mass[:, None], resp.T @ x, resp.T @ (x * x), floor)
        means = np.where(live[:, None], mean, means)
        variances = np.where(live[:, None], var, variances)
        if collapsed.any():
            # worst-explained samples first; distinct seeds if several collapse at once
            worst = np.argsort(per_sample, kind="stable")
            for rank, k in enumerate(np.flatnonzero(collapsed)):
                means[k] = x[worst[rank % n]]
                variances[k] = global_var
    return weights, means, variances, trace


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
    trace entry evaluates the initialization and the last evaluates the
    returned parameters. EM updates never lower the trace, but reseeding a
    collapsed component can; the fit then stops at the reseeded parameters,
    so the trace may end below its maximum.

    The initialization is k-means for m > 1. With m = 1 it is the rows'
    mean and variance: the fit draws nothing from the seed, whose value
    does not change it. No fit loads ``numpy.random``. Rows that are
    not C-contiguous are copied into that layout first, so the fit does not
    depend on their layout either.

    Samples so large that a squared distance, a variance or a second moment
    overflows float64 raise a ``ValidationError`` naming ``leaf``, its only use.
    """
    _check_knobs(m=m, seed=seed, floor=floor)
    x = np.require(samples, np.float64, ["C_CONTIGUOUS", "ALIGNED", "ENSUREARRAY"])
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValidationError(f"samples must form a 2-d array with at least one feature, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite")
    n = x.shape[0]
    if n < m:
        raise InsufficientDataError(f"cannot fit {m} components to {n} samples")

    with _in_float64_range(leaf):
        weights, means, variances, trace = _em(x, _columns(x), m, seed, floor)
    return LeafGmm(weights, means, variances, n), trace


def _column(e: np.ndarray, gmm: LeafGmm) -> np.ndarray:
    """``e`` as the (d, 1) column ``gmm`` scores, if it is a finite (d,) vector."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.shape[0] != gmm.d:
        raise DimensionMismatchError(
            f"embedding shape {e.shape} does not match mixture dimension {gmm.d}"
        )
    if not np.isfinite(e).all():  # a NaN would make every score NaN and the argmax arbitrary
        raise ValidationError("embedding has non-finite values")
    return e[:, None]


def posterior_log_scores(e: np.ndarray, gmm: LeafGmm) -> np.ndarray:
    """Unnormalized log posteriors: log density plus log weight, per component."""
    return gmm.log_joint(_column(e, gmm))[:, 0]


def assign_component(e: np.ndarray, gmm: LeafGmm) -> int:
    """The maximum-posterior component, by ``LeafGmm.assign``: ties to the smallest."""
    return int(gmm.assign(_column(e, gmm))[0])
