"""EM fitting for per-leaf diagonal mixtures and posterior scoring."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosotag import (
    ConfigError,
    Corpus,
    DecisionTree,
    DimensionMismatchError,
    GrowthTrace,
    InsufficientDataError,
    LeafGmm,
    LeafNode,
    ProsodySample,
    TaggerConfig,
    TaggerModel,
    ValidationError,
    WordEntry,
    assign_component,
    default_classes,
    fit_gmm,
    posterior_log_scores,
    tag_tokens,
)
from prosotag import gmm as gmm_module
from conftest import assert_monotone_trace, knob_rejects
from oracles import diag_gaussian_log_density


def broadcast_sq_distances(x, centers, variances=None):
    """The (n, m, d) broadcast that ``gmm._sq_distances`` stands in for."""
    diff = x[:, None, :] - centers[None, :, :]
    sq = diff * diff
    if variances is not None:
        sq = sq / variances[None, :, :]
    return sq.sum(axis=2)


def two_cluster_1d(rng, n_per=50, centers=(0.0, 10.0), scale=0.1):
    xs = [rng.normal(c, scale, size=(n_per, 1)) for c in centers]
    x = np.concatenate(xs, axis=0)
    rng.shuffle(x, axis=0)
    return x


class TestSingleComponent:
    def test_exact_maximum_likelihood(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.5, size=(40, 3))
        gmm, trace = fit_gmm(x, 1, 0)
        np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), rtol=1e-12)
        ml_var = np.maximum(x.var(axis=0), 1e-6)
        np.testing.assert_allclose(gmm.variances[0], ml_var, rtol=1e-12)
        assert gmm.weights[0] == 1.0
        # a single component is solved by the first M step
        assert len(trace) <= 3

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60), d=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_one_restart_equals_every_restart(self, seed, n, d):
        # one component starts from its rows' moments; running every k-means
        # restart, as for m > 1, and keeping the first of the least inertia
        # gives the same fit
        def every_restart(x, xt, m, seed, floor, global_var):
            rng = np.random.default_rng(seed)
            runs = [gmm_module._run_kmeans(x, xt, m, rng) for _ in range(gmm_module.KMEANS_RESTARTS)]
            for centers, _, _ in runs:
                np.testing.assert_array_equal(centers, runs[0][0])
            centers, labels, _ = min(runs, key=lambda run: run[2])
            variances = np.array([np.maximum(x[labels == k].var(axis=0), floor) for k in range(m)])
            return np.full(m, 1.0 / m), centers, variances

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        if rng.random() < 0.3:
            x = np.round(x)  # duplicate rows
        gmm, trace = fit_gmm(x, 1, seed)
        with mock.patch.object(gmm_module, "_initial_parameters", every_restart):
            ref, ref_trace = fit_gmm(x, 1, seed)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(gmm, name), getattr(ref, name))
        assert trace == ref_trace

    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2, unique=True),
        n=st.integers(1, 60),
        d=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_independent_of_seed_and_layout(self, seeds, n, d):
        # one component starts from its rows' moments and draws nothing, and
        # the fit copies rows that are not C-contiguous into that layout
        rng = np.random.default_rng(seeds[0])
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        spaced = np.zeros((2 * n, 3 * d))
        spaced[::2, ::3] = x
        gmm, trace = fit_gmm(x, 1, seeds[0])
        for rows, seed in ((x, seeds[1]), (np.asfortranarray(x), seeds[0]), (spaced[::2, ::3], seeds[0])):
            other, other_trace = fit_gmm(rows, 1, seed)
            for name in ("weights", "means", "variances"):
                assert getattr(other, name).tobytes() == getattr(gmm, name).tobytes()
            assert other_trace == trace

    def test_variance_floor_applies(self):
        x = np.full((20, 2), 7.0)
        gmm, _ = fit_gmm(x, 1, 0)
        np.testing.assert_array_equal(gmm.variances[0], [1e-6, 1e-6])

    def test_custom_floor(self):
        x = np.full((20, 2), 7.0)
        gmm, _ = fit_gmm(x, 1, 0, floor=0.5)
        np.testing.assert_array_equal(gmm.variances[0], [0.5, 0.5])


class TestTwoClusterRecovery:
    def test_means_and_weights(self):
        rng = np.random.default_rng(12)
        x = two_cluster_1d(rng)
        gmm, _ = fit_gmm(x, 2, 0)
        means = np.sort(gmm.means[:, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_trace(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 4)) + (rng.integers(0, 2, size=(60, 1)) * 6.0)
        _, trace = fit_gmm(x, 3, seed)
        assert len(trace) >= 2
        assert_monotone_trace(trace)

    def test_trace_final_entry_matches_returned_params(self):
        rng = np.random.default_rng(5)
        x = two_cluster_1d(rng)
        gmm, trace = fit_gmm(x, 2, 7)
        log_w = np.log(gmm.weights)
        dens = diag_gaussian_log_density
        total = 0.0
        for row in x:
            scores = [
                log_w[k] + dens(row, gmm.means[k], gmm.variances[k])
                for k in range(gmm.m)
            ]
            total += np.logaddexp.reduce(scores)
        assert total == pytest.approx(trace[-1], rel=1e-9)


class TestDeterminism:
    def test_same_seed_bitwise(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 5))
        a, trace_a = fit_gmm(x.copy(), 4, seed=99)
        b, trace_b = fit_gmm(x.copy(), 4, seed=99)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert trace_a == trace_b

    def test_different_seed_differs(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 5)) + (rng.integers(0, 3, size=(80, 1)) * 4.0)
        a, _ = fit_gmm(x, 3, seed=0)
        b, _ = fit_gmm(x, 3, seed=1)
        # initialization differs; parameters rarely coincide bitwise
        assert not (
            np.array_equal(a.means, b.means)
            and np.array_equal(a.variances, b.variances)
        )


class TestFitValidation:
    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_gmm(np.zeros((2, 3)), 3, 0)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            fit_gmm(np.zeros((0, 3)), 1, 0)

    def test_bad_m(self):
        with pytest.raises(ConfigError):
            fit_gmm(np.zeros((5, 2)), 0, 0)

    def test_bad_floor(self):
        with pytest.raises(ConfigError):
            fit_gmm(np.zeros((5, 2)), 1, 0, floor=-1.0)

    def test_bad_seed(self):
        with pytest.raises(ConfigError):
            fit_gmm(np.zeros((5, 2)), 1, -3)

    @pytest.mark.parametrize("kwargs", knob_rejects("m", "seed", "floor"))
    def test_rejects_knob(self, kwargs):
        with pytest.raises(ConfigError):
            fit_gmm(np.zeros((5, 2)), **{"m": 1, "seed": 0, **kwargs})

    def test_nan_samples(self):
        x = np.zeros((5, 2))
        x[2, 1] = np.nan
        with pytest.raises(ValidationError):
            fit_gmm(x, 1, 0)

    @pytest.mark.parametrize("shape", [(6,), (6, 0), (3, 2, 2)])
    def test_samples_must_be_rows_of_features(self, shape):
        with pytest.raises(ValidationError, match="2-d array with at least one feature"):
            fit_gmm(np.zeros(shape), 1, 0)


class TestLeafGmmValidation:
    def good_kwargs(self):
        return dict(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 3)),
            variances=np.ones((2, 3)),
            n_samples=10,
        )

    def test_accepts_valid(self):
        gmm = LeafGmm(**self.good_kwargs())
        assert gmm.m == 2
        assert gmm.d == 3

    def test_arrays_read_only(self):
        gmm = LeafGmm(**self.good_kwargs())
        with pytest.raises(ValueError):
            gmm.weights[0] = 0.9

    def test_scoring_terms_cached(self):
        rng = np.random.default_rng(3)
        variances = rng.uniform(0.1, 4.0, size=(2, 3))
        gmm = LeafGmm(**{**self.good_kwargs(), "variances": variances})
        log_norm = np.log(2.0 * np.pi * variances).sum(axis=1)
        np.testing.assert_array_equal(gmm.log_norm, log_norm)
        np.testing.assert_array_equal(gmm.log_weights, np.log(gmm.weights))
        with pytest.raises(ValueError):
            gmm.log_norm[0] = 0.0
        x = rng.normal(size=(7, 3))
        uncached = -0.5 * (
            log_norm + gmm_module._sq_distances(x.T, gmm.means, variances).T
        ) + np.log(gmm.weights)
        np.testing.assert_array_equal(gmm.log_joint(x.T).T, uncached)

    def test_weights_must_sum_to_one(self):
        kwargs = self.good_kwargs()
        kwargs["weights"] = np.array([0.6, 0.6])
        with pytest.raises(ValidationError):
            LeafGmm(**kwargs)

    def test_weights_must_be_positive(self):
        kwargs = self.good_kwargs()
        kwargs["weights"] = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            LeafGmm(**kwargs)

    def test_variances_must_be_positive(self):
        kwargs = self.good_kwargs()
        kwargs["variances"] = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValidationError):
            LeafGmm(**kwargs)

    def test_variances_must_keep_the_normaliser_finite(self):
        kwargs = self.good_kwargs()
        kwargs["variances"] = np.array([[1.0, 1.0, 1e308], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="log normaliser"):
                LeafGmm(**kwargs)

    def test_shape_mismatch(self):
        kwargs = self.good_kwargs()
        kwargs["variances"] = np.ones((3, 3))
        with pytest.raises(ValidationError):
            LeafGmm(**kwargs)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"weights": np.full((1, 2), 0.5)}, "weights must be 1-d and means 2-d"),
            ({"means": np.zeros(3)}, "weights must be 1-d and means 2-d"),
            ({"weights": np.array([0.5, np.nan])}, "mixture weights must be finite"),
            ({"means": np.full((2, 3), np.inf)}, "mixture means must be finite"),
            ({"variances": np.full((2, 3), np.nan)}, "mixture variances must be finite"),
            ({"n_samples": 0}, "n_samples must be at least 1, got 0"),
            ({"n_samples": True}, "n_samples must be int, got bool"),
            ({"n_samples": 10.0}, "n_samples must be int, got float"),
        ],
    )
    def test_field_rejected(self, change, message):
        with pytest.raises(ValidationError, match=message):
            LeafGmm(**{**self.good_kwargs(), **change})


class TestPosteriorScores:
    def fitted(self, seed=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(90, 3)) + (rng.integers(0, 3, size=(90, 1)) * 5.0)
        gmm, _ = fit_gmm(x, 3, seed)
        return gmm, x

    def test_scores_match_brute_force(self):
        gmm, x = self.fitted()
        log_w = np.log(gmm.weights)
        for row in x[:20]:
            scores = posterior_log_scores(row, gmm)
            for k in range(gmm.m):
                expected = log_w[k] + diag_gaussian_log_density(
                    row, gmm.means[k], gmm.variances[k]
                )
                assert scores[k] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_softmax_normalizes(self):
        gmm, x = self.fitted()
        rng = np.random.default_rng(0)
        probes = rng.normal(scale=8.0, size=(200, 3))
        for row in np.concatenate([x, probes], axis=0):
            scores = posterior_log_scores(row, gmm)
            shifted = np.exp(scores - scores.max())
            assert shifted.sum() / shifted.sum() == 1.0
            posterior = shifted / shifted.sum()
            assert abs(posterior.sum() - 1.0) < 1e-9

    def test_assign_matches_argmax(self):
        gmm, _ = self.fitted()
        rng = np.random.default_rng(8)
        probes = rng.normal(scale=6.0, size=(300, 3))
        for row in probes:
            scores = posterior_log_scores(row, gmm)
            assert assign_component(row, gmm) == int(np.argmax(scores))
        # the batched form tagging uses, on (d, n) columns
        np.testing.assert_array_equal(
            gmm.assign(probes.T), [assign_component(row, gmm) for row in probes]
        )

    def test_probe_near_mean_assigned_to_it(self):
        gmm, _ = self.fitted()
        for k in range(gmm.m):
            probe = gmm.means[k] + 0.01
            assert assign_component(probe, gmm) == k

    def test_exact_tie_takes_first(self):
        gmm = LeafGmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [4.0]]),
            variances=np.array([[1.0], [1.0]]),
            n_samples=10,
        )
        assert assign_component(np.array([2.0]), gmm) == 0
        # the same tie inside a batch, beside rows that favor either component
        model = TaggerModel(
            config=TaggerConfig(d=1),
            classes=default_classes(),
            questions=(),
            tree=DecisionTree(nodes=(LeafNode(leaf_index=0),)),
            gmms={"a": gmm},
            growth_trace=GrowthTrace(initial_ll=0.0, num_tokens=10),
        )
        word = WordEntry("w", ("K",), (0,), None)
        batch = [ProsodySample(f"t{i}", "w", np.array([v])) for i, v in enumerate([5.0, 2.0, -1.0])]
        _, components = tag_tokens(model, [word], batch)
        assert components.tolist() == [1, 0, 0]

    def test_dimension_mismatch(self):
        gmm, _ = self.fitted()
        for bad in (np.zeros(5), np.zeros((1, 3))):
            with pytest.raises(DimensionMismatchError):
                posterior_log_scores(bad, gmm)
            with pytest.raises(DimensionMismatchError):
                assign_component(bad, gmm)

    def test_non_finite_embedding_rejected(self):
        gmm, _ = self.fitted()
        for bad in (np.nan, np.inf, -np.inf):
            e = np.array([0.0, bad, 0.0])
            with pytest.raises(ValidationError, match="non-finite"):
                posterior_log_scores(e, gmm)
            with pytest.raises(ValidationError, match="non-finite"):
                assign_component(e, gmm)

    @given(shift=st.floats(-50.0, 50.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_assignment_shift_covariance(self, shift):
        # translating both the mixture and the probe preserves the winner
        base = LeafGmm(
            weights=np.array([0.3, 0.7]),
            means=np.array([[-1.0, 2.0], [3.0, 0.5]]),
            variances=np.array([[0.5, 1.5], [2.0, 0.25]]),
            n_samples=25,
        )
        moved = LeafGmm(
            weights=base.weights.copy(),
            means=base.means + shift,
            variances=base.variances.copy(),
            n_samples=25,
        )
        probe = np.array([0.7, -0.2])
        assert assign_component(probe, base) == assign_component(probe + shift, moved)


class TestCollapseRepair:
    def test_all_mass_on_one_point_cloud(self):
        # heavy duplication invites collapse; the fit must still return a
        # valid mixture with positive weights
        x = np.concatenate([np.zeros((95, 2)), np.ones((5, 2)) * 30.0])
        gmm, trace = fit_gmm(x, 4, 0)
        assert gmm.m == 4
        assert np.all(gmm.weights > 0)
        assert abs(gmm.weights.sum() - 1.0) < 1e-9
        assert_monotone_trace(trace, rel_tol=1e-7)

    def test_reseed_can_end_the_trace_lower(self):
        # the third EM step reseeds two collapsed components and the reseeded
        # parameters score lower: EM stops there, below the trace's maximum
        x = np.array([[-1.0], [-2.0], [0.0], [1.0], [1.0], [-1.0], [2.0]])
        gmm, trace = fit_gmm(x, 7, 25)
        np.testing.assert_allclose(trace, [28.306, 31.067, 31.073, 29.318], atol=1e-3)
        assert trace[-1] < trace[-2]
        total = np.logaddexp.reduce(gmm.log_joint(x.T), axis=0).sum()
        assert total == pytest.approx(trace[-1], rel=1e-9)


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e153, 1e160, 1e300])
    def test_huge_samples_name_the_leaf(self, scale):
        # finite samples whose squared distances or moments overflow float64
        x = np.random.default_rng(2).normal(size=(400, 8)) * scale
        for m in (3, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy RuntimeWarning either
                with pytest.raises(ValidationError, match="^leaf 'q': samples too large in magnitude"):
                    fit_gmm(x, m, 0, leaf="q")

    def test_one_component_needs_only_its_moments_in_range(self):
        # each column's sum of squares just below float64's limit: the
        # k-means inertia, summed over the columns too, would overflow
        x = np.random.default_rng(2).normal(size=(400, 8))
        x *= np.sqrt(1.2e308 / (x * x).sum(axis=0))
        gmm, trace = fit_gmm(x, 1, 0, leaf="q")
        assert np.isfinite(gmm.variances).all() and np.isfinite(trace).all()


class TestNumericKernels:
    """The private kernels against the computations they stand in for."""

    def test_logsumexp_matches_scipy_bitwise(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5)
        for _ in range(500):
            n, m = int(rng.integers(1, 20)), int(rng.integers(1, 13))
            a = rng.normal(scale=float(rng.choice([0.5, 30.0, 800.0])), size=(n, m))
            if rng.random() < 0.5:
                a[:, rng.integers(m)] = a.max(axis=1)  # a tied row maximum
            if rng.random() < 0.3:
                a = np.round(a)  # many ties, including whole tied rows
            if rng.random() < 0.1:
                a[rng.integers(n)] = -np.inf
            np.testing.assert_array_equal(
                gmm_module._logsumexp_columns(np.ascontiguousarray(a.T)),
                special.logsumexp(a, axis=1),
            )

    def test_cli_import_leaves_out_scipy(self):
        code = "import sys, prosotag.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @staticmethod
    def check_sq_distances(seed, n, m, d, scaled):
        rng = np.random.default_rng(seed)
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        x = rng.normal(scale=scale, size=(n, d))
        centers = rng.normal(scale=scale, size=(m, d))
        variances = rng.uniform(1e-6, 10.0, size=(m, d)) if scaled else None
        out = gmm_module._sq_distances(gmm_module._columns(x), centers, variances)
        assert out.shape == (m, n)
        np.testing.assert_array_equal(out.T, broadcast_sq_distances(x, centers, variances))
        if not scaled:
            # the per-centre form k-means++ seeding used
            np.testing.assert_array_equal(out[0], ((x - centers[0]) ** 2).sum(axis=1))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        m=st.integers(1, 8),
        d=st.integers(1, 64),
        scaled=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sq_distances_match_broadcast_bitwise(self, seed, n, m, d, scaled):
        self.check_sq_distances(seed, n, m, d, scaled)

    # numpy's pairwise summation changes form at 8 and past 128 terms
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 127, 128, 129, 200, 257])
    @pytest.mark.parametrize("n", [1, 2, 500])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_sq_distances_match_broadcast_at_order_edges(self, d, n, scaled):
        self.check_sq_distances(d * 1000 + n, n, 3, d, scaled)

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 12), n=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_first_index_matches_argmin_and_argmax(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = np.round(rng.normal(scale=2.0, size=(m, n)))  # many ties
        if rng.random() < 0.3:
            a[rng.integers(m)] = rng.choice([-np.inf, np.inf])
        np.testing.assert_array_equal(gmm_module._first_index_of(a, a.min(axis=0)), np.argmin(a, axis=0))
        np.testing.assert_array_equal(gmm_module._first_index_of(a, a.max(axis=0)), np.argmax(a, axis=0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_kmeans_early_exit_is_exact(self, seed):
        def ten_sweeps(x, m, rng):
            centers, _ = gmm_module._kmeans_plus_plus(x, x.T, m, rng)
            for _ in range(gmm_module.KMEANS_SWEEPS):
                labels = np.argmin(broadcast_sq_distances(x, centers), axis=1)
                for k in range(m):
                    member = labels == k
                    if member.any():
                        centers[k] = x[member].mean(axis=0)
            dist = broadcast_sq_distances(x, centers)
            return centers, np.argmin(dist, axis=1), float(dist.min(axis=1).sum())

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(2, 120)), int(rng.integers(1, 5))))
        if rng.random() < 0.3:
            x = np.round(x)  # duplicate points and empty clusters
        m = int(rng.integers(1, min(6, x.shape[0]) + 1))
        xt = gmm_module._columns(x)
        centers, labels, inertia = gmm_module._run_kmeans(x, xt, m, np.random.default_rng(seed))
        ref_centers, ref_labels, ref_inertia = ten_sweeps(x, m, np.random.default_rng(seed))
        np.testing.assert_array_equal(centers, ref_centers)
        np.testing.assert_array_equal(labels, ref_labels)
        assert inertia == ref_inertia


def probabilities(n):
    """A k-means++-like weight vector over n points: skewed, with zeros."""
    w = np.random.default_rng(n).random(n) ** 4
    w[1::7] = 0.0
    return w / w.sum()


# Lemire on 32 bits below 2**32, the raw 32-bit draw at 2**32, Lemire on 64
# bits above; 2**31 + 1 and 3 * 2**61 reject about half and an eighth of draws
PCG_SIZES = [1, 2, 3, 3_000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5, 3 * 2**61, 2**63]
PCG_CALLS = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from(PCG_SIZES), st.none() | st.integers(0, 6)),
    st.tuples(st.just("choice"), st.sampled_from([1, 2, 3, 3_000]), st.integers(0, 6)),
)


class TestPcg64:
    """``gmm._Pcg64`` against ``np.random.default_rng``, the oracle."""

    def check_calls(self, seed, calls):
        ours, oracle = gmm_module._Pcg64(seed), np.random.default_rng(seed)
        for method, n, size in calls:
            if method == "choice":
                p = probabilities(n)
                got, want = ours.choice(n, size=size, p=p), oracle.choice(n, size=size, p=p)
            else:
                got, want = ours.integers(n, size=size), oracle.integers(n, size=size)
            if size is None:
                assert type(got) is int and got == want
            else:
                assert got.dtype == np.int64 and got.shape == (size,)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64, 2**200])
    @pytest.mark.parametrize("n", PCG_SIZES)
    def test_interleaved_calls_match(self, seed, n):
        calls = [("integers", n, None), ("choice", 3_000, 3), ("integers", n, 5),
                 ("integers", n, None), ("choice", 2, 1), ("integers", n, 4)] * 3
        self.check_calls(seed, calls)

    @given(seed=st.integers(0, 2**256), calls=st.lists(PCG_CALLS, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_seed_and_calls_match(self, seed, calls):
        self.check_calls(seed, calls)

    @pytest.mark.parametrize(
        "p", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.5, 0.5, 0.1]], ids=["negative", "nan", "sum"]
    )
    def test_choice_refuses_what_numpy_refuses(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=2, p=p)
        with pytest.raises(ValueError):
            gmm_module._Pcg64(0).choice(3, size=2, p=p)

    @given(seed=st.integers(0, 2**70), n=st.integers(2, 150), d=st.integers(1, 4), m=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_kmeans_matches_under_both_generators(self, seed, n, d, m):
        x = np.round(np.random.default_rng(n * d).normal(scale=3.0, size=(n, d)), 1)
        xt = gmm_module._columns(x)
        m = min(m, n)
        ours = gmm_module._run_kmeans(x, xt, m, gmm_module._Pcg64(seed))
        want = gmm_module._run_kmeans(x, xt, m, np.random.default_rng(seed))
        np.testing.assert_array_equal(ours[0], want[0])
        np.testing.assert_array_equal(ours[1], want[1])
        assert ours[2] == want[2]


class TestBoundedMemory:
    """Fitting and tagging allocate less than one (n, m, d) float64 array."""

    N, M, D = 20_000, 8, 32
    LIMIT = N * M * D * 8

    def data(self):
        rng = np.random.default_rng(0)
        offsets = rng.normal(scale=6.0, size=(self.M, self.D))
        return offsets[rng.integers(self.M, size=self.N)] + rng.normal(size=(self.N, self.D))

    def peak_bytes(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fit_gmm_peak(self):
        x = self.data()
        assert self.peak_bytes(fit_gmm, x, self.M, 0) < self.LIMIT

    def test_tag_tokens_peak(self):
        x = self.data()
        rng = np.random.default_rng(1)
        gmm = LeafGmm(
            weights=np.full(self.M, 1.0 / self.M),
            means=rng.normal(scale=6.0, size=(self.M, self.D)),
            variances=rng.uniform(0.5, 2.0, size=(self.M, self.D)),
            n_samples=self.N,
        )
        model = TaggerModel(
            config=TaggerConfig(d=self.D),
            classes=default_classes(),
            questions=(),
            tree=DecisionTree(nodes=(LeafNode(leaf_index=0),)),
            gmms={"a": gmm},
            growth_trace=GrowthTrace(initial_ll=0.0, num_tokens=self.N),
        )
        corpus = Corpus(
            [f"t{i}" for i in range(self.N)], ["w"], np.zeros(self.N, dtype=np.int32), x
        )
        word = WordEntry("w", ("K",), (0,), None)
        assert self.peak_bytes(tag_tokens, model, [word], corpus) < self.LIMIT
