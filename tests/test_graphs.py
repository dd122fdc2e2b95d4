import numpy as np
import pytest

from fsstgnn.errors import ParameterError
from fsstgnn.filtering import FilterConfig, apply_filter, glasso, mfcf, sparsity
from fsstgnn.graphs import benchmark_graph, from_filter_result
from fsstgnn.linalg import correlation_from_rows

from _oracles import random_correlation


class TestBenchmarkGraphs:
    def test_identity(self):
        graph = benchmark_graph(3, "identity")
        assert np.array_equal(graph, np.eye(3))
        assert sparsity(graph) == 1.0

    def test_ones(self):
        graph = benchmark_graph(3, "ones")
        assert np.all(graph == 1.0)
        assert sparsity(graph) == 0.0

    def test_zeros(self):
        graph = benchmark_graph(3, "zeros")
        assert np.all(graph == 0.0)
        assert sparsity(graph) == 1.0
        # convolution with zero weights aggregates nothing
        agg = graph @ np.ones((3, 2))
        assert np.all(agg == 0.0)

    def test_bad_kind_and_size(self):
        with pytest.raises(ParameterError):
            benchmark_graph(3, "ring")
        with pytest.raises(ParameterError):
            benchmark_graph(0, "ones")


class TestFromFilterResult:
    def test_dense_shrunk_correlation_has_full_mask(self):
        corr = random_correlation(np.random.default_rng(0), 6)
        graph = from_filter_result(apply_filter(corr, FilterConfig(method="shrinkage", alpha=0.4)), "correlation")
        assert np.all(graph != 0.0)
        assert np.all(np.diag(graph) == 1.0)

    def test_tmfg_mask_cardinality(self):
        corr = random_correlation(np.random.default_rng(1), 10)
        result = mfcf(corr, FilterConfig(method="mfcf"))
        graph = from_filter_result(result, "inverse-correlation")
        assert np.count_nonzero(graph) - 10 == 48      # 2 * (3n - 6) off the diagonal

    def test_glasso_screening_gives_identity_mask(self):
        corr = random_correlation(np.random.default_rng(2), 6)
        lam = np.abs(corr.entries - np.eye(6)).max() + 1e-6
        graph = from_filter_result(glasso(corr, lam), "inverse-correlation")
        assert np.array_equal(graph != 0.0, np.eye(6, dtype=bool))

    def test_mask_cardinality_tracks_sparsity(self):
        corr = random_correlation(np.random.default_rng(3), 8, rows=30)
        for lam in (0.05, 0.15, 0.4):
            result = glasso(corr, lam)
            graph = from_filter_result(result, "inverse-correlation")
            assert np.count_nonzero(np.diag(graph)) == 8
            density = (np.count_nonzero(graph) - 8) / (8 * 7)
            assert density == pytest.approx(1.0 - result.sparsity)

    def test_negative_weights_pass_through(self):
        corr = random_correlation(np.random.default_rng(4), 6, rows=25)
        result = glasso(corr, 0.02)
        graph = from_filter_result(result, "inverse-correlation")
        assert (graph < 0.0).any()
        assert np.array_equal(graph, result.precision)

    def test_rejects_benchmark_kinds(self):
        corr = random_correlation(np.random.default_rng(5), 6)
        with pytest.raises(ParameterError):
            from_filter_result(apply_filter(corr, FilterConfig(method="shrinkage", alpha=0.2)), "ones")


class TestPermutationEquivariance:
    def test_filtering_commutes_with_column_permutation(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(60, 8))
        perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
        base = from_filter_result(
            mfcf(correlation_from_rows(rows), FilterConfig(method="mfcf")),
            "inverse-correlation",
        )
        permuted = from_filter_result(
            mfcf(correlation_from_rows(rows[:, perm]), FilterConfig(method="mfcf")),
            "inverse-correlation",
        )
        idx = np.ix_(perm, perm)
        assert np.array_equal(permuted != 0.0, base[idx] != 0.0)
        assert np.abs(permuted - base[idx]).max() < 1e-9

    def test_shrinkage_is_equivariant(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(40, 6))
        perm = np.array([3, 0, 5, 1, 4, 2])
        config = FilterConfig(method="shrinkage", alpha=0.3)
        base = from_filter_result(apply_filter(correlation_from_rows(rows), config), "correlation")
        permuted = from_filter_result(apply_filter(correlation_from_rows(rows[:, perm]), config),
                                      "correlation")
        assert np.abs(permuted - base[np.ix_(perm, perm)]).max() < 1e-12

