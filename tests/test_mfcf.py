import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsstgnn import filtering
from fsstgnn.errors import DefinitenessError, ParameterError, ShapeError
from fsstgnn.filtering import (
    PRECISION_ZERO_TOL,
    FilterConfig,
    _ensure_pd,
    has_perfect_elimination_ordering,
    mfcf,
    mfcf_stack,
)
from fsstgnn.linalg import CorrelationMatrix, PrecisionMatrix, correlation_from_rows, invert_spd
from fsstgnn.pipeline import ExperimentConfig, _filter_panel

from _oracles import make_panel, mfcf_insertion_reference, random_correlation, shrink_reference


def tmfg_config(threshold=0.0):
    return FilterConfig(method="mfcf", max_clique=4, mfcf_gain_threshold=threshold)


class TestTmfgStructure:
    def test_single_clique_at_n4(self):
        corr = random_correlation(np.random.default_rng(0), 4)
        result = mfcf(corr, tmfg_config())
        assert len(result.forest.cliques) == 1
        assert result.forest.separators == ()
        assert result.sparsity == 0.0
        assert np.abs(result.precision.entries - invert_spd(corr.entries)).max() < 1e-10

    @pytest.mark.parametrize("n", [10, 20])
    def test_planar_edge_count(self, n):
        corr = random_correlation(np.random.default_rng(n), n)
        result = mfcf(corr, tmfg_config())
        edges = result.forest.edge_pairs()
        assert len(edges) == 3 * n - 6
        assert result.sparsity == pytest.approx(1.0 - 2 * (3 * n - 6) / (n * (n - 1)))

    @pytest.mark.parametrize("n", [10, 20])
    def test_clique_and_separator_counts(self, n):
        corr = random_correlation(np.random.default_rng(100 + n), n)
        result = mfcf(corr, tmfg_config())
        assert len(result.forest.cliques) == n - 3
        assert all(len(c) == 4 for c in result.forest.cliques)
        assert len(result.forest.separators) == n - 4
        assert all(len(s) == 3 and m == 1 for s, m in result.forest.separators)
        assert len(result.forest.insertion_log) == n - 4

    @pytest.mark.parametrize("n", [10, 20])
    def test_chordal(self, n):
        corr = random_correlation(np.random.default_rng(200 + n), n)
        result = mfcf(corr, tmfg_config())
        adjacency = result.forest.adjacency()
        assert has_perfect_elimination_ordering(adjacency)
        # independent cross-check
        assert nx.is_chordal(nx.from_numpy_array(adjacency.astype(int)))

    def test_forest_invariants_validate(self):
        corr = random_correlation(np.random.default_rng(5), 12)
        result = mfcf(corr, tmfg_config())
        result.forest.validate()

    def test_precision_positive_definite(self):
        corr = random_correlation(np.random.default_rng(6), 15)
        result = mfcf(corr, tmfg_config())
        assert np.linalg.eigvalsh(result.precision.entries).min() > 0.0

    def test_pattern_equals_forest_edges(self):
        corr = random_correlation(np.random.default_rng(7), 12)
        result = mfcf(corr, tmfg_config())
        rows, cols = np.nonzero(result.precision.entries)
        pattern_pairs = {(min(i, j), max(i, j)) for i, j in zip(rows.tolist(), cols.tolist()) if i != j}
        assert pattern_pairs == result.forest.edge_pairs()

    def test_logo_consistency(self):
        # the inverse of the assembled precision reproduces the input
        # correlation on every within-clique pair
        corr = random_correlation(np.random.default_rng(8), 14)
        result = mfcf(corr, tmfg_config())
        back = invert_spd(result.precision.entries)
        for clique in result.forest.cliques:
            for i in clique:
                for j in clique:
                    assert abs(back[i, j] - corr.entries[i, j]) < 1e-6

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(9), 10)
        result = mfcf(corr, tmfg_config())
        back = invert_spd(result.precision.entries)
        assert np.abs(back - result.correlation.entries).max() < 1e-6

    def test_too_few_nodes(self):
        corr = random_correlation(np.random.default_rng(10), 3)
        with pytest.raises(ParameterError):
            mfcf(corr, tmfg_config())


class TestGainThreshold:
    def _block_diagonal_corr(self):
        # two independent 5-series blocks; block A slightly stronger so the
        # seed clique lands inside it
        rng = np.random.default_rng(11)
        factor_a = rng.normal(size=(400, 1))
        factor_b = rng.normal(size=(400, 1))
        block_a = 0.9 * factor_a + 0.25 * rng.normal(size=(400, 5))
        block_b = 0.8 * factor_b + 0.45 * rng.normal(size=(400, 5))
        values = np.hstack([block_a, block_b])
        from fsstgnn.linalg import correlation_from_rows

        entries = correlation_from_rows(values).entries.copy()
        entries[:5, 5:] = 0.0
        entries[5:, :5] = 0.0
        return CorrelationMatrix.from_entries(entries)

    def test_no_cross_block_edges(self):
        corr = self._block_diagonal_corr()
        result = mfcf(corr, tmfg_config(threshold=0.01))
        for i, j in zip(*np.nonzero(result.precision.entries)):
            assert (i < 5) == (j < 5), f"cross-block edge ({i}, {j})"

    def test_threshold_increases_sparsity(self):
        corr = random_correlation(np.random.default_rng(12), 12, rows=40)
        sparsities = [
            mfcf(corr, tmfg_config(threshold=t)).sparsity
            for t in (0.0, 0.05, 0.2, 0.5)
        ]
        assert sparsities == sorted(sparsities)
        assert sparsities[-1] > sparsities[0]

    def test_threshold_keeps_chordality_and_pd(self):
        corr = random_correlation(np.random.default_rng(13), 12, rows=40)
        for t in (0.05, 0.2, 0.5):
            result = mfcf(corr, tmfg_config(threshold=t))
            assert has_perfect_elimination_ordering(result.forest.adjacency())
            assert np.linalg.eigvalsh(result.precision.entries).min() > 0.0
            result.forest.validate()


@st.composite
def correlations(draw, n=None):
    """Correlations of 5-40 rows of 4-15 series (or of ``n`` series;
    singular when there are fewer rows than series), with exact ties from
    equicorrelation, duplicated columns and small-integer data with
    constant columns."""
    n = draw(st.integers(4, 15)) if n is None else n
    rows = draw(st.integers(5, 40))
    kind = draw(st.sampled_from(["normal", "equicorrelated", "duplicated", "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equicorrelated":
        rho = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        return CorrelationMatrix.from_entries((1.0 - rho) * np.eye(n) + rho * np.ones((n, n)))
    if kind == "integer":
        return correlation_from_rows(rng.integers(0, 3, size=(rows, n)))
    x = rng.normal(size=(rows, n))
    if kind == "duplicated":
        x[:, n - n // 2:] = x[:, : n // 2]
    return correlation_from_rows(x)


class TestAgainstFaceByFaceReference:
    @given(corr=correlations(), threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    def test_same_forest_and_precision(self, corr, threshold):
        result = mfcf(corr, tmfg_config(threshold))
        entries, jitter = _ensure_pd(corr.entries)
        cliques, separators, log = mfcf_insertion_reference(entries, 4, threshold)
        assert result.jitter == jitter
        assert list(result.forest.cliques) == cliques
        assert result.forest.separators == tuple(sorted(separators.items()))
        assert [tuple(step) for step in result.forest.insertion_log] == log

        joint = np.zeros_like(entries)
        for clique in cliques:
            joint[np.ix_(clique, clique)] += invert_spd(entries[np.ix_(clique, clique)])
        for sep, mult in separators.items():
            joint[np.ix_(sep, sep)] -= mult * invert_spd(entries[np.ix_(sep, sep)])
        expected = PrecisionMatrix.from_entries(joint, zero_tol=PRECISION_ZERO_TOL).entries
        assert np.abs(result.precision.entries - expected).max() <= 1e-12 * np.abs(expected).max()
        assert result.sparsity == 1.0 - (np.count_nonzero(expected) - corr.n) / (corr.n * (corr.n - 1))


@st.composite
def correlation_batches(draw):
    """1-5 correlations of one size, drawn from ``correlations``."""
    n = draw(st.integers(4, 15))
    return draw(st.lists(correlations(n), min_size=1, max_size=5))


def assert_matches_reference(result, corr, threshold):
    """The checks of TestAgainstFaceByFaceReference on one result, with the
    precision bitwise equal to the blocks added up one at a time in the
    documented order: cliques in insertion order, then separators in
    sorted order, grouped by block size in order of first appearance."""
    entries, jitter = _ensure_pd(corr.entries)
    cliques, separators, log = mfcf_insertion_reference(entries, 4, threshold)
    assert result.jitter == jitter
    assert list(result.forest.cliques) == cliques
    assert result.forest.separators == tuple(sorted(separators.items()))
    assert [tuple(step) for step in result.forest.insertion_log] == log

    signed = [(c, 1.0) for c in cliques] + [(s, -float(m)) for s, m in sorted(separators.items())]
    joint = np.zeros_like(entries)
    for size in dict.fromkeys(len(block) for block, _ in signed):
        for block, weight in signed:
            if len(block) == size:
                joint[np.ix_(block, block)] += weight * invert_spd(entries[np.ix_(block, block)])
    expected = PrecisionMatrix.from_entries(joint, zero_tol=PRECISION_ZERO_TOL)
    assert np.array_equal(result.precision.entries, expected.entries)
    assert np.array_equal(result.correlation.entries,
                          CorrelationMatrix.from_entries(expected.inverse()).entries)
    assert result.sparsity == 1.0 - (np.count_nonzero(expected.entries) - corr.n) / (corr.n * (corr.n - 1))


def assert_same_outcome(got, want):
    """Bitwise the same FilterResult, or the same error."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.forest == want.forest
    assert (got.jitter, got.sparsity) == (want.jitter, want.sparsity)
    assert np.array_equal(got.precision.entries, want.precision.entries)
    assert np.array_equal(got.correlation.entries, want.correlation.entries)


class TestMfcfStack:
    @given(batch=correlation_batches(), threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    def test_every_window_matches_the_reference(self, batch, threshold):
        for corr, result in zip(batch, mfcf_stack(batch, tmfg_config(threshold))):
            assert_matches_reference(result, corr, threshold)

    @given(batch=correlation_batches(), threshold=st.sampled_from([0.0, 0.05, 0.5]))
    def test_a_window_is_the_same_alone_and_in_any_batch(self, batch, threshold):
        config = tmfg_config(threshold)
        together = mfcf_stack(batch, config)
        backwards = mfcf_stack(batch[::-1], config)[::-1]
        for corr, in_batch, reversed_batch in zip(batch, together, backwards):
            alone = mfcf_stack([corr], config)[0]
            assert_same_outcome(in_batch, alone)
            assert_same_outcome(reversed_batch, alone)

    def test_jittered_window_inside_a_batch(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 6))
        x[:, 5] = x[:, 0]                   # a repeated column leaves it singular
        singular = correlation_from_rows(x)
        assert _ensure_pd(singular.entries)[1] > 0.0
        batch = [random_correlation(rng, 6), singular, random_correlation(rng, 6)]
        results = mfcf_stack(batch, tmfg_config())
        assert results[1].jitter > 0.0 and results[0].jitter == results[2].jitter == 0.0
        assert_matches_reference(results[1], singular, 0.0)
        for corr, result in zip(batch, results):
            assert_same_outcome(result, mfcf(corr, tmfg_config()))

    def test_chunked_batch_equals_one_batch(self, monkeypatch):
        corrs = [random_correlation(np.random.default_rng(40 + k), 7, rows=12) for k in range(5)]
        whole = mfcf_stack(corrs, tmfg_config(0.05))
        monkeypatch.setattr(filtering, "MFCF_LOOKUP_LIMIT", 1)
        for got, want in zip(mfcf_stack(corrs, tmfg_config(0.05)), whole):
            assert_same_outcome(got, want)

    def test_window_whose_precision_is_not_pd_fails_alone(self, monkeypatch):
        values = 50.0 + np.random.default_rng(22).normal(size=(40, 6)).cumsum(axis=0)
        config = ExperimentConfig(model="fsst-gcn", lookback=10, seeds=(0,))
        corrs = [correlation_from_rows(values[t - 10: t]) for t in range(10, 40)]
        want, want_panel = mfcf_stack(corrs, tmfg_config()), _filter_panel(make_panel(values), config,
                                                                            tmfg_config())
        assemble = filtering._assemble

        def first_window_not_pd(entries, *args):
            joint = assemble(entries, *args)
            joint[0] = -joint[0]
            return joint

        monkeypatch.setattr(filtering, "_assemble", first_window_not_pd)
        got = mfcf_stack(corrs, tmfg_config())
        assert isinstance(got[0], DefinitenessError)
        for outcome, expected in zip(got[1:], want[1:]):
            assert_same_outcome(outcome, expected)
        # the pipeline gives that window the empirical filter and counts it
        got_panel = _filter_panel(make_panel(values), config, tmfg_config())
        assert (got_panel.fallbacks, want_panel.fallbacks) == (1, 0)
        fallback = shrink_reference(corrs[0])
        assert np.array_equal(got_panel.precision[0], fallback.precision.entries)
        assert np.array_equal(got_panel.correlation[0], fallback.correlation.entries)
        assert got_panel.sparsity[0] == fallback.sparsity
        for name in ("correlation", "precision", "sparsity"):
            assert np.array_equal(getattr(got_panel, name)[1:], getattr(want_panel, name)[1:]), name

    def test_mixed_sizes_and_empty_batch(self):
        assert mfcf_stack([], tmfg_config()) == []
        with pytest.raises(ShapeError):
            mfcf_stack([random_correlation(np.random.default_rng(1), n) for n in (5, 6)], tmfg_config())


class TestChordalityCheck:
    def test_known_graphs(self):
        complete = np.ones((5, 5), dtype=bool)
        assert has_perfect_elimination_ordering(complete)
        tree = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 1), (1, 2), (1, 3)]:
            tree[i, j] = tree[j, i] = True
        assert has_perfect_elimination_ordering(tree)
        cycle4 = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            cycle4[i, j] = cycle4[j, i] = True
        assert not has_perfect_elimination_ordering(cycle4)

    def test_agrees_with_networkx(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = 8
            adj = rng.random((n, n)) < 0.35
            adj = adj | adj.T
            np.fill_diagonal(adj, False)
            expected = nx.is_chordal(nx.from_numpy_array(adj.astype(int)))
            assert has_perfect_elimination_ordering(adj) == expected
