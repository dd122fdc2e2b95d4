import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsstgnn import filtering
from fsstgnn.errors import DefinitenessError, ParameterError, ShapeError
from fsstgnn.filtering import PRECISION_ZERO_TOL, FilterConfig, mfcf, mfcf_stack
from fsstgnn.linalg import TimeSeriesPanel, correlation_from_rows, invert_spd
from fsstgnn.pipeline import ExperimentConfig, _filter_panels

from _oracles import (
    corr_of,
    ensure_pd_reference,
    has_perfect_elimination_ordering,
    mfcf_insertion_reference,
    outcome_row,
    precision_of,
    random_correlation,
    record_row,
    shrink_reference,
    stack_of,
)


def tmfg_config(threshold=0.0):
    return FilterConfig(method="mfcf", max_clique=4, mfcf_gain_threshold=threshold)


def reference_forest(corr, threshold=0.0):
    """The face-by-face reference build of ``corr`` made positive definite:
    (cliques, separator multiplicities, insertion log)."""
    return mfcf_insertion_reference(ensure_pd_reference(corr.entries)[0], 4, threshold)


def clique_pairs(cliques) -> set:
    """Undirected edges (i < j) covered by the cliques."""
    return {pair for clique in cliques for pair in itertools.combinations(sorted(clique), 2)}


def support_pairs(precision) -> set:
    """Undirected edges (i < j) of the nonzero off-diagonal precision entries."""
    rows, cols = np.nonzero(np.triu(precision, 1))
    return set(zip(rows.tolist(), cols.tolist()))


def support_adjacency(precision) -> np.ndarray:
    adjacency = precision != 0.0
    np.fill_diagonal(adjacency, False)
    return adjacency


class TestTmfgStructure:
    def test_single_clique_at_n4(self):
        corr = random_correlation(np.random.default_rng(0), 4)
        result = mfcf(corr, tmfg_config())
        cliques, separators, _ = reference_forest(corr)
        assert (cliques, separators) == ([(0, 1, 2, 3)], {})
        assert result.sparsity == 0.0
        assert np.abs(result.precision - invert_spd(corr.entries)).max() < 1e-10

    @pytest.mark.parametrize("n", [10, 20])
    def test_planar_edge_count(self, n):
        corr = random_correlation(np.random.default_rng(n), n)
        result = mfcf(corr, tmfg_config())
        edges = support_pairs(result.precision)
        assert len(edges) == 3 * n - 6
        assert result.sparsity == pytest.approx(1.0 - 2 * (3 * n - 6) / (n * (n - 1)))

    @pytest.mark.parametrize("n", [10, 20])
    def test_clique_and_separator_counts(self, n):
        corr = random_correlation(np.random.default_rng(100 + n), n)
        cliques, separators, log = reference_forest(corr)
        assert len(cliques) == n - 3
        assert all(len(c) == 4 for c in cliques)
        assert len(separators) == n - 4
        assert all(len(s) == 3 and m == 1 for s, m in separators.items())
        assert len(log) == n - 4
        # and the filter assembles its precision from exactly these blocks
        assert_matches_reference(mfcf_stack(corr.entries[None], tmfg_config()), 0, corr, 0.0)

    @pytest.mark.parametrize("n", [10, 20])
    def test_chordal(self, n):
        corr = random_correlation(np.random.default_rng(200 + n), n)
        result = mfcf(corr, tmfg_config())
        adjacency = support_adjacency(result.precision)
        assert has_perfect_elimination_ordering(adjacency)
        # independent cross-check
        assert nx.is_chordal(nx.from_numpy_array(adjacency.astype(int)))

    def test_forest_invariants_validate(self):
        # the precision's support is the chordal edge union of the
        # reference's cliques, and each separator joins at least two cliques
        corr = random_correlation(np.random.default_rng(5), 12)
        result = mfcf(corr, tmfg_config())
        cliques, separators, _ = reference_forest(corr)
        assert support_pairs(result.precision) == clique_pairs(cliques)
        assert has_perfect_elimination_ordering(support_adjacency(result.precision))
        for separator in separators:
            assert sum(1 for clique in cliques if set(separator) <= set(clique)) >= 2

    def test_precision_positive_definite(self):
        corr = random_correlation(np.random.default_rng(6), 15)
        result = mfcf(corr, tmfg_config())
        assert np.linalg.eigvalsh(result.precision).min() > 0.0

    def test_pattern_equals_forest_edges(self):
        corr = random_correlation(np.random.default_rng(7), 12)
        result = mfcf(corr, tmfg_config())
        assert support_pairs(result.precision) == clique_pairs(reference_forest(corr)[0])

    def test_logo_consistency(self):
        # the inverse of the assembled precision reproduces the input
        # correlation on every within-clique pair
        corr = random_correlation(np.random.default_rng(8), 14)
        result = mfcf(corr, tmfg_config())
        back = invert_spd(result.precision)
        for clique in reference_forest(corr)[0]:
            for i in clique:
                for j in clique:
                    assert abs(back[i, j] - corr.entries[i, j]) < 1e-6

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(9), 10)
        result = mfcf(corr, tmfg_config())
        back = invert_spd(result.precision)
        assert np.abs(back - result.correlation).max() < 1e-6

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
        return corr_of(entries)

    def test_no_cross_block_edges(self):
        corr = self._block_diagonal_corr()
        result = mfcf(corr, tmfg_config(threshold=0.01))
        for i, j in zip(*np.nonzero(result.precision)):
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
            assert has_perfect_elimination_ordering(support_adjacency(result.precision))
            assert np.linalg.eigvalsh(result.precision).min() > 0.0
            assert support_pairs(result.precision) == clique_pairs(reference_forest(corr, t)[0])


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
        return corr_of((1.0 - rho) * np.eye(n) + rho * np.ones((n, n)))
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
        entries, jitter = ensure_pd_reference(corr.entries)
        cliques, separators, _ = mfcf_insertion_reference(entries, 4, threshold)
        assert result.jitter == jitter
        # the precision is supported on the edge union of the reference's
        # cliques; on degenerate windows some of its entries cancel to zero
        assert support_pairs(result.precision) <= clique_pairs(cliques)

        joint = np.zeros_like(entries)
        for clique in cliques:
            joint[np.ix_(clique, clique)] += invert_spd(entries[np.ix_(clique, clique)])
        for sep, mult in separators.items():
            joint[np.ix_(sep, sep)] -= mult * invert_spd(entries[np.ix_(sep, sep)])
        expected = precision_of(joint, zero_tol=PRECISION_ZERO_TOL)
        assert np.abs(result.precision - expected).max() <= 1e-12 * np.abs(expected).max()
        assert result.sparsity == 1.0 - (np.count_nonzero(expected) - corr.n) / (corr.n * (corr.n - 1))


@st.composite
def correlation_batches(draw):
    """1-5 correlations of one size, drawn from ``correlations``."""
    n = draw(st.integers(4, 15))
    return draw(st.lists(correlations(n), min_size=1, max_size=5))


def assert_matches_reference(record, k, corr, threshold):
    """Row ``k`` of an MFCF record against the face-by-face reference: the
    same jitter, a support within the edge union of the reference's
    cliques, and the precision bitwise equal to the blocks added up one at
    a time in the documented order: cliques in insertion order, then
    separators in sorted order, grouped by block size in order of first
    appearance."""
    entries, jitter = ensure_pd_reference(corr.entries)
    cliques, separators, _ = mfcf_insertion_reference(entries, 4, threshold)
    assert k not in record.errors and record.jitter[k] == jitter
    assert support_pairs(record.precision[k]) <= clique_pairs(cliques)

    signed = [(c, 1.0) for c in cliques] + [(s, -float(m)) for s, m in sorted(separators.items())]
    joint = np.zeros_like(entries)
    for size in dict.fromkeys(len(block) for block, _ in signed):
        for block, weight in signed:
            if len(block) == size:
                joint[np.ix_(block, block)] += weight * invert_spd(entries[np.ix_(block, block)])
    expected = precision_of(joint, zero_tol=PRECISION_ZERO_TOL)
    assert np.array_equal(record.precision[k], expected)
    assert np.array_equal(record.correlation[k], corr_of(invert_spd(expected)).entries)
    assert record.sparsity[k] == 1.0 - (np.count_nonzero(expected) - corr.n) / (corr.n * (corr.n - 1))


class TestMfcfStack:
    @given(batch=correlation_batches(), threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    def test_every_window_matches_the_reference(self, batch, threshold):
        record = mfcf_stack(stack_of(batch), tmfg_config(threshold))
        for k, corr in enumerate(batch):
            assert_matches_reference(record, k, corr, threshold)

    @given(batch=correlation_batches(), threshold=st.sampled_from([0.0, 0.05, 0.5]))
    def test_a_window_is_the_same_alone_and_in_any_batch(self, batch, threshold):
        config = tmfg_config(threshold)
        together = mfcf_stack(stack_of(batch), config)
        backwards = mfcf_stack(stack_of(batch[::-1]), config)
        last = len(batch) - 1
        for k, corr in enumerate(batch):
            alone = record_row(mfcf_stack(corr.entries[None], config), 0)
            assert record_row(together, k) == alone
            assert record_row(backwards, last - k) == alone

    def test_jittered_window_inside_a_batch(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 6))
        x[:, 5] = x[:, 0]                   # a repeated column leaves it singular
        singular = correlation_from_rows(x)
        assert ensure_pd_reference(singular.entries)[1] > 0.0
        batch = [random_correlation(rng, 6), singular, random_correlation(rng, 6)]
        record = mfcf_stack(stack_of(batch), tmfg_config())
        assert record.jitter[1] > 0.0 and record.jitter[0] == record.jitter[2] == 0.0
        assert_matches_reference(record, 1, singular, 0.0)
        for k, corr in enumerate(batch):
            assert record_row(record, k) == outcome_row(mfcf(corr, tmfg_config()))

    def test_chunked_batch_equals_one_batch(self, monkeypatch):
        corrs = stack_of([random_correlation(np.random.default_rng(40 + k), 7, rows=12) for k in range(5)])
        whole = mfcf_stack(corrs, tmfg_config(0.05))
        monkeypatch.setattr(filtering, "MFCF_LOOKUP_LIMIT", 1)
        chunked = mfcf_stack(corrs, tmfg_config(0.05))
        for k in range(5):
            assert record_row(chunked, k) == record_row(whole, k)

    def test_window_whose_precision_is_not_pd_fails_alone(self, monkeypatch):
        values = 50.0 + np.random.default_rng(22).normal(size=(40, 6)).cumsum(axis=0)
        config = ExperimentConfig(model="fsst-gcn", filter=tmfg_config(), lookback=10, seeds=(0,))
        corrs = [correlation_from_rows(values[t - 10: t]) for t in range(10, 40)]
        want = mfcf_stack(stack_of(corrs), tmfg_config())
        (want_panel,) = _filter_panels([TimeSeriesPanel(values)], config)
        assemble = filtering._assemble

        def first_window_not_pd(entries, *args):
            joint = assemble(entries, *args)
            joint[0] = -joint[0]
            return joint

        monkeypatch.setattr(filtering, "_assemble", first_window_not_pd)
        got = mfcf_stack(stack_of(corrs), tmfg_config())
        assert list(got.errors) == [0] and isinstance(got.errors[0], DefinitenessError)
        assert not got.precision[0].any() and not got.correlation[0].any() and got.sparsity[0] == 0.0
        for k in range(1, len(corrs)):
            assert record_row(got, k) == record_row(want, k)
        # the pipeline gives that window the empirical filter and counts it
        (got_panel,) = _filter_panels([TimeSeriesPanel(values)], config)
        assert (list(got_panel.errors), want_panel.errors) == ([0], {})
        fallback = shrink_reference(corrs[0])
        assert np.array_equal(got_panel.precision[0], fallback.precision)
        assert np.array_equal(got_panel.correlation[0], fallback.correlation)
        assert (got_panel.sparsity[0], got_panel.jitter[0]) == (fallback.sparsity, fallback.jitter)
        for name in ("correlation", "precision", "sparsity", "jitter"):
            assert np.array_equal(getattr(got_panel, name)[1:], getattr(want_panel, name)[1:]), name

    def test_mixed_sizes_and_empty_batch(self):
        empty = mfcf_stack(np.zeros((0, 5, 5)), tmfg_config())
        assert empty.precision.shape == empty.correlation.shape == (0, 5, 5)
        assert empty.sparsity.shape == empty.jitter.shape == (0,) and empty.errors == {}
        with pytest.raises(ShapeError):
            mfcf_stack(np.zeros((2, 5, 6)), tmfg_config())


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
