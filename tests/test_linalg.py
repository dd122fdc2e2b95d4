
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsstgnn.errors import DataError, DefinitenessError, RangeError, ShapeError
from fsstgnn.linalg import (
    PD_PIVOT_FLOOR,
    CorrelationMatrix,
    TimeSeriesPanel,
    cholesky_lower,
    cholesky_stack,
    correlation_from_rows,
    invert_spd,
    invert_spd_stack,
    is_positive_definite,
    precision_stack,
    symmetrize,
    window_correlations,
    write_matrix,
)

from _oracles import cholesky_reference, precision_of, random_spd


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        inv = invert_spd(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_two_by_two_closed_form(self):
        rho = 0.5
        m = np.array([[1.0, rho], [rho, 1.0]])
        expected = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
        assert np.abs(invert_spd(m) - expected).max() < 1e-12

    def test_product_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = random_spd(rng, 6)
            assert np.abs(m @ invert_spd(m) - np.eye(6)).max() < 1e-8

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = random_spd(rng, 5)
            assert np.abs(invert_spd(invert_spd(m)) - m).max() < 1e-6

    def test_non_pd_reports_pivot(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DefinitenessError) as err:
            invert_spd(m)
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            invert_spd(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_singular(self):
        assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_near_singular_but_pd(self):
        assert is_positive_definite(np.array([[1.0, 0.99], [0.99, 1.0]]))

    def test_agrees_with_eigenvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = symmetrize(rng.normal(size=(5, 5)))
            by_eig = np.linalg.eigvalsh(m).min() > 1e-12
            assert is_positive_definite(m) == by_eig

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            is_positive_definite(np.ones((2, 3)))


@st.composite
def symmetric_matrices(draw, n=None):
    """Covariances and correlations of 5-40 rows of 4-15 (or ``n``) series
    (rank deficient when there are fewer rows than series), equicorrelated
    matrices, and shifted random symmetric ones that are often indefinite."""
    n = draw(st.integers(4, 15)) if n is None else n
    rows = draw(st.integers(5, 40))
    kind = draw(st.sampled_from(["covariance", "correlation", "equicorrelated", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equicorrelated":
        rho = draw(st.sampled_from([-1.0 / (n - 1), -0.05, 0.0, 0.3, 0.9, 1.0]))
        return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    if kind == "indefinite":
        return symmetrize(rng.normal(size=(n, n))) + rng.uniform(0.0, 3.0 * np.sqrt(n)) * np.eye(n)
    x = rng.normal(size=(rows, n)) * rng.uniform(0.1, 10.0, size=n)
    if kind == "correlation":
        return correlation_from_rows(x).entries
    return symmetrize(x.T @ x / rows)


@st.composite
def symmetric_stacks(draw):
    """One to six ``symmetric_matrices`` of one size, as a (k, n, n) stack;
    LAPACK refuses a stack that holds an indefinite one."""
    n = draw(st.integers(4, 15))
    return np.array(draw(st.lists(symmetric_matrices(n), min_size=1, max_size=6)))


def assert_matches_column_reference(m, min_pivot, lower, error):
    """A ``cholesky_stack`` row is the column-by-column verdict: the same
    failing pivot and value with a zero factor, or a factor within
    1e-12 * n * max|L| of the reference."""
    try:
        expected = cholesky_reference(m, min_pivot)
    except DefinitenessError as err:
        assert isinstance(error, DefinitenessError)
        assert (error.pivot, error.value) == (err.pivot, err.value)
        assert not lower.any()
        return
    assert error is None
    assert np.abs(lower - expected).max() <= 1e-12 * m.shape[0] * np.abs(expected).max()


class TestCholesky:
    @given(stack=symmetric_stacks(), min_pivot=st.sampled_from([0.0, PD_PIVOT_FLOOR]))
    def test_stack_rows_match_column_reference_alone_and_in_any_batch(self, stack, min_pivot):
        lower, errors = cholesky_stack(stack, min_pivot)
        reversed_lower, reversed_errors = cholesky_stack(stack[::-1], min_pivot)
        last = len(stack) - 1
        for k, m in enumerate(stack):
            (alone,), alone_errors = cholesky_stack(m[None], min_pivot)
            for factor, error in ((lower[k], errors.get(k)), (alone, alone_errors.get(0)),
                                  (reversed_lower[last - k], reversed_errors.get(last - k))):
                assert_matches_column_reference(m, min_pivot, factor, error)
                assert np.array_equal(factor, lower[k])

    def test_stack_lapack_refuses_is_split_around_the_failing_matrix(self):
        rng = np.random.default_rng(15)
        stack = np.array([random_spd(rng, 4) for _ in range(7)])
        stack[4] = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        lower, errors = cholesky_stack(stack)
        assert list(errors) == [4] and (errors[4].pivot, errors[4].value) == (2, -1.0)
        for k in (0, 1, 2, 3, 5, 6):
            assert np.array_equal(lower[k], np.linalg.cholesky(stack[k]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_shape_error(self, bad):
        stack = np.array([np.eye(3), np.eye(3)])
        stack[1, 0, 0] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            cholesky_stack(stack)
        with pytest.raises(ShapeError, match="non-finite"):
            precision_stack(stack)

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 6)
        lower = cholesky_lower(m)
        assert np.abs(lower @ lower.T - m).max() < 1e-9

    @given(m=symmetric_matrices(), min_pivot=st.sampled_from([0.0, PD_PIVOT_FLOOR]))
    def test_matches_column_reference(self, m, min_pivot):
        try:
            lower, error = cholesky_lower(m, min_pivot), None
        except DefinitenessError as exc:
            lower, error = np.zeros_like(m), exc
        assert_matches_column_reference(m, min_pivot, lower, error)

    @pytest.mark.parametrize("seed, n", [(1, 5), (2, 6), (61, 5), (109, 5)])
    def test_singular_to_working_precision_gets_column_verdict(self, seed, n):
        # the correlation of 5 rows has rank 4; on these draws LAPACK and the
        # column-by-column loop round the last pivot to opposite signs
        m = correlation_from_rows(np.random.default_rng(seed).normal(size=(5, n))).entries
        try:
            expected = cholesky_reference(m)
        except DefinitenessError as err:
            with pytest.raises(DefinitenessError) as got:
                cholesky_lower(m)
            assert got.value.pivot == err.pivot
        else:
            assert np.array_equal(cholesky_lower(m), expected)

    def test_empty_matrix(self):
        assert cholesky_lower(np.zeros((0, 0))).shape == (0, 0)


class TestInvertSpdStack:
    def test_matches_per_block_inverse(self):
        rng = np.random.default_rng(13)
        stack = np.array([random_spd(rng, 4) for _ in range(5)])
        inverses = invert_spd_stack(stack)
        for block, inverse in zip(stack, inverses):
            assert np.abs(inverse - invert_spd(block)).max() < 1e-12

    def test_non_pd_block_reports_pivot(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(DefinitenessError) as err:
            invert_spd_stack(stack)
        assert err.value.pivot == 1


class TestComputeCorrelation:
    def test_identical_columns(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 1))
        panel = TimeSeriesPanel(np.hstack([x, x]))
        corr = correlation_from_rows(panel.window(0, 50))
        assert corr.entries[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 1))
        panel = TimeSeriesPanel(np.hstack([x, -x]))
        corr = correlation_from_rows(panel.window(0, 50))
        assert corr.entries[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_independent_noise_bounded(self):
        # sampling error is about 3/sqrt(T) = 0.095 at T=1000
        rng = np.random.default_rng(6)
        panel = TimeSeriesPanel(rng.normal(size=(1000, 10)))
        corr = correlation_from_rows(panel.window(0, 1000))
        off = corr.entries - np.eye(10)
        assert np.abs(off).max() < 0.15

    def test_invariants_on_random_panels(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            panel = TimeSeriesPanel(rng.normal(size=(30, 6)))
            corr = correlation_from_rows(panel.window(0, 30))
            assert np.abs(corr.entries - corr.entries.T).max() <= 1e-12
            assert np.all(np.diag(corr.entries) == 1.0)
            assert np.abs(corr.entries).max() <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(40, 4))
        scaled = base.copy()
        scaled[:, 2] = 3.5 * scaled[:, 2] + 11.0
        c1 = correlation_from_rows(base)
        c2 = correlation_from_rows(scaled)
        assert np.abs(c1.entries - c2.entries).max() < 1e-10

    def test_zero_variance_column(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        x[:, 1] = 7.0
        corr = correlation_from_rows(x)
        assert corr.entries[1, 1] == 1.0
        assert np.all(corr.entries[1, [0, 2]] == 0.0)
        assert np.all(corr.entries[[0, 2], 1] == 0.0)

    def test_stack_equals_each_window(self):
        values = np.random.default_rng(12).normal(size=(30, 5)).cumsum(axis=0)
        values[:12, 3] = 7.0                # constant in the early windows
        windows = np.lib.stride_tricks.sliding_window_view(values, 8, axis=0).swapaxes(1, 2)
        stacked = window_correlations(windows)
        assert stacked.shape == (23, 5, 5)
        for got, window in zip(stacked, windows):
            assert np.array_equal(got, correlation_from_rows(window).entries)
        with pytest.raises(RangeError):
            window_correlations(windows[:, :1])

    def test_column_whose_variance_underflows_correlates_zero(self):
        x = np.random.default_rng(13).normal(size=(9, 3))
        x[:, 1] = 0.0
        x[4, 1] = 1e-170                    # its squared deviations underflow to 0
        for entries in (correlation_from_rows(x).entries, window_correlations(x[None])[0]):
            assert np.array_equal(entries[1], [0.0, 1.0, 0.0])

    def test_window_out_of_bounds(self):
        panel = TimeSeriesPanel(np.random.default_rng(10).normal(size=(20, 3)))
        with pytest.raises(RangeError):
            correlation_from_rows(panel.window(5, 25))

    def test_window_too_short(self):
        panel = TimeSeriesPanel(np.random.default_rng(11).normal(size=(20, 3)))
        with pytest.raises(RangeError):
            correlation_from_rows(panel.window(4, 5))


class TestPanel:
    def test_too_small(self):
        with pytest.raises(DataError):
            TimeSeriesPanel(np.ones((1, 3)))
        with pytest.raises(DataError):
            TimeSeriesPanel(np.ones((5, 1)))

    def test_non_finite_rejected(self):
        values = np.ones((4, 3))
        values[2, 1] = np.nan
        with pytest.raises(DataError):
            TimeSeriesPanel(values)

    def test_differenced(self):
        panel = TimeSeriesPanel(np.arange(12.0).reshape(6, 2))
        diff = panel.differenced()
        assert diff.n_steps == 5
        assert np.all(diff.values == 2.0)


class TestMatrixTypes:
    def test_correlation_validation(self):
        with pytest.raises(ShapeError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 0.9]]))  # diagonal not 1
        with pytest.raises(ShapeError):
            CorrelationMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))  # out of range

    def test_precision_requires_pd(self):
        _, inverses, errors = precision_stack(np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        assert list(errors) == [0] and isinstance(errors[0], DefinitenessError)
        assert errors[0].pivot == 1 and not inverses.any()

    def test_precision_pattern_from_entries(self):
        entries = np.array([[2.0, 1e-12, 0.4], [1e-12, 2.0, 0.0], [0.4, 0.0, 2.0]])
        prec = precision_of(entries)
        off_diagonal_nonzero = (prec != 0.0) & ~np.eye(3, dtype=bool)
        assert set(zip(*np.nonzero(off_diagonal_nonzero))) == {(0, 2), (2, 0)}

    def test_precision_stack_is_from_entries_of_each_matrix(self):
        # a matrix that is not positive definite fails alone, with the error
        # cholesky_stack gives it; the others are inverted as invert_spd does
        rng = np.random.default_rng(14)
        stack = np.array([random_spd(rng, 4), [[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0], [0, 0, 1.0, 0],
                                               [0, 0, 0, 1.0]], random_spd(rng, 4)])
        stack[0, 0, 1] = stack[0, 1, 0] = 1e-12          # snapped to an exact zero
        entries, inverses, errors = precision_stack(stack)
        assert list(errors) == [1]
        (alone,) = cholesky_stack(stack[1:2])[1].values()
        assert (str(errors[1]), errors[1].pivot) == (str(alone), alone.pivot)
        assert not inverses[1].any()
        for k in (0, 2):
            assert np.array_equal(entries[k], precision_of(stack[k]))
            assert np.array_equal(inverses[k], invert_spd(entries[k]))
        assert entries[0, 0, 1] == 0.0


class TestMatrixFixtureIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        assert np.array_equal(np.loadtxt(path, skiprows=1, ndmin=2), m)

    def test_first_line_is_n(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(3))
        assert path.read_text().splitlines()[0] == "3"
