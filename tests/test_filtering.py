import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsstgnn import filtering
from fsstgnn.errors import (
    ConvergenceError,
    DataError,
    DefinitenessError,
    ParameterError,
    ShapeError,
)
from fsstgnn.filtering import (
    ALPHA_GRID,
    LAMBDA_GRID,
    PRECISION_ZERO_TOL,
    FilterConfig,
    apply_filter,
    empirical,
    glasso,
    glasso_stack,
    select_alpha_cv,
    select_lambda_cv,
    shrink,
    sparsity,
)
from fsstgnn.linalg import CorrelationMatrix, PrecisionMatrix, correlation_from_rows, invert_spd

from _oracles import (
    glasso_grid_oracle_2x2,
    glasso_objective,
    glasso_projected_oracle,
    glasso_reference,
    make_panel,
    random_correlation,
)


def corr_of(entries) -> CorrelationMatrix:
    return CorrelationMatrix.from_entries(np.asarray(entries, dtype=float))


class TestShrink:
    def test_alpha_zero_is_identity_transform(self):
        corr = random_correlation(np.random.default_rng(0), 5)
        result = shrink(corr, 0.0)
        assert np.array_equal(result.correlation.entries, corr.entries)

    def test_alpha_one_gives_identity(self):
        corr = random_correlation(np.random.default_rng(1), 5)
        result = shrink(corr, 1.0)
        assert np.array_equal(result.correlation.entries, np.eye(5))

    def test_two_by_two_hand_value(self):
        result = shrink(corr_of([[1.0, 0.8], [0.8, 1.0]]), 0.5)
        assert result.correlation.entries[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert result.correlation.entries[0, 0] == 1.0

    def test_unit_diagonal_for_all_alpha(self):
        corr = random_correlation(np.random.default_rng(2), 6)
        for alpha in ALPHA_GRID:
            result = shrink(corr, alpha)
            assert np.all(np.diag(result.correlation.entries) == 1.0)

    def test_eigenvalue_shift(self):
        # every eigenvalue moves to (1 - alpha) * e + alpha, checked against
        # an independent eigenvalue routine.
        corr = random_correlation(np.random.default_rng(3), 6)
        base = np.sort(np.linalg.eigvalsh(corr.entries))
        for alpha in (0.2, 0.5, 0.9):
            shrunk = shrink(corr, alpha).correlation.entries
            shifted = np.sort(np.linalg.eigvalsh(shrunk))
            assert np.abs(shifted - ((1 - alpha) * base + alpha)).max() < 1e-10

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(4), 5)
        result = shrink(corr, 0.3)
        back = invert_spd(result.precision.entries)
        assert np.abs(back - result.correlation.entries).max() < 1e-6

    def test_sparsity_zero_below_one(self):
        corr = random_correlation(np.random.default_rng(5), 5)
        assert shrink(corr, 0.7).sparsity == 0.0

    def test_alpha_out_of_range(self):
        corr = random_correlation(np.random.default_rng(6), 4)
        with pytest.raises(ParameterError):
            shrink(corr, 1.2)
        with pytest.raises(ParameterError):
            shrink(corr, -0.1)


class TestGlasso:
    def test_identity_at_lambda_zero(self):
        result = glasso(corr_of(np.eye(3)), 0.0)
        assert np.array_equal(result.precision.entries, np.eye(3))

    def test_screening_bound_gives_diagonal(self):
        corr = random_correlation(np.random.default_rng(7), 5)
        lam = np.abs(corr.entries - np.eye(5)).max() + 1e-6
        result = glasso(corr, lam)
        assert result.sparsity == 1.0
        assert np.abs(result.precision.entries - np.eye(5)).max() < 1e-8

    def test_lambda_zero_matches_direct_inverse(self):
        corr = random_correlation(np.random.default_rng(8), 5, rows=400)
        result = glasso(corr, 0.0)
        assert np.abs(result.precision.entries - invert_spd(corr.entries)).max() < 1e-4

    def test_objective_monotone_per_sweep(self):
        rng = np.random.default_rng(9)
        for lam in (0.0, 0.05, 0.2):
            corr = random_correlation(rng, 6, rows=30)
            result = glasso(corr, lam)
            values = result.objective_values
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(10)
        corr = random_correlation(rng, 6, rows=40)
        last = -1.0
        for lam in LAMBDA_GRID:
            s = glasso(corr, lam).sparsity
            assert s >= last - 1e-12
            last = s

    def test_two_by_two_against_grid_oracle(self):
        s = np.array([[1.0, 0.6], [0.6, 1.0]])
        lam = 0.1
        result = glasso(corr_of(s), lam)
        solver_obj = glasso_objective(s, result.precision.entries, lam)
        oracle_obj, _ = glasso_grid_oracle_2x2(s, lam)
        assert abs(solver_obj - oracle_obj) < 1e-5

    def test_three_by_three_against_projected_oracle(self):
        rng = np.random.default_rng(11)
        corr = random_correlation(rng, 3, rows=25)
        for lam in (0.05, 0.15):
            result = glasso(corr, lam)
            solver_obj = glasso_objective(corr.entries, result.precision.entries, lam)
            oracle_obj, _ = glasso_projected_oracle(corr.entries, lam)
            assert solver_obj <= oracle_obj + 1e-5

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(12), 6, rows=30)
        result = glasso(corr, 0.08)
        back = invert_spd(result.precision.entries)
        assert np.abs(back - result.correlation.entries).max() < 1e-6

    def test_pattern_matches_zeros(self):
        corr = random_correlation(np.random.default_rng(13), 6, rows=30)
        result = glasso(corr, 0.15)
        entries = result.precision.entries
        off_diagonal_nonzero = (entries != 0.0) & ~np.eye(6, dtype=bool)
        # every kept entry clears the snap tolerance; the rest are exact zeros
        assert np.all(np.abs(entries[off_diagonal_nonzero]) >= PRECISION_ZERO_TOL)
        assert result.sparsity == 1.0 - off_diagonal_nonzero.sum() / 30

    def test_unit_diagonal_on_filtered_correlation(self):
        # off-diagonal-only penalty pins the covariance diagonal at 1
        corr = random_correlation(np.random.default_rng(14), 5, rows=60)
        result = glasso(corr, 0.1)
        assert np.abs(np.diag(result.correlation.entries) - 1.0).max() < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            glasso(corr_of(np.eye(3)), -0.1)

    def test_non_convergence_carries_gap(self):
        corr = random_correlation(np.random.default_rng(15), 8, rows=9)
        with pytest.raises(ConvergenceError) as err:
            glasso(corr, 1e-4, max_sweeps=1)
        assert err.value.gap is not None


# Caps for the batch-versus-reference properties. Both sides get the same
# caps, and a rank-deficient problem at a small lambda, which never meets
# the tolerance, then costs a fraction of a second instead of a minute.
CAPS = {"max_sweeps": 12, "max_inner": 15}


@st.composite
def glasso_batches(draw):
    """1 to 4 problems of one size with mixed lambdas; 5-row windows of
    12 series are rank deficient and need the PD jitter."""
    n = draw(st.integers(2, 12))
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(5, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.normal(size=(rows, n)) + draw(st.sampled_from([0.0, 1.0])) * rng.normal(size=(rows, 1))
        problems.append((correlation_from_rows(x), draw(st.sampled_from((0.0, *LAMBDA_GRID)))))
    return problems


def reference_outcome(corr, lam, **kwargs):
    try:
        return glasso_reference(corr, lam, **kwargs)
    except ConvergenceError as exc:
        return exc


def assert_bitwise_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, ConvergenceError):
        assert a.gap == b.gap
        return
    assert np.array_equal(a.precision.entries, b.precision.entries)
    assert np.array_equal(a.correlation.entries, b.correlation.entries)
    assert (a.objective_values, a.sweeps, a.jitter) == (b.objective_values, b.sweeps, b.jitter)


def relative_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class TestGlassoStack:
    @given(problems=glasso_batches())
    @settings(max_examples=25)
    def test_matches_scalar_reference(self, problems):
        corrs, lams = zip(*problems)
        outcomes = glasso_stack(corrs, lams, **CAPS)
        for (corr, lam), got in zip(problems, outcomes):
            want = reference_outcome(corr, lam, **CAPS)
            assert type(got) is type(want)
            if isinstance(want, ConvergenceError):
                assert abs(got.gap - want.gap) <= 1e-12 * max(1.0, abs(want.gap))
                continue
            assert got.sweeps == want.sweeps
            assert got.jitter == want.jitter
            assert np.array_equal(got.precision.entries == 0.0, want.precision.entries == 0.0)
            assert relative_gap(got.precision.entries, want.precision.entries) <= 1e-12
            assert relative_gap(got.correlation.entries, want.correlation.entries) <= 1e-12
            assert relative_gap(got.objective_values, want.objective_values) <= 1e-12

    @given(problems=glasso_batches())
    @settings(max_examples=25)
    def test_batch_does_not_change_any_problem(self, problems):
        corrs, lams = zip(*problems)
        together = glasso_stack(corrs, lams, **CAPS)
        reversed_ = glasso_stack(corrs[::-1], lams[::-1], **CAPS)[::-1]
        for (corr, lam), a, b in zip(problems, together, reversed_):
            (alone,) = glasso_stack([corr], lam, **CAPS)
            assert_bitwise_equal(alone, a)
            assert_bitwise_equal(alone, b)

    @given(problems=glasso_batches())
    def test_sweep_limit_fails_only_the_hard_problems(self, problems):
        # each problem twice: at lambda 1e-3, where one sweep does not
        # settle it, and above the screening bound, where the start is
        # the solution and the first sweep converges
        batch = []
        for corr, _ in problems:
            bound = np.abs(corr.entries - np.eye(corr.n)).max()
            batch += [(corr, 1e-3), (corr, bound + 1e-6)]
        corrs, lams = zip(*batch)
        outcomes = glasso_stack(corrs, lams, max_sweeps=1)
        for (corr, _), hard, easy in zip(problems, outcomes[0::2], outcomes[1::2]):
            want = reference_outcome(corr, 1e-3, max_sweeps=1)
            assert type(hard) is type(want)
            if isinstance(want, ConvergenceError):
                assert np.isfinite(hard.gap)
                assert abs(hard.gap - want.gap) <= 1e-12 * max(1.0, abs(want.gap))
            assert easy.sweeps == 1 and easy.sparsity == 1.0

    def test_sizes_and_empty_batch(self):
        for n in (1, 3):
            corrs = [random_correlation(np.random.default_rng(30 + k), n, rows=20) for k in range(3)]
            for corr, got in zip(corrs, glasso_stack(corrs, 0.1)):
                assert_bitwise_equal(glasso(corr, 0.1), got)
        assert glasso_stack([], 0.1) == []
        with pytest.raises(ShapeError):
            glasso_stack([corr_of(np.eye(2)), corr_of(np.eye(3))], 0.1)

    def test_refresh_that_is_not_pd_fails_only_its_problem(self, monkeypatch):
        corrs = [random_correlation(np.random.default_rng(50 + k), 5, rows=30) for k in range(3)]
        expected = glasso_stack(corrs, 0.05)
        blocks = []

        def refuse_stack(stack):
            raise DefinitenessError("forced for the test", pivot=0)

        def refuse_second_block(block):
            blocks.append(block)
            if len(blocks) == 2:
                raise DefinitenessError("forced for the test", pivot=0)
            return invert_spd(block)

        # the first refresh now goes block by block and fails problem 1
        monkeypatch.setattr(filtering, "invert_spd_stack", refuse_stack)
        monkeypatch.setattr(filtering, "invert_spd", refuse_second_block)
        got = glasso_stack(corrs, 0.05)
        assert isinstance(got[1], DefinitenessError)
        assert_bitwise_equal(expected[0], got[0])
        assert_bitwise_equal(expected[2], got[2])
        # with every block refused, every problem fails at its first refresh
        monkeypatch.setattr(filtering, "invert_spd", refuse_stack)
        assert all(isinstance(o, DefinitenessError) for o in glasso_stack(corrs, 0.05))

    def test_negative_lambda_rejected_for_the_batch(self):
        with pytest.raises(ParameterError):
            glasso_stack([corr_of(np.eye(2)), corr_of(np.eye(2))], [0.1, -0.1])


class TestSparsity:
    def test_diagonal_matrix(self):
        assert sparsity(PrecisionMatrix.from_entries(np.eye(4))) == 1.0

    def test_dense_matrix(self):
        entries = np.eye(4) + 0.1 * (np.ones((4, 4)) - np.eye(4))
        assert sparsity(PrecisionMatrix.from_entries(entries)) == 0.0

    def test_accepts_raw_arrays(self):
        entries = np.eye(3)
        entries[0, 1] = entries[1, 0] = 0.2
        assert sparsity(entries) == pytest.approx(1.0 - 2.0 / 6.0)


class TestEmpirical:
    def test_inverts_input(self):
        corr = random_correlation(np.random.default_rng(16), 5)
        result = empirical(corr)
        assert np.array_equal(result.correlation.entries, corr.entries)
        assert result.jitter == 0.0
        assert np.abs(result.precision.entries - invert_spd(corr.entries)).max() < 1e-12

    def test_degenerate_gets_jitter(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(30, 1))
        corr = CorrelationMatrix.from_entries(
            np.corrcoef(np.hstack([x, x, rng.normal(size=(30, 1))]).T)
        )
        result = empirical(corr)
        assert result.jitter > 0.0
        back = invert_spd(result.precision.entries)
        assert np.abs(back - result.correlation.entries).max() < 1e-6


class TestFilterConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FilterConfig(method="magic")
        with pytest.raises(ParameterError):
            FilterConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            FilterConfig(lam=-1.0)
        with pytest.raises(ParameterError):
            FilterConfig(min_clique=5, max_clique=4)
        with pytest.raises(ParameterError):
            FilterConfig(cv_folds=1)

    def test_apply_filter_needs_resolved_params(self):
        corr = random_correlation(np.random.default_rng(18), 4)
        with pytest.raises(ParameterError):
            apply_filter(corr, FilterConfig(method="shrinkage"))
        with pytest.raises(ParameterError):
            apply_filter(corr, FilterConfig(method="glasso"))

    def test_apply_filter_dispatch(self):
        corr = random_correlation(np.random.default_rng(19), 5)
        assert apply_filter(corr, FilterConfig(method="empirical")).sparsity == 0.0
        assert apply_filter(corr, FilterConfig(method="shrinkage", alpha=1.0)).sparsity == 1.0
        assert apply_filter(corr, FilterConfig(method="glasso", lam=2.0)).sparsity == 1.0
        assert apply_filter(corr, FilterConfig(method="mfcf")).forest is not None


class TestCrossValidation:
    def test_independent_noise_selects_strong_shrinkage(self):
        rng = np.random.default_rng(42)
        panel = make_panel(rng.normal(size=(240, 8)))
        assert select_alpha_cv(panel, 4) >= 0.5

    def test_duplicated_column_selects_weak_shrinkage(self):
        rng = np.random.default_rng(100)
        values = rng.normal(size=(240, 5))
        values[:, 4] = values[:, 0]
        panel = make_panel(values)
        assert select_alpha_cv(panel, 4) <= 0.1

    def test_degenerate_fold_count_raises(self):
        rng = np.random.default_rng(20)
        panel = make_panel(rng.normal(size=(30, 4)))
        with pytest.raises(DataError):
            select_alpha_cv(panel, 30)

    def test_too_few_folds_rejected(self):
        rng = np.random.default_rng(21)
        panel = make_panel(rng.normal(size=(30, 4)))
        with pytest.raises(ParameterError):
            select_lambda_cv(panel, 1)

    def test_independent_noise_selects_large_lambda(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=(160, 5)))
        lam = select_lambda_cv(panel, 4)
        assert lam >= LAMBDA_GRID[len(LAMBDA_GRID) // 2]

    def test_factor_panel_selects_small_lambda(self):
        rng = np.random.default_rng(200)
        factor = rng.normal(size=(160, 1))
        values = 0.9 * factor + 0.45 * rng.normal(size=(160, 5))
        panel = make_panel(values)
        lam = select_lambda_cv(panel, 4)
        assert lam < LAMBDA_GRID[len(LAMBDA_GRID) // 2]
