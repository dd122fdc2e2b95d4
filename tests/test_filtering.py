import numpy as np
import pytest

from fsstgnn.errors import ConvergenceError, DataError, ParameterError
from fsstgnn.filtering import (
    ALPHA_GRID,
    LAMBDA_GRID,
    PRECISION_ZERO_TOL,
    FilterConfig,
    apply_filter,
    empirical,
    glasso,
    select_alpha_cv,
    select_lambda_cv,
    shrink,
    sparsity,
)
from fsstgnn.linalg import CorrelationMatrix, PrecisionMatrix, invert_spd

from _oracles import (
    glasso_grid_oracle_2x2,
    glasso_objective,
    glasso_projected_oracle,
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
