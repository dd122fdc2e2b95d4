import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsstgnn import filtering
from fsstgnn.data import synthesize_dataset
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
    filter_windows,
    glasso,
    glasso_stack,
    select_cv,
    sparsity,
)
from fsstgnn.linalg import (
    TimeSeriesPanel,
    cholesky_stack,
    correlation_from_rows,
    invert_spd,
    window_correlations,
)

from _oracles import (
    column_lasso_reference,
    corr_of,
    cv_scores_reference,
    ensure_pd_reference,
    gaussian_score_reference,
    glasso_grid_oracle_2x2,
    glasso_objective,
    glasso_projected_oracle,
    glasso_reference,
    outcome_row,
    precision_of,
    random_correlation,
    random_spd,
    record_row,
    shrink_reference,
    stack_of,
)


def shrink(corr, alpha):
    return apply_filter(corr, FilterConfig(method="shrinkage", alpha=alpha))


def empirical(corr):
    return apply_filter(corr, FilterConfig(method="empirical"))


class TestShrink:
    def test_alpha_zero_is_identity_transform(self):
        corr = random_correlation(np.random.default_rng(0), 5)
        result = shrink(corr, 0.0)
        assert np.array_equal(result.correlation, corr.entries)

    def test_alpha_one_gives_identity(self):
        corr = random_correlation(np.random.default_rng(1), 5)
        result = shrink(corr, 1.0)
        assert np.array_equal(result.correlation, np.eye(5))

    def test_two_by_two_hand_value(self):
        result = shrink(corr_of([[1.0, 0.8], [0.8, 1.0]]), 0.5)
        assert result.correlation[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert result.correlation[0, 0] == 1.0

    def test_unit_diagonal_for_all_alpha(self):
        corr = random_correlation(np.random.default_rng(2), 6)
        for alpha in ALPHA_GRID:
            result = shrink(corr, alpha)
            assert np.all(np.diag(result.correlation) == 1.0)

    def test_eigenvalue_shift(self):
        # every eigenvalue moves to (1 - alpha) * e + alpha, checked against
        # an independent eigenvalue routine.
        corr = random_correlation(np.random.default_rng(3), 6)
        base = np.sort(np.linalg.eigvalsh(corr.entries))
        for alpha in (0.2, 0.5, 0.9):
            shrunk = shrink(corr, alpha).correlation
            shifted = np.sort(np.linalg.eigvalsh(shrunk))
            assert np.abs(shifted - ((1 - alpha) * base + alpha)).max() < 1e-10

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(4), 5)
        result = shrink(corr, 0.3)
        back = invert_spd(result.precision)
        assert np.abs(back - result.correlation).max() < 1e-6

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
        assert np.array_equal(result.precision, np.eye(3))

    def test_screening_bound_gives_diagonal(self):
        corr = random_correlation(np.random.default_rng(7), 5)
        lam = np.abs(corr.entries - np.eye(5)).max() + 1e-6
        result = glasso(corr, lam)
        assert result.sparsity == 1.0
        assert np.abs(result.precision - np.eye(5)).max() < 1e-8

    def test_lambda_zero_matches_direct_inverse(self):
        corr = random_correlation(np.random.default_rng(8), 5, rows=400)
        result = glasso(corr, 0.0)
        assert np.abs(result.precision - invert_spd(corr.entries)).max() < 1e-4

    def test_objective_monotone_per_sweep(self):
        # the reference's objective never rises between sweeps, and the
        # solver ends where the reference does
        rng = np.random.default_rng(9)
        for lam in (0.0, 0.05, 0.2):
            corr = random_correlation(rng, 6, rows=30)
            values = []
            glasso_reference(corr, lam, objective=values)
            assert len(values) > 2
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
            final = glasso_objective(ensure_pd_reference(corr.entries)[0], glasso(corr, lam).precision, lam)
            assert abs(final - values[-1]) <= 1e-12 * abs(values[-1])

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
        solver_obj = glasso_objective(s, result.precision, lam)
        oracle_obj, _ = glasso_grid_oracle_2x2(s, lam)
        assert abs(solver_obj - oracle_obj) < 1e-5

    def test_three_by_three_against_projected_oracle(self):
        rng = np.random.default_rng(11)
        corr = random_correlation(rng, 3, rows=25)
        for lam in (0.05, 0.15):
            result = glasso(corr, lam)
            solver_obj = glasso_objective(corr.entries, result.precision, lam)
            oracle_obj, _ = glasso_projected_oracle(corr.entries, lam)
            assert solver_obj <= oracle_obj + 1e-5

    def test_round_trip(self):
        corr = random_correlation(np.random.default_rng(12), 6, rows=30)
        result = glasso(corr, 0.08)
        back = invert_spd(result.precision)
        assert np.abs(back - result.correlation).max() < 1e-6

    def test_pattern_matches_zeros(self):
        corr = random_correlation(np.random.default_rng(13), 6, rows=30)
        result = glasso(corr, 0.15)
        entries = result.precision
        off_diagonal_nonzero = (entries != 0.0) & ~np.eye(6, dtype=bool)
        # every kept entry clears the snap tolerance; the rest are exact zeros
        assert np.all(np.abs(entries[off_diagonal_nonzero]) >= PRECISION_ZERO_TOL)
        assert result.sparsity == 1.0 - off_diagonal_nonzero.sum() / 30

    def test_unit_diagonal_on_filtered_correlation(self):
        # off-diagonal-only penalty pins the covariance diagonal at 1
        corr = random_correlation(np.random.default_rng(14), 5, rows=60)
        result = glasso(corr, 0.1)
        assert np.abs(np.diag(result.correlation) - 1.0).max() < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            glasso(corr_of(np.eye(3)), -0.1)

    def test_non_convergence_carries_gap(self, monkeypatch):
        corr = random_correlation(np.random.default_rng(15), 8, rows=9)
        monkeypatch.setattr(filtering, "GLASSO_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            glasso(corr, 1e-4)
        assert err.value.gap is not None


# Caps for the batch-versus-reference properties. Both sides get the same
# caps, and a rank-deficient problem at a small lambda, which never meets
# the tolerance, then costs a fraction of a second instead of a minute.
CAPS = {"max_sweeps": 12, "max_inner": 15}


@contextlib.contextmanager
def glasso_caps(**caps):
    """``filtering``'s glasso limits set from ``caps`` (``max_sweeps`` sets
    ``GLASSO_MAX_SWEEPS``) inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in caps.items():
            patch.setattr(filtering, f"GLASSO_{name.upper()}", value)
        yield


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


def relative_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class TestGlassoStack:
    @given(problems=glasso_batches())
    @settings(max_examples=25)
    def test_matches_scalar_reference(self, problems):
        corrs, lams = zip(*problems)
        with glasso_caps(**CAPS):
            record = glasso_stack(stack_of(corrs), lams)
        for k, (corr, lam) in enumerate(problems):
            history = []
            want = reference_outcome(corr, lam, **CAPS, objective=history)
            if isinstance(want, ConvergenceError):
                got = record.errors[k]
                assert type(got) is ConvergenceError
                assert abs(got.gap - want.gap) <= 1e-12 * max(1.0, abs(want.gap))
                continue
            assert k not in record.errors
            assert (record.sweeps[k], record.jitter[k]) == (want.sweeps, want.jitter)
            assert np.array_equal(record.precision[k] == 0.0, want.precision == 0.0)
            assert relative_gap(record.precision[k], want.precision) <= 1e-12
            assert relative_gap(record.correlation[k], want.correlation) <= 1e-12
            s = ensure_pd_reference(corr.entries)[0]
            assert relative_gap(glasso_objective(s, record.precision[k], lam), history[-1]) <= 1e-12

    @given(problems=glasso_batches())
    @settings(max_examples=25)
    def test_batch_does_not_change_any_problem(self, problems):
        corrs, lams = zip(*problems)
        last = len(problems) - 1
        with glasso_caps(**CAPS):
            together = glasso_stack(stack_of(corrs), lams)
            reversed_ = glasso_stack(stack_of(corrs[::-1]), lams[::-1])
            for k, (corr, lam) in enumerate(problems):
                alone = record_row(glasso_stack(corr.entries[None], lam), 0)
                assert record_row(together, k) == alone
                assert record_row(reversed_, last - k) == alone

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
        with glasso_caps(max_sweeps=1):
            record = glasso_stack(stack_of(corrs), lams)
        for k, (corr, _) in enumerate(problems):
            want = reference_outcome(corr, 1e-3, max_sweeps=1)
            hard = record.errors.get(2 * k)
            assert isinstance(want, ConvergenceError) == (hard is not None)
            if hard is not None:
                assert type(hard) is ConvergenceError and np.isfinite(hard.gap)
                assert abs(hard.gap - want.gap) <= 1e-12 * max(1.0, abs(want.gap))
            assert 2 * k + 1 not in record.errors
            assert record.sweeps[2 * k + 1] == 1 and record.sparsity[2 * k + 1] == 1.0

    def test_sizes_and_empty_batch(self):
        for n in (1, 3):
            corrs = [random_correlation(np.random.default_rng(30 + k), n, rows=20) for k in range(3)]
            record = glasso_stack(stack_of(corrs), 0.1)
            for k, corr in enumerate(corrs):
                assert record_row(record, k) == outcome_row(glasso(corr, 0.1))
        empty = glasso_stack(np.zeros((0, 3, 3)), 0.1)
        assert empty.precision.shape == empty.correlation.shape == (0, 3, 3)
        assert empty.sparsity.shape == empty.sweeps.shape == (0,) and empty.errors == {}
        with pytest.raises(ShapeError):
            glasso_stack(np.zeros((2, 2, 3)), 0.1)

    def test_refresh_that_is_not_pd_fails_only_its_problem(self, monkeypatch):
        corrs = stack_of([random_correlation(np.random.default_rng(50 + k), 5, rows=30) for k in range(3)])
        expected = glasso_stack(corrs, 0.05)
        calls = []

        def refusing(refused):
            # call 1 makes the windows positive definite; call 2 is the first refresh
            def refuse(stack, min_pivot=0.0):
                calls.append(len(stack))
                lower, errors = cholesky_stack(stack, min_pivot)
                if len(calls) == 2:
                    errors.update({a: DefinitenessError("forced for the test", pivot=0) for a in refused})
                return lower, dict(sorted(errors.items()))
            return refuse

        monkeypatch.setattr(filtering, "cholesky_stack", refusing([1]))
        got = glasso_stack(corrs, 0.05)
        assert calls[1] == 3
        assert list(got.errors) == [1] and isinstance(got.errors[1], DefinitenessError)
        assert record_row(got, 0) == record_row(expected, 0)
        assert record_row(got, 2) == record_row(expected, 2)
        assert not got.precision[1].any() and (got.sparsity[1], got.sweeps[1]) == (0.0, 0)
        # with every block refused, every problem fails at its first refresh
        calls.clear()
        monkeypatch.setattr(filtering, "cholesky_stack", refusing([0, 1, 2]))
        failed = glasso_stack(corrs, 0.05).errors
        assert sorted(failed) == [0, 1, 2]
        assert all(isinstance(o, DefinitenessError) for o in failed.values())

    def test_negative_lambda_rejected_for_the_batch(self):
        with pytest.raises(ParameterError):
            glasso_stack(np.array([np.eye(2), np.eye(2)]), [0.1, -0.1])


@st.composite
def column_lasso_problems(draw):
    """Column-lasso inputs built as ``glasso_stack`` builds them, for 1 to 6
    problems of one size p in 1..7 (q = p - 1 coordinates, 0 when p = 1).
    Per problem: an SPD ``w``, a correlation ``s``, a warm start of zeros or
    noise, and a penalty from 0 to far above every |s12|, where the
    iterate settles in a pass or two while lambda = 0 keeps going, so the
    problems stop at different passes. ``max_inner`` of 1 or 2 caps them."""
    p, lanes = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array([random_spd(rng, p) for _ in range(lanes)])
    s = stack_of([random_correlation(rng, p, rows=draw(st.integers(p + 1, 20))) for _ in range(lanes)])
    j = draw(st.integers(0, p - 1))
    rest = np.delete(np.arange(p), j)
    w12 = w[:, rest, j]
    m = w[:, rest[:, None], rest] - w12[:, :, None] * w12[:, None, :] / w[:, j, j, None, None]
    u = np.where(np.array(draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)))[:, None],
                 rng.normal(scale=0.5, size=(lanes, p - 1)), 0.0)
    lam = np.array(draw(st.lists(st.sampled_from((0.0, 1e-3, 0.05, 0.3, 10.0)), min_size=lanes,
                                 max_size=lanes)))
    caps = draw(st.sampled_from(((1e-8, 100), (1e-3, 100), (1e-8, 1), (1e-8, 2))))
    return (m, s[:, rest, j], s[:, j, j], u, lam) + caps


class TestColumnLasso:
    @given(problem=column_lasso_problems())
    @settings(max_examples=40)
    def test_same_bits_as_the_reference(self, problem):
        m, s12, s22, u, lam, inner_tol, max_inner = problem
        inputs = [arr.copy() for arr in (m, s12, s22)]
        want = column_lasso_reference(m, s12, s22, u.copy(), lam, inner_tol, max_inner)
        got = filtering._column_lasso(m, s12, s22, u.copy(), lam, inner_tol, max_inner)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        for before, after in zip(inputs, (m, s12, s22)):
            assert before.tobytes() == after.tobytes()


class TestGlassoOptimality:
    """The stationarity (KKT) conditions of the penalized objective, checked
    on the answer alone: with W the inverse of the precision and S the
    positive-definite correlation, |S - W| <= lambda where the precision is
    zero, S - W = -lambda * sign(precision) where it is not, and W = S on the
    diagonal, each within 1e-6 (the worst residual on these windows is
    about 1.4e-7)."""

    @pytest.mark.parametrize("lam", [0.02, 0.113, 0.3])
    def test_converged_rows_are_stationary(self, lam):
        values = synthesize_dataset(7, 1, 120, seed=3).panel(1).values
        corrs = window_correlations(np.lib.stride_tricks.sliding_window_view(values, 14, axis=0).swapaxes(1, 2))
        record = glasso_stack(corrs, lam)
        assert record.errors == {}
        off = ~np.eye(corrs.shape[-1], dtype=bool)
        for corr, theta in zip(corrs, record.precision):
            gap = ensure_pd_reference(corr)[0] - np.linalg.inv(theta)
            zero = off & (theta == 0.0)
            assert np.abs(np.diag(gap)).max() <= 1e-6
            assert np.abs(gap[zero]).max(initial=0.0) <= lam + 1e-6
            assert np.abs(gap + lam * np.sign(theta))[off & ~zero].max(initial=0.0) <= 1e-6


class TestSparsity:
    def test_diagonal_matrix(self):
        assert sparsity(precision_of(np.eye(4))) == 1.0

    def test_dense_matrix(self):
        entries = np.eye(4) + 0.1 * (np.ones((4, 4)) - np.eye(4))
        assert sparsity(precision_of(entries)) == 0.0

    def test_one_by_one_stack_gives_an_array(self):
        shares = sparsity(np.ones((3, 1, 1)))
        assert isinstance(shares, np.ndarray) and np.array_equal(shares, np.ones(3))
        assert sparsity(np.ones((1, 1))) == 1.0

    def test_accepts_raw_arrays(self):
        entries = np.eye(3)
        entries[0, 1] = entries[1, 0] = 0.2
        assert sparsity(entries) == pytest.approx(1.0 - 2.0 / 6.0)


class TestEmpirical:
    def test_inverts_input(self):
        corr = random_correlation(np.random.default_rng(16), 5)
        result = empirical(corr)
        assert np.array_equal(result.correlation, corr.entries)
        assert result.jitter == 0.0
        assert np.abs(result.precision - invert_spd(corr.entries)).max() < 1e-12

    def test_degenerate_gets_jitter(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(30, 1))
        corr = corr_of(
            np.corrcoef(np.hstack([x, x, rng.normal(size=(30, 1))]).T)
        )
        result = empirical(corr)
        assert result.jitter > 0.0
        back = invert_spd(result.precision)
        assert np.abs(back - result.correlation).max() < 1e-6


METHODS = {
    "empirical": lambda draw: FilterConfig(method="empirical"),
    "shrinkage": lambda draw: FilterConfig(method="shrinkage", alpha=draw(st.sampled_from(ALPHA_GRID))),
    # lambdas at which every drawn window converges well within the sweep limit
    "glasso": lambda draw: FilterConfig(method="glasso", lam=draw(st.sampled_from([0.1, 0.3, 1.0]))),
    "mfcf": lambda draw: FilterConfig(method="mfcf", mfcf_gain_threshold=draw(st.sampled_from([0.0, 0.05]))),
}


def smallest_size(config):
    return config.max_clique if config.method == "mfcf" else 1


@st.composite
def configs(draw):
    return METHODS[draw(st.sampled_from(sorted(METHODS)))](draw)


@st.composite
def window_batches(draw, config):
    """1 to 5 correlations of one size, 1x1 included where the method
    allows; windows with fewer rows than series or a repeated column are
    singular and need the PD jitter."""
    n = draw(st.integers(smallest_size(config), 8))
    corrs = []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.normal(size=(draw(st.integers(2, 12)), n))
        if n > 1 and draw(st.booleans()):
            x[:, -1] = x[:, 0]
        corrs.append(correlation_from_rows(x))
    return corrs


def reference_or_error(corr, alpha):
    try:
        return shrink_reference(corr, alpha)
    except DefinitenessError as exc:
        return exc


class TestFilterWindows:
    @given(data=st.data())
    @settings(max_examples=30)
    def test_every_window_is_the_same_alone_and_in_any_batch(self, data):
        config = data.draw(configs())
        batch = stack_of(data.draw(window_batches(config)))
        # each shrinkage or glasso window draws its own alpha or lambda
        per_window = [config if config.method == "mfcf" or k == 0 else METHODS[config.method](data.draw)
                      for k in range(len(batch))]
        together = filter_windows(batch, per_window)
        backwards = filter_windows(batch[::-1], per_window[::-1])
        last = len(batch) - 1
        for k, corr in enumerate(batch):
            alone = record_row(filter_windows(corr[None], [per_window[k]]), 0)
            assert record_row(together, k) == alone
            assert record_row(backwards, last - k) == alone

    def test_one_config_per_window_differing_only_in_alpha_or_lambda(self):
        batch = stack_of([random_correlation(np.random.default_rng(61 + k), 5) for k in range(2)])
        for configs_ in ([FilterConfig(method="empirical")], [FilterConfig(method="empirical")] * 3):
            with pytest.raises(ShapeError, match=f"one filter config per window, got {len(configs_)} for 2"):
                filter_windows(batch, configs_)
        with pytest.raises(ShapeError, match="got 0 for 0"):
            filter_windows(batch[:0], [])
        for mixed in ([FilterConfig(method="glasso", lam=0.1), FilterConfig(method="shrinkage", alpha=0.1)],
                      [FilterConfig(method="mfcf"), FilterConfig(method="mfcf", mfcf_gain_threshold=0.05)]):
            with pytest.raises(ParameterError, match="may differ only in alpha or lambda"):
                filter_windows(batch, mixed)
        with pytest.raises(ParameterError, match="glasso needs lambda"):
            filter_windows(batch, [FilterConfig(method="glasso", lam=0.1), FilterConfig(method="glasso")])

    @given(data=st.data())
    def test_dense_windows_match_the_per_window_reference(self, data):
        alpha = data.draw(st.sampled_from([None, *ALPHA_GRID]))
        config = FilterConfig(method="empirical" if alpha is None else "shrinkage", alpha=alpha)
        batch = data.draw(window_batches(config))
        record = filter_windows(stack_of(batch), [config] * len(batch))
        for k, corr in enumerate(batch):
            assert record_row(record, k) == outcome_row(reference_or_error(corr, alpha))

    def test_window_whose_precision_fails_goes_back_to_the_jitter_ladder(self):
        # 7 rows of 7 stores: item 3's window 91 has rank 6 yet clears the
        # pivot floor without jitter, and its inverse is not positive definite
        values = synthesize_dataset(7, 5, 180, seed=1).panel(3).values
        corrs = window_correlations(np.array([values[t - 7: t] for t in range(7, len(values))]))
        assert not cholesky_stack(corrs[91:92], filtering.PD_PIVOT_FLOOR)[1]
        config = FilterConfig(method="empirical")
        record = filter_windows(corrs, [config] * len(corrs))
        assert record.errors == {} and record.jitter[91] == filtering.BASE_JITTER
        assert record_row(record, 91) == outcome_row(shrink_reference(corr_of(corrs[91])))
        # every other window keeps the row it gets in a stack where none goes back
        others = filter_windows(np.delete(corrs, 91, axis=0), [config] * (len(corrs) - 1))
        assert others.errors == {}
        assert ([record_row(record, k) for k in range(len(corrs)) if k != 91]
                == [record_row(others, k) for k in range(len(corrs) - 1)])

    def test_jittered_and_one_by_one_windows(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(9, 6))
        x[:, 5] = x[:, 0]
        batch = [random_correlation(rng, 6), correlation_from_rows(x), random_correlation(rng, 6)]
        ones = [corr_of([[1.0]])] * 2
        for config in (FilterConfig(method="empirical"), FilterConfig(method="shrinkage", alpha=0.0)):
            results = filter_windows(stack_of(batch), [config] * 3)
            assert (results.jitter > 0.0).tolist() == [False, True, False]
            one_by_one = filter_windows(stack_of(ones), [config] * 2)
            rows = [record_row(results, k) for k in range(3)] + [record_row(one_by_one, k) for k in range(2)]
            for corr, got in zip(batch + ones, rows):
                assert got == outcome_row(shrink_reference(corr, config.alpha))
        got = filter_windows(stack_of(ones), [FilterConfig(method="glasso", lam=0.1)] * 2)
        assert got.errors == {} and got.sparsity.tolist() == [1.0, 1.0] and got.sweeps.tolist() == [1, 1]
        assert np.array_equal(got.precision, np.ones((2, 1, 1)))


class TestDegenerateWindows:
    """What every filter gives the degenerate windows of a panel."""

    @given(data=st.data())
    def test_constant_columns_correlate_zero(self, data):
        config = data.draw(configs())
        n = data.draw(st.integers(max(smallest_size(config), 2), 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        constant = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        level = data.draw(st.sampled_from([0.0, 3.0, -50.0]))
        x = rng.normal(size=(data.draw(st.integers(2, 16)), n))
        x[:, constant] = level
        result = apply_filter(correlation_from_rows(x), config)
        off = ~np.eye(n, dtype=bool)
        for j in constant:
            assert np.all(result.correlation[j][off[j]] == 0.0)
            assert np.all(result.correlation[:, j][off[j]] == 0.0)

    @given(data=st.data())
    def test_all_zero_window_gives_the_identity(self, data):
        config = data.draw(configs())
        n = data.draw(st.integers(max(smallest_size(config), 2), 8))
        rows = data.draw(st.integers(2, 16))
        result = apply_filter(correlation_from_rows(np.zeros((rows, n))), config)
        assert np.array_equal(result.correlation, np.eye(n))
        assert np.array_equal(result.precision, np.eye(n))
        assert (result.sparsity, result.jitter) == (1.0, 0.0)

    @given(data=st.data())
    def test_more_series_than_rows_gets_the_base_jitter(self, data):
        config = data.draw(configs())
        n = data.draw(st.integers(max(smallest_size(config), 2), 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.normal(size=(data.draw(st.integers(2, n)), n))
        result = apply_filter(correlation_from_rows(x), config)
        shrunk = config.method == "shrinkage" and config.alpha > 0.0
        assert result.jitter == (0.0 if shrunk else filtering.BASE_JITTER)


def equicorrelated(n, rho):
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


@st.composite
def pd_stacks(draw):
    """1 to 6 matrices of one size: window correlations, singular when there
    are fewer rows than series, and equicorrelated ones at or just past the
    boundary rho = -1/(n-1), which need a larger jitter or cannot be made
    positive definite by any."""
    n = draw(st.integers(3, 8))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            delta = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3, 5e-3, 0.05]))
            mats.append(equicorrelated(n, -1.0 / (n - 1) - delta))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            mats.append(correlation_from_rows(rng.normal(size=(draw(st.integers(2, 12)), n))).entries)
    return np.array(mats)


class TestEnsurePd:
    @given(stack=pd_stacks(), data=st.data())
    def test_matches_the_one_matrix_reference(self, stack, data):
        # each window may start the jitter ladder at a later step
        first = data.draw(st.none() | st.lists(st.integers(0, len(filtering.PD_JITTERS)),
                                               min_size=len(stack), max_size=len(stack)))
        entries, jitter, errors, rows = filtering._ensure_pd_stack(stack, None if first is None else np.array(first))
        assert rows.tolist() == [k for k in range(len(stack)) if k not in errors]
        for k, m in enumerate(stack):
            try:
                want, want_jitter = ensure_pd_reference(m, 0 if first is None else first[k])
            except DefinitenessError as exc:
                assert type(errors[k]) is DefinitenessError and str(errors[k]) == str(exc)
                continue
            assert np.array_equal(entries[k], want) and jitter[k] == want_jitter

    def test_jitter_escalates_until_positive_definite_or_exhausted(self):
        # the smallest eigenvalue of the n = 4 matrix is -3 * delta
        stack = np.array([equicorrelated(4, -1.0 / 3.0 - delta) for delta in (1e-5, 1e-3, 0.05)])
        _, jitter, errors, rows = filtering._ensure_pd_stack(stack)
        assert jitter.tolist() == [1e-4, 1e-2, 0.0] and rows.tolist() == [0, 1]
        assert list(errors) == [2] and type(errors[2]) is DefinitenessError
        assert str(errors[2]) == "could not restore positive definiteness with jitter up to 0.01"
        record = filter_windows(stack, [FilterConfig(method="empirical")] * 3)
        assert record.jitter.tolist() == jitter.tolist() and list(record.errors) == [2]


class TestFilterConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FilterConfig(method="magic")
        with pytest.raises(ParameterError):
            FilterConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            FilterConfig(lam=-1.0)
        with pytest.raises(ParameterError):
            FilterConfig(max_clique=1)
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
        glasso_result = apply_filter(corr, FilterConfig(method="glasso", lam=2.0))
        assert glasso_result.sparsity == 1.0 and glasso_result.sweeps >= 1
        mfcf_result = apply_filter(corr, FilterConfig(method="mfcf"))
        # the 3n - 6 = 9 edges of a triangulated filter on 5 series, of 10 pairs
        assert mfcf_result.sparsity == pytest.approx(0.1) and mfcf_result.sweeps is None


def scored_folds(monkeypatch, panel, folds, method):
    """The selector's choice for ``method`` and, per fold, the (x, candidates,
    failed, scores) of its ``_gaussian_scores`` call."""
    calls, score = [], filtering._gaussian_scores

    def spy(x, sigmas, failed=()):
        calls.append((x, sigmas, list(failed), score(x, sigmas, failed)))
        return calls[-1][3]

    monkeypatch.setattr(filtering, "_gaussian_scores", spy)
    (chosen,) = select_cv([panel], method, folds)
    return chosen, calls


def check_against_reference(monkeypatch, panel, folds, method):
    """Each fold's stacked scores, their sum and the choice are bitwise
    those of the one-at-a-time reference; returns the fold calls."""
    chosen, calls = scored_folds(monkeypatch, panel, folds, method)
    assert len(calls) == folds - 1
    total = np.zeros(len(calls[0][3]))
    for x, sigmas, failed, scores in calls:
        want = [-math.inf if i in failed else gaussian_score_reference(x, sigma) for i, sigma in enumerate(sigmas)]
        assert scores.tobytes() == np.array(want).tobytes()
        total += scores
    reference = cv_scores_reference(panel, folds, method)
    assert total.tobytes() == reference.tobytes()
    assert chosen == (ALPHA_GRID if method == "shrinkage" else LAMBDA_GRID)[int(np.argmax(reference))]
    return calls


class TestCrossValidation:
    @pytest.mark.parametrize("folds", [2, 5])
    @pytest.mark.parametrize("method", ["shrinkage", "glasso"])
    @pytest.mark.parametrize("differenced", [False, True], ids=["raw", "differenced"])
    def test_fold_scores_match_one_at_a_time_reference(self, monkeypatch, method, folds, differenced):
        panel = synthesize_dataset(7, 1, 180, seed=4).panel(1)
        check_against_reference(monkeypatch, panel.differenced() if differenced else panel, folds, method)

    def test_singular_candidate_scores_minus_inf(self, monkeypatch):
        # a duplicated column makes every fold's correlation, alpha = 0's
        # candidate, singular; a constant column would not (it correlates 0)
        values = synthesize_dataset(7, 1, 180, seed=4).panel(1).values.copy()
        values[:, 3] = values[:, 0]
        calls = check_against_reference(monkeypatch, TimeSeriesPanel(values), 5, "shrinkage")
        assert all(scores[0] == -math.inf and np.isfinite(scores[1:]).all() for *_, scores in calls)

    def test_failed_glasso_problems_score_minus_inf(self, monkeypatch):
        panel = synthesize_dataset(7, 1, 180, seed=4).panel(1)
        with glasso_caps(max_sweeps=1):
            calls = check_against_reference(monkeypatch, panel, 5, "glasso")
        assert any(failed for _, _, failed, _ in calls)
        for _, _, failed, scores in calls:
            assert np.isneginf(scores[failed]).all() and np.isfinite(np.delete(scores, failed)).all()

    def test_all_failed_picks_the_first_grid_value(self, monkeypatch):
        panel = synthesize_dataset(7, 1, 180, seed=4).panel(1)
        with glasso_caps(max_sweeps=0):
            calls = check_against_reference(monkeypatch, panel, 5, "glasso")
            assert select_cv([panel], "glasso", 5) == [LAMBDA_GRID[0]]
        assert all(np.isneginf(scores).all() for *_, scores in calls)

    def test_independent_noise_selects_strong_shrinkage(self):
        rng = np.random.default_rng(42)
        panel = TimeSeriesPanel(rng.normal(size=(240, 8)))
        assert select_cv([panel], "shrinkage", 4)[0] >= 0.5

    def test_duplicated_column_selects_weak_shrinkage(self):
        rng = np.random.default_rng(100)
        values = rng.normal(size=(240, 5))
        values[:, 4] = values[:, 0]
        panel = TimeSeriesPanel(values)
        assert select_cv([panel], "shrinkage", 4)[0] <= 0.1

    def test_degenerate_fold_count_raises(self):
        rng = np.random.default_rng(20)
        panel = TimeSeriesPanel(rng.normal(size=(30, 4)))
        with pytest.raises(DataError):
            select_cv([panel], "shrinkage", 30)

    @pytest.mark.parametrize("method", ["empirical", "mfcf", "bogus"])
    def test_method_without_a_grid_is_rejected(self, method):
        panel = TimeSeriesPanel(np.random.default_rng(22).normal(size=(30, 4)))
        with pytest.raises(ParameterError, match=f"no cross-validation grid for method '{method}'"):
            select_cv([panel], method, 3)

    def test_too_few_folds_rejected(self):
        rng = np.random.default_rng(21)
        panel = TimeSeriesPanel(rng.normal(size=(30, 4)))
        with pytest.raises(ParameterError):
            select_cv([panel], "glasso", 1)

    def test_independent_noise_selects_large_lambda(self):
        rng = np.random.default_rng(0)
        panel = TimeSeriesPanel(rng.normal(size=(160, 5)))
        (lam,) = select_cv([panel], "glasso", 4)
        assert lam >= LAMBDA_GRID[len(LAMBDA_GRID) // 2]

    def test_factor_panel_selects_small_lambda(self):
        rng = np.random.default_rng(200)
        factor = rng.normal(size=(160, 1))
        values = 0.9 * factor + 0.45 * rng.normal(size=(160, 5))
        panel = TimeSeriesPanel(values)
        (lam,) = select_cv([panel], "glasso", 4)
        assert lam < LAMBDA_GRID[len(LAMBDA_GRID) // 2]
