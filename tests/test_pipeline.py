import functools

import numpy as np

from fsstgnn import filtering
from fsstgnn.data import synthesize_dataset
from fsstgnn.errors import ConvergenceError
from fsstgnn.filtering import FilterConfig, empirical
from fsstgnn.graphs import from_filter_result
from fsstgnn.linalg import correlation_from_rows
from fsstgnn.pipeline import (
    ExperimentConfig,
    _build_examples,
    _train_row_count,
    report_records,
    run_experiment,
)

from _oracles import make_panel


class TestNoTestLeakage:
    def test_test_rows_do_not_move_fit_examples(self):
        self._check_test_rows_do_not_move_fit_examples(FilterConfig(method="mfcf"))

    def test_test_rows_do_not_move_glasso_fit_examples(self):
        self._check_test_rows_do_not_move_fit_examples(FilterConfig(method="glasso", lam=0.1))

    @staticmethod
    def _check_test_rows_do_not_move_fit_examples(filt):
        rng = np.random.default_rng(40)
        values = 50.0 + rng.normal(size=(90, 6)).cumsum(axis=0)
        config = ExperimentConfig(model="fsst-gcn", lookback=10, seeds=(0,))
        panel = make_panel(values)
        train_rows = _train_row_count(panel, config)
        changed = values.copy()
        changed[train_rows:] = 1e3 * rng.normal(size=changed[train_rows:].shape) ** 2

        before = _build_examples(panel, config, filt)
        after = _build_examples(make_panel(changed), config, filt)
        seen = np.concatenate([before.fit_idx, before.val_idx])
        assert np.array_equal(before.fit_idx, after.fit_idx)
        for name in ("windows_std", "features_std", "targets_std", "graph_weights"):
            assert np.array_equal(getattr(before, name)[seen], getattr(after, name)[seen]), name
        # the test examples did change, so the check above is not vacuous
        assert not np.array_equal(before.features_std[before.test_idx],
                                  after.features_std[after.test_idx])
        assert not np.array_equal(before.graph_weights[before.test_idx],
                                  after.graph_weights[after.test_idx])


class TestGlassoFallback:
    def test_unconverged_windows_get_the_empirical_graph(self, monkeypatch):
        rng = np.random.default_rng(41)
        values = 50.0 + rng.normal(size=(70, 5)).cumsum(axis=0)
        values[:30, 1:] = 50.0          # windows inside these rows correlate as the identity
        config = ExperimentConfig(model="fsst-gcn", lookback=10, seeds=(0,))
        filt = FilterConfig(method="glasso", lam=0.1)
        panel = make_panel(values)
        solved = _build_examples(panel, config, filt)
        capped_stack = functools.partial(filtering.glasso_stack, max_sweeps=1)
        monkeypatch.setattr(filtering, "glasso_stack", capped_stack)
        capped = _build_examples(panel, config, filt)

        corrs = [correlation_from_rows(values[t - 10: t]) for t in range(10, 70)]
        failed = [isinstance(o, ConvergenceError) for o in capped_stack(corrs, 0.1)]
        assert 0 < sum(failed) < len(failed)
        assert (solved.fallbacks, capped.fallbacks) == (0, sum(failed))
        for row, corr in enumerate(corrs):
            want = (from_filter_result(empirical(corr), config.graph_kind).weights if failed[row]
                    else solved.graph_weights[row])
            assert np.array_equal(capped.graph_weights[row], want), row


class TestJobs:
    def test_jobs_do_not_change_glasso_records(self):
        dataset = synthesize_dataset(4, 2, 70, seed=5)
        config = ExperimentConfig(model="fsst-gcn", filter=FilterConfig(method="glasso", cv_folds=3),
                                  lookback=7, seeds=(0, 1), epochs=1, lstm_hidden=4, embed_dim=4,
                                  mlp_hidden=4)
        serial = report_records(run_experiment(dataset, config, jobs=1))
        assert report_records(run_experiment(dataset, config, jobs=2)) == serial
