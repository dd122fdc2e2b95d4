import numpy as np

from fsstgnn.filtering import FilterConfig
from fsstgnn.pipeline import ExperimentConfig, _build_examples, _train_row_count

from _oracles import make_panel


class TestNoTestLeakage:
    def test_test_rows_do_not_move_fit_examples(self):
        rng = np.random.default_rng(40)
        values = 50.0 + rng.normal(size=(90, 6)).cumsum(axis=0)
        config = ExperimentConfig(model="fsst-gcn", lookback=10, seeds=(0,))
        filt = FilterConfig(method="mfcf")
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
