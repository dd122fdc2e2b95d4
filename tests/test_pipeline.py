import dataclasses
import os
import re
import warnings

import numpy as np
import pytest

from fsstgnn import cli, filtering, pipeline
from fsstgnn.data import synthesize_dataset
from fsstgnn.errors import ConvergenceError, DataError, ParameterError
from fsstgnn.filtering import FilterConfig
from fsstgnn.graphs import benchmark_graph, from_filter_result
from fsstgnn.linalg import TimeSeriesPanel, correlation_from_rows
from fsstgnn.pipeline import (
    ExperimentConfig,
    _build_examples,
    _check_segments,
    _filter_panels,
    _panel_part,
    _prepare_units,
    _run_units,
    _train_row_count,
    evaluate_experiment,
    report_records,
    run_experiment,
    sweep,
)

from _oracles import filter_item_reference, shrink_reference, stack_of


def filtered(panel, config, filt):
    """The pipeline's filtered windows of one panel under ``filt``."""
    return _filter_panels([panel], dataclasses.replace(config, filter=filt))[0]


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
        panel = TimeSeriesPanel(values)
        train_rows = _train_row_count(panel, config)
        changed = values.copy()
        changed[train_rows:] = 1e3 * rng.normal(size=changed[train_rows:].shape) ** 2

        before = _build_examples(panel, config, filtered(panel, config, filt), _panel_part(panel, config))
        changed_panel = TimeSeriesPanel(changed)
        after = _build_examples(changed_panel, config, filtered(changed_panel, config, filt),
                                _panel_part(changed_panel, config))
        seen = np.concatenate([before.fit_idx, before.val_idx])
        assert np.array_equal(before.fit_idx, after.fit_idx)
        for name in ("windows_std", "features_std", "targets_std", "graphs"):
            assert np.array_equal(getattr(before, name)[seen], getattr(after, name)[seen]), name
        # the test examples did change, so the check above is not vacuous
        assert not np.array_equal(before.features_std[before.test_idx],
                                  after.features_std[after.test_idx])
        assert not np.array_equal(before.graphs[before.test_idx], after.graphs[after.test_idx])


class TestGlassoFallback:
    def test_unconverged_windows_get_the_empirical_graph(self, monkeypatch):
        rng = np.random.default_rng(41)
        values = 50.0 + rng.normal(size=(70, 5)).cumsum(axis=0)
        values[:30, 1:] = 50.0          # windows inside these rows correlate as the identity
        config = ExperimentConfig(model="fsst-gcn", lookback=10, seeds=(0,))
        filt = FilterConfig(method="glasso", lam=0.1)
        panel = TimeSeriesPanel(values)
        solved = _build_examples(panel, config, filtered(panel, config, filt), _panel_part(panel, config))
        monkeypatch.setattr(filtering, "GLASSO_MAX_SWEEPS", 1)
        capped = _build_examples(panel, config, filtered(panel, config, filt), _panel_part(panel, config))

        corrs = [correlation_from_rows(values[t - 10: t]) for t in range(10, 70)]
        errors = filtering.glasso_stack(stack_of(corrs), 0.1).errors
        assert all(isinstance(exc, ConvergenceError) for exc in errors.values())
        failed = [k in errors for k in range(len(corrs))]
        assert 0 < sum(failed) < len(failed)
        assert (solved.fallbacks, capped.fallbacks) == (0, sum(failed))
        for row, corr in enumerate(corrs):
            want = (from_filter_result(shrink_reference(corr), config.graph_kind) if failed[row]
                    else solved.graphs[row])
            assert np.array_equal(capped.graphs[row], want), row


class TestJobs:
    def test_jobs_do_not_change_glasso_records(self):
        dataset = synthesize_dataset(4, 2, 70, seed=5)
        config = ExperimentConfig(model="fsst-gcn", filter=FilterConfig(method="glasso", cv_folds=3),
                                  lookback=7, seeds=(0, 1), epochs=1, lstm_hidden=4, embed_dim=4,
                                  mlp_hidden=4)
        serial = report_records(run_experiment(dataset, config, jobs=1))
        assert report_records(run_experiment(dataset, config, jobs=2)) == serial

    def test_jobs_do_not_change_mfcf_sweep_records(self):
        dataset = synthesize_dataset(5, 2, 60, seed=6)
        config = ExperimentConfig(model="fsst-gcn", filter=FilterConfig(method="mfcf"), lookback=7,
                                  seeds=(0, 1), epochs=1, lstm_hidden=4, embed_dim=4, mlp_hidden=4)
        kinds = ["correlation", "inverse-correlation"]
        serial = [report_records(row.report) for row in sweep(dataset, config, "graph-kind", kinds)]
        serial_cache = dict(pipeline._FILTER_CACHE)
        pipeline._FILTER_CACHE.clear()          # so the pool builds the graphs again
        pooled = [report_records(row.report)
                  for row in sweep(dataset, config, "graph-kind", kinds, jobs=2)]
        assert pooled == serial
        assert pipeline._FILTER_CACHE.keys() == serial_cache.keys() and len(serial_cache) == 2
        for key, entry in serial_cache.items():
            assert_filtered_equal(pipeline._FILTER_CACHE[key], entry)

    # an OSError stands for a failed checkpoint write; the ids of the
    # ConvergenceError cases are just the job count
    @pytest.mark.parametrize("jobs, error", [(1, ConvergenceError), (2, ConvergenceError), (1, OSError), (2, OSError)],
                             ids=["1", "2", "1-OSError", "2-OSError"])
    def test_jobs_do_not_change_the_checkpoints_a_failed_run_leaves(self, monkeypatch, tmp_path, jobs, error):
        train = pipeline._train_unit

        def failing(model, ex, config, seed, item):
            if (item, seed) == (1, 0):
                raise error("unit 1/0 failed")
            return train(model, ex, config, seed, item)

        monkeypatch.setattr(pipeline, "_train_unit", failing)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **{**SMALL, "seeds": (0, 1, 2)})
        with pytest.raises(error, match="^unit 1/0 failed$"):
            run_experiment(synthesize_dataset(5, 2, 60, seed=19), config, jobs=jobs, checkpoint_dir=str(tmp_path))
        # every other unit still trains and saves its checkpoint
        assert sorted(os.listdir(tmp_path)) == [f"item{item}_seed{seed}.ckpt" for item in (1, 2)
                                                for seed in (0, 1, 2) if (item, seed) != (1, 0)]

    def test_a_missing_checkpoint_is_raised_after_every_other_unit_is_scored(self, monkeypatch, tmp_path):
        dataset = synthesize_dataset(5, 2, 60, seed=19)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **{**SMALL, "seeds": (0, 1)})
        run_experiment(dataset, config, checkpoint_dir=str(tmp_path))
        os.remove(tmp_path / "item1_seed0.ckpt")
        scored, evaluate = [], pipeline._evaluate_unit

        def recording(model, ex, item, seed, epochs_ran):
            scored.append((item, seed))
            return evaluate(model, ex, item, seed, epochs_ran)

        monkeypatch.setattr(pipeline, "_evaluate_unit", recording)
        with pytest.raises(FileNotFoundError, match="item1_seed0.ckpt"):
            evaluate_experiment(dataset, config, str(tmp_path))
        assert scored == [(1, 1), (2, 0), (2, 1)]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and its
    multiprocessing context, runs in process."""

    sizes = []
    contexts = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)
        self.contexts.append(mp_context)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, unit_args):
        return map(worker, unit_args)


class TestRunUnits:
    @pytest.fixture
    def sizes(self, monkeypatch):
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(_RecordingPool, "contexts", [])
        return _RecordingPool.sizes

    def test_pool_is_no_larger_than_the_work(self, sizes):
        assert _run_units(str, [1, 2], 8) == ["1", "2"]
        assert _run_units(str, [1, 2, 3], 2) == ["1", "2", "3"]
        assert sizes == [2, 2]

    def test_workers_are_forked_so_they_inherit_the_examples(self, sizes):
        assert _run_units(str, [1, 2], 2) == ["1", "2"]
        assert [context.get_start_method() for context in _RecordingPool.contexts] == ["fork"]

    def test_one_unit_or_one_job_runs_in_process(self, sizes):
        assert _run_units(str, [1], 8) == ["1"]
        assert _run_units(str, [1, 2], 1) == ["1", "2"]
        assert _run_units(str, [], 4) == []
        assert sizes == []

    def test_jobs_below_one_are_rejected(self, sizes, filter_calls, tmp_path):
        with pytest.raises(ParameterError, match="jobs must be >= 1, got 0"):
            _run_units(str, [1, 2], 0)
        dataset, config = synthesize_dataset(4, 1, 40, seed=0), ExperimentConfig(filter=FilterConfig(method="mfcf"))
        with pytest.raises(ParameterError, match="jobs must be >= 1, got -1"):
            sweep(dataset, config, "graph-kind", ["ones"], jobs=-1)
        # rejected before any window is filtered, which no longer happens in a pool
        with pytest.raises(ParameterError, match="jobs must be >= 1, got 0"):
            run_experiment(dataset, config, jobs=0)
        with pytest.raises(ParameterError, match="jobs must be >= 1, got 0"):
            evaluate_experiment(dataset, config, str(tmp_path), jobs=0)
        assert filter_calls == []

    def test_evaluate_without_a_checkpoint_directory_is_rejected(self, filter_calls):
        dataset, config = synthesize_dataset(4, 1, 40, seed=0), ExperimentConfig(filter=FilterConfig(method="mfcf"))
        with pytest.raises(ParameterError, match="needs checkpoint_dir, their directory; got None"):
            evaluate_experiment(dataset, config, None)
        # rejected before any window is filtered
        assert filter_calls == []

    def test_cli_jobs_zero_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "sales.csv"
        assert cli.main(["gen-data", "--stores", "4", "--items", "1", "--days", "40",
                         "--out", str(csv)]) == 0
        for command in ("train", "sweep"):
            argv = [command, "--input", str(csv), "--model", "lstm", "--seeds", "0",
                    "--epochs", "1", "--jobs", "0"]
            if command == "sweep":
                argv += ["--axis", "graph-kind", "--values", "ones"]
            assert cli.main(argv) == 1
            assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err


def assert_filtered_equal(got, want):
    assert got.errors.keys() == want.errors.keys()
    for name in ("correlation", "precision", "sparsity", "jitter", "sweeps"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_examples_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.fixture
def filter_calls(monkeypatch):
    """The correlation stacks that ``filter_windows`` was called with."""
    calls = []

    def spy(corrs, configs):
        calls.append(corrs)
        return filtering.filter_windows(corrs, configs)

    monkeypatch.setattr(pipeline, "filter_windows", spy)
    return calls


def _examples(dataset, config):
    """Each item's examples, read from the table under the key its units carry."""
    return [pipeline._EXAMPLES[args[0]] for args in _prepare_units(dataset, config, {})]


SMALL = dict(lookback=7, seeds=(0,), epochs=1, lstm_hidden=4, embed_dim=4, mlp_hidden=4)


class TestFilterCache:
    @pytest.mark.parametrize("filt", [FilterConfig(method="mfcf"),
                                      FilterConfig(method="glasso", cv_folds=3)])
    def test_cached_build_equals_cold_build(self, filt, filter_calls):
        dataset = synthesize_dataset(5, 2, 60, seed=8)
        configs = [ExperimentConfig(graph_kind=kind, filter=filt, **SMALL)
                   for kind in ("correlation", "inverse-correlation")]
        cold = []
        for config in configs:
            pipeline._FILTER_CACHE.clear()
            cold.append(_examples(dataset, config))
        # one call per cold build filters the windows of both items
        assert [len(corrs) for corrs in filter_calls] == [2 * 53] * 2
        # both graph kinds now build from the entries the last cold build cached
        for config, want in zip(configs, cold):
            for got, ex in zip(_examples(dataset, config), want):
                assert_examples_equal(got, ex)
        assert len(filter_calls) == 2
        # the graphs are those of each window filtered on its own under the
        # filter resolved on the training rows
        panel = dataset.panel(1)
        rows = _train_row_count(panel, configs[0])
        (resolved,) = pipeline.resolve_filter([TimeSeriesPanel(panel.values[:rows])], configs[0])
        assert filt.method != "glasso" or resolved.lam is not None
        values = panel.values
        for config, examples in zip(configs, cold):
            for row in (0, len(values) - 8):
                corr = correlation_from_rows(values[row: row + 7])
                want = from_filter_result(filtering.apply_filter(corr, resolved), config.graph_kind)
                assert np.array_equal(examples[0].graphs[row], want)

    @pytest.mark.parametrize("kind, stack", [("correlation", "correlation"),
                                             ("inverse-correlation", "precision")])
    def test_examples_carry_the_cached_stack(self, kind, stack):
        dataset = synthesize_dataset(5, 2, 60, seed=16)
        config = ExperimentConfig(graph_kind=kind, filter=FilterConfig(method="mfcf"), **SMALL)
        for item, ex in zip(dataset.items, _examples(dataset, config)):
            entry = pipeline._FILTER_CACHE[pipeline._filter_key(dataset.panel(item), config)]
            assert np.array_equal(ex.graphs, getattr(entry, stack))

    def test_changed_input_misses(self, filter_calls):
        dataset = synthesize_dataset(5, 1, 60, seed=9)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **SMALL)
        panel = dataset.panel(1)
        values = panel.values.copy()
        values[3, 2] += 1.0
        changed = dataclasses.replace(dataset, panels={
            1: TimeSeriesPanel(values)})
        variants = [
            (changed, config),
            (dataset, dataclasses.replace(config, lookback=8)),
            (dataset, dataclasses.replace(config, use_differences=True)),
            (dataset, dataclasses.replace(config, filter=FilterConfig(method="mfcf",
                                                                      mfcf_gain_threshold=0.01))),
        ]
        for variant_dataset, variant_config in variants:
            _examples(dataset, config)
            filter_calls.clear()
            _examples(dataset, config)
            assert filter_calls == []
            _examples(variant_dataset, variant_config)
            assert len(filter_calls) == 1

    def test_settings_the_method_does_not_read_share_the_entry(self, filter_calls):
        dataset = synthesize_dataset(5, 1, 60, seed=15)
        config = ExperimentConfig(filter=FilterConfig(method="glasso", lam=0.1), **SMALL)
        _examples(dataset, config)
        unread = FilterConfig(method="glasso", lam=0.1, alpha=0.5, max_clique=5, mfcf_gain_threshold=0.05,
                              cv_folds=3)
        _examples(dataset, dataclasses.replace(config, filter=unread))
        assert len(filter_calls) == 1
        _examples(dataset, dataclasses.replace(config, filter=FilterConfig(method="glasso", lam=0.2)))
        assert len(filter_calls) == 2

    def test_cache_keeps_the_entries_of_the_latest_call_that_filtered(self, filter_calls):
        dataset = synthesize_dataset(5, 2, 60, seed=13)
        first = ExperimentConfig(filter=FilterConfig(method="mfcf"), **SMALL)
        second = dataclasses.replace(first, lookback=8)
        _examples(dataset, first)
        _examples(dataset, second)
        keys = {pipeline._filter_key(dataset.panel(item), second) for item in dataset.items}
        assert pipeline._FILTER_CACHE.keys() == keys
        _examples(dataset, dataclasses.replace(first, graph_kind="ones"))
        _examples(dataset, dataclasses.replace(first, model="lstm"))
        assert pipeline._FILTER_CACHE.keys() == keys
        assert len(filter_calls) == 2           # one per call that filtered, over both items

    def test_cached_arrays_refuse_writes(self):
        _examples(synthesize_dataset(5, 2, 60, seed=10),
                  ExperimentConfig(filter=FilterConfig(method="mfcf"), **SMALL))
        assert len(pipeline._FILTER_CACHE) == 2
        for entry in pipeline._FILTER_CACHE.values():
            for array in (entry.correlation, entry.precision, entry.sparsity, entry.jitter, entry.sweeps):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_evaluate_after_training_reuses_graphs_and_reproduces_records(self, tmp_path,
                                                                         filter_calls):
        dataset = synthesize_dataset(5, 2, 60, seed=11)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **SMALL)
        trained = run_experiment(dataset, config, checkpoint_dir=str(tmp_path))
        assert len(filter_calls) == 1           # both items in one call
        scored = evaluate_experiment(dataset, config, str(tmp_path))
        assert len(filter_calls) == 1
        assert report_records(scored) == report_records(trained)


class TestFilterStage:
    """``_prepare_units`` filters every item it misses in this process, one
    stack per stage; each cached stack, and each item's resolved alpha or
    lambda, must be bitwise what the item gets when filtered alone."""

    @staticmethod
    def prepare(monkeypatch, dataset, config):
        """Prepare ``dataset``; returns the filter configs resolved for its items."""
        resolved, resolve = [], pipeline.resolve_filter
        monkeypatch.setattr(pipeline, "resolve_filter",
                            lambda *args: resolved.append(resolve(*args)) or resolved[-1])
        _examples(dataset, config)
        (filts,) = resolved                     # one CV stage for all items
        return filts

    @staticmethod
    def check_against_reference(dataset, config, filts):
        """Compare every item with the per-item reference; returns each item's fallbacks."""
        fallbacks = []
        for item, filt in zip(dataset.items, filts):
            panel = dataset.panel(item)
            want_filt, want = filter_item_reference(panel, config)
            got = pipeline._FILTER_CACHE[pipeline._filter_key(panel, config)]
            assert filt == want_filt, item
            assert_filtered_equal(got, want)
            # exactly symmetric, fallback rows included, as graphs must be
            for stack in (got.correlation, got.precision):
                assert np.array_equal(stack, stack.swapaxes(1, 2)), item
            assert {k: type(e) for k, e in got.errors.items()} == {k: type(e) for k, e in want.errors.items()}
            fallbacks.append(len(got.errors))
        return fallbacks

    @pytest.mark.parametrize("use_differences", [False, True], ids=["raw", "differenced"])
    @pytest.mark.parametrize("filt", [FilterConfig(method="empirical"), FilterConfig(method="shrinkage"),
                                      FilterConfig(method="glasso"), FilterConfig(method="mfcf")],
                             ids=["empirical", "shrinkage-cv", "glasso-cv", "mfcf"])
    def test_cached_stacks_are_the_per_item_reference(self, monkeypatch, filter_calls, filt,
                                                      use_differences):
        stacks = []
        glasso_stack = filtering.glasso_stack
        monkeypatch.setattr(filtering, "glasso_stack", lambda *args: stacks.append(len(args[0])) or
                            glasso_stack(*args))
        dataset = synthesize_dataset(7, 5, 180, seed=1)
        config = ExperimentConfig(filter=filt, use_differences=use_differences, **{**SMALL, "lookback": 10})
        filts = self.prepare(monkeypatch, dataset, config)
        stacked = list(stacks)
        assert self.check_against_reference(dataset, config, filts) == [0] * 5
        # one call filters the windows of all five items, and nothing falls back
        assert [len(corrs) for corrs in filter_calls] == [5 * 170]
        if filt.method in ("shrinkage", "glasso"):
            # the items select different values, so a window keeps its own item's
            chosen = [f.alpha if filt.method == "shrinkage" else f.lam for f in filts]
            assert len(set(chosen)) >= 3, chosen
        if filt.method == "glasso":
            # the CV's (item, fold, lambda) problems are one stack, the windows another
            assert stacked == [5 * 4 * len(filtering.LAMBDA_GRID), 5 * 170]

    def test_fallbacks_in_some_items_only(self, monkeypatch, filter_calls):
        # windows whose rows hold all stores but one constant correlate as the
        # identity and converge in one sweep; the others do not
        dataset = synthesize_dataset(5, 3, 60, seed=21)
        panels = dict(dataset.panels)
        for item, rows in ((2, slice(None)), (3, slice(30))):
            values = panels[item].values.copy()
            values[rows, 1:] = 50.0
            panels[item] = TimeSeriesPanel(values)
        dataset = dataclasses.replace(dataset, panels=panels)
        monkeypatch.setattr(filtering, "GLASSO_MAX_SWEEPS", 1)
        config = ExperimentConfig(filter=FilterConfig(method="glasso", lam=0.1), **SMALL)
        fallbacks = self.check_against_reference(dataset, config, self.prepare(monkeypatch, dataset, config))
        assert fallbacks[0] == 53 and fallbacks[1] == 0 and 0 < fallbacks[2] < 53, fallbacks
        # the windows of all items, then the failed ones of all items
        assert [len(corrs) for corrs in filter_calls] == [3 * 53, fallbacks[0] + fallbacks[2]]


class TestSegments:
    def test_check_raises_exactly_when_no_target_is_left_to_fit(self):
        lookback = 4
        raised = 0
        for train_targets in range(3, 41):
            # train_fraction 0.5 of twice the training rows: the training rows exactly
            panel = TimeSeriesPanel(np.random.default_rng(train_targets).normal(
                size=(2 * (lookback + train_targets), 3)))
            for fraction in (0.0, 0.1, 0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995):
                config = ExperimentConfig(model="lstm", lookback=lookback, train_fraction=0.5,
                                          val_fraction=fraction)
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ex = _build_examples(panel, config, None, _panel_part(panel, config))
                assert len(ex.fit_idx) + len(ex.val_idx) == train_targets
                try:
                    _check_segments(panel, config)
                except DataError as exc:
                    assert len(ex.fit_idx) == 0, (train_targets, fraction)
                    assert f"holds out all {train_targets} training targets" in str(exc)
                    raised += 1
                else:
                    assert len(ex.fit_idx) > 0, (train_targets, fraction)
        assert raised > 10


class TestBenchmarkGraphExamples:
    @pytest.mark.parametrize("kind, share", [("ones", 0.0), ("zeros", 1.0), ("identity", 1.0)])
    def test_graphs_and_sparsity_come_from_the_weights(self, kind, share):
        (ex,) = _examples(synthesize_dataset(5, 1, 60, seed=17), ExperimentConfig(graph_kind=kind, **SMALL))
        weights = benchmark_graph(5, kind)
        assert np.array_equal(ex.graphs, np.broadcast_to(weights, ex.graphs.shape))
        assert ex.sparsity_mean == filtering.sparsity(weights) == share


class TestDegeneratePanel:
    # Two CV folds: at five, the first fold trains on 10 rows of the 12
    # stores, and its glasso problems at the smallest lambdas run all
    # GLASSO_MAX_SWEEPS sweeps, about a minute.
    @pytest.mark.parametrize("filt", [FilterConfig(method="empirical"), FilterConfig(method="shrinkage", cv_folds=2),
                                      FilterConfig(method="glasso", cv_folds=2), FilterConfig(method="mfcf")],
                             ids=["empirical", "shrinkage-cv", "glasso-cv", "mfcf"])
    def test_more_stores_than_lookback_rows_gives_finite_records(self, filt):
        # 12 stores, 5-row windows: every window correlation is singular
        dataset = synthesize_dataset(12, 2, 60, seed=3)
        config = ExperimentConfig(filter=filt, **{**TWO_SEEDS, "lookback": 5})
        records = report_records(run_experiment(dataset, config, jobs=1))
        assert report_records(run_experiment(dataset, config, jobs=2)) == records
        for record in records:
            for name in ("rmse", "mae", "mape", "sparsity"):
                assert np.isfinite(record[name]), name

    def test_window_of_rank_one_below_full_gives_finite_records(self):
        # 7 rows of 7 stores: item 3's window 91 needs jitter though it
        # clears the pivot floor without, as its inverse is not positive definite
        dataset = synthesize_dataset(7, 5, 180, seed=1)
        records = report_records(run_experiment(dataset, ExperimentConfig(
            filter=FilterConfig(method="empirical"), **SMALL)))
        assert len(records) == 1
        for record in records:
            for name in ("rmse", "mae", "mape", "sparsity"):
                assert np.isfinite(record[name]), name

    def test_constant_store_gives_finite_records(self):
        dataset = synthesize_dataset(5, 1, 60, seed=14)
        panel = dataset.panel(1)
        values = panel.values.copy()
        values[:, 2] = 7.0
        constant = dataclasses.replace(dataset, panels={
            1: TimeSeriesPanel(values)})
        records = report_records(run_experiment(constant, ExperimentConfig(**SMALL)))
        assert records and records[0]["fallbacks"] == 0
        for record in records:
            for name in ("rmse", "mae", "mape", "sparsity"):
                assert np.isfinite(record[name]), name


class TestSweep:
    def test_sweep_continues_past_a_failing_value(self, filter_calls):
        # a clique of 6 does not fit 5 stores: only the mfcf run fails, once it filters
        dataset = synthesize_dataset(5, 2, 60, seed=12)
        config = ExperimentConfig(filter=FilterConfig(max_clique=6), **SMALL)
        rows = sweep(dataset, config, "filter-method", ["empirical", "mfcf", "shrinkage"])
        assert [row.failed for row in rows] == [False, True, False]
        assert rows[1].error == "need at least max_clique=6 series, got 5"
        assert [row.config.filter.method for row in rows] == ["empirical", "mfcf", "shrinkage"]
        # one call over both items for each run that filters, the failing run included
        assert [len(corrs) for corrs in filter_calls] == [2 * 53] * 3
        for row in (rows[0], rows[2]):
            assert row.report == run_experiment(dataset, row.config)

    @pytest.mark.parametrize("method, axis, values, message", [
        ("mfcf", "graph-kind", ["ones", "bogus"], "sweep value 'bogus': unknown graph kind 'bogus'"),
        ("mfcf", "sparsity", [0.01, 0.01], "sweep values 0.01 and 0.01 run the same config "),
        ("empirical", "sparsity", [0.01], "sweep value 0.01: filter method 'empirical' has no sparsity"),
    ], ids=["bogus", "repeated", "no-knob"])
    def test_a_value_without_a_config_of_its_own_runs_nothing(self, filter_calls, method, axis, values,
                                                              message):
        config = ExperimentConfig(filter=FilterConfig(method=method), **SMALL)
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            sweep(synthesize_dataset(5, 1, 60, seed=12), config, axis, values)
        assert filter_calls == []


def _holds_array(value) -> bool:
    """Whether ``value`` is, or holds in a tuple, list, dict or dataclass, an ndarray."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_array(v) for v in value)
    if isinstance(value, dict):
        return any(_holds_array(v) for v in value.values())
    if dataclasses.is_dataclass(value):
        return any(_holds_array(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


TWO_SEEDS = {**SMALL, "seeds": (0, 1)}


class TestSweepMatchesRunExperiment:
    """``sweep`` prepares every value, shares each panel's windows and
    features, and trains the units of all values in one pool; each row must
    still be the report that ``run_experiment`` gives for its config."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("axis, values", [
        ("graph-kind", ["correlation", "inverse-correlation", "ones"]),
        ("sparsity", [0.0, 0.05]),
    ], ids=["graph-kind", "sparsity"])
    def test_each_row_is_its_run_experiment(self, axis, values, jobs):
        dataset = synthesize_dataset(5, 2, 60, seed=18)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **TWO_SEEDS)
        rows = sweep(dataset, config, axis, values, jobs=jobs)
        assert len(rows) == len(values) and not any(row.failed for row in rows)
        for row in rows:
            assert row.report == run_experiment(dataset, row.config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_unit_marks_only_its_row(self, monkeypatch, jobs):
        train = pipeline._train_unit

        def failing(model, ex, config, seed, item):
            # both items fail at seed 1; the row names the first in unit order
            if config.graph_kind == "correlation" and seed == 1:
                raise ConvergenceError(f"unit {item}/{seed} did not converge")
            return train(model, ex, config, seed, item)

        monkeypatch.setattr(pipeline, "_train_unit", failing)
        dataset = synthesize_dataset(5, 2, 60, seed=19)
        config = ExperimentConfig(filter=FilterConfig(method="mfcf"), **TWO_SEEDS)
        rows = sweep(dataset, config, "graph-kind", ["inverse-correlation", "correlation", "ones"],
                     jobs=jobs)
        assert [row.failed for row in rows] == [False, True, False]
        assert rows[1].error == "unit 1/1 did not converge"
        with pytest.raises(ConvergenceError, match="^unit 1/1 did not converge$"):
            run_experiment(dataset, rows[1].config, jobs=jobs)
        for row in (rows[0], rows[2]):
            assert row.report == run_experiment(dataset, row.config)


class TestExamplesTable:
    """Examples reach the units through ``pipeline._EXAMPLES``, never in
    their arguments, and no command leaves the table filled."""

    DATASET = dict(n_stores=5, n_items=2, n_days=60, seed=20)
    CONFIG = ExperimentConfig(filter=FilterConfig(method="mfcf"), **SMALL)
    KINDS = ["correlation", "ones"]

    def test_unit_args_carry_keys_not_arrays(self, tmp_path, monkeypatch):
        calls = []
        run_units = pipeline._run_units

        def spy(worker, unit_args, jobs):
            calls.append((worker, unit_args, {args[0]: pipeline._EXAMPLES[args[0]] for args in unit_args}))
            return run_units(worker, unit_args, jobs)

        monkeypatch.setattr(pipeline, "_run_units", spy)
        dataset = synthesize_dataset(**self.DATASET)
        run_experiment(dataset, self.CONFIG, checkpoint_dir=str(tmp_path), jobs=2)
        evaluate_experiment(dataset, self.CONFIG, str(tmp_path), jobs=2)
        sweep(dataset, self.CONFIG, "graph-kind", self.KINDS, jobs=2)
        # filtering runs in process: the only pools train and score units
        assert [worker for worker, _, _ in calls] == [pipeline._run_unit] * 3
        for worker, unit_args, examples in calls:
            assert len(unit_args) == len(examples) * len(self.CONFIG.seeds) > 0
            assert not any(_holds_array(args) for args in unit_args), worker.__name__
            assert all(isinstance(ex, pipeline._Examples) for ex in examples.values())
        # the sweep's values share each panel's part, and only the graphs differ
        sweep_examples = calls[2][2]
        for item in dataset.items:
            correlation, ones = (sweep_examples[(dataclasses.replace(self.CONFIG, graph_kind=kind)
                                                 .config_hash, item)] for kind in self.KINDS)
            assert correlation.windows_std is ones.windows_std
            assert correlation.features_std is ones.features_std
            assert not np.array_equal(correlation.graphs, ones.graphs)

    def test_no_command_leaves_examples_behind(self, tmp_path):
        dataset = synthesize_dataset(**self.DATASET)
        run_experiment(dataset, self.CONFIG, checkpoint_dir=str(tmp_path))
        assert pipeline._EXAMPLES == {}
        evaluate_experiment(dataset, self.CONFIG, str(tmp_path))
        assert pipeline._EXAMPLES == {}
        sweep(dataset, self.CONFIG, "graph-kind", self.KINDS)
        assert pipeline._EXAMPLES == {}

    def test_no_failing_command_leaves_examples_behind(self, tmp_path, monkeypatch):
        seen = []

        def stop(*args):
            seen.append(len(pipeline._EXAMPLES))
            raise RuntimeError("stop")

        dataset = synthesize_dataset(**self.DATASET)
        monkeypatch.setattr(pipeline, "_train_unit", stop)
        with pytest.raises(RuntimeError, match="stop"):
            run_experiment(dataset, self.CONFIG)
        assert pipeline._EXAMPLES == {}
        with pytest.raises(RuntimeError, match="stop"):
            sweep(dataset, self.CONFIG, "graph-kind", self.KINDS)
        assert pipeline._EXAMPLES == {}
        monkeypatch.setattr(pipeline, "load_checkpoint", stop)
        with pytest.raises(RuntimeError, match="stop"):
            evaluate_experiment(dataset, self.CONFIG, str(tmp_path))
        assert pipeline._EXAMPLES == {}
        # each command had filled the table before its first unit raised
        assert seen == [2, 2 * len(self.KINDS), 2]


class TestConfigHash:
    @staticmethod
    def hash_of(**filter_fields):
        return ExperimentConfig(filter=FilterConfig(**filter_fields)).config_hash

    def test_defaults_and_benchmark_configs_keep_their_hashes(self):
        assert ExperimentConfig().config_hash == "603d8ca47a63"
        assert ExperimentConfig(filter=FilterConfig(method="mfcf"), seeds=(0, 1),
                                epochs=5).config_hash == "b861883f64d5"
        assert ExperimentConfig(model="fsst-gat", filter=FilterConfig(method="glasso"), seeds=(0,),
                                epochs=1).config_hash == "6755e41baa9e"
        assert ExperimentConfig(filter=FilterConfig(method="mfcf"), seeds=(0, 1),
                                epochs=1).config_hash == "7002868f1ed0"

    def test_only_the_settings_the_method_reads_enter_the_hash(self):
        unread = dict(alpha=0.5, lam=0.3, max_clique=5, mfcf_gain_threshold=0.05, cv_folds=3)
        assert self.hash_of(method="glasso", lam=0.1) == "458adc4d5f96"
        assert self.hash_of(method="glasso", **{**unread, "lam": 0.1}) == "458adc4d5f96"
        assert self.hash_of(method="shrinkage", **{**unread, "alpha": 0.2}) == self.hash_of(
            method="shrinkage", alpha=0.2)
        assert self.hash_of(method="mfcf", alpha=0.5, lam=0.3, cv_folds=3) == self.hash_of()
        assert self.hash_of(method="empirical", **unread) == self.hash_of(method="empirical")
        # what the method reads still counts, cv_folds only while CV selects
        assert self.hash_of(method="glasso", lam=0.2) != self.hash_of(method="glasso", lam=0.1)
        assert self.hash_of(method="glasso", cv_folds=3) != self.hash_of(method="glasso")
        assert self.hash_of(method="shrinkage", cv_folds=3) != self.hash_of(method="shrinkage")
        assert self.hash_of(mfcf_gain_threshold=0.05) != self.hash_of()
        assert self.hash_of(max_clique=5) != self.hash_of()

    @pytest.mark.parametrize("run", [dict(model="lstm"), dict(graph_kind="ones")], ids=["lstm", "ones-graph"])
    def test_runs_without_a_filter_hash_the_default_filter(self, run):
        default = ExperimentConfig(**run).config_hash
        assert default == {"model": "f4beb4052690", "graph_kind": "7566281efe52"}[next(iter(run))]
        for filt in (FilterConfig(mfcf_gain_threshold=0.05), FilterConfig(method="glasso", lam=0.1)):
            assert ExperimentConfig(filter=filt, **run).config_hash == default
