"""End-to-end training and evaluation: windowing, per-window graph
generation, the spatial-temporal forecaster loop, metrics, multi-seed
orchestration and the sweep harness.

For every look-back window the pipeline estimates a correlation matrix,
applies the configured filter, builds a graph and node features, and
feeds the raw window to the LSTM branch. Filter hyperparameters that are
left unset are selected per item by cross-validation on its training
segment only, then reused for all its windows (test windows included),
so no test information ever reaches parameter selection. Likewise the
series are standardized with training-row statistics and the node
features with statistics of the fit windows.

Filtering runs in this process, one stack per stage over the items that
miss the per-item cache (``_prepare_units``, ``_filter_panels``): the CV,
the windows under their own item's alpha or lambda, and the windows that
failed, which get the empirical filter and count as fallbacks. The
config hash sees only the settings that the run reads
(``ExperimentConfig.relevant``), and the cache key only the filter
settings that the configured method reads (``FilterConfig.relevant``).

Every command runs the (item, seed) units of its configs in one pool of
``jobs`` workers through ``_run_configs`` and ``_run_unit``, which returns
a caught error rather than raise it, so every unit runs. Examples reach
the workers by fork inheritance, never by pickling: each item's examples
wait in ``_EXAMPLES``, under a key that the unit args carry, until the
command ends. A sweep builds each panel's windows and features once.
"""

import hashlib
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import SalesDataset
from .errors import (
    ConvergenceError,
    DataError,
    DefinitenessError,
    ParameterError,
    ShapeError,
)
from .filtering import (
    KNOBS,
    FilterConfig,
    FilterStack,
    filter_windows,
    select_cv,
    sparsity,
)
from .graphs import FILTERED_KINDS, GRAPH_KINDS, benchmark_graph
from .linalg import TimeSeriesPanel, window_correlations
from .neural.features import window_moments
from .neural.layers import ACTIVATIONS
from .neural.models import (
    SpatialTemporalModel,
    TemporalOnlyModel,
    mse_loss,
    set_parameters,
    snapshot_parameters,
)
from .neural.checkpoint import load_checkpoint, save_checkpoint
from .neural.optim import Adam

MODELS = ("lstm", "fsst-gcn", "fsst-gat")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults follow the desk-scale setup.

    The CLI derives one flag and one config-file key per field, and per
    ``FilterConfig`` field, from the field metadata: ``help`` and
    ``choices``, plus ``flag`` and ``key`` where the flag or file key is
    not named after the field.
    """

    model: str = field(default="fsst-gcn", metadata={"help": "forecasting model", "choices": MODELS})
    graph_kind: str = field(default="inverse-correlation", metadata={
        "help": "graph fed to the GNN", "choices": GRAPH_KINDS, "flag": "--graph"})
    filter: FilterConfig = field(default_factory=FilterConfig)
    lookback: int = field(default=14, metadata={"help": "look-back window length"})
    train_fraction: float = field(default=0.8, metadata={"help": "chronological train split fraction"})
    seeds: tuple = field(default=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), metadata={
        "help": "comma-separated run seeds"})
    lstm_hidden: int = field(default=32, metadata={"help": "LSTM hidden width"})
    embed_dim: int = field(default=16, metadata={"help": "GNN embedding width"})
    gat_heads: int = field(default=4, metadata={"help": "attention heads"})
    mlp_hidden: int = field(default=32, metadata={"help": "readout hidden width"})
    activation: str = field(default="tanh", metadata={
        "help": "GNN activation", "choices": tuple(ACTIVATIONS)})
    learning_rate: float = field(default=1e-3, metadata={"help": "Adam learning rate"})
    epochs: int = field(default=100, metadata={"help": "training epochs"})
    patience: int = field(default=10, metadata={"help": "early-stopping patience"})
    batch_size: int = field(default=64, metadata={"help": "minibatch size"})
    val_fraction: float = field(default=0.1, metadata={
        "help": "tail fraction of training targets held out"})
    use_differences: bool = field(default=False, metadata={
        "help": "estimate correlations on first differences"})

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ParameterError(f"unknown graph kind {self.graph_kind!r}; expected one of {GRAPH_KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(
                f"unknown activation {self.activation!r}; expected one of {tuple(ACTIVATIONS)}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ParameterError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.lookback < 2:
            raise ParameterError(f"lookback must be >= 2, got {self.lookback}")
        if self.use_differences and self.lookback < 3:
            raise ParameterError(
                f"use_differences needs lookback >= 3 (2 differenced rows), got {self.lookback}")
        if not self.seeds:
            raise ParameterError("at least one seed is required")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ParameterError("epochs, patience and batch_size must all be >= 1")
        if min(self.lstm_hidden, self.embed_dim, self.gat_heads, self.mlp_hidden) < 1:
            raise ParameterError("lstm_hidden, embed_dim, gat_heads and mlp_hidden must all be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ParameterError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if min(self.seeds) < 0:
            raise ParameterError(f"seeds must be >= 0, got {min(self.seeds)}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ParameterError(f"seeds must be distinct; {repeated[0]} is given more than once")

    def relevant(self) -> "ExperimentConfig":
        """This config with every field the run does not read at its default:
        the LSTM reads no graph or GNN setting, the GCN no heads, and a run
        without a filter no filter setting and no ``use_differences``."""
        unread = {"lstm": ("graph_kind", "embed_dim", "gat_heads", "activation"),
                  "fsst-gcn": ("gat_heads",)}.get(self.model, ())
        if not _uses_filter(self):
            unread += ("filter", "use_differences")
        default = ExperimentConfig()
        return replace(self, **{"filter": self.filter.relevant(),
                                **{name: getattr(default, name) for name in unread}})

    @property
    def config_hash(self) -> str:
        """Hash of ``relevant()``, so settings the run does not read leave it unchanged."""
        d = asdict(self.relevant())
        d["filter"]["lambda"] = d["filter"].pop("lam")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class UnitResult:
    """Per (item, seed) outcome, carrying pooled error sums so seed-level
    metrics can be recombined exactly."""

    item: int
    seed: int
    n_points: int
    sse: float
    sae: float
    ape_sum: float
    mape_terms: int
    mape_excluded: int
    sparsity_mean: float
    fallbacks: int
    epochs_ran: int


@dataclass(frozen=True)
class MetricsReport:
    """Per-seed and aggregate (mean +/- sample std) metrics. A seed whose
    test targets are all zero has no MAPE term: its ``mape`` is None, and
    so are ``mape_mean`` and ``mape_std``."""

    config: ExperimentConfig
    per_seed: tuple          # ({seed, rmse, mae, mape, sparsity, fallbacks, mape_excluded}, ...)
    aggregate: dict          # {rmse_mean, rmse_std, mae_mean, ..., sparsity_mean}
    units: tuple = ()

    @staticmethod
    def from_units(config: "ExperimentConfig", units) -> "MetricsReport":
        units = tuple(units)
        seeds = sorted({u.seed for u in units})
        per_seed = []
        for seed in seeds:
            group = [u for u in units if u.seed == seed]
            n = sum(u.n_points for u in group)
            terms = sum(u.mape_terms for u in group)
            per_seed.append({
                "seed": seed,
                "rmse": math.sqrt(sum(u.sse for u in group) / n),
                "mae": sum(u.sae for u in group) / n,
                "mape": 100.0 * sum(u.ape_sum for u in group) / terms if terms else None,
                "sparsity": float(np.mean([u.sparsity_mean for u in group])),
                "fallbacks": int(sum(u.fallbacks for u in group)),
                "mape_excluded": int(sum(u.mape_excluded for u in group)),
            })
        aggregate = {}
        for key in ("rmse", "mae", "mape", "sparsity"):
            if any(row[key] is None for row in per_seed):
                aggregate[f"{key}_mean"] = aggregate[f"{key}_std"] = None
                continue
            values = np.array([row[key] for row in per_seed], dtype=float)
            aggregate[f"{key}_mean"] = float(values.mean())
            aggregate[f"{key}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        return MetricsReport(config=config, per_seed=tuple(per_seed), aggregate=aggregate, units=units)


def _unit_rng(seed: int, item: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, item, stream))))


def _train_row_count(panel: TimeSeriesPanel, config: ExperimentConfig) -> int:
    return int(round(panel.n_steps * config.train_fraction))


def _val_count(train_targets: int, val_fraction: float) -> int:
    """How many of the last training targets are held out for validation."""
    return max(1, round(train_targets * val_fraction)) if val_fraction > 0.0 and train_targets >= 3 else 0


def _check_segments(panel: TimeSeriesPanel, config: ExperimentConfig) -> None:
    """DataError unless the training rows fit the look-back plus targets to fit, and leave test rows."""
    rows = _train_row_count(panel, config)
    if rows <= config.lookback + 2:
        raise DataError(f"training segment of {rows} rows cannot fit lookback {config.lookback} plus targets")
    train_targets = rows - config.lookback
    if _val_count(train_targets, config.val_fraction) >= train_targets:
        raise DataError(f"val_fraction {config.val_fraction} holds out all {train_targets} training targets")
    if rows >= panel.n_steps:
        raise DataError("test segment is empty; lower train_fraction or add data")


def _uses_filter(config: ExperimentConfig) -> bool:
    return config.model != "lstm" and config.graph_kind in FILTERED_KINDS


def run_labels(config: ExperimentConfig) -> tuple:
    """The (graph, filter) labels of a run in tables and records; "/" for
    what the run does not use."""
    return ("/" if config.model == "lstm" else config.graph_kind,
            config.filter.method if _uses_filter(config) else "/")


def resolve_filter(panels_train, config: ExperimentConfig) -> list:
    """One filter config per item's training panel, with the field its method
    tunes, where unset, selected by cross-validation on that panel (one
    ``select_cv`` call for all); the windows at test time reuse it."""
    filt = config.filter
    name, grid = KNOBS.get(filt.method, (None, None))
    if grid is None or getattr(filt, name) is not None:
        return [filt] * len(panels_train)
    sources = [panel.differenced() if config.use_differences else panel for panel in panels_train]
    return [replace(filt, **{name: value}) for value in select_cv(sources, filt.method, filt.cv_folds)]


@dataclass
class _Examples:
    windows_std: np.ndarray
    features_std: np.ndarray
    graphs: np.ndarray | None
    targets_std: np.ndarray
    targets_raw: np.ndarray
    fit_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    mu: np.ndarray
    sd: np.ndarray
    sparsity_mean: float
    fallbacks: int


def _windows(panel: TimeSeriesPanel, lookback: int) -> np.ndarray:
    """The (targets, lookback, series) look-back window of every target
    row, from row ``lookback`` on."""
    view = np.lib.stride_tricks.sliding_window_view(panel.values, lookback, axis=0)
    return np.ascontiguousarray(view[:-1].swapaxes(1, 2))


def _filter_panels(panels, config: ExperimentConfig) -> list:
    """Per panel, a read-only FilterStack of its windows under the filter
    resolved on its training rows, with the empirical filter written into
    the windows that failed, which its ``errors`` still name: the slices of
    one ``filter_windows`` call over all panels and one over all failures."""
    filts = resolve_filter([TimeSeriesPanel(p.values[:_train_row_count(p, config)]) for p in panels], config)
    corrs = [window_correlations(np.diff(w, axis=1) if config.use_differences else w)
             for w in (_windows(panel, config.lookback) for panel in panels)]
    stack, bounds = np.concatenate(corrs), np.cumsum([0] + [len(c) for c in corrs]).tolist()
    record = filter_windows(stack, [filt for filt, c in zip(filts, corrs) for _ in range(len(c))])
    failed = sorted(record.errors)
    if failed:
        fallback = filter_windows(stack[failed], [FilterConfig(method="empirical")] * len(failed))
        if fallback.errors:
            raise fallback.errors[min(fallback.errors)]
        for name in ("correlation", "precision", "sparsity", "jitter"):
            getattr(record, name)[failed] = getattr(fallback, name)
    arrays = (record.correlation, record.precision, record.sparsity, record.jitter, record.sweeps)
    for array in arrays:
        array.setflags(write=False)                     # and so is every slice of it
    return [FilterStack(*(array[a:b] for array in arrays),
                        errors={k - a: exc for k, exc in record.errors.items() if a <= k < b})
            for a, b in zip(bounds, bounds[1:])]


def _panel_part(panel: TimeSeriesPanel, config: ExperimentConfig) -> dict:
    """The fields of a panel's examples that depend only on the panel, the
    look-back and the splits, by name: all but the graphs and their stats."""
    values = panel.values
    train_rows = _train_row_count(panel, config)

    mu = values[:train_rows].mean(axis=0)
    sd = values[:train_rows].std(axis=0, ddof=1)
    sd = np.where(sd == 0.0, 1.0, sd)

    targets = np.arange(config.lookback, panel.n_steps)
    windows = _windows(panel, config.lookback)
    feats = window_moments(windows)
    targets_raw = values[targets]

    train_mask = targets < train_rows
    train_positions = np.nonzero(train_mask)[0]
    n_val = _val_count(len(train_positions), config.val_fraction)
    fit_idx = train_positions[: len(train_positions) - n_val]

    # moment statistics come from the fit windows only, like mu and sd
    feat_cols = feats[fit_idx].reshape(-1, 4)
    fmu = feat_cols.mean(axis=0)
    fsd = feat_cols.std(axis=0, ddof=1) if feat_cols.shape[0] > 1 else np.ones(4)
    fsd = np.where(fsd == 0.0, 1.0, fsd)
    return dict(
        windows_std=(windows - mu) / sd,
        features_std=(feats - fmu) / fsd,
        targets_std=(targets_raw - mu) / sd,
        targets_raw=targets_raw,
        fit_idx=fit_idx,
        val_idx=train_positions[len(train_positions) - n_val:] if n_val else np.array([], dtype=int),
        test_idx=np.nonzero(~train_mask)[0],
        mu=mu,
        sd=sd,
    )


def _build_examples(panel: TimeSeriesPanel, config: ExperimentConfig,
                    filtered: FilterStack | None, part: dict) -> _Examples:
    """One panel's examples from its ``_panel_part``; ``filtered`` holds its
    filtered windows, or is None when the config uses no filter. The panel
    has passed ``_check_segments``."""
    n_targets, n_series = panel.n_steps - config.lookback, panel.n_series
    graphs = None
    sparsities, fallbacks = [], 0
    if _uses_filter(config):
        graphs = getattr(filtered, FILTERED_KINDS[config.graph_kind])
        sparsities, fallbacks = filtered.sparsity, len(filtered.errors)
    elif config.model != "lstm":
        bench = benchmark_graph(n_series, config.graph_kind)
        # a read-only view; _forward's fancy indexing copies the rows it takes
        graphs = np.broadcast_to(bench, (n_targets, n_series, n_series))
        sparsities = [sparsity(bench)] * n_targets
    return _Examples(
        **part,
        graphs=graphs,
        sparsity_mean=float(np.mean(sparsities)) if len(sparsities) else 1.0,
        fallbacks=fallbacks,
    )


def _build_model(n_series: int, config: ExperimentConfig, rng: np.random.Generator):
    if config.model == "lstm":
        return TemporalOnlyModel(
            n_series, lstm_hidden=config.lstm_hidden, mlp_hidden=config.mlp_hidden, rng=rng,
        )
    return SpatialTemporalModel(
        n_series,
        gnn="gcn" if config.model == "fsst-gcn" else "gat",
        lstm_hidden=config.lstm_hidden,
        embed_dim=config.embed_dim,
        gat_heads=config.gat_heads,
        mlp_hidden=config.mlp_hidden,
        activation=config.activation,
        rng=rng,
    )


def _forward(model, ex: _Examples, idx: np.ndarray):
    if ex.graphs is None:
        return model.forward(ex.windows_std[idx])
    return model.forward(ex.windows_std[idx], ex.graphs[idx], ex.features_std[idx])


def _predict_raw(model, ex: _Examples, idx: np.ndarray) -> np.ndarray:
    return _forward(model, ex, idx).values * ex.sd + ex.mu


def _train_unit(model, ex: _Examples, config: ExperimentConfig, seed: int, item: int) -> int:
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    shuffle_rng = _unit_rng(seed, item, 1)
    best_val = math.inf
    best_params = snapshot_parameters(model)
    patience_left = config.patience
    epochs_ran = 0
    for _epoch in range(config.epochs):
        epochs_ran += 1
        order = shuffle_rng.permutation(ex.fit_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start: start + config.batch_size]
            predictions = _forward(model, ex, batch)
            loss = mse_loss(predictions, ex.targets_std[batch])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        if len(ex.val_idx):
            val_pred = _predict_raw(model, ex, ex.val_idx)
            val_rmse = float(np.sqrt(np.mean((val_pred - ex.targets_raw[ex.val_idx]) ** 2)))
            if val_rmse < best_val - 1e-12:
                best_val = val_rmse
                best_params = snapshot_parameters(model)
                patience_left = config.patience
            else:
                patience_left -= 1
                if patience_left == 0:
                    break
    if len(ex.val_idx):
        set_parameters(model, best_params)
    return epochs_ran


def _evaluate_unit(model, ex: _Examples, item: int, seed: int, epochs_ran: int) -> UnitResult:
    predictions = _predict_raw(model, ex, ex.test_idx)
    truth = ex.targets_raw[ex.test_idx]
    err = predictions - truth
    nonzero = truth != 0.0
    return UnitResult(
        item=item,
        seed=seed,
        n_points=int(err.size),
        sse=float((err ** 2).sum()),
        sae=float(np.abs(err).sum()),
        ape_sum=float(np.abs(err[nonzero] / truth[nonzero]).sum()),
        mape_terms=int(nonzero.sum()),
        mape_excluded=int((~nonzero).sum()),
        sparsity_mean=ex.sparsity_mean,
        fallbacks=ex.fallbacks,
        epochs_ran=epochs_ran,
    )


def _unit_config_hash(config: ExperimentConfig, seed: int) -> str:
    """Hash of ``config`` run with ``seed`` alone, so a subset of the seeds still matches."""
    return replace(config, seeds=(seed,)).config_hash


_CAUGHT = (ParameterError, DataError, ConvergenceError, DefinitenessError, ShapeError, OSError)  # returned, not raised


def _run_unit(args):
    """Train one (item, seed) unit and save it to a given checkpoint directory,
    or load it when ``train`` is false; then score it. A caught error is
    returned, its traceback cleared so that no frame keeps a model alive."""
    key, n_series, config, item, seed, checkpoint_dir, train = args
    try:
        model = _build_model(n_series, config, _unit_rng(seed, item, 0))
        path = None if checkpoint_dir is None else os.path.join(checkpoint_dir, f"item{item}_seed{seed}.ckpt")
        if not train:
            set_parameters(model, load_checkpoint(path, _unit_config_hash(config, seed)))
        epochs_ran = _train_unit(model, _EXAMPLES[key], config, seed, item) if train else 0
        if train and path is not None:
            save_checkpoint(path, model.parameters(), _unit_config_hash(config, seed))
        return _evaluate_unit(model, _EXAMPLES[key], item, seed, epochs_ran)
    except _CAUGHT as exc:
        return exc.with_traceback(None)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")


def _run_units(worker, unit_args, jobs: int):
    """``worker`` over ``unit_args`` in a pool of min(jobs, units) forked
    processes, which inherit ``_EXAMPLES``, or in this process when that is 1."""
    _check_jobs(jobs)
    workers = min(jobs, len(unit_args))
    if workers <= 1:
        return [worker(args) for args in unit_args]
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(worker, unit_args))


_FILTER_CACHE = {}     # _filter_key -> FilterStack, see _prepare_units
_EXAMPLES = {}         # (config_hash, item) -> _Examples of the running command, see _prepare_units


def _filter_key(panel: TimeSeriesPanel, config: ExperimentConfig) -> str:
    digest = hashlib.sha256(panel.values.tobytes())
    digest.update(repr((panel.values.shape, _train_row_count(panel, config), config.lookback,
                        config.use_differences, config.filter.relevant())).encode("utf-8"))
    return digest.hexdigest()


def _prepare_units(dataset: SalesDataset, config: ExperimentConfig, parts: dict):
    """Window, filter and standardize each item once; graphs and features
    depend only on the data and config, so seeds share them. Each item's
    examples go into ``_EXAMPLES``, and its unit args carry their key. An
    item in ``parts`` reuses its ``_panel_part``; the others add theirs.

    Filtered windows are cached under the SHA-256 of the panel values and
    shape, training-row count, lookback, use_differences and the fields of
    the unresolved filter config that its method reads, which also fix the
    CV-selected alpha or lambda. The items that miss are filtered together,
    by ``_filter_panels``; the cache keeps only the entries this call used.
    """
    panels = {item: dataset.panel(item) for item in dataset.items}
    for panel in panels.values():       # before any panel is windowed
        _check_segments(panel, config)
    keys = ({item: _filter_key(panel, config) for item, panel in panels.items()}
            if _uses_filter(config) else {})
    misses = {key: item for item, key in keys.items() if key not in _FILTER_CACHE}
    if misses:
        _FILTER_CACHE.update(zip(misses, _filter_panels([panels[item] for item in misses.values()], config)))
        for key in set(_FILTER_CACHE) - set(keys.values()):
            del _FILTER_CACHE[key]
    unit_args = []
    for item, panel in panels.items():
        if item not in parts:
            parts[item] = _panel_part(panel, config)
        key = (config.config_hash, item)
        _EXAMPLES[key] = _build_examples(panel, config, _FILTER_CACHE[keys[item]] if keys else None,
                                         parts[item])
        unit_args += [(key, panel.n_series, config, item, seed) for seed in config.seeds]
    return unit_args


def _run_configs(dataset: SalesDataset, configs, jobs: int, checkpoint_dir, train: bool) -> list:
    """Per config, its UnitResults or the first caught error of its prepare
    and units; every prepared unit runs, in one ``_run_units`` call."""
    _check_jobs(jobs)
    if checkpoint_dir is None and not train:
        raise ParameterError("scoring saved checkpoints needs checkpoint_dir, their directory; got None")
    if checkpoint_dir is not None and train:
        os.makedirs(checkpoint_dir, exist_ok=True)
    parts, prepared = {}, []        # per config: its unit args, or the error its prepare raised
    try:
        for config in configs:
            try:
                prepared.append(_prepare_units(dataset, config, parts))
            except _CAUGHT as exc:
                prepared.append(exc)
        units = iter(_run_units(_run_unit, [args + (checkpoint_dir, train) for p in prepared
                                            if isinstance(p, list) for args in p], jobs))
    finally:
        _EXAMPLES.clear()
    outcomes = [[next(units) for _ in p] if isinstance(p, list) else [p] for p in prepared]
    return [next((r for r in results if isinstance(r, Exception)), results) for results in outcomes]


def run_experiment(dataset: SalesDataset, config: ExperimentConfig, *, jobs: int = 1,
                   checkpoint_dir=None) -> MetricsReport:
    """Train and evaluate the configured model on every item and seed.

    Items and seeds are independent units; ``jobs`` bounds a process pool
    over them, and is checked before anything is filtered, which runs in
    this process. Randomness derives from (seed, item), and every unit runs
    before a caught error is raised, so ``jobs`` changes no result or checkpoint.
    """
    (units,) = _run_configs(dataset, [config], jobs, checkpoint_dir, train=True)
    if isinstance(units, Exception):
        raise units
    return MetricsReport.from_units(config, units)


def evaluate_experiment(dataset: SalesDataset, config: ExperimentConfig, checkpoint_dir, *,
                        jobs: int = 1) -> MetricsReport:
    """Score saved checkpoints on the test segment without training."""
    (units,) = _run_configs(dataset, [config], jobs, checkpoint_dir, train=False)
    if isinstance(units, Exception):
        raise units
    return MetricsReport.from_units(config, units)


SWEEP_AXES = ("filter-method", "sparsity", "graph-kind")


@dataclass(frozen=True)
class SweepRow:
    label: str
    config: ExperimentConfig
    report: MetricsReport | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None


def _sweep_config(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "graph-kind":
        return replace(base, graph_kind=str(value))
    if axis == "filter-method":
        return replace(base, filter=replace(base.filter, method=str(value)))
    # sparsity axis: drive whichever knob the configured method exposes
    knob = KNOBS.get(base.filter.method, (None,))[0]
    if knob is None:
        raise ParameterError(f"filter method {base.filter.method!r} has no sparsity knob to sweep")
    return replace(base, filter=replace(base.filter, **{knob: float(value)}))


def sweep(dataset: SalesDataset, base_config: ExperimentConfig, axis: str, values, *,
          jobs: int = 1) -> list:
    """Run one experiment per value along the chosen axis.

    Before anything runs, a value that makes no valid config, or two
    values whose configs share a ``config_hash``, raise a ParameterError
    naming them. No axis changes the look-back or the splits, so a panel
    they do not fit raises ``_check_segments``'s DataError before any run,
    and the values share each panel's ``_panel_part``. Every value is
    prepared, then all their units train in one ``_run_units`` call. A
    value whose prepare or units hit a caught error marks its row with the
    message ``run_experiment`` would raise, the first in unit order; every
    other unit, and row, still runs. Sparsity sweeps are sorted by realized
    sparsity (densest last, matching the descending table layout); other
    axes keep the caller's order.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ParameterError("sweep needs a nonempty list of values")
    runs = {}                       # config_hash -> (value, config), in the caller's order
    for value in values:
        try:
            config = _sweep_config(base_config, axis, value)
        except ParameterError as exc:
            raise ParameterError(f"sweep value {value!r}: {exc}") from None
        if config.config_hash in runs:
            raise ParameterError(f"sweep values {runs[config.config_hash][0]!r} and {value!r} "
                                 f"run the same config {config.config_hash}")
        runs[config.config_hash] = (value, config)
    for item in dataset.items:
        _check_segments(dataset.panel(item), base_config)
    outcomes = _run_configs(dataset, [config for _, config in runs.values()], jobs, None, train=True)
    rows = [SweepRow(str(value), config, None, str(outcome)) if isinstance(outcome, Exception) else
            SweepRow(str(value), config, MetricsReport.from_units(config, outcome))
            for (value, config), outcome in zip(runs.values(), outcomes)]
    if axis == "sparsity":
        rows.sort(key=lambda r: -(r.report.aggregate["sparsity_mean"] if r.report else -math.inf))
    return rows


def report_records(report: MetricsReport, extra: dict | None = None) -> list:
    """One machine-readable record per seed: its ``per_seed`` row, the config
    hash and model, and graph and filter labels that read "/", as the table
    does, where the run has none."""
    graph, filt = run_labels(report.config)
    head = {"config_hash": report.config.config_hash, "model": report.config.model,
            "graph": graph, "filter": filt}
    return [{**head, **row, **(extra or {})} for row in report.per_seed]


def write_records(path, records) -> None:
    """Line-delimited JSON, one record per line, no timestamps."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _format_pm(mean: float | None, std: float | None, percent: bool = False) -> str:
    suffix = "%" if percent else ""
    return "n/a" if mean is None else f"{mean:.2f}{suffix} ± {std:.2f}{suffix}"


def format_table(rows, title: str | None = None) -> str:
    """Aligned human-readable table with Graph | Filtering | Sparsity |
    RMSE | MAE | MAPE columns.

    ``rows`` are (graph, filtering, report-or-None, error) tuples.
    """
    header = ("Graph", "Filtering", "Sparsity", "RMSE", "MAE", "MAPE")
    body = []
    for graph, filtering, report, error in rows:
        if report is None:
            body.append((graph, filtering, "-", f"FAILED: {error}", "", ""))
            continue
        agg = report.aggregate
        body.append((
            graph,
            filtering,
            f"{100.0 * agg['sparsity_mean']:.1f}%",
            _format_pm(agg["rmse_mean"], agg["rmse_std"]),
            _format_pm(agg["mae_mean"], agg["mae_std"]),
            _format_pm(agg["mape_mean"], agg["mape_std"], percent=True),
        ))
    widths = [max(len(str(r[i])) for r in [header, *body]) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
