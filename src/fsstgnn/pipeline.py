"""End-to-end training and evaluation: windowing, per-window graph
generation, the spatial-temporal forecaster loop, metrics, multi-seed
orchestration and the sweep harness.

For every look-back window the pipeline estimates a correlation matrix,
applies the configured filter, builds a graph and node features, and
feeds the raw window to the LSTM branch. Filter hyperparameters that
are left unset are selected once by cross-validation on the training
segment only, then reused for every window (including test windows), so
no test information ever reaches parameter selection. Likewise the
series are standardized with training-row statistics and the node
features with statistics of the fit windows.
"""

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

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
    FilterConfig,
    apply_filter,
    filter_windows,
    select_alpha_cv,
    select_lambda_cv,
)
from .graphs import GRAPH_KINDS, benchmark_graph, from_filter_result
from .linalg import TimeSeriesPanel, correlation_from_rows
from .neural.features import window_moments
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
    """Everything a run needs; defaults follow the desk-scale setup."""

    model: str = "fsst-gcn"
    graph_kind: str = "inverse-correlation"
    filter: FilterConfig = field(default_factory=FilterConfig)
    lookback: int = 14
    train_fraction: float = 0.8
    seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    lstm_hidden: int = 32
    embed_dim: int = 16
    gat_heads: int = 4
    mlp_hidden: int = 32
    activation: str = "tanh"
    learning_rate: float = 1e-3
    epochs: int = 100
    patience: int = 10
    batch_size: int = 64
    val_fraction: float = 0.1
    use_differences: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ParameterError(f"unknown graph kind {self.graph_kind!r}; expected one of {GRAPH_KINDS}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ParameterError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.lookback < 2:
            raise ParameterError(f"lookback must be >= 2, got {self.lookback}")
        if not self.seeds:
            raise ParameterError("at least one seed is required")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ParameterError("epochs, patience and batch_size must all be >= 1")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ParameterError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("seeds", "filter")}
        d["seeds"] = list(self.seeds)
        d["filter"] = {"lambda" if k == "lam" else k: v for k, v in asdict(self.filter).items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        filt = dict(d.pop("filter", {}))
        if "lambda" in filt:
            filt["lam"] = filt.pop("lambda")
        d["seeds"] = tuple(d.get("seeds", cls.seeds))
        return cls(filter=FilterConfig(**filt), **d)

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Metrics:
    """Forecast errors; MAPE is a percentage with zero-truth terms
    excluded and counted."""

    rmse: float
    mae: float
    mape: float
    mape_excluded: int = 0


def compute_metrics(predictions, truth) -> Metrics:
    predictions = np.asarray(predictions, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predictions.shape != truth.shape or predictions.size < 1:
        raise ShapeError(
            f"predictions and truth must have equal nonzero length, got {predictions.size} and {truth.size}"
        )
    err = predictions - truth
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = truth != 0.0
    excluded = int((~nonzero).sum())
    if nonzero.any():
        mape = float(np.mean(np.abs(err[nonzero] / truth[nonzero]))) * 100.0
    else:
        mape = 0.0
    return Metrics(rmse=rmse, mae=mae, mape=mape, mape_excluded=excluded)


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

    @property
    def metrics(self) -> Metrics:
        mape = 100.0 * self.ape_sum / self.mape_terms if self.mape_terms else 0.0
        return Metrics(
            rmse=math.sqrt(self.sse / self.n_points),
            mae=self.sae / self.n_points,
            mape=mape,
            mape_excluded=self.mape_excluded,
        )


@dataclass(frozen=True)
class MetricsReport:
    """Per-seed and aggregate (mean +/- sample std) metrics plus a
    per-product breakdown."""

    config: dict
    config_hash: str
    per_seed: tuple          # ({seed, rmse, mae, mape, sparsity, fallbacks, mape_excluded}, ...)
    aggregate: dict          # {rmse_mean, rmse_std, mae_mean, ..., sparsity_mean}
    per_product: dict        # item -> {rmse_mean, mae_mean, mape_mean}
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
                "mape": 100.0 * sum(u.ape_sum for u in group) / terms if terms else 0.0,
                "sparsity": float(np.mean([u.sparsity_mean for u in group])),
                "fallbacks": int(sum(u.fallbacks for u in group)),
                "mape_excluded": int(sum(u.mape_excluded for u in group)),
            })
        aggregate = {}
        for key in ("rmse", "mae", "mape", "sparsity"):
            values = np.array([row[key] for row in per_seed], dtype=float)
            aggregate[f"{key}_mean"] = float(values.mean())
            aggregate[f"{key}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        per_product = {}
        for item in sorted({u.item for u in units}):
            group = [u for u in units if u.item == item]
            per_product[item] = {
                "rmse_mean": float(np.mean([u.metrics.rmse for u in group])),
                "mae_mean": float(np.mean([u.metrics.mae for u in group])),
                "mape_mean": float(np.mean([u.metrics.mape for u in group])),
            }
        return MetricsReport(
            config=config.to_dict(),
            config_hash=config.config_hash,
            per_seed=tuple(per_seed),
            aggregate=aggregate,
            per_product=per_product,
            units=units,
        )


def _unit_rng(seed: int, item: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, item, stream))))


def _train_row_count(panel: TimeSeriesPanel, config: ExperimentConfig) -> int:
    return int(round(panel.n_steps * config.train_fraction))


def resolve_filter(panel_train: TimeSeriesPanel, config: ExperimentConfig) -> FilterConfig:
    """Fill in alpha/lambda by cross-validation when they are unset.

    Selection happens once per item on the training segment; windows at
    test time reuse the selected values.
    """
    filt = config.filter
    if config.model == "lstm" or config.graph_kind not in ("correlation", "inverse-correlation"):
        return filt
    source = panel_train.differenced() if config.use_differences else panel_train
    if filt.method == "shrinkage" and filt.alpha is None:
        return replace(filt, alpha=select_alpha_cv(source, filt.cv_folds))
    if filt.method == "glasso" and filt.lam is None:
        return replace(filt, lam=select_lambda_cv(source, filt.cv_folds))
    return filt


@dataclass
class _Examples:
    windows_std: np.ndarray
    features_std: np.ndarray
    graph_weights: np.ndarray | None
    graph_masks: np.ndarray | None
    targets_std: np.ndarray
    targets_raw: np.ndarray
    fit_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    mu: np.ndarray
    sd: np.ndarray
    sparsity_mean: float
    fallbacks: int


def _build_examples(panel: TimeSeriesPanel, config: ExperimentConfig,
                    filt: FilterConfig) -> _Examples:
    values = panel.values
    n_steps, n_series = values.shape
    lookback = config.lookback
    train_rows = _train_row_count(panel, config)
    if train_rows <= lookback + 2:
        raise DataError(
            f"training segment of {train_rows} rows cannot fit lookback {lookback} plus targets"
        )
    if train_rows >= n_steps:
        raise DataError("test segment is empty; lower train_fraction or add data")

    mu = values[:train_rows].mean(axis=0)
    sd = values[:train_rows].std(axis=0, ddof=1)
    sd = np.where(sd == 0.0, 1.0, sd)

    targets = np.arange(lookback, n_steps)
    needs_graph = config.model != "lstm"
    uses_filter = needs_graph and config.graph_kind in ("correlation", "inverse-correlation")

    windows = np.empty((len(targets), lookback, n_series))
    feats = np.empty((len(targets), n_series, 4))
    gweights = np.empty((len(targets), n_series, n_series)) if needs_graph else None
    gmasks = np.empty((len(targets), n_series, n_series), dtype=bool) if needs_graph else None
    sparsities = []
    fallbacks = 0
    bench = benchmark_graph(n_series, config.graph_kind) if needs_graph and not uses_filter else None

    corrs = []
    for row, t in enumerate(targets):
        window = values[t - lookback: t]
        windows[row] = (window - mu) / sd
        feats[row] = window_moments(window)
        if uses_filter:
            corrs.append(correlation_from_rows(np.diff(window, axis=0) if config.use_differences
                                               else window))
    for row, result in enumerate(filter_windows(corrs, filt)):
        if isinstance(result, Exception):
            fallbacks += 1
            result = apply_filter(corrs[row], FilterConfig(method="empirical"))
        graph = from_filter_result(result, config.graph_kind)
        gweights[row], gmasks[row] = graph.weights, graph.mask
        sparsities.append(result.sparsity)
    if bench is not None:
        gweights[:], gmasks[:] = bench.weights, bench.mask
        sparsities = [1.0 - bench.n_offdiag_edges() / (n_series * (n_series - 1))] * len(targets)

    targets_raw = values[targets]
    targets_std = (targets_raw - mu) / sd

    train_mask = targets < train_rows
    train_positions = np.nonzero(train_mask)[0]
    test_positions = np.nonzero(~train_mask)[0]
    n_val = int(round(len(train_positions) * config.val_fraction))
    if config.val_fraction > 0.0 and len(train_positions) >= 3:
        n_val = max(1, n_val)
    else:
        n_val = 0
    val_idx = train_positions[len(train_positions) - n_val:] if n_val else np.array([], dtype=int)
    fit_idx = train_positions[: len(train_positions) - n_val]

    # moment statistics come from the fit windows only, like mu and sd
    feat_cols = feats[fit_idx].reshape(-1, 4)
    fmu = feat_cols.mean(axis=0)
    fsd = feat_cols.std(axis=0, ddof=1) if feat_cols.shape[0] > 1 else np.ones(4)
    fsd = np.where(fsd == 0.0, 1.0, fsd)
    feats = (feats - fmu) / fsd
    return _Examples(
        windows_std=windows,
        features_std=feats,
        graph_weights=gweights,
        graph_masks=gmasks,
        targets_std=targets_std,
        targets_raw=targets_raw,
        fit_idx=fit_idx,
        val_idx=val_idx,
        test_idx=test_positions,
        mu=mu,
        sd=sd,
        sparsity_mean=float(np.mean(sparsities)) if sparsities else 1.0,
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
    if ex.graph_weights is None:
        return model.forward(ex.windows_std[idx])
    return model.forward(
        ex.windows_std[idx],
        ex.graph_weights[idx],
        ex.graph_masks[idx],
        ex.features_std[idx],
    )


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


def _checkpoint_name(item: int, seed: int) -> str:
    return f"item{item}_seed{seed}.ckpt"


def _run_unit(args) -> UnitResult:
    ex, n_series, config, item, seed, checkpoint_dir = args
    model = _build_model(n_series, config, _unit_rng(seed, item, 0))
    epochs_ran = _train_unit(model, ex, config, seed, item)
    if checkpoint_dir is not None:
        save_checkpoint(os.path.join(checkpoint_dir, _checkpoint_name(item, seed)), model.parameters())
    return _evaluate_unit(model, ex, item, seed, epochs_ran)


def _eval_unit(args) -> UnitResult:
    ex, n_series, config, item, seed, checkpoint_dir = args
    model = _build_model(n_series, config, _unit_rng(seed, item, 0))
    set_parameters(model, load_checkpoint(os.path.join(checkpoint_dir, _checkpoint_name(item, seed))))
    return _evaluate_unit(model, ex, item, seed, epochs_ran=0)


def _run_units(worker, unit_args, jobs: int):
    if jobs <= 1:
        return [worker(args) for args in unit_args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, unit_args))


def _prepare_units(dataset: SalesDataset, config: ExperimentConfig, checkpoint_dir):
    """Window, filter and standardize each item once; graphs and features
    depend only on the data and config, so seeds share them."""
    unit_args = []
    for item in dataset.items:
        panel = dataset.panel(item)
        train_rows = _train_row_count(panel, config)
        panel_train = TimeSeriesPanel(
            panel.values[:train_rows], panel.series_ids, panel.timestamps[:train_rows]
        )
        filt = resolve_filter(panel_train, config)
        ex = _build_examples(panel, config, filt)
        for seed in config.seeds:
            unit_args.append((ex, panel.n_series, config, item, seed, checkpoint_dir))
    return unit_args


def run_experiment(dataset: SalesDataset, config: ExperimentConfig, *, jobs: int = 1,
                   checkpoint_dir=None) -> MetricsReport:
    """Train and evaluate the configured model on every item and seed.

    Items and seeds are independent units; ``jobs`` bounds a process pool
    over them. All randomness is derived from (seed, item) so the level
    of parallelism cannot change any result.
    """
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    unit_args = _prepare_units(dataset, config, checkpoint_dir)
    units = _run_units(_run_unit, unit_args, jobs)
    return MetricsReport.from_units(config, units)


def evaluate_experiment(dataset: SalesDataset, config: ExperimentConfig, checkpoint_dir, *,
                        jobs: int = 1) -> MetricsReport:
    """Score saved checkpoints on the test segment without training."""
    unit_args = _prepare_units(dataset, config, checkpoint_dir)
    units = _run_units(_eval_unit, unit_args, jobs)
    return MetricsReport.from_units(config, units)


SWEEP_AXES = ("filter-method", "sparsity", "graph-kind")


@dataclass(frozen=True)
class SweepRow:
    label: str
    value: object
    report: MetricsReport | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None


def _sweep_config(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "filter-method":
        return replace(base, filter=replace(base.filter, method=str(value)))
    if axis == "graph-kind":
        return replace(base, graph_kind=str(value))
    # sparsity axis: drive whichever knob the configured method exposes
    method = base.filter.method
    if method == "glasso":
        return replace(base, filter=replace(base.filter, lam=float(value)))
    if method == "mfcf":
        return replace(base, filter=replace(base.filter, mfcf_gain_threshold=float(value)))
    if method == "shrinkage":
        return replace(base, filter=replace(base.filter, alpha=float(value)))
    raise ParameterError(f"filter method {method!r} has no sparsity knob to sweep")


def sweep(dataset: SalesDataset, base_config: ExperimentConfig, axis: str, values, *,
          jobs: int = 1) -> list:
    """Run one experiment per value along the chosen axis.

    A failing run marks its row and the sweep continues. Sparsity sweeps
    are sorted by realized sparsity (densest last, matching the
    descending table layout); other axes keep the caller's order.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ParameterError("sweep needs a nonempty list of values")
    rows = []
    for value in values:
        try:
            config = _sweep_config(base_config, axis, value)
            report = run_experiment(dataset, config, jobs=jobs)
            rows.append(SweepRow(label=str(value), value=value, report=report))
        except (ParameterError, DataError, ConvergenceError, DefinitenessError, ShapeError) as exc:
            rows.append(SweepRow(label=str(value), value=value, report=None, error=str(exc)))
    if axis == "sparsity":
        rows.sort(key=lambda r: -(r.report.aggregate["sparsity_mean"] if r.report else -math.inf))
    return rows


def report_records(report: MetricsReport, extra: dict | None = None) -> list:
    """One machine-readable record per seed."""
    records = []
    for row in report.per_seed:
        record = {
            "config_hash": report.config_hash,
            "model": report.config["model"],
            "graph": report.config["graph_kind"],
            "filter": report.config["filter"]["method"],
            "seed": row["seed"],
            "rmse": row["rmse"],
            "mae": row["mae"],
            "mape": row["mape"],
            "sparsity": row["sparsity"],
            "fallbacks": row["fallbacks"],
            "mape_excluded": row["mape_excluded"],
        }
        if extra:
            record.update(extra)
        records.append(record)
    return records


def write_records(path, records) -> None:
    """Line-delimited JSON, one record per line, no timestamps."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _format_pm(mean: float, std: float, percent: bool = False) -> str:
    suffix = "%" if percent else ""
    return f"{mean:.2f}{suffix} ± {std:.2f}{suffix}"


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
