"""Sales dataset ingestion and synthesis.

The CSV schema is `date,store,item,sales` with ISO dates, positive
integer store/item ids and non-negative integer sales. A dataset is its
per-item TimeSeriesPanels (rows = days, columns = stores), filled in one pass.

The synthetic generator stands in for real store-item demand data at
desk scale: per item, sales are a base level plus store-specific weekly
seasonality, a shared store-group factor that induces cross-store
correlation, a mild item trend and noise, rounded to integers and
floored at zero.
"""

import csv
import datetime
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ParseError
from .linalg import TimeSeriesPanel

CSV_HEADER = ("date", "store", "item", "sales")

# Synthetic data: first day, item base-level range, shared AR(1) factor's scale and persistence.
START_DATE = datetime.date(2013, 1, 1)
BASE_RANGE = (40.0, 90.0)
FACTOR_SCALE = 10.0
FACTOR_PERSISTENCE = 0.85


@dataclass(frozen=True)
class SalesDataset:
    """Validated sales: one panel of shape (days, stores) per item."""

    stores: tuple
    items: tuple
    dates: tuple
    panels: dict

    def panel(self, item: int) -> TimeSeriesPanel:
        if item not in self.panels:
            raise DataError(f"dataset has no item {item}")
        return self.panels[item]

    def to_csv(self, path) -> int:
        """Write schema-conformant CSV sorted by (date, store, item); returns row count."""
        rows = 0
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            store_index = {s: k for k, s in enumerate(self.stores)}
            for day, date in enumerate(self.dates):
                for store in self.stores:
                    for item in self.items:
                        value = self.panels[item].values[day, store_index[store]]
                        writer.writerow([date.isoformat(), store, item, int(value)])
                        rows += 1
        return rows


def ingest_csv(path) -> SalesDataset:
    """Parse and validate a sales CSV into per-item panels: each row is checked
    and filed under its series, then all series must cover the same days."""
    by_series: dict[tuple, dict] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(f"header must be {','.join(CSV_HEADER)}, got {','.join(header)}", line=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=line_no)
            try:
                date = datetime.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ParseError(f"bad date {row[0]!r}", line=line_no) from None
            try:
                store, item, sales = int(row[1]), int(row[2]), int(row[3])
            except ValueError:
                raise ParseError(f"non-integer field in {row!r}", line=line_no) from None
            if store <= 0 or item <= 0:
                raise ParseError(f"store and item ids must be positive, got {store}, {item}", line=line_no)
            if sales < 0:
                raise ParseError(f"sales must be non-negative, got {sales}", line=line_no)
            series = by_series.setdefault((item, store), {})
            if date in series:
                raise ParseError(f"duplicate record for store {store} item {item} on {date}", line=line_no)
            series[date] = sales
    if not by_series:
        raise DataError("dataset has no records")
    stores = tuple(sorted({s for (_, s) in by_series}))
    items = tuple(sorted({i for (i, _) in by_series}))
    all_dates = None
    for (item, store), series in sorted(by_series.items()):
        dates = tuple(sorted(series))
        for a, b in zip(dates, dates[1:]):
            if b - a != datetime.timedelta(days=1):
                raise DataError(f"gap after {a} for store {store} item {item}")
        if all_dates is None:
            all_dates = dates
        elif dates != all_dates:
            raise DataError(f"store {store} item {item} covers {dates[0]}..{dates[-1]}, "
                            f"expected {all_dates[0]}..{all_dates[-1]}")
    panels = {}
    for item in items:
        matrix = np.empty((len(all_dates), len(stores)))
        for col, store in enumerate(stores):
            series = by_series.get((item, store))
            if series is None:
                raise DataError(f"missing series for store {store} item {item}")
            matrix[:, col] = [series[d] for d in all_dates]
        panels[item] = TimeSeriesPanel(matrix)
    return SalesDataset(stores=stores, items=items, dates=all_dates, panels=panels)


def synthesize_dataset(n_stores: int, n_items: int, n_days: int, seed: int, *,
                       factor_loading: float = 1.0, n_groups: int = 2,
                       season_scale: float = 4.0, noise_scale: float = 8.0,
                       trend_scale: float = 0.005) -> SalesDataset:
    """Deterministic synthetic store-item demand data.

    Stores are split into ``n_groups`` contiguous groups; each (group,
    item) pair gets an autocorrelated common factor scaled by
    ``factor_loading``, so the loading knob alone controls the shared
    cross-store signal: at 0 only the (deliberately small) item trend and
    the per-store weekly patterns remain, and at large values cross-store
    correlations climb toward 1. Weekly seasonality is drawn
    independently per (store, item) so it carries no shared component.
    """
    if min(n_stores, n_items, n_days) < 1:
        raise ParameterError("store, item and day counts must all be >= 1")
    if n_groups < 1 or n_groups > n_stores:
        raise ParameterError(f"n_groups must lie in [1, n_stores], got {n_groups}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    for name, value in (("factor_loading", factor_loading), ("noise_scale", noise_scale),
                        ("season_scale", season_scale), ("trend_scale", trend_scale)):
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
        if value < 0.0 and name != "factor_loading":
            raise ParameterError(f"{name} must be >= 0, got {value}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dates = tuple(START_DATE + datetime.timedelta(days=d) for d in range(n_days))
    weekdays = np.array([d.weekday() for d in dates])
    groups = np.array([s * n_groups // n_stores for s in range(n_stores)])

    panels = {}
    for item in range(1, n_items + 1):
        base = rng.uniform(*BASE_RANGE)
        trend = rng.uniform(-trend_scale, 2.0 * trend_scale)
        loadings = factor_loading * rng.uniform(0.8, 1.2, size=n_stores)
        season = rng.normal(0.0, season_scale, size=(n_stores, 7)) if season_scale > 0 else np.zeros((n_stores, 7))
        shocks = rng.normal(0.0, 1.0, size=(n_groups, n_days))
        factors = np.empty((n_groups, n_days))
        factors[:, 0] = shocks[:, 0]
        damp = np.sqrt(1.0 - FACTOR_PERSISTENCE ** 2)
        for t in range(1, n_days):
            factors[:, t] = FACTOR_PERSISTENCE * factors[:, t - 1] + damp * shocks[:, t]
        factors *= FACTOR_SCALE
        noise = rng.normal(0.0, noise_scale, size=(n_stores, n_days))
        level = (base + trend * np.arange(n_days)
                 + loadings[:, None] * factors[groups]
                 + season[:, weekdays] + noise)                 # (stores, days)
        sales = np.maximum(0, np.rint(level)).astype(int)
        # C order, as a panel pivoted row by row is: numpy sums a strided
        # column in another order, and the results would move in the last bit
        panels[item] = TimeSeriesPanel(np.ascontiguousarray(sales.T, dtype=float))
    return SalesDataset(stores=tuple(range(1, n_stores + 1)), items=tuple(range(1, n_items + 1)),
                        dates=dates, panels=panels)
