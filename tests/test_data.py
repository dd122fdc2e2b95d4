import datetime

import numpy as np
import pytest

from fsstgnn.data import ingest_csv, synthesize_dataset
from fsstgnn.errors import DataError, ParameterError, ParseError
from fsstgnn.linalg import correlation_from_rows


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_dataset(4, 2, 60, seed=7)
        b = synthesize_dataset(4, 2, 60, seed=7)
        for item in a.items:
            assert np.array_equal(a.panel(item).values, b.panel(item).values)

    def test_seed_changes_data(self):
        a = synthesize_dataset(4, 2, 60, seed=7)
        b = synthesize_dataset(4, 2, 60, seed=8)
        assert not np.array_equal(a.panel(1).values, b.panel(1).values)

    def test_shapes(self):
        ds = synthesize_dataset(6, 3, 90, seed=0)
        assert ds.stores == (1, 2, 3, 4, 5, 6)
        assert ds.items == (1, 2, 3)
        assert len(ds.dates) == 90
        assert ds.panel(2).values.shape == (90, 6)

    def test_zero_loading_gives_independent_stores(self):
        # the factor is the only shared component once seasonality and the
        # item trend are switched off, so the sampling bound 3 / sqrt(T)
        # must hold at loading 0
        ds = synthesize_dataset(6, 1, 2000, seed=3, factor_loading=0.0,
                                season_scale=0.0, trend_scale=0.0)
        corr = correlation_from_rows(ds.panel(1).values).entries
        off = corr - np.eye(6)
        assert np.abs(off).max() < 3.0 / np.sqrt(2000)

    def test_zero_loading_defaults_stay_weak(self):
        # with default seasonality/trend the residual cross-store
        # correlation stays far below the factor-driven level
        ds = synthesize_dataset(6, 1, 730, seed=3, factor_loading=0.0)
        corr = correlation_from_rows(ds.panel(1).values).entries
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off.mean()) < 0.1

    def test_high_loading_gives_strong_correlation(self):
        ds = synthesize_dataset(6, 1, 2000, seed=4, factor_loading=2.5, n_groups=1)
        corr = correlation_from_rows(ds.panel(1).values).entries
        off = corr[~np.eye(6, dtype=bool)]
        assert off.mean() > 0.5

    def test_sales_are_non_negative_integers(self):
        ds = synthesize_dataset(3, 2, 50, seed=5)
        values = ds.panel(1).values
        assert np.all(values >= 0)
        assert np.all(values == np.rint(values))

    def test_panels_are_c_contiguous(self):
        # laid out as ingest_csv lays them out: numpy sums a strided column
        # in another order, so results would move in the last bit
        ds = synthesize_dataset(5, 2, 40, seed=6)
        assert all(ds.panel(item).values.flags.c_contiguous for item in ds.items)

    def test_bad_counts(self):
        with pytest.raises(ParameterError):
            synthesize_dataset(0, 1, 10, seed=0)
        with pytest.raises(ParameterError):
            synthesize_dataset(4, 1, 10, seed=0, n_groups=5)

    @pytest.mark.parametrize("name", ["factor_loading", "noise_scale", "season_scale", "trend_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            synthesize_dataset(4, 1, 10, seed=0, **{name: value})

    @pytest.mark.parametrize("name", ["noise_scale", "season_scale", "trend_scale"])
    def test_negative_scale_rejected(self, name):
        # a negative trend scale used to raise numpy's untyped ValueError, and a
        # negative season scale silently dropped the weekly pattern
        with pytest.raises(ParameterError, match=f"^{name} must be >= 0, got -1.0$"):
            synthesize_dataset(4, 1, 10, seed=0, **{name: -1.0})

    def test_zero_season_scale_keeps_its_stream(self):
        # no seasonality draws no normals, so the other draws are unchanged
        ds = synthesize_dataset(4, 2, 30, seed=3, season_scale=0.0)
        assert ds.panel(2).values[:3].tolist() == [[79.0, 46.0, 47.0, 46.0], [52.0, 60.0, 53.0, 76.0],
                                                   [59.0, 64.0, 71.0, 63.0]]


class TestCsvRoundTrip:
    def test_to_csv_and_back(self, tmp_path):
        ds = synthesize_dataset(3, 2, 30, seed=1)
        path = tmp_path / "sales.csv"
        rows = ds.to_csv(path)
        assert rows == 3 * 2 * 30
        loaded = ingest_csv(path)
        assert loaded.stores == ds.stores
        assert loaded.items == ds.items
        for item in ds.items:
            assert np.array_equal(loaded.panel(item).values, ds.panel(item).values)

    def test_repeated_write_is_byte_identical(self, tmp_path):
        ds = synthesize_dataset(3, 2, 30, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.to_csv(p1)
        ds.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def _write_csv(path, rows):
    path.write_text("date,store,item,sales\n" + "\n".join(rows) + "\n")


class TestIngest:
    def test_small_well_formed(self, tmp_path):
        rows = []
        for day in range(10):
            date = datetime.date(2020, 1, 1) + datetime.timedelta(days=day)
            for store in (1, 2):
                rows.append(f"{date},{store},1,{10 + day + store}")
        path = tmp_path / "ok.csv"
        _write_csv(path, rows)
        ds = ingest_csv(path)
        assert ds.panel(1).values.shape == (10, 2)

    def test_duplicate_row_rejected(self, tmp_path):
        rows = [
            "2020-01-01,1,1,5",
            "2020-01-02,1,1,6",
            "2020-01-02,1,1,7",
        ]
        path = tmp_path / "dup.csv"
        _write_csv(path, rows)
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line == 4

    def test_date_gap_named(self, tmp_path):
        rows = []
        for day in (0, 1, 3, 4):                      # gap after day 1
            date = datetime.date(2020, 1, 1) + datetime.timedelta(days=day)
            for store in (1, 2):
                rows.append(f"{date},{store},1,5")
        path = tmp_path / "gap.csv"
        _write_csv(path, rows)
        with pytest.raises(DataError) as err:
            ingest_csv(path)
        assert "2020-01-02" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("day,shop,sku,qty\n2020-01-01,1,1,5\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line == 1

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,store,item,sales\n2020-01-01,1,1,5\nnot-a-date,1,1,5\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line == 3

    def test_negative_sales_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("date,store,item,sales\n2020-01-01,1,1,-3\n")
        with pytest.raises(ParseError):
            ingest_csv(path)

    def test_ragged_grid_rejected(self, tmp_path):
        rows = [
            "2020-01-01,1,1,5",
            "2020-01-02,1,1,5",
            "2020-01-01,2,1,5",                       # store 2 misses day 2
        ]
        path = tmp_path / "ragged.csv"
        _write_csv(path, rows)
        with pytest.raises(DataError):
            ingest_csv(path)

    def test_five_year_fifty_item_shape(self, tmp_path):
        # full-scale layout: 10 stores x 50 items x 1826 days
        ds = synthesize_dataset(10, 50, 1826, seed=9)
        path = tmp_path / "big.csv"
        rows = ds.to_csv(path)
        assert rows == 10 * 50 * 1826
        loaded = ingest_csv(path)
        assert len(loaded.items) == 50
        for item in loaded.items:
            assert loaded.panel(item).values.shape == (1826, 10)
