"""Dense symmetric linear algebra: time-series panels, correlation
estimation and SPD matrix utilities.

Everything here is a pure function over immutable inputs. Symmetric
results are always re-symmetrized by averaging with their transpose
before further use so that Cholesky factorizations do not see
asymmetry drift. Factorizations and inverses run in numpy's LAPACK;
the only Python-level loop decides matrices that are not, or only
barely, positive definite and names their failing pivot.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DefinitenessError, RangeError, ShapeError

# Absolute tolerance for "this matrix is symmetric" checks.
SYMMETRY_ATOL = 1e-12

# Cholesky pivots at or below this value count as "not positive definite".
PD_PIVOT_FLOOR = 1e-12

# A LAPACK factor whose smallest pivot is within this fraction of the
# largest diagonal entry is not used: such a matrix is singular to
# working precision, LAPACK and the column-by-column factorization can
# round its last pivot to opposite signs, and the column-by-column
# verdict is the one the error reports.
LAPACK_PIVOT_MARGIN = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a square matrix with its transpose."""
    return 0.5 * (m + m.T)


def _check_square_symmetric(m: np.ndarray, atol: float = SYMMETRY_ATOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    dev = np.max(np.abs(m - m.T)) if m.size else 0.0
    if dev > atol:
        raise ShapeError(f"matrix is asymmetric (max |M - M^T| = {dev:.3e})")
    return m


def _lapack_factor(m: np.ndarray, min_pivot: float):
    """LAPACK lower Cholesky factor of a matrix or a stack of matrices, or
    None unless every pivot clears ``min_pivot`` and the margin."""
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
    scale = np.diagonal(m, axis1=-2, axis2=-1).max(axis=-1, keepdims=True)
    return lower if np.all(pivots > np.maximum(min_pivot, LAPACK_PIVOT_MARGIN * scale)) else None


def cholesky_lower(m: np.ndarray, min_pivot: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, computed by LAPACK.

    Raises DefinitenessError naming the first pivot (squared diagonal
    entry of the factor) that is not strictly greater than
    ``min_pivot``. That index, like the verdict on any matrix within
    ``LAPACK_PIVOT_MARGIN`` of singular, comes from a column-by-column
    factorization that runs only on this rare path.
    """
    m = _check_square_symmetric(m)
    lower = _lapack_factor(m, min_pivot) if m.size else None
    return lower if lower is not None else _column_cholesky(m, min_pivot)


def _column_cholesky(m: np.ndarray, min_pivot: float) -> np.ndarray:
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= min_pivot:
            raise DefinitenessError(
                f"matrix is not positive definite: pivot {j} is {pivot:.6e}",
                pivot=j,
                value=float(pivot),
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _inverse_from_cholesky(lower: np.ndarray) -> np.ndarray:
    """Symmetrized L^-T L^-1 for one lower factor or a stack of them."""
    lower_inv = np.linalg.inv(lower)
    inv = np.swapaxes(lower_inv, -1, -2) @ lower_inv
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def invert_spd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix: L^-1 of its
    Cholesky factor by LAPACK, then symmetrize(L^-T L^-1).

    Satisfies M @ invert_spd(M) = I to within 1e-8 per entry for
    well-conditioned inputs; a matrix that is not positive definite
    raises DefinitenessError.
    """
    return _inverse_from_cholesky(cholesky_lower(m))


def invert_spd_stack(stack: np.ndarray) -> np.ndarray:
    """Inverses of a (k, s, s) stack of symmetric positive-definite
    matrices by one stacked LAPACK Cholesky and inverse.

    A stack with a block that is not clearly positive definite is
    inverted block by block through ``invert_spd``, so that block raises
    the same DefinitenessError it would alone.
    """
    stack = np.asarray(stack, dtype=float)
    lower = _lapack_factor(stack, 0.0)
    if lower is None:
        return np.array([invert_spd(block) for block in stack])
    return _inverse_from_cholesky(lower)


def is_positive_definite(m: np.ndarray) -> bool:
    """True iff the Cholesky factorization succeeds with all pivots > 1e-12."""
    _check_square_symmetric(m)
    try:
        cholesky_lower(m, min_pivot=PD_PIVOT_FLOOR)
    except DefinitenessError:
        return False
    return True


@dataclass(frozen=True)
class TimeSeriesPanel:
    """A gap-free multivariate time series: rows are time steps, columns series.

    Ingestion is responsible for rejecting or imputing missing values; a
    panel never contains them.
    """

    values: np.ndarray
    series_ids: tuple[str, ...]
    timestamps: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "series_ids", tuple(str(s) for s in self.series_ids))
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if values.ndim != 2:
            raise ShapeError(f"panel values must be 2-D, got shape {values.shape}")
        t, n = values.shape
        if t < 2 or n < 2:
            raise DataError(f"panel needs at least 2 steps and 2 series, got {t}x{n}")
        if not np.all(np.isfinite(values)):
            raise DataError("panel contains missing or non-finite values")
        if len(self.series_ids) != n:
            raise ShapeError(f"{len(self.series_ids)} series ids for {n} columns")
        if len(self.timestamps) != t:
            raise ShapeError(f"{len(self.timestamps)} timestamps for {t} rows")
        if any(a >= b for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise DataError("timestamps must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> np.ndarray:
        """Validated slice of rows [start, stop)."""
        if not (0 <= start < stop <= self.n_steps):
            raise RangeError(
                f"window [{start}, {stop}) out of bounds for {self.n_steps} steps"
            )
        return self.values[start:stop]

    def differenced(self) -> "TimeSeriesPanel":
        """Panel of first differences (one row shorter)."""
        if self.n_steps < 3:
            raise DataError("differencing needs at least 3 rows")
        return TimeSeriesPanel(
            values=np.diff(self.values, axis=0),
            series_ids=self.series_ids,
            timestamps=self.timestamps[1:],
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix with entries in [-1, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _check_square_symmetric(self.entries)
        if entries.shape[0] < 1:
            raise ShapeError("correlation matrix must be at least 1x1")
        if np.max(np.abs(np.diag(entries) - 1.0)) > SYMMETRY_ATOL:
            raise ShapeError("correlation diagonal must be exactly 1")
        if np.max(np.abs(entries)) > 1.0 + SYMMETRY_ATOL:
            raise ShapeError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "CorrelationMatrix":
        """Build after symmetrizing, pinning the diagonal to 1 and clipping
        float overshoot outside [-1, 1]."""
        entries = symmetrize(np.asarray(entries, dtype=float))
        entries = np.clip(entries, -1.0, 1.0)
        np.fill_diagonal(entries, 1.0)
        return cls(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PrecisionMatrix:
    """Symmetric positive-definite inverse correlation, possibly sparse.

    Storage is always dense; structural zeros are exact zeros in
    ``entries``. Positive definiteness is verified by a LAPACK Cholesky
    factorization on construction, and ``inverse`` reuses that factor.
    """

    entries: np.ndarray
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = _check_square_symmetric(self.entries)
        object.__setattr__(self, "_lower", cholesky_lower(entries, min_pivot=0.0))
        object.__setattr__(self, "entries", entries)

    def inverse(self) -> np.ndarray:
        """``invert_spd(entries)``, bit for bit, without factoring again."""
        return _inverse_from_cholesky(self._lower)

    @classmethod
    def from_entries(cls, entries: np.ndarray, zero_tol: float = 1e-10) -> "PrecisionMatrix":
        """Build after symmetrizing; off-diagonal entries below ``zero_tol``
        in magnitude are snapped to exact zero."""
        entries = symmetrize(np.asarray(entries, dtype=float))
        off = np.abs(entries) < zero_tol
        np.fill_diagonal(off, False)
        entries = entries.copy()
        entries[off] = 0.0
        return cls(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def correlation_from_rows(rows: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation of the columns of a (steps, series) array.

    Zero-variance columns correlate 0 with every other column (and 1 with
    themselves) so that downstream graphs stay valid when a series is
    constant over the window.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise RangeError(f"correlation needs a 2-D window with >= 2 rows, got shape {rows.shape}")
    centered = rows - rows.mean(axis=0)
    scale = np.sqrt((centered ** 2).sum(axis=0))
    degenerate = scale == 0.0
    safe_scale = np.where(degenerate, 1.0, scale)
    standardized = centered / safe_scale
    corr = standardized.T @ standardized
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    return CorrelationMatrix.from_entries(corr)


def read_matrix(path) -> np.ndarray:
    """Read the plain-text fixture format: first line N, then N rows of N values."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    if not tokens:
        raise DataError(f"{path}: empty matrix file")
    n = int(tokens[0])
    expected = 1 + n * n
    if len(tokens) != expected:
        raise DataError(f"{path}: expected {expected} tokens for a {n}x{n} matrix, got {len(tokens)}")
    return np.array([float(t) for t in tokens[1:]], dtype=float).reshape(n, n)


def write_matrix(path, m: np.ndarray) -> None:
    """Write the plain-text fixture format used by tests and the CLI."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"fixture format requires a square matrix, got {m.shape}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{m.shape[0]}\n")
        for row in m:
            handle.write(" ".join(repr(float(v)) for v in row) + "\n")
