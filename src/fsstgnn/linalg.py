"""Dense symmetric linear algebra: time-series panels, correlation
estimation and SPD matrix utilities.

Everything here is a pure function over immutable inputs. Symmetric
results are always re-symmetrized by averaging with their transpose
before further use so that Cholesky factorizations do not see
asymmetry drift. Factorizations and inverses run in numpy's LAPACK.
``cholesky_stack`` is the one verdict on positive definiteness, which
every other check reads; its only Python-level loop decides matrices
that are not, or only barely, positive definite and names their pivot.

Stacks of matrices stay plain (k, n, n) arrays, checked once over the
stack (``correlation_stack``, ``window_correlations``,
``precision_stack``); ``CorrelationMatrix`` and ``PrecisionMatrix``
validate one matrix.
"""

from dataclasses import dataclass

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
    """Average a square matrix, or each of a stack, with its transpose."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _check_square_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    dev = np.max(np.abs(m - m.T)) if m.size else 0.0
    if dev > SYMMETRY_ATOL:
        raise ShapeError(f"matrix is asymmetric (max |M - M^T| = {dev:.3e})")
    return m


def _lapack_stack(m: np.ndarray, min_pivot: float):
    """LAPACK factors of a (k, s, s) stack, and per matrix whether every
    pivot clears ``min_pivot`` and the margin. A stack LAPACK fails is split
    in halves until the failing matrix stands alone, with a zero factor."""
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.zeros_like(m), np.zeros(1, dtype=bool)
        parts = [_lapack_stack(half, min_pivot) for half in np.array_split(m, 2)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    pivots = lower.diagonal(axis1=-2, axis2=-1) ** 2
    scale = m.diagonal(axis1=-2, axis2=-1).max(axis=-1, initial=-np.inf)
    return lower, pivots.min(axis=-1, initial=np.inf) > np.maximum(min_pivot, LAPACK_PIVOT_MARGIN * scale)


def cholesky_stack(m: np.ndarray, min_pivot: float = 0.0):
    """Lower Cholesky factors of a (k, s, s) stack of symmetric matrices and
    {index: DefinitenessError} for those that are not positive definite,
    whose factors are zeros: the one verdict on definiteness.

    One stacked LAPACK call factors every matrix whose pivots (squared
    diagonal entries of the factor) all clear both ``min_pivot`` and
    ``LAPACK_PIVOT_MARGIN`` of its largest diagonal entry. Each other
    matrix is checked by ``_check_square_symmetric`` (ShapeError) and
    factored alone, column by column, into the verdict: its factor, or the
    first pivot not strictly greater than ``min_pivot`` and its value. So
    each matrix gets the same result alone or in any batch."""
    m = np.asarray(m, dtype=float)
    lower, decided = _lapack_stack(m, min_pivot)
    errors = {}
    for k in np.flatnonzero(~decided).tolist():
        try:
            lower[k] = _column_cholesky(_check_square_symmetric(m[k]), min_pivot)
        except DefinitenessError as exc:
            lower[k], errors[k] = 0.0, exc
    return lower, errors


def cholesky_lower(m: np.ndarray, min_pivot: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, ``cholesky_stack`` of a
    batch of one; raises its DefinitenessError."""
    (lower,), errors = cholesky_stack(_check_square_symmetric(m)[None], min_pivot)
    if errors:
        raise errors[0]
    return lower


def _column_cholesky(m: np.ndarray, min_pivot: float) -> np.ndarray:
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= min_pivot:
            raise DefinitenessError(f"matrix is not positive definite: pivot {j} is {pivot:.6e}",
                                    pivot=j, value=float(pivot))
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def inverse_from_cholesky(lower: np.ndarray) -> np.ndarray:
    """Symmetrized L^-T L^-1 for one lower factor or a stack of them."""
    lower_inv = np.linalg.inv(lower)
    inv = lower_inv.swapaxes(-1, -2) @ lower_inv
    return 0.5 * (inv + inv.swapaxes(-1, -2))


def invert_spd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix: L^-1 of its
    Cholesky factor by LAPACK, then symmetrize(L^-T L^-1).

    Satisfies M @ invert_spd(M) = I to within 1e-8 per entry for
    well-conditioned inputs; a matrix that is not positive definite
    raises DefinitenessError.
    """
    return inverse_from_cholesky(cholesky_lower(m))


def invert_spd_stack(stack: np.ndarray) -> np.ndarray:
    """Inverses of a (k, s, s) stack of symmetric positive-definite
    matrices by one stacked Cholesky and inverse; raises the
    ``cholesky_stack`` error of the first matrix that is not positive
    definite."""
    lower, errors = cholesky_stack(stack)
    if errors:
        raise next(iter(errors.values()))
    return inverse_from_cholesky(lower)


def is_positive_definite(m: np.ndarray) -> bool:
    """True iff the Cholesky factorization succeeds with all pivots > 1e-12."""
    return not cholesky_stack(_check_square_symmetric(m)[None], PD_PIVOT_FLOOR)[1]


@dataclass(frozen=True)
class TimeSeriesPanel:
    """A gap-free multivariate time series of at least 2 steps and 2 series:
    rows are time steps, columns series, all finite. Ingestion rejects or
    imputes missing values; a panel never contains them."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ShapeError(f"panel values must be 2-D, got shape {values.shape}")
        t, n = values.shape
        if t < 2 or n < 2:
            raise DataError(f"panel needs at least 2 steps and 2 series, got {t}x{n}")
        if not np.all(np.isfinite(values)):
            raise DataError("panel contains missing or non-finite values")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> np.ndarray:
        """Validated slice of rows [start, stop)."""
        if not (0 <= start < stop <= self.n_steps):
            raise RangeError(f"window [{start}, {stop}) out of bounds for {self.n_steps} steps")
        return self.values[start:stop]

    def differenced(self) -> "TimeSeriesPanel":
        """Panel of first differences (one row shorter)."""
        if self.n_steps < 3:
            raise DataError("differencing needs at least 3 rows")
        return TimeSeriesPanel(np.diff(self.values, axis=0))


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

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PrecisionMatrix:
    """Symmetric positive-definite inverse correlation, possibly sparse.

    Storage is always dense; structural zeros are exact zeros in
    ``entries``. Positive definiteness is verified by a LAPACK Cholesky
    factorization on construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _check_square_symmetric(self.entries)
        cholesky_lower(entries, min_pivot=0.0)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def precision_stack(entries: np.ndarray, zero_tol: float = 1e-10):
    """Each matrix of a (k, n, n) stack, symmetrized with off-diagonal
    entries below ``zero_tol`` in magnitude snapped to exact zero, and its
    inverse: the snapped entries, their inverses, and {index:
    DefinitenessError} for the matrices ``PrecisionMatrix`` refuses, whose
    inverses are zero. One ``cholesky_stack`` call checks and factors the
    stack, so each matrix gets the verdict, factor and error it would get
    alone; a non-finite entry raises ShapeError."""
    entries = symmetrize(np.asarray(entries, dtype=float))
    n = entries.shape[-1]
    off = np.abs(entries) < zero_tol
    off[..., np.arange(n), np.arange(n)] = False
    entries[off] = 0.0
    if not np.isfinite(entries).all():
        raise ShapeError("matrix contains non-finite entries")
    lower, errors = cholesky_stack(entries)
    rows = np.delete(np.arange(len(entries)), list(errors))
    inverses = np.zeros_like(entries)
    inverses[rows] = inverse_from_cholesky(lower[rows])
    return entries, inverses, errors


def correlation_stack(entries: np.ndarray) -> np.ndarray:
    """Each matrix of a (k, n, n) stack symmetrized, clipped to [-1, 1]
    and given a unit diagonal, as one (k, n, n) array, with
    ``CorrelationMatrix``'s checks run once over the stack."""
    entries = np.clip(symmetrize(entries), -1.0, 1.0)
    n = entries.shape[-1]
    entries[:, np.arange(n), np.arange(n)] = 1.0
    if n < 1 or not np.isfinite(entries).all():     # symmetric, as symmetrized
        for m in entries:
            CorrelationMatrix(m)                    # raises the first matrix's error
    return entries


def correlation_from_rows(rows: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation of the columns of a (steps, series) array.

    Zero-variance columns correlate 0 with every other column (and 1 with
    themselves) so that downstream graphs stay valid when a series is
    constant over the window.
    """
    return CorrelationMatrix(window_correlations(np.asarray(rows, dtype=float)[None])[0])


def window_correlations(windows: np.ndarray) -> np.ndarray:
    """``correlation_from_rows`` of each (steps, series) window of a
    (k, steps, series) stack, computed over the whole stack: a (k, series,
    series) array."""
    windows = np.ascontiguousarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[1] < 2:
        raise RangeError(f"correlation needs a 2-D window with >= 2 rows, got shape {windows.shape[1:]}")
    centered = windows - windows.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered ** 2).sum(axis=1, keepdims=True))
    degenerate = scale == 0.0
    standardized = centered / np.where(degenerate, 1.0, scale)
    corr = np.swapaxes(standardized, 1, 2) @ standardized
    corr[degenerate[:, 0, :, None] | degenerate] = 0.0
    return correlation_stack(corr)


def write_matrix(path, m: np.ndarray) -> None:
    """Write the plain-text fixture format used by tests and the CLI."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"fixture format requires a square matrix, got {m.shape}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{m.shape[0]}\n")
        for row in m:
            handle.write(" ".join(repr(float(v)) for v in row) + "\n")
