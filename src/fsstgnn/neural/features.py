"""Node feature generation: the four distribution moments of each
series over a look-back window."""

import numpy as np

from ..errors import RangeError


def window_moments(rows: np.ndarray) -> np.ndarray:
    """Per-column (mean, sample std, skewness, excess kurtosis) of a
    (steps, series) window, or of each window of a (..., steps, series)
    stack, as (..., series, 4).

    Std uses divisor n-1; skewness and kurtosis use the population-moment
    ratios m3 / m2^1.5 and m4 / m2^2 - 3. Zero-variance columns yield
    (mean, 0, 0, 0) so constant windows cannot inject NaNs downstream.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim < 2 or rows.shape[-2] < 2:
        raise RangeError(f"moment window needs at least 2 rows, got shape {rows.shape}")
    count = rows.shape[-2]
    mean = rows.mean(axis=-2)
    centered = rows - mean[..., None, :]
    squares = centered ** 2
    m2 = squares.mean(axis=-2)
    degenerate = m2 == 0.0
    safe_m2 = np.where(degenerate, 1.0, m2)
    std = np.sqrt(squares.sum(axis=-2) / (count - 1))
    skew = (squares * centered).mean(axis=-2) / safe_m2 ** 1.5
    kurt = (squares * squares).mean(axis=-2) / safe_m2 ** 2 - 3.0
    skew[degenerate] = 0.0
    kurt[degenerate] = 0.0
    return np.stack([mean, std, skew, kurt], axis=-1)
