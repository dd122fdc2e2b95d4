"""Correlation and precision filtering: none (empirical), covariance
shrinkage, graphical lasso and the maximally filtered clique forest
(MFCF), plus cross-validated parameter selection and sparsity
measurement.

``filter_windows`` is the one dispatch on the method. It filters a
(W, n, n) stack of window correlations (the look-back windows of one or
more panels), each under its own resolved config, as one lockstep batch
by ``_shrink_stack``, ``glasso_stack`` or ``mfcf_stack`` into one
``FilterStack``: per window a filtered dense correlation, a (possibly
sparse) positive-definite precision matrix that inverts back to it, the
realized off-diagonal sparsity, the jitter and the glasso sweeps, or the
error the window ended with. The precision is the filter's output;
MFCF's clique forest is only how it is built, and nothing of it is
kept. ``select_cv`` stacks the cross-validation candidates of every
(panel, fold), shrunk or from one ``glasso_stack`` batch, and scores
each fold's held-out likelihoods as one stack. A single window
(``apply_filter``, ``glasso``, ``mfcf``) is a batch of one, whose row
is its ``FilterResult``.

Every method first makes its windows positive definite by
``_ensure_pd_stack`` and checks its precisions by ``precision_stack``;
both, and glasso's drift refresh, take their verdicts from
``linalg.cholesky_stack``, so a window that is not positive definite
fails alone, with the error it would get alone.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    DefinitenessError,
    ParameterError,
    ShapeError,
)
from .linalg import (
    PD_PIVOT_FLOOR,
    CorrelationMatrix,
    TimeSeriesPanel,
    cholesky_stack,
    correlation_from_rows,
    correlation_stack,
    inverse_from_cholesky,
    invert_spd_stack,
    precision_stack,
    symmetrize,
)

FILTER_METHODS = ("empirical", "shrinkage", "glasso", "mfcf")

# Candidate grids for cross-validated parameter selection, and per method
# the field that a sparsity sweep drives and, if unset, CV selects on a grid.
ALPHA_GRID = tuple(np.round(np.linspace(0.0, 1.0, 21), 10))
LAMBDA_GRID = tuple(np.logspace(-3.0, 0.0, 20))
KNOBS = {"shrinkage": ("alpha", ALPHA_GRID), "glasso": ("lam", LAMBDA_GRID),
         "mfcf": ("mfcf_gain_threshold", None)}

# Diagonal jitter added (then renormalized to unit diagonal) when an
# empirical correlation is too close to singular to invert: none, then
# BASE_JITTER and each power of ten above it up to 1e-2.
BASE_JITTER = 1e-8
PD_JITTERS = (0.0,) + tuple(BASE_JITTER * 10.0 ** attempt for attempt in range(7))
PRECISION_ZERO_TOL = 1e-10

# Glasso's limits, read at call time: a problem stops once no entry moves by
# GLASSO_TOL in a sweep and fails after GLASSO_MAX_SWEEPS; a column lasso stops
# once no coordinate moves by GLASSO_INNER_TOL, or after GLASSO_MAX_INNER passes.
GLASSO_MAX_SWEEPS, GLASSO_TOL, GLASSO_INNER_TOL, GLASSO_MAX_INNER = 500, 1e-6, 1e-8, 100

# ``mfcf_stack`` builds at most as many windows at once as keep each
# (windows, vertices, faces, face size) gain lookup under this many entries.
MFCF_LOOKUP_LIMIT = 2 ** 22


@dataclass(frozen=True)
class FilterConfig:
    """Parameters for all filtering methods.

    ``alpha`` (shrinkage weight) and ``lam`` (l1 penalty) may be None,
    meaning "select by cross-validation on the training segment".
    ``mfcf_gain_threshold`` drops squared-correlation gain contributions
    at or below its value; 0 keeps every contribution and reproduces the
    fixed-clique-size-4 triangulated filter exactly. Field metadata
    describes the settings for the CLI, as on ``ExperimentConfig``.
    """

    method: str = field(default="mfcf", metadata={
        "help": "correlation filtering method", "choices": FILTER_METHODS,
        "flag": "--filter", "key": "filter_method"})
    alpha: Optional[float] = field(default=None, metadata={
        "help": "shrinkage weight in [0,1]; omit to select by CV"})
    lam: Optional[float] = field(default=None, metadata={
        "help": "glasso penalty >= 0; omit to select by CV", "flag": "--lambda", "key": "lambda"})
    max_clique: int = field(default=4, metadata={"help": "maximum clique size"})
    mfcf_gain_threshold: float = field(default=0.0, metadata={
        "help": "clique-forest gain threshold (squared correlation scale)", "flag": "--threshold"})
    cv_folds: int = field(default=5, metadata={"help": "folds for hyperparameter selection"})

    def __post_init__(self):
        if self.method not in FILTER_METHODS:
            raise ParameterError(f"unknown filter method {self.method!r}; expected one of {FILTER_METHODS}")
        if self.alpha is not None and not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.lam is not None and not self.lam >= 0.0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if self.max_clique < 2:
            raise ParameterError(f"max_clique must be >= 2, got {self.max_clique}")
        if self.cv_folds < 2:
            raise ParameterError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if not self.mfcf_gain_threshold >= 0.0:
            raise ParameterError(f"mfcf_gain_threshold must be >= 0, got {self.mfcf_gain_threshold}")

    def relevant(self) -> "FilterConfig":
        """This config with every field its method does not read at its
        default, so that configs that filter alike hash and cache alike.
        Shrinkage and glasso read ``cv_folds`` only while their parameter is
        unset, to be selected by cross-validation."""
        names = {"shrinkage": ("alpha",), "glasso": ("lam",),
                 "mfcf": ("max_clique", "mfcf_gain_threshold")}.get(self.method, ())
        if names and getattr(self, names[0]) is None:
            names += ("cv_folds",)
        return FilterConfig(method=self.method, **{name: getattr(self, name) for name in names})


@dataclass(frozen=True)
class FilterResult:
    """One window's filtered correlation and precision, the (n, n) rows of
    its ``FilterStack``; how sparse the precision is, the PD jitter, and
    glasso's sweeps (None for the other methods)."""

    correlation: np.ndarray
    precision: np.ndarray
    sparsity: float
    jitter: float = 0.0
    sweeps: Optional[int] = None


@dataclass(frozen=True)
class FilterStack:
    """The filtered windows of a (W, n, n) correlation stack: correlation
    and precision (W, n, n), sparsity, jitter and glasso sweeps (W,; 0 for
    the other methods), and {window index: ConvergenceError |
    DefinitenessError} for the windows that failed, whose rows are zero.
    The pipeline caches a panel's stack with the empirical filter written
    into those rows; its ``errors`` then count the fallbacks."""

    correlation: np.ndarray
    precision: np.ndarray
    sparsity: np.ndarray
    jitter: np.ndarray
    sweeps: np.ndarray
    errors: dict


def sparsity(precision):
    """Fraction of zero off-diagonal entries of a precision array over
    n*(n-1): a float for one matrix, an array for a (k, n, n) stack; 1 for 1x1."""
    entries = np.asarray(precision, dtype=float)
    n = entries.shape[-1]
    nonzero = (np.count_nonzero(entries, axis=(-2, -1))
               - np.count_nonzero(np.diagonal(entries, axis1=-2, axis2=-1), axis=-1))
    share = 1.0 - nonzero / max(n * (n - 1), 1)
    return float(share) if entries.ndim == 2 else share


def _as_stack(corrs) -> np.ndarray:
    corrs = np.asarray(corrs, dtype=float)
    if corrs.ndim != 3 or corrs.shape[1] != corrs.shape[2]:
        raise ShapeError(f"expected a (windows, n, n) stack of correlations, got shape {corrs.shape}")
    return corrs


def _ensure_pd_stack(entries: np.ndarray, first=None):
    """A (W, n, n) stack made positive definite: the stack, the jitters
    (W,), {index: DefinitenessError} for the matrices that stay indefinite
    (left as given) and the indices of the others.

    Rank-deficient 14-sample windows are common; a tiny renormalized
    diagonal inflation restores definiteness without visibly moving the
    off-diagonal structure. Each of ``PD_JITTERS`` in turn, for window w
    from step ``first[w]`` on (default 0), is tried by one
    ``cholesky_stack`` call over the matrices still indefinite.
    """
    entries, eye = symmetrize(entries), np.eye(entries.shape[-1])
    jitter, pending = np.zeros(len(entries)), np.ones(len(entries), dtype=bool)
    for i, step in enumerate(PD_JITTERS):
        trying = np.flatnonzero(pending if first is None else pending & (first <= i))
        candidates = np.where(eye, 1.0, (entries[trying] + step * eye) / (1.0 + step)) if step else entries[trying]
        ok = np.ones(len(trying), dtype=bool)
        ok[list(cholesky_stack(candidates, PD_PIVOT_FLOOR)[1])] = False
        entries[trying[ok]], jitter[trying[ok]], pending[trying[ok]] = candidates[ok], step, False
        if not pending.any():
            break
    message = f"could not restore positive definiteness with jitter up to {PD_JITTERS[-1]:g}"
    errors = {int(k): DefinitenessError(message) for k in np.flatnonzero(pending)}
    return entries, jitter, errors, np.flatnonzero(~pending)


def _record(precision: np.ndarray, jitter: np.ndarray, errors: dict, sweeps=0,
            correlation=None) -> FilterStack:
    """The FilterStack of a (W, n, n) precision stack whose windows in
    ``errors`` failed. Every other precision is snapped and checked by
    ``precision_stack``, which fails it alone if it is not positive
    definite; its correlation is its row of ``correlation`` where given,
    else the inverse of the precision."""
    rows = np.delete(np.arange(len(precision)), list(errors))
    entries, inverses, failed = precision_stack(precision[rows], PRECISION_ZERO_TOL)
    errors.update({int(rows[a]): exc for a, exc in failed.items()})
    live = np.ones(len(precision), dtype=bool)
    live[list(errors)] = False
    stacks = np.zeros((2,) + precision.shape)
    stacks[:, rows] = entries, correlation_stack(inverses) if correlation is None else correlation[rows]
    stacks[:, ~live] = 0.0
    return FilterStack(correlation=stacks[1], precision=stacks[0], jitter=np.where(live, jitter, 0.0),
                       sparsity=np.where(live, sparsity(stacks[0]), 0.0), sweeps=np.where(live, sweeps, 0),
                       errors=errors)


def _shrink_stack(corrs, alpha: Optional[np.ndarray]) -> FilterStack:
    """The empirical filter (``alpha`` None) or convex shrinkage toward the
    scaled identity of a (W, n, n) correlation stack, window w by
    ``alpha[w]``: the correlation made positive definite, and its inverse.

    shrunk = (1 - alpha) * C + alpha * (tr C / n) * I, which for a
    correlation matrix scales every off-diagonal by (1 - alpha) and every
    eigenvalue to (1 - alpha) * e_i + alpha.

    A window whose precision fails its check (a correlation of rank n - 1
    can clear ``PD_PIVOT_FLOOR`` yet invert to an indefinite precision) goes
    back to the ``PD_JITTERS`` ladder at the step after the one it took.
    """
    entries, first = _as_stack(corrs), np.zeros(len(corrs), dtype=int)
    if alpha is not None:
        n = entries.shape[-1]
        target = np.trace(entries, axis1=1, axis2=2) / n
        entries = (1.0 - alpha[:, None, None]) * entries + (alpha * target)[:, None, None] * np.eye(n)
    while True:
        pd, jitter, errors, rows = _ensure_pd_stack(entries, first)
        indefinite, correlation = set(errors), correlation_stack(pd)
        inverses = np.zeros_like(pd)
        inverses[rows] = invert_spd_stack(correlation[rows])
        record = _record(inverses, jitter, errors, correlation=correlation)
        retry = sorted(set(record.errors) - indefinite)
        if not retry:
            return record
        first[retry] = np.searchsorted(PD_JITTERS, jitter[retry]) + 1


def _column_lasso(m, s12, s22, u, lam, inner_tol, max_inner):
    """Cyclic coordinate descent on each problem's column lasso from the
    warm start ``u``. Every problem runs until all have stopped, on a copy
    of ``u``; ``u`` keeps each one's iterate after the first pass in which
    none of its coordinates moved by ``inner_tol``. Buffers are made once
    per call; the product must stay C-contiguous, so that numpy sums each
    problem's row the same way alone or in any batch."""
    diag_m = np.diagonal(m, axis1=1, axis2=2).T.copy()      # one contiguous row per coordinate
    neg_lam, neg_denom = -lam, -(s22 * diag_m)
    x, running = u.copy(), np.ones(len(u), dtype=bool)
    steps = list(zip(np.ascontiguousarray(m.transpose(1, 0, 2)), s12.T.copy(), diag_m, neg_denom, x.T))
    product, start, (residual, diag_term, clip) = np.empty_like(x), np.empty_like(x), np.empty((3, len(x)))
    for _ in range(max_inner):
        np.copyto(start, x)
        for m_k, s12_k, diag_k, denom_k, x_k in steps:
            np.add.reduce(np.multiply(m_k, x, out=product), axis=1, out=residual)
            np.subtract(residual, np.multiply(diag_k, x_k, out=diag_term), out=residual)
            np.add(s12_k, np.multiply(s22, residual, out=residual), out=residual)
            # residual minus its clip to [-lam, lam] is the soft threshold
            np.minimum(np.maximum(residual, neg_lam, out=clip), lam, out=clip)
            np.divide(np.subtract(residual, clip, out=residual), denom_k, out=x_k)
        deviation = np.abs(np.subtract(x, start, out=start), out=start).max(axis=1, initial=0.0)
        done = running & (deviation < inner_tol)
        u[done] = x[done]
        running &= ~done
        if not running.any():
            return u
    u[running] = x[running]
    return u


def glasso_stack(corrs, lams) -> FilterStack:
    """Graphical lasso (see ``glasso``) of each correlation of a (k, p, p)
    stack, problem i with penalty ``lams[i]`` (one value may serve all),
    solved in lockstep. Each step of the sweep, column and coordinate
    loops is one numpy operation over the problems still running; a
    problem leaves at the inner pass and sweep where it would stop alone,
    and a drift refresh that is not positive definite fails only its own
    problem, so each row is bitwise the same alone or in any batch. A
    problem that hits the sweep limit, ``GLASSO_MAX_SWEEPS``, fails with a
    ConvergenceError carrying tr(S T) - p + lam * sum_{i!=j} |T_ij| at its
    last iterate T: 0 at the optimum, but no bound, so it can be negative."""
    entries = _as_stack(corrs)
    lams = np.broadcast_to(np.asarray(lams, dtype=float), (len(entries),))
    if np.any(lams < 0.0):
        raise ParameterError(f"lambda must be >= 0, got {lams.min()}")
    s, jitter, errors, idx = _ensure_pd_stack(entries)
    thetas, sweeps = np.zeros_like(s), np.zeros(len(s), dtype=int)
    lam, p, s = lams[idx], s.shape[1], s[idx]
    diag_s = np.diagonal(s, axis1=1, axis2=2)[:, None, :]
    theta = np.where(np.eye(p, dtype=bool), 1.0 / diag_s, 0.0)
    w = np.where(np.eye(p, dtype=bool), diag_s, 0.0)       # w tracks theta^{-1}
    for sweep in range(1, GLASSO_MAX_SWEEPS + 1):
        if not len(idx):
            break
        theta_prev = theta.copy()
        for j in range(p):
            rest = np.delete(np.arange(p), j)
            w12, s22 = w[:, rest, j], s[:, j, j]
            m = w[:, rest[:, None], rest] - w12[:, :, None] * w12[:, None, :] / w[:, j, j, None, None]
            # every summed product is C-ordered, so numpy sums each problem's
            # row the same way in any batch; a strided operand would not
            u = _column_lasso(m, s[:, rest, j], s22, np.ascontiguousarray(theta[:, rest, j]),
                              lam, GLASSO_INNER_TOL, GLASSO_MAX_INNER)
            mu = (m * u[:, None, :]).sum(axis=-1)
            theta[:, rest, j] = theta[:, j, rest] = u
            theta[:, j, j] = 1.0 / s22 + (u * mu).sum(axis=-1)
            w[:, rest[:, None], rest] = m + s22[:, None, None] * (mu[:, :, None] * mu[:, None, :])
            w[:, rest, j] = w[:, j, rest] = -s22[:, None] * mu
            w[:, j, j] = s22
        running = ~(np.abs(theta - theta_prev).max(axis=(1, 2)) < GLASSO_TOL)
        thetas[idx[~running]], sweeps[idx[~running]] = theta[~running], sweep
        rows = np.flatnonzero(running)
        lower, failed = cholesky_stack(theta[rows])         # refresh w to kill float drift
        for a, exc in failed.items():                       # fail only the blocks that are not PD
            errors[int(idx[rows[a]])], running[rows[a]] = exc, False
        w = inverse_from_cholesky(lower[running[rows]])
        idx, s, lam, theta = (arr[running] for arr in (idx, s, lam, theta))
    for a, i in enumerate(idx.tolist()):
        gap = (s[a] * theta[a]).sum() - p + lam[a] * (np.abs(theta[a]).sum() - np.abs(np.diag(theta[a])).sum())
        errors[i] = ConvergenceError(f"graphical lasso did not converge in {GLASSO_MAX_SWEEPS} sweeps", gap=float(gap))
    return _record(thetas, jitter, errors, sweeps)


def glasso(corr: CorrelationMatrix, lam: float) -> FilterResult:
    """L1-penalized precision estimation by primal block coordinate descent.

    Minimizes -logdet(T) + tr(C T) + lam * sum_{i!=j} |T_ij|. Each column
    update solves its lasso subproblem exactly (cyclic coordinate descent,
    warm-started), so the objective never increases between sweeps. The
    diagonal is unpenalized, hence the lam -> inf limit is diag(C)^-1.
    Off-diagonal entries below 1e-10 become structural zeros. A batch of
    one for ``glasso_stack``; raises the ConvergenceError or
    DefinitenessError the problem ends with.
    """
    return _alone(glasso_stack(corr.entries[None], lam))


def _insertions(entries: np.ndarray, max_clique: int, threshold: float):
    """The greedy clique-forest build (see ``mfcf``) of every window of a
    (W, n, n) stack, in lockstep. Returns the cliques (W, steps + 1,
    max_clique), seed first, and per insertion the separator (W, steps,
    face_size): the members of the chosen face that the new vertex
    attached to, none where no member cleared the threshold. Tuples are
    sorted and padded with -1 at the end.

    Inside, vertex v is held as v + 1, so that 0 can pad a face that has
    fewer than face_size vertices: it indexes a zero gain column, whose
    +0.0 leaves every gain sum exact (numpy sums fewer than 8 terms in
    order), and it sorts before every vertex, as a shorter tuple does.
    Each window's faces are kept in sorted-tuple order. Index n + 1 marks
    a face slot out of use (as its first member) and an inserted vertex:
    it sorts last and indexes a -inf gain row and column, so neither wins.
    """
    n_windows, n = entries.shape[:2]
    face_size, n_steps, gone = max_clique - 1, n - max_clique, n + 1
    diag = np.arange(1, n + 1)
    gain = np.zeros((n_windows, n + 2, n + 2))
    gain[:, 1:-1, 1:-1] = entries ** 2
    gain[:, diag, diag] = 0.0
    gain = np.where(gain > threshold, gain, 0.0)
    gain[:, gone], gain[:, :, gone] = -np.inf, -np.inf
    strength = np.abs(entries).sum(axis=1) - 1.0
    ranked = np.argsort(-strength, axis=1, kind="stable") + 1
    seeds, remaining = np.sort(ranked[:, :max_clique], axis=1), np.sort(ranked[:, max_clique:], axis=1)
    # the face_size-subsets of a sorted clique, in sorted order; the i-th
    # drops the member at position max_clique - 1 - i
    subsets = np.array(list(itertools.combinations(range(max_clique), face_size)))
    faces = seeds[:, subsets]
    w = np.arange(n_windows)
    w_col, w_table = w[:, None], w[:, None, None, None]
    # an insertion adds at most max(max_clique - 2, 1) live faces to a window
    live_bound = faces.shape[1] + max(max_clique - 2, 1) * np.arange(1, n_steps + 1)
    cliques = np.empty((n_windows, n_steps + 1, max_clique), dtype=int)
    separators = np.empty((n_windows, n_steps, face_size), dtype=int)
    cliques[:, 0] = seeds
    for step in range(n_steps):
        table = gain[w_table, remaining[:, :, None, None], faces[:, None]].sum(axis=-1)
        # the first maximum in (vertex, face) order: the largest gain, then
        # the smallest vertex, then the first face in sorted order
        row, col = np.divmod(table.reshape(n_windows, -1).argmax(axis=1), faces.shape[1])
        vertex, face = remaining[w, row], faces[w, col]
        joins = gain[w_col, vertex[:, None], face] > threshold if threshold > 0.0 else face > 0
        joined = np.sort(np.where(joins, face, gone), axis=1)
        clique = np.sort(np.concatenate([joined, vertex[:, None]], axis=1), axis=1)
        joined[joined == gone], clique[clique == gone] = 0, 0
        cliques[:, step + 1], separators[:, step] = clique, joined
        # a wholly attached face is used up and the clique's faces through
        # the new vertex join; else the clique itself, a smaller face, joins
        full = joins.all(axis=1)
        unused = clique[:, ::-1] == vertex[:, None]
        unused[:, 1:] |= ~full[:, None]
        added = clique[:, subsets]
        added[unused, 0] = gone
        faces[w, col, 0] = np.where(full, gone, face[:, 0])
        remaining[w, row] = gone
        faces = np.concatenate([faces, added], axis=1)
        order = np.lexsort([faces[..., p] for p in reversed(range(face_size))], axis=-1)
        faces = faces[w_col, order[:, :live_bound[step]]]
    return cliques - 1, separators - 1


def _distinct(separators: np.ndarray):
    """Each window's separators (W, steps, size) in sorted-tuple order, the
    empty ones (all -1) first, with each distinct one kept at its first
    copy and the other copies emptied, and their multiplicities (0 at the
    empty ones)."""
    order = np.lexsort([separators[..., p] for p in reversed(range(separators.shape[2]))], axis=-1)
    separators = separators[np.arange(len(order))[:, None], order]
    same = (separators[:, :, None] == separators[:, None, :]).all(axis=3)
    first = separators[..., 0] >= 0
    first[:, 1:] &= ~same[:, 1:, :-1].diagonal(axis1=1, axis2=2)
    return np.where(first[..., None], separators, -1), np.where(first, same.sum(axis=2), 0)


def _assemble(entries: np.ndarray, cliques: np.ndarray, separators: np.ndarray,
              multiplicity: np.ndarray) -> np.ndarray:
    """Per window, the sum of its embedded inverted clique blocks minus its
    embedded inverted separator blocks times their multiplicity, not yet
    symmetrized. Blocks of one size are inverted by one stacked LAPACK
    call over all windows; then one ``np.add.at`` adds them up in each
    window's order: cliques, then separators in sorted order, grouped by
    block size in order of first appearance."""
    n_windows, n = entries.shape[:2]
    width = cliques.shape[2]
    pad = np.full(separators.shape[:2] + (width - separators.shape[2],), -1)
    members = np.concatenate([cliques, np.concatenate([separators, pad], axis=2)], axis=1)
    weights = np.concatenate([np.ones(cliques.shape[:2]), -multiplicity], axis=1)
    sizes = (members >= 0).sum(axis=2)
    # a stable sort by the position of the first block of the same size
    order = np.argsort((sizes[:, :, None] == sizes[:, None, :]).argmax(axis=2), axis=1, kind="stable")
    rows = np.arange(n_windows)[:, None]
    members, weights, sizes = members[rows, order], weights[rows, order], sizes[rows, order]
    values = np.zeros(members.shape + (width,))
    for size in (np.flatnonzero(np.bincount(sizes.ravel())[1:]) + 1).tolist():
        at = sizes == size
        block, window = members[at][:, :size], np.nonzero(at)[0]
        inverses = invert_spd_stack(entries[window[:, None, None], block[:, :, None], block[:, None, :]])
        values[at, :size, :size] = weights[at][:, None, None] * inverses
    joint = np.zeros((n_windows, n + 1, n + 1))         # the padding, -1, indexes row and column n
    np.add.at(joint, (rows[:, :, None, None], members[..., None], members[..., None, :]), values)
    return joint[:, :n, :n]


def mfcf_stack(corrs, config: FilterConfig) -> FilterStack:
    """``mfcf`` of each window of a (W, n, n) correlation stack, built in
    lockstep: each insertion scores one (windows, remaining, faces) gain
    table, and the positive-definiteness checks and block inverses each
    run as one stacked LAPACK call. Each row is bitwise the same alone or
    in any batch; a window whose precision is not positive definite fails
    alone.
    """
    entries = _as_stack(corrs)
    n, size = entries.shape[-1], config.max_clique
    if n < size:
        raise ParameterError(f"need at least max_clique={size} series, got {n}")
    entries, jitter, errors, rows = _ensure_pd_stack(entries)
    precision = np.zeros_like(entries)
    if len(rows):
        chunk = max(1, MFCF_LOOKUP_LIMIT // ((n - size + 1) * (size + max(size - 2, 1) * (n - size)) * size))
        parts = [_insertions(entries[rows[start: start + chunk]], size, config.mfcf_gain_threshold)
                 for start in range(0, len(rows), chunk)]
        cliques, separators = (np.concatenate(arrays) for arrays in zip(*parts))
        precision[rows] = _assemble(entries[rows], cliques, *_distinct(separators))
    return _record(precision, jitter, errors)


def mfcf(corr: CorrelationMatrix, config: FilterConfig) -> FilterResult:
    """Greedy clique-forest filter with clique/separator precision assembly.

    Seeds with the ``max_clique`` vertices of largest absolute correlation
    row sums, then repeatedly attaches the remaining vertex with the
    largest gain (sum of squared correlations to a candidate face,
    dropping contributions at or below the gain threshold). Every
    insertion scores all (vertex, face) pairs in one table; ties go to
    the smallest vertex, then to the first face in sorted order. Each
    vertex is simplicial at insertion, so the edge union is chordal by
    construction. The precision matrix is the sum of embedded inverted
    clique blocks minus embedded inverted separator blocks, which is
    positive definite and matches the input correlation on every
    within-clique pair; its nonzero pattern is the edge union. A batch of
    one for ``mfcf_stack``; raises the DefinitenessError the window ends
    with.
    """
    return _alone(mfcf_stack(corr.entries[None], config))


def filter_windows(corrs, configs) -> FilterStack:
    """The FilterStack of a (W, n, n) stack of window correlations, window
    w under the resolved config ``configs[w]``, which may differ only in
    alpha or lambda. The one dispatch on the filter method: every method
    filters the windows as one lockstep stack, and each window's row is
    bitwise the same alone or in any batch."""
    if not len(configs) or len(configs) != len(corrs):
        raise ShapeError(f"expected one filter config per window, got {len(configs)} for {len(corrs)}")
    if len({replace(c, alpha=None, lam=None) for c in set(configs)}) > 1:
        raise ParameterError("the windows of one stack may differ only in alpha or lambda")
    method = configs[0].method
    if method == "mfcf":
        return mfcf_stack(corrs, configs[0])
    name = {"glasso": "lambda", "shrinkage": "alpha"}.get(method)
    values = [c.lam if name == "lambda" else c.alpha for c in configs]
    if name and None in values:
        raise ParameterError(f"{method} needs {name} (--{name}); set it, or let a run select it by CV")
    if method == "glasso":
        return glasso_stack(corrs, values)
    return _shrink_stack(corrs, np.array(values) if name else None)


def _alone(record: FilterStack) -> FilterResult:
    """Row 0 of a batch of one as a FilterResult, or the error it ended
    with, raised."""
    if record.errors:
        raise record.errors[0]
    return FilterResult(record.correlation[0], record.precision[0], float(record.sparsity[0]),
                        float(record.jitter[0]), int(record.sweeps[0]) or None)


def apply_filter(corr: CorrelationMatrix, config: FilterConfig) -> FilterResult:
    """``filter_windows`` of one window: its FilterResult, or the error it
    ended with, raised; alpha/lambda must be resolved."""
    return _alone(filter_windows(corr.entries[None], [config]))


def _gaussian_scores(x: np.ndarray, sigmas: np.ndarray, failed=()) -> np.ndarray:
    """Mean per-row Gaussian log-likelihood of centered rows under N(0,
    sigma) for each sigma of a (k, n, n) stack, by one ``cholesky_stack`` and
    one stacked solve; -inf at ``failed`` and where sigma is not PD."""
    lower, errors = cholesky_stack(sigmas, PD_PIVOT_FLOOR)
    ok = ~np.isin(np.arange(len(sigmas)), [*errors, *failed])
    # sigma^{-1} = L^-T L^-1; the [None] keeps b a stack of matrices on numpy < 2
    solved = np.linalg.solve(lower[ok], x.T[None])
    logdet = 2.0 * np.log(np.diagonal(lower[ok], axis1=1, axis2=2)).sum(axis=1)
    quad = (solved ** 2).sum(axis=(1, 2)) / len(x)
    scores = np.full(len(sigmas), -math.inf)
    scores[ok] = -0.5 * (sigmas.shape[-1] * math.log(2.0 * math.pi) + logdet + quad)
    return scores


def _forward_folds(panel: TimeSeriesPanel, folds: int):
    """Contiguous time blocks scored forward, never shuffled and never
    looking ahead: per fold, the correlation of every row before its
    validation block, and the block standardized by those rows."""
    if folds < 2:
        raise ParameterError(f"cross-validation needs >= 2 folds, got {folds}")
    t = panel.n_steps
    edges = np.round(np.linspace(0, t, folds + 1)).astype(int)
    if np.any(np.diff(edges) < 1):
        raise DataError(f"{folds} folds over {t} rows leave an empty fold")
    for i in range(1, folds):
        train_stop, val_stop = int(edges[i]), int(edges[i + 1])
        if train_stop < 2:
            raise DataError(f"fold {i} leaves only {train_stop} training rows; need at least 2")
        rows_train = panel.values[:train_stop]
        sd = rows_train.std(axis=0, ddof=1)
        x_val = (panel.values[train_stop:val_stop] - rows_train.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
        yield correlation_from_rows(rows_train).entries, x_val


def select_cv(panels, method: str, folds: int) -> list:
    """Per panel, the value on ``method``'s grid (``KNOBS``) that maximizes its
    mean held-out Gaussian log-likelihood. The candidates of every (panel,
    fold), (1 - alpha) * C + alpha * I or one ``glasso_stack`` call's, are one
    stack; each fold scores its slice as one stack, -inf where glasso failed."""
    grid = KNOBS.get(method, (None, None))[1]
    if grid is None:
        raise ParameterError(f"no cross-validation grid for method {method!r}; expected shrinkage or glasso")
    splits, g = [split for panel in panels for split in _forward_folds(panel, folds)], len(grid)
    corrs, values = np.repeat([corr_train for corr_train, _ in splits], g, axis=0), np.tile(grid, len(splits))
    if method == "glasso":
        record = glasso_stack(corrs, values)
        candidates, errors = record.correlation, record.errors
    else:
        candidates, errors, diag = corrs, {}, np.arange(corrs.shape[-1])     # in place: no second full-size stack
        candidates *= (1.0 - values)[:, None, None]
        candidates[:, diag, diag] += values[:, None]
    scores = np.zeros((len(panels), g))
    for f, (_, x_val) in enumerate(splits):         # each panel has folds - 1 splits
        failed = [k % g for k in errors if k // g == f]
        scores[f // (folds - 1)] += _gaussian_scores(x_val, candidates[f * g: (f + 1) * g], failed)
    return [float(grid[i]) for i in np.argmax(scores, axis=1)]
