"""Correlation and precision filtering: covariance shrinkage, graphical
lasso, and the maximally filtered clique forest (MFCF), plus
cross-validated parameter selection and sparsity measurement.

All three filters take an empirical correlation matrix and return a
``FilterResult`` holding a filtered dense correlation, a (possibly
sparse) positive-definite precision matrix that inverts back to it, and
the realized off-diagonal sparsity. Graphical lasso also solves many
problems at once (``glasso_stack``): the look-back windows of a panel
and the cross-validation grid are each one lockstep batch.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    PrecisionMatrix,
    TimeSeriesPanel,
    cholesky_lower,
    correlation_from_rows,
    invert_spd,
    invert_spd_stack,
    symmetrize,
)

FILTER_METHODS = ("empirical", "shrinkage", "glasso", "mfcf")

# Candidate grids for cross-validated parameter selection.
ALPHA_GRID = tuple(np.round(np.linspace(0.0, 1.0, 21), 10))
LAMBDA_GRID = tuple(np.logspace(-3.0, 0.0, 20))

# Diagonal jitter added (then renormalized to unit diagonal) when an
# empirical correlation is too close to singular to invert.
BASE_JITTER = 1e-8
PRECISION_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class FilterConfig:
    """Parameters for all filtering methods.

    ``alpha`` (shrinkage weight) and ``lam`` (l1 penalty) may be None,
    meaning "select by cross-validation on the training segment".
    ``mfcf_gain_threshold`` drops squared-correlation gain contributions
    at or below its value; 0 keeps every contribution and reproduces the
    fixed-clique-size-4 triangulated filter exactly.
    """

    method: str = "mfcf"
    alpha: Optional[float] = None
    lam: Optional[float] = None
    min_clique: int = 4
    max_clique: int = 4
    mfcf_gain_threshold: float = 0.0
    cv_folds: int = 5

    def __post_init__(self):
        if self.method not in FILTER_METHODS:
            raise ParameterError(f"unknown filter method {self.method!r}; expected one of {FILTER_METHODS}")
        if self.alpha is not None and not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.lam is not None and self.lam < 0.0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if not (2 <= self.min_clique <= self.max_clique):
            raise ParameterError(
                f"clique bounds must satisfy 2 <= min <= max, got {self.min_clique}..{self.max_clique}"
            )
        if self.cv_folds < 2:
            raise ParameterError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.mfcf_gain_threshold < 0.0:
            raise ParameterError(f"mfcf_gain_threshold must be >= 0, got {self.mfcf_gain_threshold}")


class InsertionStep(NamedTuple):
    vertex: int
    face: tuple
    gain: float


@dataclass(frozen=True)
class CliqueForest:
    """Cliques and separators produced by the greedy clique-forest build.

    With min = max clique size 4 and no gain threshold the forest is the
    triangulated maximally filtered graph: n - 3 cliques of size 4 joined
    through n - 4 separators of size 3.
    """

    n: int
    cliques: tuple
    separators: tuple          # ((vertex tuple, multiplicity), ...)
    insertion_log: tuple

    def edge_pairs(self) -> set:
        """Undirected edges (i < j) covered by the cliques."""
        edges = set()
        for clique in self.cliques:
            for a_pos, a in enumerate(clique):
                for b in clique[a_pos + 1:]:
                    edges.add((min(a, b), max(a, b)))
        return edges

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edge_pairs():
            adj[i, j] = adj[j, i] = True
        return adj

    def validate(self) -> None:
        """Check the structural invariants; raises DataError on violation."""
        if not has_perfect_elimination_ordering(self.adjacency()):
            raise DataError("clique-forest edge union is not chordal")
        clique_sets = [set(c) for c in self.cliques]
        for sep, _mult in self.separators:
            hosts = sum(1 for c in clique_sets if set(sep) <= c)
            if hosts < 2:
                raise DataError(f"separator {sep} is contained in {hosts} cliques, expected >= 2")


@dataclass(frozen=True)
class FilterResult:
    """Filtered correlation, its precision, and how sparse the precision is."""

    correlation: CorrelationMatrix
    precision: PrecisionMatrix
    sparsity: float
    forest: Optional[CliqueForest] = None
    jitter: float = 0.0
    objective_values: Optional[tuple] = None
    sweeps: Optional[int] = None


def sparsity(precision) -> float:
    """Fraction of zero off-diagonal precision entries over n*(n-1)."""
    entries = np.asarray(getattr(precision, "entries", precision), dtype=float)
    n = entries.shape[0]
    if n < 2:
        return 1.0
    nonzero = np.count_nonzero(entries) - np.count_nonzero(np.diag(entries))
    return 1.0 - nonzero / (n * (n - 1))


def _ensure_pd(entries: np.ndarray, base_jitter: float = BASE_JITTER):
    """Return a unit-diagonal PD version of ``entries`` plus the jitter used.

    Rank-deficient 14-sample windows are common; a tiny renormalized
    diagonal inflation restores definiteness without visibly moving the
    off-diagonal structure.
    """
    entries = symmetrize(np.asarray(entries, dtype=float))
    jitter = 0.0
    candidate = entries
    for attempt in range(8):
        try:
            cholesky_lower(candidate, min_pivot=PD_PIVOT_FLOOR)
            return candidate, jitter
        except DefinitenessError:
            jitter = base_jitter * (10.0 ** attempt)
            candidate = (entries + jitter * np.eye(entries.shape[0])) / (1.0 + jitter)
            np.fill_diagonal(candidate, 1.0)
    raise DefinitenessError(f"could not restore positive definiteness with jitter up to {jitter}")


def _dense_result(entries: np.ndarray, jitter: float = 0.0) -> FilterResult:
    corr = CorrelationMatrix.from_entries(entries)
    precision = PrecisionMatrix.from_entries(invert_spd(corr.entries), zero_tol=PRECISION_ZERO_TOL)
    return FilterResult(
        correlation=corr,
        precision=precision,
        sparsity=sparsity(precision),
        jitter=jitter,
    )


def empirical(corr: CorrelationMatrix) -> FilterResult:
    """No filtering: the empirical correlation and its straight inverse."""
    entries, jitter = _ensure_pd(corr.entries)
    return _dense_result(entries, jitter=jitter)


def shrink(corr: CorrelationMatrix, alpha: float) -> FilterResult:
    """Convex shrinkage toward the scaled identity.

    shrunk = (1 - alpha) * C + alpha * (tr C / n) * I, which for a
    correlation matrix scales every off-diagonal by (1 - alpha) and every
    eigenvalue to (1 - alpha) * e_i + alpha.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    entries = corr.entries
    target = np.trace(entries) / entries.shape[0]
    shrunk = (1.0 - alpha) * entries + alpha * target * np.eye(entries.shape[0])
    shrunk, jitter = _ensure_pd(shrunk)
    return _dense_result(shrunk, jitter=jitter)


def _l1_off(theta: np.ndarray) -> np.ndarray:
    return np.abs(theta).sum(axis=(-2, -1)) - np.abs(np.diagonal(theta, axis1=-2, axis2=-1)).sum(axis=-1)


def _glasso_objective(s: np.ndarray, theta: np.ndarray, lam) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(theta)
    return np.where(sign > 0, -logdet + (s * theta).sum(axis=(-2, -1)) + lam * _l1_off(theta), math.inf)


def _column_lasso(m, s12, s22, u, lam, inner_tol, max_inner):
    """Cyclic coordinate descent on each problem's column lasso from the
    warm start ``u``, updated in place. A problem's lanes leave after the
    first pass in which no coordinate moved by ``inner_tol``."""
    diag_m = np.diagonal(m, axis1=1, axis2=2)
    lanes = (np.arange(len(u)), m, s12, s22, lam, -lam, diag_m, -(s22[:, None] * diag_m), u)
    for _ in range(max_inner):
        live, m, s12, s22, lam, neg_lam, diag_m, neg_denom, x = lanes
        start = x.copy()
        for k in range(x.shape[1]):
            residual = s12[:, k] + s22 * (np.add.reduce(m[:, k] * x, axis=1) - diag_m[:, k] * x[:, k])
            # residual minus its clip to [-lam, lam] is the soft threshold
            x[:, k] = (residual - np.minimum(np.maximum(residual, neg_lam), lam)) / neg_denom[:, k]
        done = np.abs(x - start).max(axis=1, initial=0.0) < inner_tol
        if done.any():
            u[live[done]] = x[done]
            lanes = tuple(a[~done] for a in lanes)
            if not len(lanes[0]):
                return u
    u[lanes[0]] = lanes[-1]
    return u


def _glasso_result(theta, objective, sweeps, jitter):
    try:
        precision = PrecisionMatrix.from_entries(theta, zero_tol=PRECISION_ZERO_TOL)
    except DefinitenessError as exc:
        return exc
    return FilterResult(correlation=CorrelationMatrix.from_entries(precision.inverse()),
                        precision=precision, sparsity=sparsity(precision), jitter=jitter,
                        objective_values=objective, sweeps=sweeps)


def glasso_stack(corrs, lams, *, max_sweeps: int = 500, tol: float = 1e-6,
                 inner_tol: float = 1e-8, max_inner: int = 100) -> list:
    """Graphical lasso (see ``glasso``) for a batch of same-size problems
    ``(corrs[i], lams[i])``, solved in lockstep; one ``lams`` value may
    serve all. Each step of the sweep, column and coordinate loops is one
    numpy operation over the problems still running; a problem leaves at
    the inner pass and sweep where it would stop alone, and a drift
    refresh that is not positive definite fails only its own problem, so
    each result is bitwise the same alone or in any batch. Returns, per
    problem, its FilterResult or the ConvergenceError (carrying the
    duality gap) or DefinitenessError it ended with.
    """
    lams = np.broadcast_to(np.asarray(lams, dtype=float), (len(corrs),))
    if np.any(lams < 0.0):
        raise ParameterError(f"lambda must be >= 0, got {lams.min()}")
    if len({corr.n for corr in corrs}) > 1:
        raise ShapeError(f"a batch holds one problem size, got {sorted({corr.n for corr in corrs})}")
    out: list = [None] * len(corrs)
    jitters, prepared = out.copy(), []
    for i, corr in enumerate(corrs):
        try:
            s, jitters[i] = _ensure_pd(corr.entries)
            prepared.append((i, s))
        except DefinitenessError as exc:
            out[i] = exc
    if not prepared:
        return out
    idx, s = np.array([i for i, _ in prepared]), np.array([s for _, s in prepared])
    lam, p = lams[idx], s.shape[1]
    diag_s = np.diagonal(s, axis1=1, axis2=2)[:, None, :]
    theta = np.where(np.eye(p, dtype=bool), 1.0 / diag_s, 0.0)
    w = np.where(np.eye(p, dtype=bool), diag_s, 0.0)       # w tracks theta^{-1}
    history = {i: [v] for i, v in zip(idx.tolist(), _glasso_objective(s, theta, lam).tolist())}
    for sweep in range(1, max_sweeps + 1):
        theta_prev = theta.copy()
        for j in range(p):
            rest = np.delete(np.arange(p), j)
            w12, s22 = w[:, rest, j], s[:, j, j]
            m = w[:, rest[:, None], rest] - w12[:, :, None] * w12[:, None, :] / w[:, j, j, None, None]
            # every summed product is C-ordered, so numpy sums each problem's
            # row the same way in any batch; a strided operand would not
            u = _column_lasso(m, s[:, rest, j], s22, np.ascontiguousarray(theta[:, rest, j]),
                              lam, inner_tol, max_inner)
            mu = (m * u[:, None, :]).sum(axis=-1)
            theta[:, rest, j] = theta[:, j, rest] = u
            theta[:, j, j] = 1.0 / s22 + (u * mu).sum(axis=-1)
            w[:, rest[:, None], rest] = m + s22[:, None, None] * (mu[:, :, None] * mu[:, None, :])
            w[:, rest, j] = w[:, j, rest] = -s22[:, None] * mu
            w[:, j, j] = s22
        for i, value in zip(idx, _glasso_objective(s, theta, lam).tolist()):
            history[i].append(value)
        running = ~(np.abs(theta - theta_prev).max(axis=(1, 2)) < tol)
        for a in np.flatnonzero(~running):
            out[idx[a]] = _glasso_result(theta[a], tuple(history[idx[a]]), sweep, jitters[idx[a]])
        try:                                                # refresh w to kill float drift
            w = invert_spd_stack(theta[running])
        except DefinitenessError:                           # fail only the blocks that are not PD
            for a in np.flatnonzero(running):
                try:
                    w[a] = invert_spd(theta[a])
                except DefinitenessError as exc:
                    out[idx[a]], running[a] = exc, False
            w = w[running]
        idx, s, lam, theta = (arr[running] for arr in (idx, s, lam, theta))
        if not len(idx):
            return out
    for a, i in enumerate(idx):
        gap = (s[a] * theta[a]).sum() - p + lam[a] * _l1_off(theta[a])
        out[i] = ConvergenceError(f"graphical lasso did not converge in {max_sweeps} sweeps", gap=float(gap))
    return out


def glasso(corr: CorrelationMatrix, lam: float, *, max_sweeps: int = 500,
           tol: float = 1e-6, inner_tol: float = 1e-8, max_inner: int = 100) -> FilterResult:
    """L1-penalized precision estimation by primal block coordinate descent.

    Minimizes -logdet(T) + tr(C T) + lam * sum_{i!=j} |T_ij|. Each column
    update solves its lasso subproblem exactly (cyclic coordinate descent,
    warm-started), so the recorded objective never increases between
    sweeps. The diagonal is unpenalized, hence the lam -> inf limit is
    diag(C)^-1. Off-diagonal entries below 1e-10 become structural zeros.
    A batch of one for ``glasso_stack``; raises the ConvergenceError or
    DefinitenessError the problem ends with.
    """
    (outcome,) = glasso_stack([corr], lam, max_sweeps=max_sweeps, tol=tol,
                              inner_tol=inner_tol, max_inner=max_inner)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _face_subsets(clique: tuple, vertex: int, size: int) -> list:
    """Subsets of ``clique`` of the given size that contain ``vertex``."""
    others = [v for v in clique if v != vertex]
    take = size - 1
    if take < 0 or take > len(others):
        return []
    return [tuple(sorted((vertex, *combo))) for combo in itertools.combinations(others, take)]


def _face_gain_table(gain_sq: np.ndarray, rem: np.ndarray, faces: list,
                     threshold: float) -> np.ndarray:
    """Gain of attaching each remaining vertex (rows) to each face
    (columns, in the order given), scored with one fancy-indexed
    (remaining, faces, size) lookup per face size."""
    by_size: dict[int, list] = {}
    for col, face in enumerate(faces):
        by_size.setdefault(len(face), []).append(col)
    table = np.empty((len(rem), len(faces)))
    for cols in by_size.values():
        members = np.array([faces[c] for c in cols])
        contrib = gain_sq[rem[:, None, None], members[None, :, :]]
        if threshold > 0.0:
            contrib = np.where(contrib > threshold, contrib, 0.0)
        table[:, cols] = contrib.sum(axis=2)
    return table


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
    within-clique pair. The blocks of each size are inverted together by
    one stacked LAPACK Cholesky and inverse.
    """
    n = corr.n
    if n < config.max_clique:
        raise ParameterError(f"need at least max_clique={config.max_clique} series, got {n}")
    entries, jitter = _ensure_pd(corr.entries)
    gain_sq = entries ** 2
    np.fill_diagonal(gain_sq, 0.0)
    threshold = config.mfcf_gain_threshold
    face_size = config.max_clique - 1

    strength = np.abs(entries).sum(axis=0) - 1.0
    seed = tuple(sorted(np.argsort(-strength, kind="stable")[: config.max_clique].tolist()))
    cliques = [seed]
    separators: dict[tuple, int] = {}
    log: list[InsertionStep] = []
    faces = {face for v in seed for face in _face_subsets(seed, v, face_size)}
    remaining = sorted(set(range(n)) - set(seed))

    while remaining:
        rem = np.array(remaining)
        ordered = sorted(faces)
        table = _face_gain_table(gain_sq, rem, ordered, threshold)
        best_gain = float(table.max())
        hits = table == best_gain
        row = int(np.argmax(hits.any(axis=1)))      # smallest vertex reaching the max
        best_vertex = int(rem[row])
        best_face = ordered[int(np.argmax(hits[row]))]
        attached = tuple(u for u in best_face
                         if threshold <= 0.0 or gain_sq[best_vertex, u] > threshold)
        clique = tuple(sorted((best_vertex, *attached)))
        cliques.append(clique)
        if attached:
            separators[attached] = separators.get(attached, 0) + 1
        if len(attached) == face_size:
            faces.discard(best_face)
        new_size = min(len(clique), face_size)
        faces.update(_face_subsets(clique, best_vertex, new_size))
        remaining.remove(best_vertex)
        log.append(InsertionStep(best_vertex, best_face, best_gain))

    # cliques are added, separators subtracted with their multiplicity
    signed = [(c, 1.0) for c in cliques] + [(s, -float(m)) for s, m in sorted(separators.items())]
    joint = np.zeros((n, n))
    for size in dict.fromkeys(len(block) for block, _ in signed):
        idx = np.array([block for block, _ in signed if len(block) == size])
        weights = np.array([w for block, w in signed if len(block) == size])
        rows, cols = idx[:, :, None], idx[:, None, :]
        np.add.at(joint, (rows, cols), weights[:, None, None] * invert_spd_stack(entries[rows, cols]))
    joint = symmetrize(joint)

    precision = PrecisionMatrix.from_entries(joint, zero_tol=PRECISION_ZERO_TOL)
    correlation = CorrelationMatrix.from_entries(precision.inverse())
    forest = CliqueForest(
        n=n,
        cliques=tuple(cliques),
        separators=tuple(sorted(separators.items())),
        insertion_log=tuple(log),
    )
    return FilterResult(
        correlation=correlation,
        precision=precision,
        sparsity=sparsity(precision),
        forest=forest,
        jitter=jitter,
    )


def apply_filter(corr: CorrelationMatrix, config: FilterConfig) -> FilterResult:
    """Dispatch to the configured filter; alpha/lambda must be resolved."""
    if config.method == "empirical":
        return empirical(corr)
    if config.method == "shrinkage":
        if config.alpha is None:
            raise ParameterError("shrinkage needs alpha; select it by CV or set it explicitly")
        return shrink(corr, config.alpha)
    if config.method == "glasso":
        if config.lam is None:
            raise ParameterError("glasso needs lambda; select it by CV or set it explicitly")
        return glasso(corr, config.lam)
    return mfcf(corr, config)


def filter_windows(corrs, config: FilterConfig) -> list:
    """Per window correlation, its FilterResult under a resolved config or
    the ConvergenceError or DefinitenessError it raised. Glasso windows
    are solved by one ``glasso_stack`` call, other methods one window at
    a time through ``apply_filter``."""
    if config.method == "glasso" and config.lam is not None:    # else apply_filter raises
        return glasso_stack(corrs, config.lam)
    outcomes = []
    for corr in corrs:
        try:
            outcomes.append(apply_filter(corr, config))
        except (ConvergenceError, DefinitenessError) as exc:
            outcomes.append(exc)
    return outcomes


def has_perfect_elimination_ordering(adj: np.ndarray) -> bool:
    """Chordality test: maximum cardinality search plus the standard
    parent-neighborhood verification."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    neighbors = [set(np.nonzero(adj[v])[0].tolist()) - {v} for v in range(n)]
    weight = [0] * n
    numbered: list[int] = []
    position = [-1] * n
    for step in range(n):
        candidates = [v for v in range(n) if position[v] < 0]
        v = max(candidates, key=lambda u: (weight[u], -u))
        position[v] = step
        numbered.append(v)
        for u in neighbors[v]:
            if position[u] < 0:
                weight[u] += 1
    for v in numbered:
        earlier = {u for u in neighbors[v] if position[u] < position[v]}
        if not earlier:
            continue
        parent = max(earlier, key=lambda u: position[u])
        if not (earlier - {parent}) <= neighbors[parent]:
            return False
    return True


def _gaussian_score(x: np.ndarray, sigma: np.ndarray) -> float:
    """Mean per-row Gaussian log-likelihood of centered rows under N(0, sigma)."""
    try:
        lower = cholesky_lower(sigma, min_pivot=PD_PIVOT_FLOOR)
    except DefinitenessError:
        return -math.inf
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    solved = np.linalg.solve(lower, x.T)            # sigma^{-1} = L^-T L^-1
    quad = float((solved ** 2).sum()) / x.shape[0]
    n = sigma.shape[0]
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


def _forward_folds(panel: TimeSeriesPanel, folds: int):
    """Contiguous time blocks scored forward: train on everything before
    each validation block (never shuffled, never looking ahead)."""
    if folds < 2:
        raise ParameterError(f"cross-validation needs >= 2 folds, got {folds}")
    t = panel.n_steps
    edges = np.round(np.linspace(0, t, folds + 1)).astype(int)
    if np.any(np.diff(edges) < 1):
        raise DataError(f"{folds} folds over {t} rows leave an empty fold")
    for i in range(1, folds):
        train_stop = int(edges[i])
        val_stop = int(edges[i + 1])
        if train_stop < 2:
            raise DataError(
                f"fold {i} leaves only {train_stop} training rows; need at least 2"
            )
        yield (0, train_stop), (train_stop, val_stop)


def _standardized_validation(panel, train, val):
    rows_train = panel.values[train[0]: train[1]]
    rows_val = panel.values[val[0]: val[1]]
    mu = rows_train.mean(axis=0)
    sd = rows_train.std(axis=0, ddof=1)
    sd = np.where(sd == 0.0, 1.0, sd)
    return correlation_from_rows(rows_train).entries, (rows_val - mu) / sd


def select_alpha_cv(panel: TimeSeriesPanel, folds: int) -> float:
    """Shrinkage weight maximizing mean held-out Gaussian log-likelihood."""
    scores = np.zeros(len(ALPHA_GRID))
    for train, val in _forward_folds(panel, folds):
        corr_train, x_val = _standardized_validation(panel, train, val)
        eye = np.eye(corr_train.shape[0])
        for i, alpha in enumerate(ALPHA_GRID):
            sigma = (1.0 - alpha) * corr_train + alpha * eye
            scores[i] += _gaussian_score(x_val, sigma)
    return float(ALPHA_GRID[int(np.argmax(scores))])


def select_lambda_cv(panel: TimeSeriesPanel, folds: int) -> float:
    """L1 penalty maximizing mean held-out Gaussian log-likelihood over a
    logarithmic grid. All (fold, lambda) problems are solved by one
    ``glasso_stack`` call; a problem that ends in an error scores -inf."""
    splits = [_standardized_validation(panel, train, val) for train, val in _forward_folds(panel, folds)]
    corrs = [CorrelationMatrix.from_entries(corr_train) for corr_train, _ in splits]
    outcomes = glasso_stack([c for c in corrs for _ in LAMBDA_GRID], LAMBDA_GRID * len(splits))
    scores, grid = np.zeros(len(LAMBDA_GRID)), len(LAMBDA_GRID)
    for f, (_, x_val) in enumerate(splits):
        for i, outcome in enumerate(outcomes[f * grid: (f + 1) * grid]):
            failed = isinstance(outcome, Exception)
            scores[i] += -math.inf if failed else _gaussian_score(x_val, outcome.correlation.entries)
    return float(LAMBDA_GRID[int(np.argmax(scores))])
