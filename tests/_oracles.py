"""Independent oracles used by the tests.

Everything here deliberately avoids the code paths it checks: gradients
come from central finite differences, the l1-penalized objective is
minimized by grid refinement / projected search instead of coordinate
descent, chordality is tested by maximum cardinality search (itself
cross-checked through networkx), and the fast paths (the fused LSTM op,
the stacked LAPACK Cholesky and PD jitter, the table-scored MFCF build,
the lockstep glasso batch and its preallocated column lasso, the stacked
empirical and shrinkage filters, the cross-validation's stacked
likelihood scores, the pipeline's one filter stack over all items) are
checked against the slow references they replaced. ``record_row`` and ``outcome_row`` put a row of a stacked
filter record and a single-window result in one comparable form.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from fsstgnn.errors import ConvergenceError, DefinitenessError
from fsstgnn.filtering import (
    ALPHA_GRID,
    BASE_JITTER,
    LAMBDA_GRID,
    PRECISION_ZERO_TOL,
    FilterConfig,
    FilterResult,
    filter_windows,
    glasso_stack,
    sparsity,
)
from fsstgnn.linalg import (
    CorrelationMatrix,
    PD_PIVOT_FLOOR,
    TimeSeriesPanel,
    symmetrize,
    cholesky_stack,
    correlation_from_rows,
    correlation_stack,
    invert_spd,
    precision_stack,
    window_correlations,
)
from fsstgnn.neural import autodiff as ad


def numeric_grad(loss_fn, arr, eps=1e-6):
    """Central finite differences of a scalar function w.r.t. an array,
    mutating ``arr`` in place entry by entry."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = arr[idx]
        arr[idx] = original + eps
        f_plus = loss_fn()
        arr[idx] = original - eps
        f_minus = loss_fn()
        arr[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric, floor=1.0):
    """max |a - n| / max(|n|, floor); the floor keeps near-zero entries
    from blowing up the ratio."""
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def glasso_objective(s, theta, lam):
    sign, logdet = np.linalg.slogdet(theta)
    if sign <= 0:
        return np.inf
    off = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
    return float(-logdet + (s * theta).sum() + lam * off)


def glasso_grid_oracle_2x2(s, lam, rounds=8, grid=21):
    """Brute-force the 3-parameter 2x2 problem by repeated grid refinement."""
    best = (np.inf, None)
    centers = np.array([1.0 / s[0, 0], 1.0 / s[1, 1], 0.0])
    widths = np.array([2.0, 2.0, 2.0])
    for _ in range(rounds):
        a_grid = np.linspace(centers[0] - widths[0], centers[0] + widths[0], grid)
        b_grid = np.linspace(centers[1] - widths[1], centers[1] + widths[1], grid)
        c_grid = np.linspace(centers[2] - widths[2], centers[2] + widths[2], grid)
        for a in a_grid:
            if a <= 0:
                continue
            for b in b_grid:
                if b <= 0:
                    continue
                for c in c_grid:
                    if c * c >= a * b:
                        continue
                    theta = np.array([[a, c], [c, b]])
                    value = glasso_objective(s, theta, lam)
                    if value < best[0]:
                        best = (value, theta)
        centers = np.array([best[1][0, 0], best[1][1, 1], best[1][0, 1]])
        widths = widths * (2.0 / (grid - 1)) * 2.0
    return best


def glasso_projected_oracle(s, lam, x0=None):
    """Projected (bound-constrained) search oracle for small problems.

    Splits each off-diagonal entry into positive and negative parts so the
    l1 term becomes linear, then runs L-BFGS-B with non-negativity bounds.
    Infeasible (non-PD) points return +inf and the line search backs off.
    """
    from scipy.optimize import minimize

    p = s.shape[0]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]

    def unpack(z):
        diag = z[:p]
        pos = z[p: p + len(pairs)]
        neg = z[p + len(pairs):]
        theta = np.diag(diag)
        for k, (i, j) in enumerate(pairs):
            theta[i, j] = theta[j, i] = pos[k] - neg[k]
        return theta

    def objective(z):
        theta = unpack(z)
        sign, logdet = np.linalg.slogdet(theta)
        if sign <= 0:
            return 1e12
        return (-logdet + (s * theta).sum()
                + lam * (z[p:].sum()))

    if x0 is None:
        x0 = np.concatenate([1.0 / np.diag(s), np.zeros(2 * len(pairs))])
    bounds = [(1e-8, None)] * p + [(0.0, None)] * (2 * len(pairs))
    best = None
    for start_scale in (1.0, 0.5, 2.0):
        res = minimize(objective, x0 * start_scale, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    theta = unpack(best.x)
    return glasso_objective(s, theta, lam), theta


def corr_of(entries) -> CorrelationMatrix:
    """A correlation matrix from raw entries: symmetrized, unit diagonal,
    clipped to [-1, 1], as the stacked filters build their rows."""
    return CorrelationMatrix(correlation_stack(np.asarray(entries, dtype=float)[None])[0])


def precision_of(entries, zero_tol=1e-10) -> np.ndarray:
    """A precision matrix from raw entries: symmetrized, with off-diagonal
    entries below ``zero_tol`` snapped to zero, as ``precision_stack``
    snaps its rows. Raises the DefinitenessError that ``precision_stack``
    gives the matrix if that is not positive definite."""
    (entries,), _, errors = precision_stack(np.asarray(entries, dtype=float)[None], zero_tol)
    if errors:
        raise errors[0]
    return entries


def random_spd(rng, n, jitter=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * n * np.eye(n)


def random_correlation(rng, n, rows=None):
    rows = rows if rows is not None else 8 * n
    x = rng.normal(size=(rows, n))
    from fsstgnn.linalg import correlation_from_rows

    return correlation_from_rows(x)


def sigmoid(a):
    """The logistic function as one tape node, for ``lstm_reference``."""
    a = ad.as_tensor(a)
    result = 1.0 / (1.0 + np.exp(-a.values))
    out = ad.Tensor(result, _parents=(a,))

    def grad_fn(g):
        if a.requires_grad:
            ad._accumulate(a, g * result * (1.0 - result))

    out._backward = grad_fn
    return out


def gat_attention(layer, graphs, features) -> list:
    """Each head's (B, N, N) attention matrix of a ``GatLayer`` (values only)."""
    return [alpha.values for _, alpha in layer._heads(graphs, features)]


def lstm_reference(cell, seq):
    """The LSTM as one tape node per gate op: final hidden state of ``cell``
    over a (B, T, F) tensor, recording about a dozen nodes per step."""
    h_dim = cell.hidden_dim
    batch = seq.values.shape[0]
    projected = ad.matmul(seq, cell.w_input)
    hidden = ad.Tensor(np.zeros((batch, h_dim)))
    state = ad.Tensor(np.zeros((batch, h_dim)))
    for t in range(seq.values.shape[1]):
        z = ad.add(ad.add(projected[:, t, :], ad.matmul(hidden, cell.w_hidden)), cell.bias)
        gate_in = sigmoid(z[:, :h_dim])
        gate_forget = sigmoid(z[:, h_dim: 2 * h_dim])
        gate_cell = ad.tanh(z[:, 2 * h_dim: 3 * h_dim])
        gate_out = sigmoid(z[:, 3 * h_dim:])
        state = ad.add(ad.mul(gate_forget, state), ad.mul(gate_in, gate_cell))
        hidden = ad.mul(gate_out, ad.tanh(state))
    return hidden


def lstm_fused_reference(seq, w_input, w_hidden, bias):
    """The fused LSTM op with the input projection hoisted out of the loop,
    gate-interleaved (T, B, 4H) saved gates, and the input and bias
    gradients reduced over all steps after the loop: an earlier form of
    ``lstm_sequence``, which must match it to within 1e-12 of each array's
    largest magnitude."""
    seq, w_input, w_hidden, bias = (ad.as_tensor(t) for t in (seq, w_input, w_hidden, bias))
    batch, steps, width = seq.values.shape
    h_dim = w_hidden.values.shape[0]
    cell_gate = slice(2 * h_dim, 3 * h_dim)
    projected = seq.values @ w_input.values           # (B, T, 4H), one matmul for all steps
    gates = np.empty((steps, batch, 4 * h_dim))
    cells, cells_tanh = np.empty((2, steps, batch, h_dim))
    hidden = cell = np.zeros((batch, h_dim))
    for t in range(steps):
        # z = (x_t W_in + h W_h) + b in the per-op tape's order, summed in
        # place; the values match that tape bit for bit.
        act = gates[t]
        np.matmul(hidden, w_hidden.values, out=act)
        act += projected[:, t, :]
        act += bias.values
        candidate = np.tanh(act[:, cell_gate])
        np.exp(-act, out=act)
        np.divide(1.0, act + 1.0, out=act)
        act[:, cell_gate] = candidate
        gate_in, gate_forget, gate_cell, gate_out = np.split(act, 4, axis=1)
        cell = cells[t] = gate_forget * cell + gate_in * gate_cell
        cells_tanh[t] = np.tanh(cell)
        hidden = gate_out * cells_tanh[t]
    out = ad.Tensor(hidden, _parents=(seq, w_input, w_hidden, bias))

    def grad_fn(g):
        d_gates = np.empty((batch, steps, 4 * h_dim))
        d_w_hidden = np.zeros_like(w_hidden.values)
        d_hidden = g
        d_cell = np.zeros((batch, h_dim))
        for t in reversed(range(steps)):
            act = gates[t]
            gate_in, gate_forget, gate_cell, gate_out = np.split(act, 4, axis=1)
            d_cell = d_cell + d_hidden * gate_out * (1.0 - cells_tanh[t] ** 2)
            d_z = d_gates[:, t, :]
            d_z[:, :h_dim] = d_cell * gate_cell * gate_in * (1.0 - gate_in)
            d_z[:, h_dim: 2 * h_dim] = d_cell * cells[t - 1] * gate_forget * (1.0 - gate_forget) if t else 0.0
            d_z[:, cell_gate] = d_cell * gate_in * (1.0 - gate_cell ** 2)
            d_z[:, 3 * h_dim:] = d_hidden * cells_tanh[t] * gate_out * (1.0 - gate_out)
            d_cell = d_cell * gate_forget
            if t:
                d_w_hidden += (gates[t - 1, :, 3 * h_dim:] * cells_tanh[t - 1]).T @ d_z
                d_hidden = d_z @ w_hidden.values.T
        d_flat = d_gates.reshape(batch * steps, 4 * h_dim)
        if seq.requires_grad:
            ad._accumulate(seq, d_gates @ w_input.values.T)
        if w_input.requires_grad:
            ad._accumulate(w_input, seq.values.reshape(batch * steps, width).T @ d_flat)
        if w_hidden.requires_grad:
            ad._accumulate(w_hidden, d_w_hidden)
        if bias.requires_grad:
            ad._accumulate(bias, d_flat.sum(axis=0, keepdims=True))

    out._backward = grad_fn
    return out


def cholesky_reference(m, min_pivot=0.0):
    """Column-by-column lower Cholesky factor; raises DefinitenessError
    naming the first pivot that is not strictly greater than ``min_pivot``."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= min_pivot:
            raise DefinitenessError(f"pivot {j} is {pivot:.6e}", pivot=j, value=float(pivot))
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def ensure_pd_reference(entries, first=0):
    """One matrix made positive definite as the filters do, checked by
    ``cholesky_reference``: the symmetrized matrix if it is, else the first
    renormalized diagonal inflation by BASE_JITTER * 10**k (k = 0..6) that
    is, and the jitter used; raises DefinitenessError past 1e-2. The first
    ``first`` candidates of that ladder (the matrix itself first) are
    skipped."""
    entries = symmetrize(np.asarray(entries, dtype=float))
    jitters = [0.0] + [BASE_JITTER * (10.0 ** attempt) for attempt in range(7)]
    for jitter in jitters[first:]:
        candidate = entries
        if jitter:
            candidate = (entries + jitter * np.eye(entries.shape[0])) / (1.0 + jitter)
            np.fill_diagonal(candidate, 1.0)
        try:
            cholesky_reference(candidate, min_pivot=PD_PIVOT_FLOOR)
            return candidate, jitter
        except DefinitenessError:
            pass
    raise DefinitenessError(f"could not restore positive definiteness with jitter up to {jitters[-1]:g}")


def mfcf_insertion_reference(entries, max_clique, threshold):
    """Greedy clique-forest build over the PD-corrected correlation
    ``entries``, scoring one face at a time: returns (cliques, separator
    multiplicities, insertion log of (vertex, face, gain))."""
    n = entries.shape[0]
    gain_sq = entries ** 2
    np.fill_diagonal(gain_sq, 0.0)
    face_size = max_clique - 1

    def subsets(clique, vertex, size):
        others = [v for v in clique if v != vertex]
        return {tuple(sorted((vertex, *c))) for c in itertools.combinations(others, size - 1)}

    strength = np.abs(entries).sum(axis=0) - 1.0
    seed = tuple(sorted(np.argsort(-strength, kind="stable")[:max_clique].tolist()))
    cliques, separators, log = [seed], {}, []
    faces = set().union(*(subsets(seed, v, face_size) for v in seed))
    remaining = sorted(set(range(n)) - set(seed))
    while remaining:
        best = (-1.0, None, None)
        for face in sorted(faces):
            for vertex in remaining:
                contrib = gain_sq[vertex, list(face)]
                gain = float(np.where(contrib > threshold, contrib, 0.0).sum()
                             if threshold > 0.0 else contrib.sum())
                if gain > best[0] or (gain == best[0] and vertex < best[1]):
                    best = (gain, vertex, face)
        gain, vertex, face = best
        attached = tuple(u for u in face if threshold <= 0.0 or gain_sq[vertex, u] > threshold)
        clique = tuple(sorted((vertex, *attached)))
        cliques.append(clique)
        if attached:
            separators[attached] = separators.get(attached, 0) + 1
        if len(attached) == face_size:
            faces.discard(face)
        faces |= subsets(clique, vertex, min(len(clique), face_size))
        remaining.remove(vertex)
        log.append((vertex, face, gain))
    return cliques, separators, log


def glasso_reference(corr, lam, max_sweeps=500, tol=1e-6, inner_tol=1e-8, max_inner=100,
                     objective=None):
    """One graphical lasso problem by primal block coordinate descent with
    scalar coordinate updates; raises ConvergenceError (with the duality
    gap) or DefinitenessError as the solver does. A list ``objective``
    receives the objective at the start and after every sweep."""
    s, jitter = ensure_pd_reference(corr.entries)
    p = s.shape[0]
    theta = np.diag(1.0 / np.diag(s)).copy()
    w = np.diag(np.diag(s)).copy()                  # w tracks theta^{-1}
    objective = [] if objective is None else objective
    objective.append(glasso_objective(s, theta, lam))
    converged_sweeps = None
    for sweep in range(1, max_sweeps + 1):
        theta_prev = theta.copy()
        for j in range(p):
            rest = [k for k in range(p) if k != j]
            w12 = w[rest, j]
            m = w[np.ix_(rest, rest)] - np.outer(w12, w12) / w[j, j]
            s12 = s[rest, j]
            s22 = s[j, j]
            u = theta[rest, j].copy()
            diag_m = np.diag(m).copy()
            for _ in range(max_inner):
                delta = 0.0
                for k in range(p - 1):
                    residual = s12[k] + s22 * (m[k] @ u - diag_m[k] * u[k])
                    shrunk = residual - lam if residual > lam else (
                        residual + lam if residual < -lam else 0.0)
                    new_u = -shrunk / (s22 * diag_m[k])
                    delta = max(delta, abs(new_u - u[k]))
                    u[k] = new_u
                if delta < inner_tol:
                    break
            mu = m @ u
            theta[rest, j] = u
            theta[j, rest] = u
            theta[j, j] = 1.0 / s22 + u @ mu
            w[np.ix_(rest, rest)] = m + s22 * np.outer(mu, mu)
            w[rest, j] = -s22 * mu
            w[j, rest] = -s22 * mu
            w[j, j] = s22
        objective.append(glasso_objective(s, theta, lam))
        if np.max(np.abs(theta - theta_prev)) < tol:
            converged_sweeps = sweep
            break
        w = invert_spd(theta)                       # refresh to kill float drift
    if converged_sweeps is None:
        off = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
        raise ConvergenceError(f"graphical lasso did not converge in {max_sweeps} sweeps",
                               gap=float((s * theta).sum() - p + lam * off))
    precision = precision_of(theta, zero_tol=PRECISION_ZERO_TOL)
    return FilterResult(
        correlation=corr_of(invert_spd(precision)).entries,
        precision=precision,
        sparsity=sparsity(precision),
        jitter=jitter,
        sweeps=converged_sweeps,
    )


def column_lasso_reference(m, s12, s22, u, lam, inner_tol, max_inner):
    """``filtering._column_lasso`` written plainly: the same operations on
    the same operands in the same order, on fresh arrays and strided views
    at every coordinate step.

    Cyclic coordinate descent on each problem's column lasso from the
    warm start ``u``. Every problem runs until all have stopped, on a copy
    of ``u``; ``u`` keeps each one's iterate after the first pass in which
    none of its coordinates moved by ``inner_tol``."""
    diag_m = np.diagonal(m, axis1=1, axis2=2)
    neg_lam, neg_denom = -lam, -(s22[:, None] * diag_m)
    x, running = u.copy(), np.ones(len(u), dtype=bool)
    for _ in range(max_inner):
        start = x.copy()
        for k in range(x.shape[1]):
            residual = s12[:, k] + s22 * (np.add.reduce(m[:, k] * x, axis=1) - diag_m[:, k] * x[:, k])
            # residual minus its clip to [-lam, lam] is the soft threshold
            x[:, k] = (residual - np.minimum(np.maximum(residual, neg_lam), lam)) / neg_denom[:, k]
        done = running & (np.abs(x - start).max(axis=1, initial=0.0) < inner_tol)
        u[done] = x[done]
        running &= ~done
        if not running.any():
            return u
    u[running] = x[running]
    return u


def shrink_reference(corr, alpha=None):
    """The empirical filter (``alpha`` None) or shrinkage of one window,
    one window at a time: shrink, make positive definite, then invert
    the correlation alone. A precision that is not positive definite sends
    the window back to ``ensure_pd_reference`` one attempt further on.
    Raises DefinitenessError as the filter does."""
    entries = corr.entries
    if alpha is not None:
        target = np.trace(entries) / entries.shape[0]
        entries = (1.0 - alpha) * entries + alpha * target * np.eye(entries.shape[0])
    for first in range(9):                          # past the ladder, ensure_pd_reference raises
        pd, jitter = ensure_pd_reference(entries, first)
        corr = corr_of(pd).entries
        inverse = invert_spd(corr)
        try:
            precision = precision_of(inverse, zero_tol=PRECISION_ZERO_TOL)
        except DefinitenessError:
            continue
        return FilterResult(correlation=corr, precision=precision, sparsity=sparsity(precision), jitter=jitter)


def gaussian_score_reference(x, sigma):
    """Mean per-row Gaussian log-likelihood of centered rows ``x`` under
    N(0, sigma), one matrix at a time, factored as a batch of one: -inf
    if sigma is not positive definite."""
    (lower,), errors = cholesky_stack(sigma[None], PD_PIVOT_FLOOR)
    if errors:
        return -math.inf
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    solved = np.linalg.solve(lower, x.T)            # sigma^{-1} = L^-T L^-1
    quad = float((solved ** 2).sum()) / x.shape[0]
    n = sigma.shape[0]
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


def cv_scores_reference(panel, folds, method):
    """The per-grid held-out scores, summed over folds, that ``select_cv``
    maximizes for ``method`` ("shrinkage" or "glasso") on one panel,
    scored one (fold, candidate) at a time by
    ``gaussian_score_reference``; a glasso problem that ends in an error
    scores -inf. Each fold trains on every row before its validation block
    and standardizes the block by those rows' mean and standard deviation
    (1 where that is 0)."""
    splits, edges = [], np.round(np.linspace(0, panel.n_steps, folds + 1)).astype(int)
    for stop, val_stop in zip(edges[1:-1], edges[2:]):
        rows = panel.values[:stop]
        sd = rows.std(axis=0, ddof=1)
        x_val = (panel.values[stop:val_stop] - rows.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
        splits.append((correlation_from_rows(rows).entries, x_val))
    grid = ALPHA_GRID if method == "shrinkage" else LAMBDA_GRID
    if method == "glasso":
        record = glasso_stack(np.repeat([corr for corr, _ in splits], len(grid), axis=0), grid * len(splits))
    scores = np.zeros(len(grid))
    for f, (corr_train, x_val) in enumerate(splits):
        for i, value in enumerate(grid):
            k = f * len(grid) + i
            if method == "shrinkage":
                sigma = (1.0 - value) * corr_train + value * np.eye(corr_train.shape[0])
                scores[i] += gaussian_score_reference(x_val, sigma)
            else:
                scores[i] += -math.inf if k in record.errors else gaussian_score_reference(x_val, record.correlation[k])
    return scores


def filter_item_reference(panel, config):
    """One item's filter stage as it ran one item at a time: the filter
    resolved by cross-validation on the panel's training rows alone (the
    choice that maximizes ``cv_scores_reference``), one ``filter_windows``
    call over its windows, then one more that gives the windows that
    failed the empirical filter. Returns the resolved FilterConfig and the
    FilterStack, whose ``errors`` name the fallbacks."""
    filt, lookback = config.filter, config.lookback
    train = TimeSeriesPanel(panel.values[:int(round(panel.n_steps * config.train_fraction))])
    source = train.differenced() if config.use_differences else train
    for method, name, grid in (("shrinkage", "alpha", ALPHA_GRID), ("glasso", "lam", LAMBDA_GRID)):
        if filt.method == method and getattr(filt, name) is None:
            choice = grid[int(np.argmax(cv_scores_reference(source, filt.cv_folds, method)))]
            filt = replace(filt, **{name: float(choice)})
    windows = np.array([panel.values[t - lookback: t] for t in range(lookback, panel.n_steps)])
    corrs = window_correlations(np.diff(windows, axis=1) if config.use_differences else windows)
    record = filter_windows(corrs, [filt] * len(corrs))
    failed = sorted(record.errors)
    if failed:
        fallback = filter_windows(corrs[failed], [FilterConfig(method="empirical")] * len(failed))
        assert not fallback.errors
        for name in ("correlation", "precision", "sparsity", "jitter"):
            getattr(record, name)[failed] = getattr(fallback, name)
    return filt, record


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


def record_row(record, k):
    """Row ``k`` of a FilterStack in a form that compares with ==: the
    type, message and gap of its error, or the bytes of its correlation and
    precision with its sparsity, jitter and sweeps."""
    if k in record.errors:
        return outcome_row(record.errors[k])
    return (record.correlation[k].tobytes(), record.precision[k].tobytes(), float(record.sparsity[k]),
            float(record.jitter[k]), int(record.sweeps[k]))


def outcome_row(outcome):
    """``record_row`` of a single-window FilterResult or error."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), getattr(outcome, "gap", None)
    return (outcome.correlation.tobytes(), outcome.precision.tobytes(), outcome.sparsity,
            outcome.jitter, outcome.sweeps or 0)


def stack_of(corrs) -> np.ndarray:
    """The (k, n, n) entries of a list of CorrelationMatrix."""
    return np.array([corr.entries for corr in corrs])
