"""Independent oracles used by the tests.

Everything here deliberately avoids the code paths it checks: gradients
come from central finite differences, the l1-penalized objective is
minimized by grid refinement / projected search instead of coordinate
descent, chordality is cross-checked through networkx, and the fast paths
(the fused LSTM op, the LAPACK Cholesky, the table-scored MFCF build, the
lockstep glasso batch) are checked against the slow references they
replaced.
"""

import itertools

import numpy as np

from fsstgnn.errors import ConvergenceError, DefinitenessError
from fsstgnn.filtering import PRECISION_ZERO_TOL, FilterResult, _ensure_pd, sparsity
from fsstgnn.linalg import CorrelationMatrix, PrecisionMatrix, TimeSeriesPanel, invert_spd
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


def make_panel(values) -> TimeSeriesPanel:
    values = np.asarray(values, dtype=float)
    return TimeSeriesPanel(
        values=values,
        series_ids=tuple(str(i) for i in range(values.shape[1])),
        timestamps=tuple(range(values.shape[0])),
    )


def random_spd(rng, n, jitter=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * n * np.eye(n)


def random_correlation(rng, n, rows=None):
    rows = rows if rows is not None else 8 * n
    x = rng.normal(size=(rows, n))
    from fsstgnn.linalg import correlation_from_rows

    return correlation_from_rows(x)


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
        gate_in = ad.sigmoid(z[:, :h_dim])
        gate_forget = ad.sigmoid(z[:, h_dim: 2 * h_dim])
        gate_cell = ad.tanh(z[:, 2 * h_dim: 3 * h_dim])
        gate_out = ad.sigmoid(z[:, 3 * h_dim:])
        state = ad.add(ad.mul(gate_forget, state), ad.mul(gate_in, gate_cell))
        hidden = ad.mul(gate_out, ad.tanh(state))
    return hidden


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


def glasso_reference(corr, lam, max_sweeps=500, tol=1e-6, inner_tol=1e-8, max_inner=100):
    """One graphical lasso problem by primal block coordinate descent with
    scalar coordinate updates; raises ConvergenceError (with the duality
    gap) or DefinitenessError as the solver does."""
    s, jitter = _ensure_pd(corr.entries)
    p = s.shape[0]
    theta = np.diag(1.0 / np.diag(s)).copy()
    w = np.diag(np.diag(s)).copy()                  # w tracks theta^{-1}
    objective = [glasso_objective(s, theta, lam)]
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
    precision = PrecisionMatrix.from_entries(theta, zero_tol=PRECISION_ZERO_TOL)
    return FilterResult(
        correlation=CorrelationMatrix.from_entries(invert_spd(precision.entries)),
        precision=precision,
        sparsity=sparsity(precision),
        jitter=jitter,
        objective_values=tuple(objective),
        sweeps=converged_sweeps,
    )
