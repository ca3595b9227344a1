"""Independent reference computations backing the test expectations.

Everything here deliberately avoids the library's own solver paths: plain
numpy linear algebra, exhaustive enumeration, dense grids, an LP
feasibility check, and a frozen copy of the earlier granulation. Slow is
fine; independent is the point.
"""

import itertools
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import linprog
from scipy.special import expit

from gbtwin import model as md
from gbtwin import qp
from gbtwin.features import ACTIVATION_NAMES, SELU_ALPHA, SELU_LAMBDA, init_random_layer
from gbtwin.granular import (
    LLOYD_MAX_ITER,
    GranularBall,
    GranularBallSet,
    majority_label,
    purity,
)
from gbtwin.qp import _TILE, NumericalError


def box_qp_value(Q, upper, alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def enumerate_box_qp(Q, upper):
    """Exact maximizer of sum(a) - 0.5 a'Qa on [0, upper]^p.

    Brute force over all 3^p active-set patterns (each coordinate at 0, at
    the bound, or free); free blocks solved by a dense linear system. For a
    PSD Q a global maximizer always appears among the candidates whose free
    block is nonsingular.
    """
    Q = np.asarray(Q, dtype=np.float64)
    p = Q.shape[0]
    best_alpha, best_val = np.zeros(p), box_qp_value(Q, upper, np.zeros(p))
    for pattern in itertools.product((0, 1, 2), repeat=p):
        alpha = np.zeros(p)
        free = [i for i, s in enumerate(pattern) if s == 2]
        for i, s in enumerate(pattern):
            if s == 1:
                alpha[i] = upper
        if free:
            fixed = [i for i in range(p) if i not in free]
            rhs = np.ones(len(free))
            if fixed:
                rhs = rhs - Q[np.ix_(free, fixed)] @ alpha[fixed]
            try:
                sol = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol < -1e-12) or np.any(sol > upper + 1e-12):
                continue
            alpha[free] = np.clip(sol, 0.0, upper)
        val = box_qp_value(Q, upper, alpha)
        if val > best_val:
            best_alpha, best_val = alpha, val
    return best_alpha, best_val


def grid_box_qp(Q, upper, pts=9, min_step=2e-4, max_levels=500):
    """Dense-grid maximizer with recentering refinement.

    Evaluates the objective on a pts^p lattice, re-centers the box on the
    incumbent (sliding without shrinking while the incumbent sits on a grid
    edge that is not a domain bound), and shrinks until the lattice step
    falls below ``min_step``. The objective is concave so the refinement
    cannot get trapped away from the optimum.
    """
    Q = np.asarray(Q, dtype=np.float64)
    p = Q.shape[0]
    lo = np.zeros(p)
    hi = np.full(p, float(upper))
    best_alpha, best_val = None, -np.inf
    for _ in range(max_levels):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(p)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        vals = grid.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", grid, Q, grid)
        j = int(np.argmax(vals))
        point, val = grid[j], float(vals[j])
        if val > best_val:
            best_alpha, best_val = point.copy(), val
        step = (hi - lo) / (pts - 1)
        inner_edge = (
            ((np.abs(point - lo) < 1e-300) & (lo > 0.0))
            | ((np.abs(point - hi) < 1e-300) & (hi < upper))
        )
        half = step if not inner_edge.any() else (hi - lo) / 2.0
        lo = np.clip(point - half, 0.0, upper)
        hi = np.clip(point + half, 0.0, upper)
        if np.all(step <= min_step) and not inner_edge.any():
            break
    return best_alpha, best_val


def dense_grid_box_qp(Q, upper, step):
    """Single-level dense grid over [0, upper]^p at a fixed step (chunked)."""
    Q = np.asarray(Q, dtype=np.float64)
    p = Q.shape[0]
    axis = np.arange(0.0, upper + step / 2, step)
    best_alpha, best_val = None, -np.inf
    if p == 1:
        vals = axis - 0.5 * Q[0, 0] * axis**2
        j = int(np.argmax(vals))
        return np.array([axis[j]]), float(vals[j])
    if p != 2:
        raise ValueError("dense_grid_box_qp handles p <= 2; use grid_box_qp")
    for a0 in axis:
        pair = np.column_stack([np.full(axis.size, a0), axis])
        vals = pair.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", pair, Q, pair)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_alpha, best_val = pair[j].copy(), float(vals[j])
    return best_alpha, best_val


def cyclic_box_qp_reference(Q, upper, tol, max_sweeps):
    """Unshrunk cyclic clipped coordinate ascent on the box-constrained dual.

    Every sweep visits every coordinate in index order and maximizes it
    exactly, clamped to [0, upper]; stops when the projected-gradient residual
    of a freshly computed gradient is at most ``tol``. Returns
    (alpha, sweeps, residual).
    """
    Q = np.asarray(Q, dtype=np.float64)
    p = Q.shape[0]
    alpha = np.zeros(p)
    grad = np.ones(p)  # gradient of the objective: 1 - Q @ alpha
    sweeps = 0
    residual = np.inf
    while sweeps < max_sweeps:
        sweeps += 1
        for i in range(p):
            qii = Q[i, i]
            lin = grad[i] + qii * alpha[i]  # 1 - sum_{j != i} Q_ij alpha_j
            if qii > 0.0:
                new = lin / qii
                if new < 0.0:
                    new = 0.0
                elif new > upper:
                    new = upper
            else:
                new = upper if lin > 0.0 else 0.0
            step = new - alpha[i]
            if step != 0.0:
                grad -= step * Q[i]
                alpha[i] = new
        residual = _projected_residual(grad, alpha, upper)
        if residual <= tol:
            grad = 1.0 - Q @ alpha
            residual = _projected_residual(grad, alpha, upper)
            if residual <= tol:
                break
    return alpha, sweeps, residual


def _projected_residual(grad, alpha, upper) -> float:
    viol = np.abs(grad)
    at_lower = alpha <= 0.0
    at_upper = alpha >= upper
    viol[at_lower] = np.maximum(grad[at_lower], 0.0)
    viol[at_upper] = np.maximum(-grad[at_upper], 0.0)
    return float(viol.max())


def two_mask_sweeps_reference(Q, upper, tol, max_sweeps):
    """Shrunk coordinate-ascent sweeps; returns (alpha, sweeps, kkt_residual).

    The earlier form of ``qp.solve_box_qp``, kept verbatim: each sweep
    classifies the coordinates twice, once into a ``movable`` mask and once
    more, through ``_projected_residual``, for the residual. The solver's one
    coordinate rule must reproduce its iterates bit for bit.

    ``grad`` (the objective's gradient 1 - Q alpha) is updated in full after
    every step, so a skipped coordinate that turns into a violator is seen at
    the start of the next sweep and no unshrinking is needed.
    """
    p = Q.shape[0]
    diag = Q.diagonal().tolist()
    alpha = np.zeros(p)
    grad = np.ones(p)
    sweeps = 0
    residual = np.inf
    while sweeps < max_sweeps:
        sweeps += 1
        movable = ((alpha > 0.0) | (grad > 0.0)) & ((alpha < upper) | (grad < 0.0))
        for i in np.flatnonzero(movable).tolist():
            qii = diag[i]
            old = alpha[i]
            lin = grad[i] + qii * old  # 1 - sum_{j != i} Q_ij alpha_j
            if qii > 0.0:
                new = lin / qii
                if new < 0.0:
                    new = 0.0
                elif new > upper:
                    new = upper
            else:
                # flat or degenerate direction: objective is linear in alpha_i
                new = upper if lin > 0.0 else 0.0
            step = new - old
            if step != 0.0:
                grad -= step * Q[i]
                alpha[i] = new
        residual = _projected_residual(grad, alpha, upper)
        if residual <= tol:
            # incremental gradient drifts; confirm against a fresh one
            grad = 1.0 - Q @ alpha
            residual = _projected_residual(grad, alpha, upper)
            if residual <= tol:
                break
    return alpha, sweeps, residual


def two_scratch_tile_symmetrize_reference(Q):
    """Check that Q is finite and symmetric and overwrite it with ``(Q + Q') / 2``.

    The earlier form of ``BoxQP``'s symmetrizing pass, kept verbatim: it adds
    before it halves, into two preallocated scratch tiles, so a finite entry
    above about 9e307 overflows to inf.

    One pass reads Q in square tiles, each tile on or above the diagonal
    against a scratch copy of its transposed mirror, writes the mean into the
    tile and its transpose into the mirror. Only two tiles of scratch are
    allocated. Q is symmetric when ``max|Q - Q'| <= 1e-8 * max(1, max|Q|)``;
    after a ``NumericalError`` the contents of Q are unspecified.
    """
    p = Q.shape[0]
    n = min(_TILE, p)
    mirror_buf = np.empty((n, n))
    diff_buf = np.empty((n, n))
    scale, asym = 1.0, 0.0
    for s in range(0, p, _TILE):
        for t in range(s, p, _TILE):
            a = Q[s : s + _TILE, t : t + _TILE]
            h, w = a.shape
            b = mirror_buf[:h, :w]
            np.copyto(b, Q[t : t + w, s : s + h].T)
            hi = np.maximum(a.max(), b.max())
            lo = np.minimum(a.min(), b.min())
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalError("Q contains non-finite entries")
            scale = max(scale, hi, -lo)
            diff = diff_buf[:h, :w]
            np.subtract(a, b, out=diff)
            asym = max(asym, diff.max(), -diff.min())
            np.add(a, b, out=a)
            a *= 0.5  # the same bits as / 2
            if t > s:
                Q[t : t + w, s : s + h] = a.T
    if asym > 1e-8 * scale:
        raise NumericalError("Q is not symmetric")


def serial_panel_outer_reference(V):
    """``V V'`` in row panels of ``_TILE`` rows, one panel after another.

    The loop body of ``qp._outer_in_panels`` before panels ran on threads,
    kept verbatim (V is a finite C-ordered float64 p x c matrix): the bits
    any thread count must reproduce.
    """
    p = V.shape[0]
    Q = np.empty((p, p))
    for s in range(0, p, _TILE):
        e = min(s + _TILE, p)
        np.matmul(V[s:e], V[s:].T, out=Q[s:e, s:])
        block = Q[s:e, s:e]
        np.copyto(block, block.T, where=np.tri(e - s, k=-1, dtype=bool))
        Q[e:, s:e] = Q[s:e, e:].T
    return Q


def one_thread_kkt_residual_reference(q, alpha):
    """``qp.kkt_residual`` as it was before its gradient ran on threads,
    verbatim: one ``q.Q @ a`` over every row."""
    a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, q.upper)
    grad = 1.0 - q.Q @ a
    free = ~(((a <= 0.0) & (grad <= 0.0)) | ((a >= q.upper) & (grad >= 0.0)))
    return float(np.abs(grad[free]).max(initial=0.0))


@dataclass(frozen=True)
class WrapperRidgeGram:
    factor: tuple  # scipy cho_factor output for A'A + delta*I, A r x c

    @property
    def c(self) -> int:
        return self.factor[0].shape[1]


def wrapper_ridge_factorize(A, delta: float) -> WrapperRidgeGram:
    """``qp.ridge_factorize`` as it was on scipy's Cholesky wrappers, verbatim.

    This and the next two are the bits the direct LAPACK calls must match.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise NumericalError("cannot factorize a matrix with non-finite entries")
    if not 0 < delta < np.inf:
        raise ValueError(f"ridge delta must be positive and finite, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A.T @ A + delta * np.eye(A.shape[1])
    if not np.all(np.isfinite(gram)):
        raise NumericalError("the Gram matrix of a finite matrix overflows")
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(gram))
        raise NumericalError(
            f"ridge factorization failed (condition estimate {cond:.3e}); "
            f"delta={delta} is too small for this matrix"
        ) from exc
    return WrapperRidgeGram(factor=factor)


def wrapper_solve_spd(g: WrapperRidgeGram, rhs):
    """``qp.solve_spd`` on ``cho_solve``, verbatim."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != g.c:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {g.c}")
    return cho_solve(g.factor, rhs)


def wrapper_whiten(g: WrapperRidgeGram, rows):
    """``qp.whiten`` on ``solve_triangular``, verbatim."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != g.c:
        raise ValueError(f"rows must be a 2-D matrix with {g.c} columns")
    # ridge_factorize keeps the lower factor
    return solve_triangular(g.factor[0], rows.T, lower=True, check_finite=False).T


def min_sse_bipartition(X):
    """Exhaustive minimum within-cluster SSE over all 2-partitions.

    Returns the partition as a frozenset of index frozensets.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    best, best_sse = None, np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = X[mask], X[~mask]
        if len(a) == 0 or len(b) == 0:
            continue
        sse = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
        if sse < best_sse:
            best_sse = sse
            best = frozenset(
                [frozenset(np.flatnonzero(mask)), frozenset(np.flatnonzero(~mask))]
            )
    return best, best_sse


def lloyd_two_means_reference(X, c0, c1, max_iter=100):
    """Two-cluster Lloyd iteration by explicit squared distances.

    Each point goes to the nearer centroid (ties to cluster 0) and each
    centroid becomes the mean of its points, until the assignment repeats or
    a cluster empties. Returns (assignment as a 0/1 array, emptied flag).
    """
    X = np.asarray(X, dtype=np.float64)
    centroids = [np.asarray(c0, dtype=np.float64), np.asarray(c1, dtype=np.float64)]
    assign = None
    for _ in range(max_iter):
        d0 = ((X - centroids[0]) ** 2).sum(axis=1)
        d1 = ((X - centroids[1]) ** 2).sum(axis=1)
        new = (d1 < d0).astype(np.int64)
        if new.min() == new.max():
            return new, True
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        centroids = [X[assign == 0].mean(axis=0), X[assign == 1].mean(axis=0)]
    return assign, False


def _two_means_reference(points, labels):
    """The earlier two_means: boolean-index centroid sums, kept verbatim."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("two_means needs at least 2 points")
    n = pts.shape[0]
    labs = np.asarray(labels, dtype=np.float64)
    if not (np.any(labs > 0) and np.any(labs < 0)):
        raise ValueError("two_means needs labels of both classes")
    c0 = pts[labs > 0].mean(axis=0)
    c1 = pts[labs < 0].mean(axis=0)

    # With k = 2, x is nearer c1 than c0 exactly when
    # x . (c1 - c0) > (|c1|^2 - |c0|^2) / 2, so one matvec assigns every
    # point; ties go to cluster 0. Centroids come from one masked sum.
    total = pts.sum(axis=0)
    assign = None
    for _ in range(LLOYD_MAX_ITER):
        new = pts @ (c1 - c0) > 0.5 * (c1 @ c1 - c0 @ c0)
        n1 = int(np.count_nonzero(new))
        if n1 == 0 or n1 == n:
            cut = (n + 1) // 2
            return np.arange(cut), np.arange(cut, n)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        s1 = pts[assign].sum(axis=0)
        c0 = (total - s1) / (n - n1)
        c1 = s1 / n1
    return np.flatnonzero(~assign), np.flatnonzero(assign)


def granulate_reference(d, eta):
    """The earlier generate_granular_balls, kept verbatim.

    It copies each Lloyd cluster to sum it and checks a block for identical
    rows before every split; the library must return the same balls bit for
    bit.
    """
    if not 0.5 < eta <= 1.0:
        raise ValueError(f"purity threshold must be in (0.5, 1], got {eta}")
    feats, labs = d.features, d.labels
    balls: list[GranularBall] = []
    queue: deque[np.ndarray] = deque([np.arange(d.n)])
    while queue:
        idx = queue.popleft()
        members = labs[idx]
        if idx.size > 1 and purity(members) < eta:
            block = feats[idx]
            if np.all(block == block[0]):
                warnings.warn(
                    f"ball of {idx.size} identical rows with mixed labels "
                    "finalized below the purity threshold",
                    stacklevel=2,
                )
            else:
                a, b = _two_means_reference(block, members)
                queue.append(idx[a])
                queue.append(idx[b])
                continue
        balls.append(
            GranularBall(
                member_indices=idx,
                center=feats[idx].mean(axis=0),
                label=majority_label(members),
                purity=purity(members),
                count=int(idx.size),
            )
        )
    return GranularBallSet(
        balls=tuple(balls),
        n=d.n,
    )


def linearly_separable(X, y):
    """LP feasibility of y_i (w . x_i + b) >= 1 over free (w, b)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = X.shape
    A_ub = -y[:, None] * np.hstack([X, np.ones((n, 1))])
    b_ub = -np.ones(n)
    res = linprog(
        c=np.zeros(m + 1),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * (m + 1),
        method="highs",
    )
    return res.status == 0


def twin_planes_reference(X, y, d1, d2, delta):
    """From-scratch twin-plane solution on raw features.

    Builds the two duals with plain numpy solves and maximizes them by exact
    active-set enumeration; returns the two augmented normals.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pos = X[y > 0]
    neg = X[y < 0]
    F = np.hstack([pos, np.ones((pos.shape[0], 1))])
    E = np.hstack([neg, np.ones((neg.shape[0], 1))])
    eye = np.eye(F.shape[1])

    M1 = F.T @ F + delta * eye
    Q1 = E @ np.linalg.solve(M1, E.T)
    alpha, _ = enumerate_box_qp((Q1 + Q1.T) / 2.0, d1)
    u1 = -np.linalg.solve(M1, E.T @ alpha)

    M2 = E.T @ E + delta * eye
    Q2 = F @ np.linalg.solve(M2, F.T)
    gamma, _ = enumerate_box_qp((Q2 + Q2.T) / 2.0, d2)
    u2 = np.linalg.solve(M2, F.T @ gamma)
    return u1, u2


def explicit_q_planes_reference(basis, d1, d2, qp_tol, qp_max_iter):
    """``model.fit_planes``' planes with each dual's matrix formed explicitly.

    Forms ``Q = far G^-1 far'`` of each side of ``basis`` with one product
    and hands the explicit matrix to ``BoxQP``, which checks and symmetrizes
    it in place, rather than building ``V V'`` from the basis's V.
    """
    planes = []
    for (gram, far, _), upper in zip(basis.sides, (d1, d2)):
        q = far @ qp.solve_spd(gram, far.T)
        sol = qp.solve_box_qp(qp.BoxQP(q, upper), tol=qp_tol, max_iter=qp_max_iter)
        planes.append(qp.solve_spd(gram, far.T @ sol.alpha))
    if basis.span is not None:
        planes = qp.lift(basis.span, np.column_stack(planes)).T
    return -planes[0], planes[1]


def full_width_planes(cfg, train, qp_tol, qp_max_iter=qp.DEFAULT_MAX_SWEEPS):
    """``model.fit``'s two planes fit on the c mapped columns themselves.

    The raw rows mapped and a ones column appended; each plane's ridge factor
    of its near class block and its dual over the far block are formed at
    full width, even with fewer rows than columns. No granulation:
    ``train``'s rows stand for the ball centres.
    """
    layer = None
    if cfg.feature_space != "original":
        layer = init_random_layer(train.m, cfg.h, cfg.activation, cfg.seed)
    mapped = md._map_rows(cfg.feature_space, layer, train.features)
    mapped = np.hstack([mapped, np.ones((mapped.shape[0], 1))])
    pos, neg = mapped[train.labels > 0], mapped[train.labels < 0]
    planes = []
    for near, far, upper in ((pos, neg, cfg.d1), (neg, pos, cfg.d2)):
        gram = qp.ridge_factorize(near, cfg.delta)
        sol = qp.solve_box_qp(qp.BoxQP(qp.LowRank(qp.whiten(gram, far)), upper),
                              tol=qp_tol, max_iter=qp_max_iter)
        planes.append(qp.solve_spd(gram, far.T @ sol.alpha))
    return -planes[0], planes[1]


def average_ranks_reference(scores):
    """Tie-averaged ranks (1 = highest) without scipy, for cross-checking."""
    S = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(S)
    for r, row in enumerate(S):
        order = np.argsort(-row, kind="stable")
        ranks = np.empty(len(row))
        i = 0
        while i < len(row):
            j = i
            while j + 1 < len(row) and row[order[j + 1]] == row[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                ranks[order[t]] = avg
            i = j + 1
        out[r] = ranks
    return out, out.mean(axis=0)


def activate_reference(kind, x):
    """The earlier activate, kept verbatim: sigmoid through scipy's expit.

    Every kind but sigmoid must match it bit for bit.
    """
    if kind not in ACTIVATION_NAMES:
        raise ValueError(f"activation index must be 1..9, got {kind}")
    arr = np.asarray(x, dtype=np.float64)
    if kind == 1:
        neg = SELU_ALPHA * np.expm1(np.minimum(arr, 0.0))
        out = SELU_LAMBDA * np.where(arr > 0.0, arr, neg)
    elif kind == 2:
        out = np.maximum(arr, 0.0)
    elif kind == 3:
        out = expit(arr)
    elif kind == 4:
        out = np.sin(arr)
    elif kind == 5:
        out = np.where(arr >= 0.0, 1.0, 0.0)
    elif kind == 6:
        out = np.maximum(0.0, 1.0 - np.abs(arr))
    elif kind == 7:
        out = np.exp(-(arr**2))
    elif kind == 8:
        out = np.sign(arr)
    else:
        out = np.where(arr > 0.0, arr, 0.01 * arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def plane_distances_reference(mdl, X):
    """The earlier plane scoring: a ones column and one matvec per plane.

    Also returns, per row and plane, sum |w_i z_i| + |b| over |w|: the size of
    the terms whose sum is the distance, which bounds its rounding error.
    """
    mapped = md._map_rows(mdl.config.feature_space, mdl.layer, md._checked_input(mdl, X))
    z = np.hstack([mapped, np.ones((mapped.shape[0], 1))])
    d1 = np.abs(z @ mdl.u1) / np.linalg.norm(mdl.u1[:-1])
    d2 = np.abs(z @ mdl.u2) / np.linalg.norm(mdl.u2[:-1])
    terms = np.column_stack([np.abs(z) @ np.abs(u) / np.linalg.norm(u[:-1])
                             for u in (mdl.u1, mdl.u2)])
    return d1, d2, terms
