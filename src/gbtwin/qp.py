"""Numerical core: ridge-regularized SPD solves and the box-constrained dual.

``ridge_factorize`` Cholesky-factors A'A + delta*I once so that many right
hand sides can be solved cheaply. ``solve_box_qp`` maximizes
``sum(alpha) - 0.5 * alpha' Q alpha`` over the box ``0 <= alpha <= upper``
with cyclic clipped coordinate ascent and certifies the result through the
projected-gradient KKT residual. Each sweep visits only the coordinates that
can move (shrinking, as in SVMlight and LIBLINEAR): a coordinate at a bound
whose gradient points out of the box would take a zero step and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000
DEFAULT_DELTA = 1e-5
# edge of the square tiles BoxQP validates and symmetrizes Q in
_TILE = 256


class NumericalError(Exception):
    """A linear-algebra or optimization step failed beyond recovery."""


@dataclass(frozen=True)
class RidgeGram:
    factor: tuple  # scipy cho_factor output for A'A + delta*I, A r x c

    @property
    def c(self) -> int:
        return self.factor[0].shape[1]


def ridge_factorize(A, delta: float) -> RidgeGram:
    """Cholesky factorization of A'A + delta*I for repeated solves."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise NumericalError("cannot factorize a matrix with non-finite entries")
    if delta <= 0:
        raise ValueError(f"ridge delta must be positive, got {delta}")
    gram = A.T @ A + delta * np.eye(A.shape[1])
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(gram))
        raise NumericalError(
            f"ridge factorization failed (condition estimate {cond:.3e}); "
            f"delta={delta} is too small for this matrix"
        ) from exc
    return RidgeGram(factor=factor)


def solve_spd(g: RidgeGram, rhs):
    """Solve (A'A + delta*I) x = rhs for one or many right-hand sides."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != g.c:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {g.c}")
    return cho_solve(g.factor, rhs)


def _symmetrized(Q):
    """Check that Q is finite and symmetric and return ``(Q + Q') / 2``.

    One pass reads Q in square tiles, each tile on or above the diagonal
    against its transposed mirror, and writes the tile below the diagonal as
    the transpose, so nothing larger than the output is allocated. Q is
    symmetric when ``max|Q - Q'| <= 1e-8 * max(1, max|Q|)``.
    """
    p = Q.shape[0]
    out = np.empty((p, p))
    scale, asym = 1.0, 0.0
    for s in range(0, p, _TILE):
        for t in range(s, p, _TILE):
            a = Q[s : s + _TILE, t : t + _TILE]
            b = Q[t : t + _TILE, s : s + _TILE].T
            hi = np.maximum(a.max(), b.max())
            lo = np.minimum(a.min(), b.min())
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalError("Q contains non-finite entries")
            scale = max(scale, hi, -lo)
            tile = out[s : s + _TILE, t : t + _TILE]
            np.subtract(a, b, out=tile)
            asym = max(asym, tile.max(), -tile.min())
            np.add(a, b, out=tile)
            tile *= 0.5  # the same bits as / 2
            if t > s:
                out[t : t + _TILE, s : s + _TILE] = tile.T
    if asym > 1e-8 * scale:
        raise NumericalError("Q is not symmetric")
    return out


@dataclass(frozen=True)
class BoxQP:
    """maximize alpha'1 - 0.5 alpha'Q alpha  s.t.  0 <= alpha <= upper."""

    Q: np.ndarray
    upper: float

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        Q = _symmetrized(Q)
        if float(Q.diagonal().min()) < -1e-10:
            raise NumericalError("Q has a negative diagonal entry; not PSD")
        if self.upper <= 0:
            raise ValueError(f"box bound must be positive, got {self.upper}")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "upper", float(self.upper))

    @property
    def p(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class QPSolution:
    alpha: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool


def kkt_residual(q: BoxQP, alpha) -> float:
    """Max projected-gradient violation of box optimality at ``alpha``.

    The point is clamped to the box first. At an optimum the gradient
    g = 1 - Q alpha must vanish on interior coordinates, be <= 0 at the lower
    bound, and >= 0 at the upper bound.
    """
    a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, q.upper)
    return _projected_residual(1.0 - q.Q @ a, a, q.upper)


def _projected_residual(grad, alpha, upper) -> float:
    viol = np.abs(grad)
    at_lower = alpha <= 0.0
    at_upper = alpha >= upper
    viol[at_lower] = np.maximum(grad[at_lower], 0.0)
    viol[at_upper] = np.maximum(-grad[at_upper], 0.0)
    return float(viol.max())


def solve_box_qp(
    q: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
) -> QPSolution:
    """Cyclic clipped coordinate ascent on the box-constrained dual.

    Each coordinate is maximized exactly and clamped to [0, upper], so the
    objective never decreases across sweeps. A sweep visits, in index order,
    only the coordinates that can move: it skips those at a bound whose
    gradient points out of the box. Terminates when the KKT residual drops to
    ``tol`` or after ``max_iter`` sweeps; non-convergence is reported through
    the result, not raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha, sweeps, residual = _sweeps(q.Q, q.upper, tol, max_iter)
    return QPSolution(
        alpha=alpha,
        kkt_residual=residual,
        iterations=sweeps,
        converged=residual <= tol,
    )


def _sweeps(Q, upper, tol, max_sweeps):
    """Shrunk coordinate-ascent sweeps; returns (alpha, sweeps, kkt_residual).

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
