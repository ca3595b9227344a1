"""Numerical core: ridge-regularized SPD solves and the box-constrained dual.

``ridge_factorize`` Cholesky-factors A'A + delta*I once so that many right
hand sides can be solved cheaply. ``solve_box_qp`` maximizes
``sum(alpha) - 0.5 * alpha' Q alpha`` over the box ``0 <= alpha <= upper``
with cyclic clipped coordinate ascent and certifies the result through the
projected-gradient KKT residual. One coordinate rule drives the sweeps, the
stopping test and ``kkt_residual``: a coordinate is held when it sits at a
bound with its gradient pointing out of the box. The residual is the largest
|gradient| among the coordinates not held, and the next sweep visits exactly
those (shrinking, as in SVMlight and LIBLINEAR).

``BoxQP`` owns the Q it is handed: a writable C-ordered float64 array is
symmetrized in place, so a dual holds one p x p matrix, not two. Both
triangles are halved before they are added, so any finite Q stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000
DEFAULT_DELTA = 1e-5
# edge of the square tiles BoxQP validates and symmetrizes Q in place; on a
# 6951 x 6951 Q (2 cores, one BLAS thread) 128 ran a few percent faster than
# 192 or 256 and clearly faster than 64
_TILE = 128


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
    return RidgeGram(factor=factor)


def solve_spd(g: RidgeGram, rhs):
    """Solve (A'A + delta*I) x = rhs for one or many right-hand sides."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != g.c:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {g.c}")
    return cho_solve(g.factor, rhs)


def _symmetrize_in_place(Q):
    """Check that Q is finite and symmetric and overwrite it with ``Q/2 + Q'/2``.

    One pass reads Q in square tiles, each tile on or above the diagonal
    against a halved copy of its transposed mirror, writes the mean into the
    tile and its transpose into the mirror. The halved mirror and the
    difference go to two scratch tiles allocated once per pass. Halving
    before adding keeps every finite entry finite; for normal floats the mean
    has the bits of ``(Q + Q') / 2``, a subnormal one may differ in its last
    bit. Q is symmetric when ``max|Q - Q'| <= 1e-8 * max(1, max|Q|)``, tested
    on the halves; after a ``NumericalError`` the contents of Q are
    unspecified.
    """
    p = Q.shape[0]
    n = min(_TILE, p)
    # C-ordered: an F-ordered mirror made the pass ~30% slower
    mirror_buf = np.empty((n, n))
    diff_buf = np.empty((n, n))
    half_scale, half_asym = 0.5, 0.0
    for s in range(0, p, _TILE):
        for t in range(s, p, _TILE):
            a = Q[s : s + _TILE, t : t + _TILE]
            h, w = a.shape
            b = mirror_buf[:h, :w]
            np.multiply(Q[t : t + w, s : s + h].T, 0.5, out=b)
            a *= 0.5
            hi = np.maximum(a.max(), b.max())
            lo = np.minimum(a.min(), b.min())
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalError("Q contains non-finite entries")
            half_scale = max(half_scale, hi, -lo)
            diff = diff_buf[:h, :w]
            np.subtract(a, b, out=diff)
            half_asym = max(half_asym, diff.max(), -diff.min())
            a += b
            if t > s:
                Q[t : t + _TILE, s : s + _TILE] = a.T
    if half_asym > 1e-8 * half_scale:
        raise NumericalError("Q is not symmetric")


@dataclass(frozen=True)
class BoxQP:
    """maximize alpha'1 - 0.5 alpha'Q alpha  s.t.  0 <= alpha <= upper.

    BoxQP takes over the Q it is given: a writable C-ordered float64 array is
    checked and symmetrized in place and then marked read-only, so the caller
    must not rely on its old contents. Any other input (a list, another
    dtype or order, a read-only array) is copied and the caller's array is
    left untouched. The stored Q is ``Q/2 + Q'/2``: the bits of
    ``(Q + Q') / 2`` wherever that is finite, save the last bit of a
    subnormal entry. A bad ``upper`` or a non-square Q is rejected before
    anything is written; after a ``NumericalError`` Q's contents are
    unspecified.
    """

    Q: np.ndarray
    upper: float

    def __post_init__(self):
        if self.upper <= 0:
            raise ValueError(f"box bound must be positive, got {self.upper}")
        Q = np.require(self.Q, np.float64, ["C", "W"])
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        _symmetrize_in_place(Q)
        if float(Q.diagonal().min()) < -1e-10:
            raise NumericalError("Q has a negative diagonal entry; not PSD")
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
    return _free_and_residual(1.0 - q.Q @ a, a, q.upper)[1]


def _free_and_residual(grad, alpha, upper):
    """The coordinates not held at a bound, and the KKT residual over them.

    A coordinate is held when it sits at a bound and its gradient points out
    of the box: ``alpha <= 0`` with ``g <= 0``, or ``alpha >= upper`` with
    ``g >= 0``. Its clipped step is zero and so is its projected gradient.
    The residual is ``max |g|`` over the other coordinates, 0 when every one
    is held; a NaN gradient is never held, so it reaches the residual.
    """
    free = ~(((alpha <= 0.0) & (grad <= 0.0)) | ((alpha >= upper) & (grad >= 0.0)))
    return free, float(np.abs(grad[free]).max(initial=0.0))


def solve_box_qp(
    q: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
) -> QPSolution:
    """Cyclic clipped coordinate ascent on the box-constrained dual.

    Each coordinate is maximized exactly and clamped to [0, upper], so the
    objective never decreases across sweeps. A sweep visits, in index order,
    the coordinates the last residual was taken over, skipping those held at
    a bound. ``grad`` (the objective's gradient 1 - Q alpha) is updated in
    full after every step, so a held coordinate that turns into a violator
    rejoins at the next sweep. Terminates when the KKT residual of a fresh
    gradient drops to ``tol`` or after ``max_iter`` sweeps; non-convergence
    is reported through the result, not raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Q, upper = q.Q, q.upper
    diag = Q.diagonal().tolist()
    alpha = np.zeros(q.p)
    grad = np.ones(q.p)
    free = np.ones(q.p, dtype=bool)
    sweeps, residual = 0, np.inf
    while sweeps < max_iter:
        sweeps += 1
        for i in np.flatnonzero(free).tolist():
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
        free, residual = _free_and_residual(grad, alpha, upper)
        if residual <= tol:
            # incremental gradient drifts; confirm against a fresh one
            grad = 1.0 - Q @ alpha
            free, residual = _free_and_residual(grad, alpha, upper)
            if residual <= tol:
                break
    return QPSolution(
        alpha=alpha,
        kkt_residual=residual,
        iterations=sweeps,
        converged=residual <= tol,
    )
