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

A dual built from ``LowRank(V)`` with V p x c and p <= c has a Q that is
generically nonsingular and at most c x c, so after its first sweep each
iteration of ``solve_box_qp`` starts with a projected Newton step on the
coordinates not held (Bertsekas 1982; More and Toraldo 1991): one Cholesky
solve on the free block of Q, the point clipped to the box and kept only if
the objective does not fall. One iteration is then a Newton step, a sweep
or both. Every other dual, explicit or with p > c, runs the sweeps alone.

``fit``'s duals have ``Q = H G^-1 H'`` with the ridge factor ``G = L L'``,
which is ``V V'`` for ``V = H L^-T`` (``whiten``). Handed ``LowRank(V)``,
``BoxQP`` builds ``V V'`` itself, exactly symmetric and PSD, and checks V
rather than Q. Handed an explicit matrix, ``BoxQP`` owns it: a writable
C-ordered float64 array is checked and symmetrized in place, halving both
triangles before adding them, so any finite Q stays finite. Either way a
dual holds one p x p matrix, not two.

The row panels of ``V V'`` write disjoint parts of Q, so they are also the
unit of parallel work: a Q of ``_THREADED_Q_BYTES`` (32 MiB, p >= 2048) or
more is built on a thread pool with one thread per CPU in the process's
affinity mask, with the same bits as the serial loop that builds every
smaller Q. A Q larger than the machine's physical memory is refused before
it is allocated.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000
DEFAULT_DELTA = 1e-5
# edge of the square tiles BoxQP validates and symmetrizes Q in place; on a
# 6951 x 6951 Q (2 cores, one BLAS thread) 128 ran a few percent faster than
# 192 or 256 and clearly faster than 64. It is also the height of the row
# panels V V' is built in: on a 7000 x 34 V, 128 to 512 rows were within
# noise of each other and 64 rows about 15% slower. A panel is also the unit
# of work handed to a thread when V V' is built in parallel.
_TILE = 128
# a Q of at least this many bytes (p >= 2048) is built on every usable CPU.
# On 2 cores with one BLAS thread and c = 34 (medians of alternating builds),
# 2 threads lost below it (p 1024: 3.0 ms against 2.4 ms serial), broke even
# at it (11.5 ms against 11.8 ms) and won above it (p 3000: 22 ms against
# 31 ms; p 6951: 0.13 s against 0.22 s)
_THREADED_Q_BYTES = 32 << 20
# a row of V with |V_i|^2 below this bound keeps every entry of V V' finite
_ROW_NORM_SQ_MAX = np.finfo(np.float64).max / 4


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
    return RidgeGram(factor=factor)


def solve_spd(g: RidgeGram, rhs):
    """Solve (A'A + delta*I) x = rhs for one or many right-hand sides."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != g.c:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {g.c}")
    return cho_solve(g.factor, rhs)


def whiten(g: RidgeGram, rows):
    """``rows L^-T`` for the ridge factor ``L L' = A'A + delta*I``.

    ``whiten(g, B) @ whiten(g, B).T`` is ``B (A'A + delta*I)^-1 B'``: one
    triangular solve gives the k x c factor of a dual's matrix. Finiteness is
    not checked here; ``BoxQP`` checks the factor it is handed.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != g.c:
        raise ValueError(f"rows must be a 2-D matrix with {g.c} columns")
    # ridge_factorize keeps the lower factor
    return solve_triangular(g.factor[0], rows.T, lower=True, check_finite=False).T


@dataclass(frozen=True)
class LowRank:
    """A dual matrix given by its factor: ``Q = V V'`` with V p x c."""

    V: np.ndarray


def _physical_memory_bytes():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outer_in_panels(V):
    """``V V'`` for a p x c V, built in row panels of ``_TILE`` rows.

    Each panel is one product into the upper triangle, its diagonal block
    and the rest of its columns mirrored into the lower, so the result is
    exactly symmetric and holds the bits of the upper triangle. Panel ``s``
    writes only ``Q[s:e, s:]`` and ``Q[e:, s:e]``, so panels do not depend on
    each other: a Q of ``_THREADED_Q_BYTES`` or more is built on a pool of
    one thread per CPU the process may use (at most one per panel), which
    takes the panels in order as each thread frees up and is shut down
    before this returns. The bits do not depend on the thread count. A V
    that is non-finite, or whose largest squared row norm passes
    ``_ROW_NORM_SQ_MAX``, is rejected before Q is allocated: that bound also
    bounds every |Q_ij|, so no product overflows. So is a Q whose ``8 p^2``
    bytes exceed the physical memory, with a ``NumericalError`` naming both.
    """
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("V must be a 2-D matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        row_norm_sq = np.einsum("ij,ij->i", V, V)
    if not float(row_norm_sq.max(initial=0.0)) <= _ROW_NORM_SQ_MAX:
        raise NumericalError("Q contains non-finite entries")
    p = V.shape[0]
    limit = _physical_memory_bytes()
    if limit is not None and 8 * p * p > limit:
        raise NumericalError(
            f"the {p} x {p} dual matrix needs {8 * p * p} bytes, "
            f"more than the {limit} bytes of physical memory"
        )
    Q = np.empty((p, p))

    def panel(s):
        # numpy calls only, each of which releases the GIL
        e = min(s + _TILE, p)
        np.matmul(V[s:e], V[s:].T, out=Q[s:e, s:])
        block = Q[s:e, s:e]
        np.copyto(block, block.T, where=np.tri(e - s, k=-1, dtype=bool))
        Q[e:, s:e] = Q[s:e, e:].T

    starts = range(0, p, _TILE)
    workers = 1
    if Q.nbytes >= _THREADED_Q_BYTES:
        workers = min(usable_cpus(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(panel, starts))  # re-raises a worker's exception
    else:
        for s in starts:
            panel(s)
    return Q


def _symmetrize_in_place(Q):
    """Check that Q is finite and symmetric and overwrite it with ``Q/2 + Q'/2``.

    One pass reads Q in square tiles, each tile on or above the diagonal
    against a halved copy of its transposed mirror, writes the mean into the
    tile and its transpose into the mirror. Halving before adding keeps every
    finite entry finite; for normal floats the mean has the bits of
    ``(Q + Q') / 2``, a subnormal one may differ in its last bit. Q is
    symmetric when ``max|Q - Q'| <= 1e-8 * max(1, max|Q|)``, tested on the
    halves; after a ``NumericalError`` the contents of Q are unspecified.
    """
    p = Q.shape[0]
    half_scale, half_asym = 0.5, 0.0
    for s in range(0, p, _TILE):
        for t in range(s, p, _TILE):
            a = Q[s : s + _TILE, t : t + _TILE]
            # C-ordered: an F-ordered mirror made the pass ~30% slower
            b = np.multiply(Q[t : t + _TILE, s : s + _TILE].T, 0.5, order="C")
            a *= 0.5
            hi = np.maximum(a.max(), b.max())
            lo = np.minimum(a.min(), b.min())
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalError("Q contains non-finite entries")
            half_scale = max(half_scale, hi, -lo)
            diff = a - b
            half_asym = max(half_asym, diff.max(), -diff.min())
            a += b
            if t > s:
                Q[t : t + _TILE, s : s + _TILE] = a.T
    if half_asym > 1e-8 * half_scale:
        raise NumericalError("Q is not symmetric")


@dataclass(frozen=True)
class BoxQP:
    """maximize alpha'1 - 0.5 alpha'Q alpha  s.t.  0 <= alpha <= upper.

    Q is given as ``LowRank(V)`` or as an explicit matrix; after construction
    ``Q`` is always the explicit read-only p x p float64 matrix.

    From ``LowRank(V)`` the stored Q is ``V V'`` built in row panels: exactly
    symmetric, PSD, within rounding of ``V @ V.T``, and never read back to be
    checked. A V that is non-finite, or whose largest squared row norm
    exceeds ``finfo.max / 4``, raises ``NumericalError("Q contains non-finite
    entries")`` with no warning. ``full_rank`` is set when V is p x c with
    p <= c, so Q is generically nonsingular; ``solve_box_qp`` then takes
    Newton steps. It is never set for an explicit Q.

    BoxQP takes over an explicit Q: a writable C-ordered float64 array is
    checked and symmetrized in place and then marked read-only, so the caller
    must not rely on its old contents. Any other input (a list, another
    dtype or order, a read-only array) is copied and the caller's array is
    left untouched. The stored Q is ``Q/2 + Q'/2``: the bits of
    ``(Q + Q') / 2`` wherever that is finite, save the last bit of a
    subnormal entry. A bad ``upper`` or a non-square Q is rejected before
    anything is written; after a ``NumericalError`` Q's contents are
    unspecified.
    """

    Q: np.ndarray | LowRank
    upper: float
    full_rank: bool = field(default=False, init=False)

    def __post_init__(self):
        if not 0 < self.upper < np.inf:
            raise ValueError(f"box bound must be positive and finite, got {self.upper}")
        if isinstance(self.Q, LowRank):
            Q = _outer_in_panels(self.Q.V)
            object.__setattr__(self, "full_rank", Q.shape[0] <= self.Q.V.shape[1])
        else:
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


def _newton_step(Q, upper, alpha, grad, free):
    """One projected Newton step on the free coordinates; returns (alpha, grad).

    ``grad`` must be the fresh gradient at ``alpha``, and ``free`` must hold
    a coordinate, as a last residual above ``tol`` guarantees. The step
    solves ``Q_FF d = g_F`` by Cholesky, clips ``alpha + d`` to the box and
    keeps the clipped point, with its fresh gradient, only if the objective
    ``(sum(alpha) + alpha . grad) / 2`` does not fall there. A free block
    that is not numerically positive definite, or a step that lowers the
    objective, leaves ``alpha`` and ``grad`` as they were.
    """
    F = np.flatnonzero(free)
    # LAPACK directly: scipy's cho_factor and cho_solve cost 2.5x as much on
    # the 11-25 row blocks of a grid search, whose duals take several steps
    factor, info = dpotrf(Q[F[:, None], F], lower=True)
    if info != 0:
        return alpha, grad
    step, _ = dpotrs(factor, grad[F], lower=True)
    trial = alpha.copy()
    trial[F] = np.clip(alpha[F] + step, 0.0, upper)
    trial_grad = 1.0 - Q @ trial
    if trial.sum() + trial @ trial_grad >= alpha.sum() + alpha @ grad:
        return trial, trial_grad
    return alpha, grad


def solve_box_qp(
    q: BoxQP,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
) -> QPSolution:
    """Cyclic clipped coordinate ascent on the box-constrained dual, with
    projected Newton steps when ``q.full_rank``.

    Each coordinate is maximized exactly and clamped to [0, upper], so the
    objective never decreases across sweeps. A sweep visits, in index order,
    the coordinates the last residual was taken over, skipping those held at
    a bound. ``grad`` (the objective's gradient 1 - Q alpha) is updated in
    full after every step, so a held coordinate that turns into a violator
    rejoins at the next sweep.

    One iteration is one sweep, except on a ``full_rank`` dual (``LowRank(V)``
    with V p x c, p <= c) after the first: there an iteration first takes a
    Newton step (``_newton_step``) from a fresh gradient on the coordinates
    the last residual was taken over, kept only if the objective does not
    fall, and stops if the resulting point is certified; otherwise the sweep
    follows. So ``max_iter=1`` is one plain sweep on every dual, and an
    explicit Q or p > c gets the sweeps alone, as it always did. Terminates when the KKT
    residual of a fresh gradient drops to ``tol`` or after ``max_iter``
    iterations; non-convergence is reported through the result, not raised.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    Q, upper = q.Q, q.upper
    diag = Q.diagonal().tolist()
    alpha = np.zeros(q.p)
    grad = np.ones(q.p)
    free = np.ones(q.p, dtype=bool)
    iterations, residual = 0, np.inf
    while iterations < max_iter:
        iterations += 1
        if q.full_rank and iterations > 1:
            alpha, grad = _newton_step(Q, upper, alpha, 1.0 - Q @ alpha, free)
            free, residual = _free_and_residual(grad, alpha, upper)
            if residual <= tol:
                break
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
        iterations=iterations,
        converged=residual <= tol,
    )
