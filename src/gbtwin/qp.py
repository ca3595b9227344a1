"""Numerical core: ridge-regularized SPD solves and the box-constrained dual.

``ridge_factorize`` Cholesky-factors A'A + delta*I once so that many right
hand sides can be solved cheaply; it, its solves and the Newton step below
call LAPACK's ``dpotrf``, ``dpotrs`` and ``dtrtrs``. ``row_span`` QR-factors
the transpose of a matrix with fewer rows than columns through ``dgeqrf``,
and ``lift`` maps coordinates in that row space back through ``dormqr``, so
a ridge fit on k < c rows runs on k x k rows instead of c x c systems
(Hastie and Tibshirani 2004). ``solve_box_qp``
maximizes ``sum(alpha) - 0.5 * alpha' Q alpha`` over the box
``0 <= alpha <= upper`` with cyclic clipped coordinate ascent and certifies
the result through the projected-gradient KKT residual. One coordinate rule
drives the sweeps, the stopping test and ``kkt_residual``: a coordinate is
held when it sits at a bound with its gradient pointing out of the box. The
residual is the largest |gradient| among the coordinates not held, and the
next sweep visits exactly those (shrinking, as in SVMlight and LIBLINEAR).

A dual built from ``LowRank(V)`` with V p x c and p <= c has a Q that is
generically nonsingular and at most c x c, so after its first sweep each
iteration of ``solve_box_qp`` starts with a projected Newton step on the
coordinates not held (Bertsekas 1982; More and Toraldo 1991): one Cholesky
solve on the free block of Q, then a search along the projection arc that
clips the full step to the box and halves it, at most 8 times, until the
objective does not fall; an arc that lowers it at every length tried is
dropped. One iteration is then a Newton step, a sweep or both. Every other
dual, explicit or with p > c, runs the sweeps alone.

``fit``'s duals have ``Q = H G^-1 H'`` with the ridge factor ``G = L L'``,
which is ``V V'`` for ``V = H L^-T`` (``whiten``). Handed ``LowRank(V)``,
``BoxQP`` builds ``V V'`` itself, exactly symmetric and PSD, and checks V
rather than Q. Handed an explicit matrix, ``BoxQP`` owns it: a writable
C-ordered float64 array is checked and symmetrized in place, halving both
triangles before adding them, so any finite Q stays finite. Either way a
dual holds one p x p matrix, not two.

The row panels of ``V V'`` write disjoint parts of Q, so they are also the
unit of parallel work: a Q of ``_THREADED_Q_BYTES`` (32 MiB, p >= 2048) or
more is built on a thread pool of ``usable_cpus()`` threads, with the same
bits as the serial loop that builds every smaller Q. The fresh gradients
``1 - Q alpha`` of such a Q (``_matvec``) run on the same threads, each on
a block of whole panels. ``dual_buffer`` is the one place a p x p dual
matrix is allocated, and a Q larger than the machine's physical memory is
refused there before anything is allocated. ``fit_planes`` builds both
twin duals of a fit in one such buffer, sized for the larger, so a
``BoxQP`` built in it is valid only until the next build in it. This module
owns every decision on how many CPUs and BLAS threads a process may fill:
``usable_cpus`` and ``one_blas_thread``, which the grid search's workers
and the CLI call. Importing the package leaves BLAS as it is.

Every claim here that two computations give the same bits holds on one
BLAS thread, as the CLI and the benchmark pin it. OpenBLAS splits a
product's rows among its own threads, so with several of them ``Q @ x``
itself rounds differently from the one-thread product.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dpotrf, dpotrs, dtrtrs

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
# halvings of a Newton step along the projection arc before it is dropped. On
# the benchmark grid's 270 duals the full clipped step lowered the objective
# in 751 of the 1243 steps taken; with the arc search 815 of 817 were kept
_NEWTON_HALVINGS = 8
# a row of V with |V_i|^2 below this bound keeps every entry of V V' finite
_ROW_NORM_SQ_MAX = np.finfo(np.float64).max / 4
# OpenBLAS's thread-count setters: the scipy-openblas builds in numpy 2 and
# recent scipy wheels prefix them, older wheels' builds do not, and the 64_
# suffix marks the 64-bit-integer build numpy uses
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


class NumericalError(Exception):
    """A linear-algebra or optimization step failed beyond recovery."""


@dataclass(frozen=True)
class RidgeGram:
    L: np.ndarray  # dpotrf's factor of A'A + delta*I (A r x c, c >= 1) in its lower triangle

    @property
    def c(self) -> int:
        return self.L.shape[1]


def ridge_factorize(A, delta: float) -> RidgeGram:
    """Cholesky factorization of A'A + delta*I for repeated solves."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] == 0:
        raise ValueError("A must be a 2-D matrix with at least one column")
    if not np.all(np.isfinite(A)):
        raise NumericalError("cannot factorize a matrix with non-finite entries")
    if not 0 < delta < np.inf:
        raise ValueError(f"ridge delta must be positive and finite, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A.T @ A + delta * np.eye(A.shape[1])
    if not np.all(np.isfinite(gram)):
        raise NumericalError("the Gram matrix of a finite matrix overflows")
    L, info = dpotrf(gram, lower=True, clean=False)
    if info != 0:  # info > 0: a leading minor is not positive definite
        raise NumericalError(
            f"ridge factorization failed (condition estimate {np.linalg.cond(gram):.3e}); "
            f"delta={delta} is too small for this matrix"
        )
    return RidgeGram(L=L)


def solve_spd(g: RidgeGram, rhs):
    """Solve (A'A + delta*I) x = rhs for one or many right-hand sides."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2):
        raise ValueError(f"rhs must be a vector or a matrix, got {rhs.ndim} dimensions")
    if rhs.shape[0] != g.c:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {g.c}")
    return dpotrs(g.L, rhs, lower=True)[0]  # info is 0: c >= 1 and the rows match


def whiten(g: RidgeGram, rows):
    """``rows L^-T`` for the ridge factor ``L L' = A'A + delta*I``.

    ``whiten(g, B) @ whiten(g, B).T`` is ``B (A'A + delta*I)^-1 B'``: one
    triangular solve gives the k x c factor of a dual's matrix. Finiteness is
    not checked here; ``BoxQP`` checks the factor it is handed.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != g.c:
        raise ValueError(f"rows must be a 2-D matrix with {g.c} columns")
    return dtrtrs(g.L, rows.T, lower=True)[0].T  # info is 0: L has no zero pivot


@dataclass(frozen=True)
class RowSpan:
    """The row space of a k x c matrix M with k < c, from ``dgeqrf`` on M'.

    ``M' = U R`` with U c x k orthonormal and R k x k upper triangular, so
    ``M = R' U'``: the rows of ``R'`` are M's rows in the basis U.
    """

    qr: np.ndarray  # dgeqrf's output: R on and above the diagonal, U's reflectors below
    tau: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """``M U``, the k x k lower-triangular ``R'``."""
        k = self.tau.shape[0]
        return np.tril(self.qr[:k].T)


def row_span(M) -> RowSpan:
    """QR of M' for a finite k x c M with 1 <= k < c (Hastie and Tibshirani 2004).

    A ridge fit on M, ``(A'A + delta*I)^-1 B'`` for rows A and B of M, is U
    times the same fit on the rows of ``R'``: the B' it is applied to lies
    in U's span, and ``delta*I`` is the same in every orthonormal basis.
    M may be rank deficient; U is orthonormal all the same.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or not 1 <= M.shape[0] < M.shape[1]:
        raise ValueError("M must be a 2-D matrix with fewer rows than columns")
    qr, tau, _, _ = dgeqrf(M.T)  # info is 0: the shape is checked
    return RowSpan(qr=qr, tau=tau)


def lift(span: RowSpan, coords):
    """``U coords``: k-row coordinates in the basis U back to c rows."""
    coords = np.asarray(coords, dtype=np.float64)
    k, c = span.tau.shape[0], span.qr.shape[0]
    if coords.ndim != 2 or coords.shape[0] != k:
        raise ValueError(f"coords must be a 2-D matrix with {k} rows")
    padded = np.zeros((c, coords.shape[1]), order="F")
    padded[:k] = coords
    # the smallest workspace LAPACK accepts: unblocked, ample for k of a few dozen
    return dormqr("L", "N", span.qr, span.tau, padded, max(1, coords.shape[1]), overwrite_c=1)[0]


@dataclass(frozen=True)
class LowRank:
    """A dual matrix given by its factor: ``Q = V V'`` with V p x c.

    ``out``, from ``dual_buffer(n)`` with n >= p, is the memory ``BoxQP``
    builds Q in, its first p*p elements; without it ``BoxQP`` allocates Q.
    ``fit_planes`` hands one buffer to both twin duals, so a ``BoxQP`` built
    in it is valid only until the next build in it. The fresh gradients of
    a large Q run on the panel threads wherever its memory comes from.
    """

    V: np.ndarray
    out: np.ndarray | None = None


def physical_memory_bytes():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def dual_buffer(p: int) -> np.ndarray:
    """Uninitialized memory for one p x p dual matrix, ``p * p`` float64s.

    The one place such a matrix is allocated. ``8 p^2`` bytes above the
    physical memory raise a ``NumericalError`` naming both, before anything
    is allocated.
    """
    limit = physical_memory_bytes()
    if limit is not None and 8 * p * p > limit:
        raise NumericalError(
            f"the {p} x {p} dual matrix needs {8 * p * p} bytes, "
            f"more than the {limit} bytes of physical memory"
        )
    return np.empty(p * p)


def usable_cpus() -> int:
    """CPUs this process may fill with threads or worker processes: one in
    any process multiprocessing started (a grid-search worker, or a caller's
    pool worker, daemonic or not), whose siblings hold the others; otherwise
    its affinity mask, else the CPU count."""
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def openblas_thread_controls():
    """``(setter, shutdown)`` of every OpenBLAS this process has loaded.

    numpy and scipy each load their own copy; both are found by path, the
    sixth field of a ``/proc/self/maps`` line (it may hold spaces).
    ``shutdown`` is the library's ``blas_thread_shutdown_``, or None.
    Returns None where that file cannot be read or a mapped OpenBLAS cannot
    be opened (a `` (deleted)`` one) or has none of ``_OPENBLAS_SETTERS``,
    since its threads could not be pinned. A BLAS other than OpenBLAS keeps
    its own thread count.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                     if "openblas" in line.lower() and "/" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    controls = []
    for lib in libs:
        setter = next((getattr(lib, s) for s in _OPENBLAS_SETTERS if hasattr(lib, s)), None)
        if setter is None:
            return None
        setter.argtypes, setter.restype = [ctypes.c_int], None
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        controls.append((setter, shutdown))
    return controls


def one_blas_thread(controls) -> None:
    """Set every OpenBLAS in ``controls`` to one thread and stop its pool.

    No environment variable reaches a library already loaded, and pools left
    at OpenBLAS's own size in several processes contend for the CPUs (forked
    grid workers ran a grid search about 2x slower than in-process). Setting
    the count in a forked child restarts the thread pool that OpenBLAS's fork
    handler shut down, and each idle pool thread spins for about 0.1 s of
    CPU; so the pool is shut down again, with the function that handler
    calls. At one thread OpenBLAS never restarts it.
    """
    for setter, shutdown in controls:
        setter(1)
        if shutdown is not None:
            shutdown()


def _panel_threads(Q) -> int:
    """Threads for work on the row panels of a p x p Q: one per usable CPU,
    at most one per panel, once Q has ``_THREADED_Q_BYTES``; else 1."""
    if Q.nbytes < _THREADED_Q_BYTES:
        return 1
    return min(usable_cpus(), -(-Q.shape[0] // _TILE))


def _on_threads(work, starts, threads) -> None:
    """``work(s)`` for each of ``starts``: in order, or on a pool of
    ``threads`` threads that takes them in order and is shut down before
    this returns."""
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(work, starts))  # re-raises a worker's exception
    else:
        for s in starts:
            work(s)


def _outer_in_panels(V, out=None):
    """``V V'`` for a p x c V, built in row panels of ``_TILE`` rows.

    Each panel is one product into the upper triangle, its diagonal block
    and the rest of its columns mirrored into the lower, so the result is
    exactly symmetric and holds the bits of the upper triangle. Panel ``s``
    writes only ``Q[s:e, s:]`` and ``Q[e:, s:e]``, so panels do not depend on
    each other: a Q of ``_THREADED_Q_BYTES`` or more is built on a pool of
    ``usable_cpus()`` threads (at most one per panel), which takes the
    panels in order as each thread frees up and is shut down before this
    returns. The bits do not depend on the thread count. A V that is
    non-finite, or whose largest squared row norm passes ``_ROW_NORM_SQ_MAX``,
    is rejected before Q is allocated: that bound also bounds every |Q_ij|,
    so no product overflows.

    Q is built in the first p*p elements of ``out``, a ``dual_buffer(n)``
    with n >= p, which ``fit_planes`` hands both duals of a fit, so the
    second overwrites the first. Without ``out``, as for every other caller,
    ``dual_buffer(p)`` allocates Q or refuses it with its ``NumericalError``.
    The same threads later compute the fresh gradients of a large Q
    (``_matvec``).
    """
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("V must be a 2-D matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        row_norm_sq = np.einsum("ij,ij->i", V, V)
    if not float(row_norm_sq.max(initial=0.0)) <= _ROW_NORM_SQ_MAX:
        raise NumericalError("Q contains non-finite entries")
    p = V.shape[0]
    if out is None:
        out = dual_buffer(p)
    Q = out[: p * p].reshape(p, p)

    def panel(s):
        # numpy calls only, each of which releases the GIL
        e = min(s + _TILE, p)
        np.matmul(V[s:e], V[s:].T, out=Q[s:e, s:])
        block = Q[s:e, s:e]
        np.copyto(block, block.T, where=np.tri(e - s, k=-1, dtype=bool))
        Q[e:, s:e] = Q[s:e, e:].T

    _on_threads(panel, range(0, p, _TILE), _panel_threads(Q))
    return Q


def _matvec(Q, x):
    """``Q @ x`` for a C-ordered p x p Q, on the panel threads of ``V V'``.

    A Q of ``_THREADED_Q_BYTES`` or more is split into one contiguous block
    of rows per thread, each starting at a multiple of ``_TILE``, and each
    block's product is written into its part of the result. On one BLAS
    thread every row is the dot product ``Q @ x`` gives it, so the bits do
    not depend on the thread count. A smaller Q, or one CPU, starts no
    thread.
    """
    threads = _panel_threads(Q)
    if threads == 1:
        return Q @ x
    p = Q.shape[0]
    rows = _TILE * -(-p // (_TILE * threads))
    y = np.empty(p)

    def block(s):
        np.matmul(Q[s : s + rows], x, out=y[s : s + rows])

    _on_threads(block, range(0, p, rows), threads)
    return y


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
    checked. It is built in ``LowRank.out`` when that is given, the buffer
    ``fit_planes`` hands both twin duals, so such a BoxQP is valid only until
    the next build in that buffer. The fresh gradients ``solve_box_qp`` and
    ``kkt_residual`` take of a large Q run on the panel threads. A V that is
    non-finite, or whose largest squared row norm exceeds ``finfo.max / 4``,
    raises ``NumericalError("Q contains non-finite entries")`` with no
    warning. ``full_rank`` is set when V is p x c with p <= c, so Q is
    generically nonsingular; ``solve_box_qp`` then takes Newton steps. It is never set for an explicit Q.

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
            Q = _outer_in_panels(self.Q.V, self.Q.out)
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
    return _free_and_residual(1.0 - _matvec(q.Q, a), a, q.upper)[1]


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
    solves ``Q_FF d = g_F`` by Cholesky and searches the projection arc
    ``P[alpha + t d]`` from ``t = 1``, halving t at most ``_NEWTON_HALVINGS``
    times: the first clipped point where the objective
    ``(sum(alpha) + alpha . grad) / 2`` does not fall is kept, with its fresh
    gradient. A free block that is not numerically positive definite, or an
    arc that lowers the objective at every t tried, leaves ``alpha`` and
    ``grad`` as they were.
    """
    F = np.flatnonzero(free)
    # LAPACK directly, as for the ridge factor: scipy's cho_factor and
    # cho_solve cost 2.5x as much on the 11-25 row blocks of a grid search
    factor, info = dpotrf(Q[F[:, None], F], lower=True)
    if info != 0:
        return alpha, grad
    step, _ = dpotrs(factor, grad[F], lower=True)
    value = alpha.sum() + alpha @ grad
    trial = alpha.copy()
    for _ in range(_NEWTON_HALVINGS + 1):
        trial[F] = np.clip(alpha[F] + step, 0.0, upper)
        trial_grad = 1.0 - Q @ trial
        if trial.sum() + trial @ trial_grad >= value:
            return trial, trial_grad
        step *= 0.5
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
    the last residual was taken over, shortened along the projection arc
    until the objective does not fall (or dropped), and stops if the
    resulting point is certified; otherwise the sweep follows. So
    ``max_iter=1`` is one plain sweep on every dual, and an
    explicit Q or p > c gets the sweeps alone. Terminates when the KKT
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
            alpha, grad = _newton_step(Q, upper, alpha, 1.0 - _matvec(Q, alpha), free)
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
            grad = 1.0 - _matvec(Q, alpha)
            free, residual = _free_and_residual(grad, alpha, upper)
            if residual <= tol:
                break
    return QPSolution(
        alpha=alpha,
        kkt_residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )
