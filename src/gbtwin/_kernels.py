"""The dual solver's hot loop, JIT-compiled with numba when available.

The cyclic coordinate-ascent sweeps of the box-constrained dual solver have a
numba ``@njit`` build and a pure-numpy fallback. Set ``GBTWIN_DISABLE_NUMBA=1``
to force the numpy path. The two paths perform the same floating-point
updates; results agree to round-off.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("GBTWIN_DISABLE_NUMBA", "0").lower() not in (
    "1",
    "true",
    "yes",
)


# ---------------------------------------------------------------------------
# box-constrained QP: maximize sum(alpha) - 0.5 * alpha' Q alpha
# subject to 0 <= alpha <= upper, via cyclic clipped coordinate ascent.
# ---------------------------------------------------------------------------


def _box_qp_sweeps_py(Q, upper, tol, max_sweeps):
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
                # flat or degenerate direction: objective is linear in alpha_i
                new = upper if lin > 0.0 else 0.0
            step = new - alpha[i]
            if step != 0.0:
                grad -= step * Q[i]
                alpha[i] = new
        residual = _projected_residual_py(grad, alpha, upper)
        if residual <= tol:
            # incremental gradient drifts; confirm against a fresh one
            grad = 1.0 - Q @ alpha
            residual = _projected_residual_py(grad, alpha, upper)
            if residual <= tol:
                break
    return alpha, sweeps, residual


def _projected_residual_py(grad, alpha, upper):
    at_lower = alpha <= 0.0
    at_upper = alpha >= upper
    viol = np.abs(grad)
    viol[at_lower] = np.maximum(grad[at_lower], 0.0)
    viol[at_upper] = np.maximum(-grad[at_upper], 0.0)
    return float(viol.max())


def _box_qp_sweeps_loops(Q, upper, tol, max_sweeps):
    p = Q.shape[0]
    alpha = np.zeros(p)
    grad = np.ones(p)
    sweeps = 0
    residual = np.inf
    while sweeps < max_sweeps:
        sweeps += 1
        for i in range(p):
            qii = Q[i, i]
            lin = grad[i] + qii * alpha[i]
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
                for j in range(p):
                    grad[j] -= step * Q[i, j]
                alpha[i] = new
        residual = 0.0
        for i in range(p):
            g = grad[i]
            if alpha[i] <= 0.0:
                v = g if g > 0.0 else 0.0
            elif alpha[i] >= upper:
                v = -g if g < 0.0 else 0.0
            else:
                v = g if g >= 0.0 else -g
            if v > residual:
                residual = v
        if residual <= tol:
            for i in range(p):
                acc = 1.0
                for j in range(p):
                    acc -= Q[i, j] * alpha[j]
                grad[i] = acc
            residual = 0.0
            for i in range(p):
                g = grad[i]
                if alpha[i] <= 0.0:
                    v = g if g > 0.0 else 0.0
                elif alpha[i] >= upper:
                    v = -g if g < 0.0 else 0.0
                else:
                    v = g if g >= 0.0 else -g
                if v > residual:
                    residual = v
            if residual <= tol:
                break
    return alpha, sweeps, residual


if HAVE_NUMBA:
    _box_qp_sweeps_nb = njit(cache=True)(_box_qp_sweeps_loops)
else:  # pragma: no cover
    _box_qp_sweeps_nb = _box_qp_sweeps_loops


def box_qp_sweeps(Q, upper, tol, max_sweeps):
    """Run coordinate-ascent sweeps; returns (alpha, sweeps, kkt_residual)."""
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    if USE_NUMBA:
        return _box_qp_sweeps_nb(Q, float(upper), float(tol), int(max_sweeps))
    return _box_qp_sweeps_py(Q, float(upper), float(tol), int(max_sweeps))

