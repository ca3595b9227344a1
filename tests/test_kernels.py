import os
import subprocess
import sys

import numpy as np
import pytest

from gbtwin import _kernels


def random_psd(rng, p):
    A = rng.normal(size=(p + 2, p))
    return np.ascontiguousarray(A.T @ A)


class TestBoxQpPathEquivalence:
    @pytest.mark.parametrize("upper", [0.1, 1.0, 10.0])
    def test_same_results(self, upper):
        rng = np.random.default_rng(int(upper * 10))
        for p in (1, 3, 8, 25):
            Q = random_psd(rng, p)
            nb = _kernels._box_qp_sweeps_nb(Q, upper, 1e-10, 5000)
            py = _kernels._box_qp_sweeps_py(Q, upper, 1e-10, 5000)
            assert np.allclose(nb[0], py[0], atol=1e-12)
            assert nb[1] == py[1]  # identical sweep counts
            assert np.isclose(nb[2], py[2], atol=1e-12)

    def test_flat_directions_agree(self):
        Q = np.zeros((3, 3))
        nb = _kernels._box_qp_sweeps_nb(Q, 2.0, 1e-10, 10)
        py = _kernels._box_qp_sweeps_py(Q, 2.0, 1e-10, 10)
        assert np.array_equal(nb[0], py[0])
        assert np.all(nb[0] == 2.0)


class TestEnvFlag:
    def test_disable_flag_selects_numpy_path(self):
        code = "from gbtwin import _kernels; print(_kernels.USE_NUMBA)"
        env = dict(os.environ, GBTWIN_DISABLE_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "False"

    def test_default_uses_numba_when_present(self):
        if not _kernels.HAVE_NUMBA:
            pytest.skip("numba unavailable")
        env = {k: v for k, v in os.environ.items() if k != "GBTWIN_DISABLE_NUMBA"}
        code = "from gbtwin import _kernels; print(_kernels.USE_NUMBA)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "True"
