import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gbtwin import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger numba compilation before any timed test runs."""
    Q = np.eye(2)
    _kernels.box_qp_sweeps(Q, 1.0, 1e-8, 10)
