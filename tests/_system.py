"""What tests fake, read or restore of the machine: the CPU count and OpenBLAS's threads."""

import ctypes
import os
from contextlib import contextmanager

# OpenBLAS's thread-count getters, under the names qp's setters are looked up by
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def set_cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs, through either query qp may make.

    The affinity query is faked, not ``qp.usable_cpus``, so a forked child
    inherits the fake and still applies its own rule of one CPU.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def openblas_thread_counts() -> list[int]:
    """Thread count of every OpenBLAS this process has loaded, ordered by path
    as ``qp.openblas_thread_controls`` orders its controls."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                 if "openblas" in line.lower() and "/" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        getter = next(getattr(lib, g) for g in _OPENBLAS_GETTERS if hasattr(lib, g))
        getter.argtypes, getter.restype = [], ctypes.c_int
        counts.append(getter())
    return counts


def set_openblas_threads(counts) -> None:
    """Set every loaded OpenBLAS to its count in ``counts``, which lists them
    in the order ``openblas_thread_counts`` reads them."""
    from gbtwin import qp  # not at import: a child process reads counts before importing gbtwin

    controls = qp.openblas_thread_controls()
    if controls is None:  # cli.main cannot set them either
        return
    for (setter, _), count in zip(controls, counts, strict=True):
        setter(count)


@contextmanager
def openblas_threads_kept():
    """Restore every OpenBLAS's thread count on exit.

    ``cli.main`` sets each to one thread and never restores them, so a test
    that calls it in-process would leave the rest of the run on one thread.
    Yields the counts read on entry.
    """
    counts = openblas_thread_counts()
    try:
        yield counts
    finally:
        set_openblas_threads(counts)
