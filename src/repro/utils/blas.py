"""One BLAS thread inside library calls.

The engine owns the parallelism — MapReduce pool workers, the trainer's
prefetch stage, edge-partition threads (§3.3.2) — so numpy's OpenBLAS must
not add a pool of its own: for a ``(nodes x 32) @ (32 x 32)`` batch product
it would start a second thread that spin-waits between products for a whole
epoch, and the split of each product across threads (hence every loss
trajectory) would depend on the host's core count.

:func:`single_threaded_blas` wraps each library entry point once per call;
:func:`pin_single_thread` is the initializer of every ``processes`` pool
worker.  The thread count is process-global, so while a wrapped call is in
flight every BLAS call in the process runs on one thread.  With no
controllable BLAS (MKL, Accelerate, ...) both are no-ops and
:func:`describe` says so.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["describe", "pin_single_thread", "single_threaded_blas"]

_SYMBOLS = (  # (set, get): numpy >= 2 ILP64 wheels, LP64 wheels, classic
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved = 1
_handle: tuple | None = None  # (library, set symbol, setter, getter), found once


def _candidates() -> list[str]:
    """OpenBLAS libraries mapped into this process (Linux), else the ones
    numpy's wheel ships beside it (``numpy.libs`` / ``numpy/.dylibs``)."""
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        mapped = set()
    package = os.path.dirname(np.__file__)
    shipped = glob.glob(os.path.join(package + ".libs", "*openblas*"))
    shipped += glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    return sorted(p for p in mapped if os.path.isabs(p)) + sorted(shipped)


def _find() -> tuple:
    global _handle
    if _handle is None:
        _handle = (None, None, None, None)
        for path in _candidates():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    _handle = (path, set_name, setter, getter)
                    return _handle
    return _handle


def describe() -> dict:
    """``library`` / ``symbol`` found (``None``: no controllable BLAS, the
    wrappers are no-ops) and the process's current BLAS ``threads``."""
    with _lock:
        library, symbol, _, getter = _find()
        return {
            "library": library,
            "symbol": symbol,
            "threads": None if getter is None else int(getter()),
        }


def pin_single_thread() -> None:
    """Set one BLAS thread for the rest of this process's life (the
    initializer of ``processes`` pool workers)."""
    with _lock:
        setter = _find()[2]
        if setter is not None:
            setter(1)


@contextmanager
def single_threaded_blas():
    """Run the body with one BLAS thread.  Re-entrant and thread-safe: the
    first entry saves the caller's count and sets 1, the last exit
    restores it.  Enter it outside any task fan-out, so no thread of the
    library is inside BLAS when the count changes."""
    global _depth, _saved
    with _lock:
        _, _, setter, getter = _find()
        if setter is not None and _depth == 0:
            _saved = int(getter())
            if _saved != 1:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if setter is not None and _depth == 0 and _saved != 1:
                setter(_saved)
