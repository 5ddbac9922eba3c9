"""Wall-clock helper shared by the timed tests."""

import gc
import time


def best_of(repeats: int, fn):
    """The least wall time of ``repeats`` calls of ``fn``, and the last call's result.

    The calls are timed with the garbage collector off: a collection walks every
    object that earlier tests left alive, so its cost says nothing of ``fn``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best, result
