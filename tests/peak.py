"""The peak memory a call allocates, as tracemalloc sees it."""

import tracemalloc


def peak_bytes(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the bytes it held at its peak above what was
    held before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
