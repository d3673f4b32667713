import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` runs ``fn(*args)`` under tracemalloc and
    returns its result, the traced memory it still holds and the traced
    peak, both in bytes and counted from the start of the call."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    return run
