"""Peak traced memory of one call, shared by the working-set tests."""

import tracemalloc


def peak_traced(fn) -> int:
    """Bytes by which traced allocations peaked above their level at the
    call, while ``fn()`` ran. numpy reports its array buffers to
    tracemalloc, so arrays that exist before the call do not count."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
