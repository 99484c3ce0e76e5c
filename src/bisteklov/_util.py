"""Small shared helpers."""

from __future__ import annotations


def parallel_map(fn, items):
    """Map fn over items in order, in the calling thread.

    iso_scan maps its members through this one call.  Each member is a small
    dense solve, and a thread pool measured slower than this loop.
    """
    return [fn(x) for x in items]
