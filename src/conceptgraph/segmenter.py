"""Contrast segmentation of integer levels, for the CLI's `segment` and `ingest --scalar`."""

from __future__ import annotations

import math
from typing import Sequence

from .records import record


@record
class Segment:
    start: int
    end: int  # exclusive
    payload: tuple

    def __post_init__(self) -> None:
        if not (type(self.start) is type(self.end) is int and 0 <= self.start < self.end):
            raise ValueError("segment bounds must be ints with 0 <= start < end")
        if type(self.payload) is not tuple or len(self.payload) != self.end - self.start:
            raise ValueError("a segment payload must be a tuple of end - start items")


def segment_scalar(samples: Sequence[int], contrast_threshold: float) -> list[Segment]:
    """Cut wherever adjacent samples jump by more than the threshold; a sample is an `int`."""
    try:
        samples = tuple(samples)
    except TypeError:
        raise ValueError("scalar samples must be a sequence of integers") from None
    if not all(type(s) is int for s in samples):
        raise ValueError("scalar samples must be integers")
    if type(contrast_threshold) not in (int, float) or math.isnan(contrast_threshold):
        raise ValueError("contrast threshold must be an int or a float, not NaN")
    n = len(samples)
    cuts = [i for i in range(1, n) if abs(samples[i] - samples[i - 1]) > contrast_threshold]
    bounds = [0, *cuts, n]
    return [Segment(a, b, samples[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]  # n = 0: none
