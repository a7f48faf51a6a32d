"""Contrast-based stream segmentation and the smoothness detector."""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import WrongKind
from .records import record

SCALAR = "scalar"
TOKEN = "token"

SMOOTH = "smooth"
ROUGH = "rough"


@record
class RawStream:
    samples: tuple
    kind: str

    @staticmethod
    def scalars(samples: Sequence[int]) -> "RawStream":
        samples = tuple(samples)
        if not all(type(s) is int for s in samples):  # no bool, float or string
            raise ValueError("scalar samples must be integers")
        return RawStream(samples, SCALAR)

    @staticmethod
    def tokens(samples: Sequence[str]) -> "RawStream":
        return RawStream(tuple(samples), TOKEN)


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


def _segments_from_boundaries(samples: tuple, cuts: list[int]) -> list[Segment]:
    # cuts are positions i such that a boundary sits between i and i+1
    out = []
    start = 0
    for cut in cuts:
        out.append(Segment(start, cut + 1, samples[start:cut + 1]))
        start = cut + 1
    if start < len(samples):
        out.append(Segment(start, len(samples), samples[start:]))
    return out


def segment_scalar(stream: RawStream, contrast_threshold: float) -> list[Segment]:
    """Cut wherever the jump between adjacent samples exceeds the threshold."""
    if stream.kind != SCALAR:
        raise WrongKind("segment_scalar needs a scalar stream")
    if type(contrast_threshold) not in (int, float) or math.isnan(contrast_threshold):
        raise ValueError("contrast threshold must be an int or a float, not NaN")
    samples = stream.samples
    cuts = [i for i in range(len(samples) - 1)
            if abs(samples[i + 1] - samples[i]) > contrast_threshold]
    return _segments_from_boundaries(samples, cuts)


def segment_tokens(stream: RawStream, class_of: Callable[[str], object]) -> list[Segment]:
    """Cut wherever the class label changes between adjacent tokens."""
    if stream.kind != TOKEN:
        raise WrongKind("segment_tokens needs a token stream")
    samples = stream.samples
    cuts = [i for i in range(len(samples) - 1)
            if class_of(samples[i + 1]) != class_of(samples[i])]
    return _segments_from_boundaries(samples, cuts)


def smoothness(stream: RawStream, threshold: float) -> str:
    """SMOOTH iff every second difference is bounded by the threshold.

    Streams shorter than 3 samples are vacuously smooth.
    """
    if stream.kind != SCALAR:
        raise WrongKind("smoothness needs a scalar stream")
    if type(threshold) not in (int, float) or math.isnan(threshold):
        raise ValueError("smoothness threshold must be an int or a float, not NaN")
    samples = stream.samples
    if len(samples) < 3:
        return SMOOTH
    worst = max(abs(samples[i + 2] - 2 * samples[i + 1] + samples[i])
                for i in range(len(samples) - 2))
    return SMOOTH if worst <= threshold else ROUGH
