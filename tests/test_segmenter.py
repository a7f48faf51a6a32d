"""Contrast segmentation: `contrast_cuts` gives the positions where a level
stream jumps, and `ingest` parses the segments between the cuts it takes."""

import random
import sys

import pytest

from conceptgraph.core import ConceptGraph, reconstruct
from conceptgraph.inducer import contrast_cuts, ingest


def test_segment_scalar_boundaries():
    assert contrast_cuts([0, 0, 5, 5, 5, 0], 1) == [2, 5]


def test_segment_scalar_constant_and_empty():
    assert contrast_cuts([3, 3, 3], 0) == []
    assert contrast_cuts([], 1) == []


def test_segment_scalar_extreme_thresholds():
    stream = [1, 9, 2, 7]
    assert contrast_cuts(stream, 100) == []
    assert contrast_cuts(stream, sys.float_info.max) == []
    # the smallest threshold cuts at every change
    assert contrast_cuts(stream, 0) == [1, 2, 3]


def test_segment_scalar_nan_threshold_is_value_error():
    with pytest.raises(ValueError):
        contrast_cuts([0, 0, 5, 5], float("nan"))


@pytest.mark.parametrize("samples", [[1.5, 2], [2.0], ["3"], [True, 0], [1, None], None, 5])
def test_scalar_stream_refuses_a_sample_that_is_not_an_int(samples):
    """`int` would truncate 1.5 to 1 and read "3" as 3, silently; samples
    that are not iterable raised a bare `TypeError`."""
    with pytest.raises(ValueError, match="integers"):
        contrast_cuts(samples, 1)


def test_scalar_stream_keeps_int_samples_as_given():
    """Any iterable of ints, negatives too, compared exactly: as floats the
    two large levels would be equal."""
    assert contrast_cuts(iter([3, -1, 0]), 3) == [1]
    assert contrast_cuts([2 ** 80, 2 ** 80 + 1], 0) == [1]


def test_segments_cover_input_exactly():
    rng = random.Random(5)
    for _ in range(1000):
        samples = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 40)))
        threshold = rng.randint(0, 4)
        cuts = contrast_cuts(samples, threshold)
        assert cuts == sorted(set(cuts)) and all(0 < c < len(samples) for c in cuts)
        # contiguous, non-overlapping, exact cover, cut exactly at the jumps
        bounds = [0, *cuts, len(samples)] if samples else []
        segments = [samples[a:b] for a, b in zip(bounds, bounds[1:])]
        assert all(segments) and tuple(x for seg in segments for x in seg) == samples
        jumps = [i for i in range(1, len(samples)) if abs(samples[i] - samples[i - 1]) > threshold]
        assert cuts == jumps


def test_ingest_over_cuts_spells_the_tokens():
    rng = random.Random(9)
    g = ConceptGraph("abcd")
    for _ in range(20):
        levels = [rng.randint(0, 3) for _ in range(rng.randint(0, 24))]
        tokens = "".join("abcd"[v] for v in levels)
        report = ingest(g, tokens, contrast_cuts(levels, 1))
        assert "".join(reconstruct(g, report.description)) == tokens
    assert g.episode == 20


@pytest.mark.parametrize("start, end", [(0, 2.0), (0.0, 2), (False, 2), (0, True), (0, "2"),
                                        (None, 2), (1, 1), (-1, 2)])
def test_a_segment_takes_exact_int_bounds(start, end):
    """The segment between the cuts `start` and `end` has exact int bounds,
    increasing and inside the tokens, or `ingest` refuses the cuts."""
    g = ConceptGraph("ab")
    with pytest.raises(ValueError, match="cuts"):
        ingest(g, "abab", [start, end])
    assert len(g) == 4 and g.episode == 0


def test_ingest_refuses_cuts_that_are_not_positions_inside_the_tokens():
    """Cuts that are not a list or a tuple (unchecked, `5` raised a bare
    `TypeError`), a bool, float or other non-int cut, cuts out of order,
    and a cut at 0 or at the end; a pair of cuts that bounds no segment is
    in the test above."""
    g = ConceptGraph("ab")
    for tokens, cuts in (("abab", 5), ("abab", "ab"), ("abab", None), ("abab", {1}),
                         ("abab", iter([1])), ("abab", [True]), ("abab", [2.0]),
                         ("abab", [1, "2"]), ("abab", [(0, 2)]), ("abab", [3, 1]),
                         ("abab", [0]), ("abab", [4]), ("abab", [1, 5]), ("", [0])):
        with pytest.raises(ValueError, match="cuts"):
            ingest(g, tokens, cuts)
        assert len(g) == 4 and g.episode == 0
    ingest(g, "abab", (1, 3))
    assert g.episode == 1


@pytest.mark.parametrize("threshold", ["x", None, True, [1], 1j, float("nan"),
                                       -1, -0.5, float("inf")])
def test_a_threshold_off_the_number_rule_is_refused(threshold):
    """The contrast threshold keeps core's number rule, as a weight does: an
    int or a float, finite and non-negative.  -1 would cut everywhere and
    infinity nowhere."""
    with pytest.raises(ValueError, match="threshold"):
        contrast_cuts([1, 2, 4], threshold)
