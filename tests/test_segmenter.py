import random

import pytest

from conceptgraph.core import ConceptGraph
from conceptgraph.inducer import ingest
from conceptgraph.segmenter import Segment, segment_scalar


def spans(segments):
    return [(s.start, s.end) for s in segments]


def test_segment_scalar_boundaries():
    assert spans(segment_scalar([0, 0, 5, 5, 5, 0], 1)) == [(0, 2), (2, 5), (5, 6)]


def test_segment_scalar_constant_and_empty():
    assert spans(segment_scalar([3, 3, 3], 0)) == [(0, 3)]
    assert segment_scalar([], 1) == []


def test_segment_scalar_extreme_thresholds():
    stream = [1, 9, 2, 7]
    assert spans(segment_scalar(stream, 100)) == [(0, 4)]
    # an impossible threshold cuts everywhere
    assert spans(segment_scalar(stream, -1)) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_segment_scalar_nan_threshold_is_value_error():
    with pytest.raises(ValueError):
        segment_scalar([0, 0, 5, 5], float("nan"))


@pytest.mark.parametrize("samples", [[1.5, 2], [2.0], ["3"], [True, 0], [1, None], None, 5])
def test_scalar_stream_refuses_a_sample_that_is_not_an_int(samples):
    """`int` would truncate 1.5 to 1 and read "3" as 3, silently; samples
    that are not iterable raised a bare `TypeError`."""
    with pytest.raises(ValueError, match="integers"):
        segment_scalar(samples, 1)


def test_scalar_stream_keeps_int_samples_as_given():
    assert segment_scalar(iter([3, -1, 0]), 10) == [Segment(0, 3, (3, -1, 0))]


def test_segments_cover_input_exactly():
    rng = random.Random(5)
    for _ in range(1000):
        samples = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 40)))
        segments = segment_scalar(samples, rng.randint(0, 4))
        joined = tuple(x for seg in segments for x in seg.payload)
        assert joined == samples
        # contiguous, non-overlapping, exact cover
        pos = 0
        for seg in segments:
            assert seg.start == pos and seg.end > seg.start
            pos = seg.end
        assert pos == len(samples)


@pytest.mark.parametrize("start, end", [(0, 2.0), (0.0, 2), (False, 2), (0, True), (0, "2"),
                                        (None, 2), (1, 1), (-1, 2)])
def test_a_segment_takes_exact_int_bounds(start, end):
    with pytest.raises(ValueError, match="bounds"):
        Segment(start, end, ("a", "b"))


@pytest.mark.parametrize("payload", [5, None, ["a", "b"], "ab", ("a",), ("a", "b", "c")])
def test_a_segment_takes_a_tuple_payload_of_its_length(payload):
    """Unchecked, a payload that is not iterable made `ingest` raise a bare
    `TypeError`."""
    with pytest.raises(ValueError, match="payload"):
        Segment(0, 2, payload)


def test_ingest_refuses_segments_that_are_not_segments():
    """A non-`Segment` item, or segments that are not a list or a tuple
    (unchecked, `segments=5` raised a bare `TypeError`)."""
    g = ConceptGraph("ab")
    for segments in ([(0, 2, ("a", "b"))], 5, "ab", {Segment(0, 2, ("a", "b"))},
                     iter([Segment(0, 2, ("a", "b"))])):
        with pytest.raises(ValueError, match="segments"):
            ingest(g, "ab", segments=segments)
    assert len(g) == 4 and g.episode == 0


@pytest.mark.parametrize("threshold", ["x", None, True, [1], 1j, float("nan")])
@pytest.mark.parametrize("detector", [segment_scalar])
def test_a_threshold_that_is_not_an_int_or_a_float_is_refused(detector, threshold):
    with pytest.raises(ValueError, match="threshold"):
        detector([1, 2, 4], threshold)
