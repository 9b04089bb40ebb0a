"""Filter-and-refine candidate search for large galleries."""

from .filters import bounding_box_filter, cell_signature_filter, time_overlap_filter
from .matcher import FilteredMatcher, MatchReport

__all__ = [
    "time_overlap_filter",
    "bounding_box_filter",
    "cell_signature_filter",
    "FilteredMatcher",
    "MatchReport",
]
