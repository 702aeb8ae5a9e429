"""Alignment kernel: the Fourier distance, orientation grids and matching.

This package implements steps (f)–(h) of the paper's algorithm — the inner
loop in which each experimental view's 2D DFT is compared with a window of
calculated cuts through the map's 3D DFT — with the orientation memo that
lets window re-centers skip candidates already scored.
"""

from repro.align.distance import (
    DistanceComputer,
    fourier_distance,
    fourier_distance_batch,
    radius_weights,
)
from repro.align.fused import MatchPlan, get_match_plan
from repro.align.grid import OrientationGrid, orientation_window, step_offsets
from repro.align.matcher import MatchResult, match_view, match_view_window
from repro.align.memo import MemoStore, OrientationMemo, memo_key

__all__ = [
    "fourier_distance",
    "fourier_distance_batch",
    "radius_weights",
    "DistanceComputer",
    "MatchPlan",
    "get_match_plan",
    "OrientationGrid",
    "orientation_window",
    "step_offsets",
    "MatchResult",
    "match_view",
    "match_view_window",
    "MemoStore",
    "OrientationMemo",
    "memo_key",
]
