"""The paper's primary contribution: sliding-window multi-resolution
orientation refinement without symmetry assumptions (algorithm steps d–o).
"""

from repro.refine.window import SlidingWindowResult, sliding_window_search
from repro.refine.center_refine import CenterRefineResult, refine_center
from repro.refine.single import ViewRefinementResult, refine_view_at_level
from repro.refine.multires import (
    MultiResolutionSchedule,
    RefinementLevel,
    default_schedule,
    matching_operations_multires,
    matching_operations_single_step,
    split_below,
)
from repro.refine.polish import PolishResult, polish_view
from repro.refine.prune import PruneParams, PruneSearch, center_offsets
from repro.refine.refiner import OrientationRefiner, RefinementResult
from repro.refine.stats import RefinementStats, angular_errors, center_errors
from repro.refine.symmetry_detect import (
    SymmetryDetectionResult,
    detect_symmetry,
    score_rotation,
)
from repro.refine.orientfile import read_orientation_file, write_orientation_file
from repro.refine.group_fit import fit_polyhedral_group, frame_from_axis_pair, group_axes

__all__ = [
    "sliding_window_search",
    "SlidingWindowResult",
    "refine_center",
    "CenterRefineResult",
    "refine_view_at_level",
    "ViewRefinementResult",
    "RefinementLevel",
    "MultiResolutionSchedule",
    "default_schedule",
    "matching_operations_single_step",
    "matching_operations_multires",
    "split_below",
    "PruneParams",
    "PruneSearch",
    "center_offsets",
    "PolishResult",
    "polish_view",
    "OrientationRefiner",
    "RefinementResult",
    "RefinementStats",
    "angular_errors",
    "center_errors",
    "detect_symmetry",
    "score_rotation",
    "SymmetryDetectionResult",
    "read_orientation_file",
    "write_orientation_file",
    "fit_polyhedral_group",
    "frame_from_axis_pair",
    "group_axes",
]
