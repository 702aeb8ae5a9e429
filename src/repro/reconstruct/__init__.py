"""3D reconstruction (step C) and resolution assessment (Figure 4 procedure).

The paper pairs its orientation refinement with a Cartesian-coordinates
reconstruction algorithm for objects without symmetry (its refs [18], [20]).
We implement the direct-Fourier equivalent: insert every view's 2D DFT into
an (oversampled) 3D transform with trilinear weights, normalize, and invert
— plus the odd/even half-map correlation procedure used to estimate
resolution, and the refine↔reconstruct iteration loop.
"""

from repro.reconstruct.direct_fourier import reconstruct_from_views
from repro.reconstruct.resolution import (
    correlation_curve,
    fsc_crossing,
    half_map_fsc,
    resolution_at_threshold,
    split_odd_even,
)
from repro.reconstruct.iterate import (
    IterationRecord,
    StructureDeterminationResult,
    determine_structure,
    iterations_until_stop,
    should_stop,
)
from repro.reconstruct.stream import HalfSetAccumulator

__all__ = [
    "reconstruct_from_views",
    "split_odd_even",
    "half_map_fsc",
    "correlation_curve",
    "fsc_crossing",
    "resolution_at_threshold",
    "determine_structure",
    "should_stop",
    "iterations_until_stop",
    "IterationRecord",
    "StructureDeterminationResult",
    "HalfSetAccumulator",
]
