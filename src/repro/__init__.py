"""repro — reproduction of "Orientation Refinement of Virus Structures with
Unknown Symmetry" (Ji, Marinescu, Zhang & Baker, IPPS 2003).

The package implements the paper's Fourier-domain, multi-resolution,
sliding-window orientation-refinement algorithm for cryo-TEM views of
particles with *unknown* symmetry, together with every substrate it needs:
projection/slicing machinery, CTF model, direct-Fourier 3D reconstruction,
synthetic specimens and micrographs, a simulated distributed-memory cluster
reproducing the paper's parallel design, and the evaluation harness that
regenerates each table and figure.

Quick start::

    from repro import (
        sindbis_like_phantom, simulate_views, OrientationRefiner,
        default_schedule, reconstruct_from_views,
    )
    from repro.engine import EngineConfig

    truth = sindbis_like_phantom(32).normalized()
    views = simulate_views(truth, 40, snr=4.0, initial_angle_error_deg=2.0)
    refiner = OrientationRefiner(truth, config=EngineConfig(r_max=12.0))
    result = refiner.refine(views)
    new_map = reconstruct_from_views(views.images, result.orientations)

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the experiment-by-experiment reproduction notes.
"""

from repro.geometry import (
    Orientation,
    euler_to_matrix,
    icosahedral_group,
    matrix_to_euler,
    random_orientations,
)
from repro.density import (
    DensityMap,
    asymmetric_phantom,
    cyclic_phantom,
    icosahedral_capsid_phantom,
    read_mrc,
    reo_like_phantom,
    sindbis_like_phantom,
    write_mrc,
)
from repro.ctf import CTFParams
from repro.imaging import project_map, simulate_views
from repro.align import fourier_distance, orientation_window
from repro.refine import (
    OrientationRefiner,
    default_schedule,
    detect_symmetry,
    read_orientation_file,
    write_orientation_file,
)
from repro.reconstruct import (
    StructureDeterminationResult,
    correlation_curve,
    determine_structure,
    reconstruct_from_views,
)
from repro.parallel import parallel_refine, run_spmd

__version__ = "1.0.0"

__all__ = [
    "Orientation",
    "euler_to_matrix",
    "matrix_to_euler",
    "random_orientations",
    "icosahedral_group",
    "DensityMap",
    "sindbis_like_phantom",
    "reo_like_phantom",
    "asymmetric_phantom",
    "cyclic_phantom",
    "icosahedral_capsid_phantom",
    "read_mrc",
    "write_mrc",
    "CTFParams",
    "simulate_views",
    "project_map",
    "fourier_distance",
    "orientation_window",
    "OrientationRefiner",
    "default_schedule",
    "detect_symmetry",
    "read_orientation_file",
    "write_orientation_file",
    "reconstruct_from_views",
    "correlation_curve",
    "determine_structure",
    "StructureDeterminationResult",
    "parallel_refine",
    "run_spmd",
    "__version__",
]
