"""Contrast Transfer Function model and correction (step e of the algorithm).

The microscope CTF multiplies the true 2D transform of the specimen by an
oscillatory, sign-flipping function of spatial frequency (§3).  The paper
corrects each view's DFT before matching; views from the same micrograph
share one CTF.
"""

from repro.ctf.model import CTFParams, ctf_1d, ctf_2d, defocus_group_params
from repro.ctf.correct import apply_ctf, phase_flip, wiener_correct

__all__ = [
    "CTFParams",
    "ctf_1d",
    "ctf_2d",
    "defocus_group_params",
    "apply_ctf",
    "phase_flip",
    "wiener_correct",
]
