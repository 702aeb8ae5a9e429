"""Direct-Fourier 3D reconstruction from oriented views.

For every view ``E_q`` with orientation ``O_q = (θ, φ, ω, cx, cy)``:

1. ``F_q = DFT(E_q)``, re-centered by the refined center offsets (exact
   phase ramp);
2. optional CTF handling — phase flipping plus |CTF| insertion weights, so
   well-transferred frequencies dominate where several views overlap;
3. scatter ``F_q`` (and its Friedel mate) into an oversampled 3D transform
   with trilinear weights, accumulating a weight volume;
4. normalize, inverse transform, crop back to the original box.

This is the Cartesian-coordinate, no-symmetry-assumed reconstruction the
paper uses in step C (its refs [18], [20]): complexity O(m·l²) insertion +
O((p·l)³ log(p·l)) for the final inverse transform.
"""

from __future__ import annotations

import numpy as np

from repro.ctf.model import CTFParams, ctf_2d
from repro.density.map import DensityMap
from repro.fourier.insertion import insert_slice, normalize_insertion
from repro.fourier.transforms import centered_fft2, centered_ifftn
from repro.geometry.euler import Orientation
from repro.imaging.center import phase_shift_ft

__all__ = ["deposit_view", "finalize_map", "reconstruct_from_views"]


def check_view_stack(
    images: np.ndarray,
    ctf_params: list[CTFParams] | None,
    ctf_mode: str,
    pad_factor: int,
) -> np.ndarray:
    """Validate a reconstruction's inputs; returns the float view stack."""
    imgs = np.asarray(images, dtype=float)
    if imgs.ndim != 3 or imgs.shape[1] != imgs.shape[2]:
        raise ValueError("images must be a (m, l, l) stack")
    if ctf_params is not None and len(ctf_params) != imgs.shape[0]:
        raise ValueError("need one CTFParams per view")
    if ctf_mode not in ("phase_flip", "none"):
        raise ValueError(f"unknown ctf_mode {ctf_mode!r}")
    if pad_factor < 1 or int(pad_factor) != pad_factor:
        raise ValueError("pad_factor must be a positive integer")
    return imgs


def deposit_view(
    accum: np.ndarray,
    weights: np.ndarray,
    image: np.ndarray,
    orientation: Orientation,
    apix: float,
    ctf: CTFParams | None = None,
) -> None:
    """Steps 1–3 for one view: FFT, centre shift, CTF flip, Hermitian insert.

    ``ctf`` (when phase flipping) flips the transform's signs and makes
    |CTF| the insertion sample weights; ``None`` inserts the plain
    transform with unit weights.
    """
    ft = centered_fft2(image)
    o = orientation
    if o.cx != 0.0 or o.cy != 0.0:
        ft = phase_shift_ft(ft, -o.cx, -o.cy)
    sample_w = None
    if ctf is not None:
        c = ctf_2d(ctf, image.shape[0], apix)
        sign = np.sign(c)
        sign[sign == 0] = 1.0
        ft = ft * sign
        sample_w = np.abs(c)
    insert_slice(accum, weights, ft, o.matrix(), hermitian=True, sample_weights=sample_w)


def finalize_map(
    accum: np.ndarray,
    weights: np.ndarray,
    size: int,
    pad_factor: int,
    apix: float,
    min_weight: float,
) -> DensityMap:
    """Step 4: normalize, inverse transform, crop back to the ``size`` box."""
    volume_ft = normalize_insertion(accum, weights, min_weight=min_weight)
    big_map = centered_ifftn(volume_ft).real
    if pad_factor == 1:
        data = big_map
    else:
        # The inserted samples follow the padded-grid DFT convention exactly
        # (a view's frequency k sits at padded index k·pad), so the padded
        # inverse transform *is* the padded map — crop the center box, no
        # rescaling.  Getting this right matters: the §3 distance is not
        # scale-invariant, so a mis-scaled map corrupts later refinement
        # iterations against it.
        off = (pad_factor * size - size) // 2
        data = big_map[off : off + size, off : off + size, off : off + size]
    return DensityMap(np.ascontiguousarray(data), apix)


def reconstruct_from_views(
    images: np.ndarray,
    orientations: list[Orientation],
    apix: float = 1.0,
    pad_factor: int = 2,
    ctf_params: list[CTFParams] | None = None,
    ctf_mode: str = "phase_flip",
    min_weight: float = 1e-3,
) -> DensityMap:
    """Reconstruct a density map from oriented 2D views.

    Parameters
    ----------
    images:
        Real view stack ``(m, l, l)``.
    orientations:
        One refined :class:`Orientation` per view (centers are honoured).
    pad_factor:
        Fourier oversampling of the accumulation grid (2 = the same
        oversampling the refinement uses; 1 = raw grid, for ablations).
    ctf_params:
        Optional per-view CTF; with ``ctf_mode="phase_flip"`` each view is
        phase-flipped and inserted with |CTF| sample weights (a Wiener-like
        weighted average across views); ``"none"`` ignores the CTF.
    min_weight:
        Fourier voxels with accumulated weight below this stay zero.
    """
    imgs = check_view_stack(images, ctf_params, ctf_mode, pad_factor)
    m, l, _ = imgs.shape
    if len(orientations) != m:
        raise ValueError("need one orientation per view")
    flip = ctf_params is not None and ctf_mode == "phase_flip"
    big = int(pad_factor) * l
    accum = np.zeros((big, big, big), dtype=complex)
    weights = np.zeros((big, big, big))
    for q in range(m):
        deposit_view(
            accum, weights, imgs[q], orientations[q], apix,
            ctf=ctf_params[q] if flip else None,
        )
    return finalize_map(accum, weights, l, int(pad_factor), apix, min_weight)
