"""Incremental odd/even direct-Fourier accumulation for the outer loop.

The paper's §3 loop alternates refining orientations (step B) with
rebuilding the map and its odd/even FSC curve (step C).  The prototype
barriered on the full refinement, then ran :func:`reconstruct_from_views`
three times per iteration — once for the map, twice more inside
:func:`~repro.reconstruct.resolution.half_map_fsc`.  This module replaces
all three passes with one :class:`HalfSetAccumulator`: every view is
Fourier-inserted exactly once, into the odd or the even half-volume, and
the full map, both half maps and the FSC curve are all derived from those
two accumulator pairs.

Streaming and bit-identity (DESIGN.md §14)
------------------------------------------
``np.add.at`` scatter makes floating-point accumulation order-sensitive,
so "deposit views as the backend emits them" would tie the map's bits to
worker timing.  :meth:`HalfSetAccumulator.push` therefore routes every
view through a reorder buffer: deposits happen strictly in ascending
global view index no matter the arrival order.  Ascending global order
implies ascending order *within each half*, which is exactly the order
the legacy two-pass :func:`half_map_fsc` inserted its sub-stacks in — so
the half maps are bit-identical to the old path, and a streaming run is
bit-identical to a barriered one at any worker count.  The full map is
the elementwise reduction ``(accum_odd + accum_even) /
(weights_odd + weights_even)`` — a single deterministic add, shared by
both modes.
"""

from __future__ import annotations

import numpy as np

from repro.ctf.model import CTFParams
from repro.density.map import DensityMap
from repro.fourier.shells import fsc_curve
from repro.geometry.euler import Orientation
from repro.reconstruct.direct_fourier import check_view_stack, deposit_view, finalize_map
from repro.utils import shell_radius_to_resolution

__all__ = ["HalfSetAccumulator"]


class HalfSetAccumulator:
    """Order-insensitive incremental reconstruction of odd/even half sets.

    Construct one per map rebuild, :meth:`push` every ``(index,
    orientation)`` pair as it becomes available (any arrival order), then
    read :meth:`full_map`, :meth:`half_maps`, :meth:`fsc` or
    :meth:`curve` once all views are deposited.  The per-view math —
    centering phase ramp, CTF phase flip with |CTF| sample weights,
    Hermitian trilinear insertion — is
    :func:`~repro.reconstruct.direct_fourier.deposit_view`, shared with
    :func:`~repro.reconstruct.direct_fourier.reconstruct_from_views`; only
    the accumulation bookkeeping differs.
    """

    def __init__(
        self,
        images: np.ndarray,
        apix: float = 1.0,
        pad_factor: int = 2,
        ctf_params: list[CTFParams] | None = None,
        ctf_mode: str = "phase_flip",
        min_weight: float = 1e-3,
    ) -> None:
        imgs = check_view_stack(images, ctf_params, ctf_mode, pad_factor)
        self.images = imgs
        self.apix = float(apix)
        self.pad_factor = int(pad_factor)
        self.ctf_params = ctf_params
        self.ctf_mode = ctf_mode
        self.min_weight = float(min_weight)
        m, l, _ = imgs.shape
        self.n_views = m
        self.size = l
        big = self.pad_factor * l
        # index % 2 == 0 is the paper's "odd" half (views are numbered
        # 1..m), matching resolution.split_odd_even.
        self._accum = (np.zeros((big, big, big), dtype=complex),
                       np.zeros((big, big, big), dtype=complex))
        self._weights = (np.zeros((big, big, big)), np.zeros((big, big, big)))
        self._pending: dict[int, Orientation] = {}
        self._next = 0

    # -- accumulation --------------------------------------------------------
    @property
    def deposited(self) -> int:
        """How many views have actually been inserted (in-order prefix)."""
        return self._next

    @property
    def complete(self) -> bool:
        """Whether every view has been deposited."""
        return self._next == self.n_views

    def push(self, index: int, orientation: Orientation) -> None:
        """Stage view ``index`` for deposit with its refined orientation.

        Views may arrive in any order; the reorder buffer holds
        out-of-order arrivals and deposits the longest contiguous prefix,
        so insertion order — and therefore every output bit — is
        independent of arrival order.
        """
        if not 0 <= index < self.n_views:
            raise ValueError(f"view index {index} outside stack of {self.n_views}")
        if index < self._next or index in self._pending:
            raise ValueError(f"view {index} pushed twice")
        self._pending[index] = orientation
        while self._next in self._pending:
            self._deposit(self._next, self._pending.pop(self._next))
            self._next += 1

    def push_all(self, orientations: list[Orientation]) -> "HalfSetAccumulator":
        """Deposit a complete orientation list (the barriered spelling)."""
        if len(orientations) != self.n_views:
            raise ValueError("need one orientation per view")
        for q, o in enumerate(orientations):
            self.push(q, o)
        return self

    def push_remaining(
        self, orientations: list[Orientation]
    ) -> "HalfSetAccumulator":
        """Deposit whatever has not been pushed yet from a complete list.

        The barriered counterpart of a (possibly partial) streaming pass:
        views already deposited or staged are skipped, everything else is
        pushed in ascending index order.  A fully streamed accumulator is
        left untouched; on a fresh one this equals :meth:`push_all`.
        """
        if len(orientations) != self.n_views:
            raise ValueError("need one orientation per view")
        for q, o in enumerate(orientations):
            if q < self._next or q in self._pending:
                continue
            self.push(q, o)
        return self

    def _deposit(self, q: int, o: Orientation) -> None:
        flip = self.ctf_params is not None and self.ctf_mode == "phase_flip"
        half = q % 2
        deposit_view(self._accum[half], self._weights[half], self.images[q], o,
                     self.apix, ctf=self.ctf_params[q] if flip else None)

    # -- finalization --------------------------------------------------------
    def _require_complete(self) -> None:
        if not self.complete:
            raise ValueError(
                f"only {self._next} of {self.n_views} views deposited; "
                f"push the rest before reading maps"
            )

    def _finalize(self, accum: np.ndarray, weights: np.ndarray) -> DensityMap:
        return finalize_map(accum, weights, self.size, self.pad_factor, self.apix,
                            self.min_weight)

    def full_map(self) -> DensityMap:
        """The map from *all* views: elementwise sum of the two halves."""
        self._require_complete()
        return self._finalize(self._accum[0] + self._accum[1],
                              self._weights[0] + self._weights[1])

    def half_maps(self) -> tuple[DensityMap, DensityMap]:
        """The odd and even half maps (bit-identical to the two-pass path)."""
        self._require_complete()
        if self.n_views < 2:
            raise ValueError("need at least two views to split")
        return (self._finalize(self._accum[0], self._weights[0]),
                self._finalize(self._accum[1], self._weights[1]))

    def fsc(self) -> np.ndarray:
        """Shell-wise correlation of the two half maps (incl. DC shell)."""
        map_odd, map_even = self.half_maps()
        return fsc_curve(map_odd.data, map_even.data)

    def curve(self, label: str = ""):
        """The Figure 5/6 :class:`CorrelationCurve` (DC shell dropped)."""
        from repro.reconstruct.resolution import CorrelationCurve

        fsc = self.fsc()
        shells = np.arange(1, len(fsc))
        res = np.array([
            shell_radius_to_resolution(int(s), self.size, self.apix) for s in shells
        ])
        return CorrelationCurve(
            shells=shells, resolution_angstrom=res, cc=fsc[1:], label=label
        )
