"""The documented public API surface must exist and be importable."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize(
    "module",
    [
        "repro.utils",
        "repro.geometry",
        "repro.fourier",
        "repro.density",
        "repro.ctf",
        "repro.imaging",
        "repro.align",
        "repro.refine",
        "repro.reconstruct",
        "repro.parallel",
        "repro.pipeline",
    ],
)
def test_subpackage_all_exports(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name} missing"


def test_quickstart_docstring_snippet_runs():
    from repro import (
        OrientationRefiner,
        default_schedule,
        reconstruct_from_views,
        simulate_views,
        sindbis_like_phantom,
    )
    from repro.engine import EngineConfig
    from repro.refine.multires import MultiResolutionSchedule, RefinementLevel

    truth = sindbis_like_phantom(16).normalized()
    views = simulate_views(truth, 4, snr=4.0, initial_angle_error_deg=2.0)
    refiner = OrientationRefiner(truth, config=EngineConfig(r_max=6.0))
    sched = MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=1),))
    result = refiner.refine(views, schedule=sched)
    new_map = reconstruct_from_views(views.images, result.orientations)
    assert new_map.size == 16
    assert default_schedule().final_angular_step == 0.002


def test_public_docstrings_exist():
    from repro import OrientationRefiner, reconstruct_from_views, simulate_views
    from repro.align import DistanceComputer, match_view
    from repro.refine import refine_center, sliding_window_search

    for obj in (
        OrientationRefiner,
        reconstruct_from_views,
        simulate_views,
        DistanceComputer,
        match_view,
        sliding_window_search,
        refine_center,
    ):
        assert obj.__doc__ and len(obj.__doc__) > 40
