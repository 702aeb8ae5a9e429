"""Unknown-symmetry capabilities: asymmetric refinement + symmetry detection.

The paper's method makes no symmetry assumption, so it can (a) refine
orientations of a particle with NO symmetry — impossible for the classic
icosahedral projection-matching programs — and (b) *detect* the symmetry
group of a particle when one exists (sec. 3: "if the virus exhibits any
symmetry this method allows us to determine its symmetry group").

Run:  python examples/unknown_symmetry.py
"""

from repro import OrientationRefiner, asymmetric_phantom, detect_symmetry, simulate_views
from repro.density import cyclic_phantom, icosahedral_capsid_phantom
from repro.engine import EngineConfig
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.stats import angular_errors


def refine_asymmetric() -> None:
    print("== refining an ASYMMETRIC particle (no symmetry to exploit) ==")
    truth = asymmetric_phantom(28, seed=4).normalized()
    views = simulate_views(truth, 16, snr=4.0, initial_angle_error_deg=3.0, seed=1)
    schedule = MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=3), RefinementLevel(0.5, 0.5, half_steps=2))
    )
    refiner = OrientationRefiner(truth, config=EngineConfig(r_max=10.0, max_slides=2))
    result = refiner.refine(views, schedule=schedule)
    e0 = angular_errors(views.initial_orientations, views.true_orientations).mean()
    e1 = angular_errors(result.orientations, views.true_orientations).mean()
    print(f"   mean angular error: {e0:.2f} deg -> {e1:.2f} deg")
    print()


def detect_groups() -> None:
    print("== detecting symmetry groups from density maps alone ==")
    cases = {
        "asymmetric blob assembly": asymmetric_phantom(28, seed=0).normalized(),
        "C4 tetramer": cyclic_phantom(28, n=4, seed=0).normalized(),
        "icosahedral capsid": icosahedral_capsid_phantom(32, seed=0).normalized(),
    }
    for name, density in cases.items():
        result = detect_symmetry(density, max_order=6, n_axes=150, seed=0)
        axes = ", ".join(f"{o}-fold" for _, o, _ in result.axes) or "none"
        print(f"   {name:<28s} -> {result.group_name:<4s} (axes found: {axes})")
    print()
    print("   (an icosahedral detection reporting a 5-/3-/2-fold subgroup still")
    print("   identifies the particle as symmetric; closing the full 60-element")
    print("   group requires axis precision beyond a 32-pixel map)")


if __name__ == "__main__":
    refine_asymmetric()
    detect_groups()
