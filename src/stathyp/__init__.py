"""stathyp: a statistical-hyperbolicity laboratory.

Exactly computable model geometries (normed planes, the hyperbolic plane, the
torus moduli model, regular trees, sup-metric products) together with the
machinery to measure how hyperbolic they are on average: spread statistics
over spheres and balls, thickness fractions along geodesics, fellow-traveling
decay, thin-triangle probes, convex-body volume comparisons, and the coarse
threshold arithmetic of subsurface distance formulas.
"""

from .spaces import (EuclideanSpace, HyperbolicPlane, ModularTorus,
                     RegularTree, SupProduct, build_net, make_space)
from .stats import (EstimateResult, discretize_geodesic, estimate_spread,
                    p1_fraction, separation_fraction, thick_stat,
                    thin_triangle_probe)

__version__ = "0.1.0"

__all__ = [
    "EuclideanSpace", "HyperbolicPlane", "ModularTorus", "RegularTree",
    "SupProduct", "make_space", "build_net",
    "EstimateResult", "estimate_spread", "thick_stat",
    "p1_fraction", "separation_fraction", "thin_triangle_probe",
    "discretize_geodesic",
]
