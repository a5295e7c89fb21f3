"""Model geometries with exact distances, geodesics, samplers, and nets."""

from __future__ import annotations

from ..errors import ParameterError
from .base import ModelSpace, RayBundle, ball_radial_mass
from .euclidean import EuclideanSpace
from .hyperbolic import HyperbolicPlane
from .modular import ModularTorus, thin_area_fraction
from .nets import Net, build_net, check_net
from .product import SupProduct
from .tree import RegularTree

__all__ = [
    "ModelSpace",
    "RayBundle",
    "ball_radial_mass",
    "EuclideanSpace",
    "HyperbolicPlane",
    "ModularTorus",
    "SupProduct",
    "RegularTree",
    "Net",
    "build_net",
    "check_net",
    "thin_area_fraction",
    "make_space",
    "space_kind",
]

_KIND_ALIASES = {
    "euclidean": "euclidean-p-norm",
    "euclidean-p-norm": "euclidean-p-norm",
    "hyperbolic": "hyperbolic-plane",
    "hyperbolic-plane": "hyperbolic-plane",
    "modular": "modular-torus",
    "modular-torus": "modular-torus",
    "tree": "regular-tree",
    "regular-tree": "regular-tree",
    "sup-product": "sup-product",
}


def space_kind(kind: str) -> str:
    """The canonical name of a space kind or of one of its aliases."""
    try:
        return _KIND_ALIASES[kind]
    except KeyError:
        raise ParameterError(f"unknown space kind {kind!r}") from None


def make_space(kind: str, *, dim: int = 2, p: float = 2.0, q: int = 3,
               h: float | None = None, components: list[ModelSpace] | None = None) -> ModelSpace:
    """Build a model space from a flat parameter set (CLI entry point)."""
    canonical = space_kind(kind)
    if canonical == "euclidean-p-norm":
        return EuclideanSpace(dim=dim, p=p, h=0.0 if h is None else h)
    if canonical == "hyperbolic-plane":
        return HyperbolicPlane(h=1.0 if h is None else h)
    if canonical == "modular-torus":
        return ModularTorus(h=1.0 if h is None else h)
    if canonical == "regular-tree":
        return RegularTree(q=q, h=h)
    if canonical == "sup-product":
        if not components:
            raise ParameterError("sup-product needs component spaces")
        return SupProduct(components, h=h)
    raise ParameterError(f"unknown space kind {kind!r}")  # pragma: no cover
