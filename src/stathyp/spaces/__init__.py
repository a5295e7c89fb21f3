"""Model geometries with exact distances, geodesics, samplers, and nets."""

from __future__ import annotations

from ..errors import ParameterError
from .base import ModelSpace, RayBundle
from .euclidean import EuclideanSpace
from .hyperbolic import HyperbolicPlane
from .modular import ModularTorus, thin_area_fraction
from .nets import Net, build_net
from .product import SupProduct
from .tree import RegularTree

__all__ = [
    "ModelSpace",
    "RayBundle",
    "EuclideanSpace",
    "HyperbolicPlane",
    "ModularTorus",
    "SupProduct",
    "RegularTree",
    "Net",
    "build_net",
    "thin_area_fraction",
    "make_space",
    "space_class",
]

# each model class under its short name and under its ``kind``
_CLASSES = {"euclidean": EuclideanSpace, "hyperbolic": HyperbolicPlane, "modular": ModularTorus,
            "tree": RegularTree, "sup-product": SupProduct}
_CLASSES.update({cls.kind: cls for cls in _CLASSES.values()})


def space_class(kind: str) -> type[ModelSpace]:
    """The model class of a space kind or of its short name."""
    try:
        return _CLASSES[kind]
    except KeyError:
        raise ParameterError(f"unknown space kind {kind!r}") from None


def make_space(kind: str, **params) -> ModelSpace:
    """The model of ``kind`` built from the keyword arguments of its class's
    constructor, such as ``make_space("tree", q=4)``."""
    return space_class(kind)(**params)
