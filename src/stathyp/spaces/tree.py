"""Regular tree of valence q with points as edge-address strings.

A vertex is the string of edge labels on the path from the root.  Labels are
the first ``q`` lowercase letters; from the vertex reached by a last edge
``L``, taking edge ``L`` again would backtrack, so valid addresses never
repeat a letter twice in a row.  The root (empty string) allows all ``q``
labels.  Every vertex has exactly q neighbors: the parent (address minus the
last letter) and its extensions by one non-repeating letter.

Distances are integers; geodesics exist only through vertices, so geodesic
times must be integers (to 1e-9).  Rays that need to continue past their
defining endpoint extend by the alphabetically smallest non-backtracking
label, a fixed canonical choice.
"""

from __future__ import annotations

import math
import string
from typing import Sequence

import numpy as np

from ..errors import DomainError, ParameterError, UnsupportedMeasureError
from .base import MEASURE_COUNTING, MEASURE_DIRECTION, ModelSpace, RayBundle


def _lcp(u: str, v: str) -> int:
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return i
    return n


class TreeRays(RayBundle):
    def __init__(self, walks: list[list[str]]):
        self.walks = walks  # walks[i][t] = address of ray i at integer time t

    @property
    def size(self) -> int:
        return len(self.walks)

    def points_at(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if ts.size == 1 and np.asarray(t).ndim == 0:
            ts = np.full(len(self.walks), float(ts[0]))
        out = []
        for walk, ti in zip(self.walks, ts):
            j = int(round(ti))
            if abs(ti - j) > 1e-9:
                raise DomainError(f"tree rays are defined at integer times, got {ti}")
            if j >= len(walk):
                raise ParameterError(f"ray horizon {len(walk) - 1} exceeded at time {j}")
            out.append(walk[j])
        return out


class RegularTree(ModelSpace):
    """The (q >= 3)-regular tree; spheres carry counting measure."""

    kind = "regular-tree"
    atomic = True

    def __init__(self, q: int = 3, h: float | None = None):
        if q < 3:
            raise ParameterError(f"tree valence must be at least 3, got {q}")
        if q > 26:
            raise ParameterError("valence above 26 is not supported by the address alphabet")
        self.q = int(q)
        self.alphabet = string.ascii_lowercase[: self.q]
        self.h = math.log(q - 1) if h is None else float(h)

    def describe(self) -> str:
        return f"regular-tree(q={self.q},h={self.h})"

    def basepoint(self) -> str:
        return ""

    def validate_point(self, p) -> None:
        if not isinstance(p, str):
            raise DomainError(f"tree points are address strings, got {type(p).__name__}")
        for i, ch in enumerate(p):
            if ch not in self.alphabet:
                raise DomainError(f"label {ch!r} not in alphabet {self.alphabet!r}")
            if i > 0 and p[i - 1] == ch:
                raise DomainError(f"address {p!r} backtracks at position {i}")

    def distance(self, u, v) -> float:
        self.validate_point(u)
        self.validate_point(v)
        k = _lcp(u, v)
        return float(len(u) + len(v) - 2 * k)

    def _as_step(self, t: float) -> int:
        j = int(round(t))
        if abs(t - j) > 1e-9:
            raise DomainError(f"tree geodesic times must be integers, got {t}")
        return j

    def _path(self, u: str, v: str) -> list[str]:
        """Vertices along the geodesic from u to v, inclusive."""
        k = _lcp(u, v)
        down = [u[:i] for i in range(len(u), k - 1, -1)]  # u .. common ancestor
        up = [v[: i + 1] for i in range(k, len(v))]
        return down + up

    def _extend(self, path: list[str], upto: int) -> list[str]:
        """Canonically extend a geodesic path to length ``upto``."""
        path = list(path)
        while len(path) - 1 < upto:
            cur = path[-1]
            prev = path[-2] if len(path) >= 2 else None
            for ch in self.alphabet:
                if cur and cur[-1] == ch:
                    continue  # backtracking as an address
                nxt = cur + ch
                if nxt != prev:
                    path.append(nxt)
                    break
            else:  # pragma: no cover - q >= 3 always leaves a choice
                raise DomainError("no extension available")
        return path

    def geodesic_point(self, u, v, t: float) -> str:
        self.validate_point(u)
        self.validate_point(v)
        if u == v:
            raise DomainError("degenerate ray: endpoints coincide")
        if t < 0:
            raise ParameterError(f"ray time must be nonnegative, got {t}")
        j = self._as_step(t)
        path = self._path(u, v)
        if j >= len(path):
            path = self._extend(path, j)
        return path[j]

    def geodesic_points(self, u, v, ts: np.ndarray) -> list[str]:
        return [self.geodesic_point(u, v, float(t)) for t in np.asarray(ts).ravel()]

    # -- batches: lists of addresses -----------------------------------------

    def batch_size(self, batch) -> int:
        return len(batch)

    def batch_get(self, batch, i: int) -> str:
        return batch[i]

    def batch_concat(self, batches: Sequence[list]) -> list:
        out: list[str] = []
        for b in batches:
            out.extend(b)
        return out

    def singleton(self, p) -> list:
        self.validate_point(p)
        return [p]

    def distance_many(self, U, V) -> np.ndarray:
        return np.asarray([self.distance(u, v) for u, v in zip(U, V)])

    def cross_distance(self, U, V) -> np.ndarray:
        return np.asarray([[self.distance(u, v) for v in V] for u in U])

    # -- sampling -----------------------------------------------------------

    def _neighbors(self, p: str) -> list[str]:
        out = [] if p == "" else [p[:-1]]
        last = p[-1] if p else None
        out.extend(p + ch for ch in self.alphabet if ch != last)
        return out

    def rays_chunk(self, x, count, rng, horizon) -> TreeRays:
        steps = self._as_step(horizon) if abs(horizon - round(horizon)) <= 1e-9 else int(math.ceil(horizon))
        walks = []
        # uniform non-backtracking walk: q choices at the first step, q-1 after,
        # which is the uniform (counting) measure on every sphere
        u = rng.uniform(size=(count, max(steps, 1)))
        for i in range(count):
            walk = [x]
            prev = None
            for s in range(steps):
                nbrs = self._neighbors(walk[-1])
                if prev is not None:
                    nbrs = [w for w in nbrs if w != prev]
                pick = min(int(u[i, s] * len(nbrs)), len(nbrs) - 1)
                prev = walk[-1]
                walk.append(nbrs[pick])
            walks.append(walk)
        return TreeRays(walks)

    def sample_radii(self, rng, count, r, k):
        if k == 0:
            return np.full(count, float(self._as_step(r)))
        lo = max(int(math.ceil(r - k)), 1)
        hi = int(math.floor(r))
        if hi < lo:
            raise ParameterError(f"annulus [{r - k}, {r}] contains no integer radius")
        support = np.arange(lo, hi + 1)
        w = np.exp(self.h * (support - hi).astype(np.float64))
        w /= w.sum()
        return support[rng.choice(len(support), size=count, p=w)].astype(np.float64)

    def sample_sphere(self, x, r: float, n: int, seed: int,
                      measure: str = MEASURE_COUNTING):
        if measure not in (MEASURE_DIRECTION, MEASURE_COUNTING):
            raise UnsupportedMeasureError(f"unknown measure {measure!r}")
        r_int = self._as_step(r)
        if r_int < 1:
            raise ParameterError(f"sphere radius must be a positive integer, got {r}")
        return super().sample_sphere(x, float(r_int), n, seed, measure=MEASURE_DIRECTION)

    def sphere(self, x: str, r: int) -> list[str]:
        """The full sphere of radius r about x, by breadth-first enumeration."""
        self.validate_point(x)
        if r < 0:
            raise ParameterError(f"radius must be nonnegative, got {r}")
        frontier = [(x, None)]
        for _ in range(r):
            nxt = []
            for p, prev in frontier:
                for w in self._neighbors(p):
                    if w != prev:
                        nxt.append((w, p))
            frontier = nxt
        return [p for p, _ in frontier]
