"""Regular tree of valence q: vertices as edge addresses, batches as label arrays.

A vertex is the string of edge labels on the path from the root.  Labels are
the first ``q`` lowercase letters; from the vertex reached by a last edge
``L``, taking edge ``L`` again would backtrack, so valid addresses never
repeat a letter twice in a row.  The root (empty string) allows all ``q``
labels.  Every vertex has exactly q neighbors: the parent (address minus the
last letter) and its extensions by one non-repeating letter.

The scalar interface (``distance``, ``geodesic_point``, ``validate_point``,
``sphere``, ``batch_get``, ``singleton``) speaks address strings.  Batches are
:class:`TreeBatch` arrays: one row of labels per address (0 for ``a``),
padded with -1 past its length.  Distances, scalar ones included, read the
longest common prefix off the first column where two rows differ or one of
them ends.

Rays are uniform non-backtracking walks, so sphere samples are uniform over
the sphere's points.  The estimators' pair kernel ``ray_pair_distances``
reads where two walks part off their moves and forms no label row.
Distances are integers; geodesics exist only through vertices, so geodesic
times and sphere radii must be integers (to 1e-9), and shell samples draw
integer radii.  Rays that need to continue past their defining endpoint
extend by the alphabetically smallest non-backtracking label, a fixed
canonical choice.
"""

from __future__ import annotations

import math
import string
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import DomainError, ParameterError, UnsupportedMethodError
from .base import ModelSpace, RayBundle

_PAD = -1
_A = ord("a")
# the most walk steps, count x steps, that one ``rays_chunk`` draws: its
# uniforms (8 bytes a step) and its moves (1 byte) grow with them; tree
# estimate-e and separation at the cap (r = 128, n = 65536) peak near 122 MB
# RSS on x86-64 Linux with numpy 2.4
_MAX_WALK_STEPS = 1 << 23


class TreeBatch(NamedTuple):
    """Addresses as label rows (0 for ``a``) padded with -1, and their lengths."""

    labels: np.ndarray   # (n, W) int8
    lengths: np.ndarray  # (n,) int64


def _lcp_rows(a: np.ndarray, na: np.ndarray, b: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Longest common prefixes of label rows ``a`` and ``b`` (lengths ``na``, ``nb``).

    Leading axes broadcast.  The prefix ends at the first column where the
    rows differ or the shorter one ends; a sentinel column stops rows that
    agree on every shared column.
    """
    w = min(a.shape[-1], b.shape[-1])
    stop = np.ones(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (w + 1,), dtype=bool)
    np.not_equal(a[..., :w], b[..., :w], out=stop[..., :w])
    stop[..., :w] |= np.arange(w) >= np.minimum(na, nb)[..., None]
    return stop.argmax(axis=-1)


def _encode(p: str) -> np.ndarray:
    return (np.frombuffer(p.encode("ascii"), dtype=np.uint8) - _A).astype(np.int8)


def _decode(labels: np.ndarray) -> str:
    return (labels.astype(np.uint8) + _A).tobytes().decode("ascii")


def _walk_points(x: np.ndarray, up: np.ndarray, moves: np.ndarray, t: np.ndarray) -> TreeBatch:
    """Walk points at integer times ``t`` (see :class:`TreeRays`)."""
    climbed = np.minimum(t, up)
    base = len(x) - climbed
    lengths = base + (t - climbed)
    w = int(lengths.max(initial=0))
    col = np.arange(w)
    xrow = np.full(w, _PAD, dtype=np.int8)
    xrow[:min(len(x), w)] = x[:w]
    # past the kept prefix of x, column base + m holds the label of step up + m
    idx = np.clip(col - base[:, None] + climbed[:, None], 0, moves.shape[1] - 1)
    labels = np.where(col < base[:, None], xrow, np.take_along_axis(moves, idx, axis=1))
    labels[col >= lengths[:, None]] = _PAD
    return TreeBatch(labels, lengths)


class TreeRays(RayBundle):
    """Non-backtracking walks from a common start ``x``.

    A walk climbs toward the root for its first ``up[i]`` steps and only
    descends after that, so at time t ray i is ``x`` without its last
    min(t, up[i]) labels, followed by the labels ``moves[i, up[i]:t]`` chosen
    at its descending steps.
    """

    def __init__(self, x: np.ndarray, up: np.ndarray, moves: np.ndarray, horizon: int):
        self.x = x              # labels of the start
        self.up = up            # (n,) leading steps toward the root
        self.moves = moves      # (n, max(horizon, 1)) label taken at each descending step
        self.horizon = horizon

    @property
    def size(self) -> int:
        return len(self.up)

    def steps(self, t) -> np.ndarray:
        """The times ``t``, a scalar or one per ray, as int64 step counts, one
        per ray; refused off the integers, below 0 or past the horizon."""
        ts = np.broadcast_to(np.asarray(t, dtype=np.float64), (self.size,))
        js = np.rint(ts)
        off_grid = ~(np.abs(ts - js) <= 1e-9)
        bad = off_grid | (js < 0) | (js > self.horizon)
        if bad.any():
            i = int(bad.argmax())
            if off_grid[i]:
                raise DomainError(f"tree rays are defined at integer times, got {ts[i]}")
            if js[i] < 0:
                raise ParameterError(f"ray time must be nonnegative, got {ts[i]}")
            raise ParameterError(f"ray horizon {self.horizon} exceeded at time {int(js[i])}")
        return js.astype(np.int64)

    def points_at(self, t) -> TreeBatch:
        return _walk_points(self.x, self.up, self.moves, self.steps(t))


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
        self.h = math.log(q - 1) if h is None else self._growth_exponent(h)

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
        return float(self.distance_many(self.singleton(u), self.singleton(v))[0])

    def _as_step(self, t: float) -> int:
        j = int(round(t))
        if abs(t - j) > 1e-9:
            raise DomainError(f"tree geodesic times must be integers, got {t}")
        return j

    def geodesic_points(self, U: TreeBatch, V: TreeBatch, T) -> TreeBatch:
        """The ray through the one pair of the one-row batches ``U`` and
        ``V`` at the times ``T``; no caller walks a batch of pairs."""
        if self.batch_size(U) != 1 or self.batch_size(V) != 1:
            raise UnsupportedMethodError("tree geodesics take one-row batches, one pair of points")
        # the ray climbs ``up`` edges from u to the common ancestor, then
        # descends along the labels ``down``, which run past v far enough to
        # reach the last time
        u, v = self.batch_get(U, 0), self.batch_get(V, 0)
        if u == v:
            raise DomainError("degenerate ray: endpoints coincide")
        js = []
        for t in np.asarray(T, dtype=np.float64).ravel():
            if t < 0:
                raise ParameterError(f"ray time must be nonnegative, got {t}")
            js.append(self._as_step(t))
        k = int(_lcp_rows(_encode(u), len(u), _encode(v), len(v)))
        up, down = len(u) - k, v[k:]
        # past v: the smallest label that neither repeats the last label nor
        # steps back into the child the ray has just climbed out of
        last, came = v[-1:], ("" if down else u[k])
        while up + len(down) < max(js, default=0):
            last = next(ch for ch in self.alphabet if ch != last and ch != came)
            down, came = down + last, ""
        moves = np.concatenate((np.zeros(up, dtype=np.int8), _encode(down)))[None, :]
        return _walk_points(_encode(u), np.full(len(js), up), moves,
                            np.asarray(js, dtype=np.int64))

    # -- batches: TreeBatch label arrays --------------------------------------

    def batch_get(self, batch: TreeBatch, i: int) -> str:
        return _decode(batch.labels[i, :batch.lengths[i]])

    def batch_concat(self, batches: Sequence[TreeBatch]) -> TreeBatch:
        lengths = np.concatenate([b.lengths for b in batches])
        labels = np.full((len(lengths), max(b.labels.shape[1] for b in batches)), _PAD,
                         dtype=np.int8)
        start = 0
        for b in batches:
            n, w = b.labels.shape
            labels[start:start + n, :w] = b.labels
            start += n
        return TreeBatch(labels, lengths)

    def singleton(self, p) -> TreeBatch:
        self.validate_point(p)
        return TreeBatch(_encode(p)[None, :], np.array([len(p)]))

    def distance_many(self, U: TreeBatch, V: TreeBatch) -> np.ndarray:
        k = _lcp_rows(U.labels, U.lengths, V.labels, V.lengths)
        return (U.lengths + V.lengths - 2 * k).astype(np.float64)

    def cross_distance(self, U: TreeBatch, V: TreeBatch) -> np.ndarray:
        nu, nv = U.lengths[:, None], V.lengths[None, :]
        k = _lcp_rows(U.labels[:, None, :], nu, V.labels[None, :, :], nv)
        return (nu + nv - 2 * k).astype(np.float64)

    def ray_pair_distances(self, by: TreeRays, ty, bz: TreeRays, tz) -> np.ndarray:
        """Walks from one start that make the same first ``k`` moves and
        then differ are ``jy + jz - 2 min(k, jy, jz)`` apart at steps ``jy``
        and ``jz``: the walks are geodesic rays, and they leave the vertex
        where they part through different edges.  ``k`` is read off the
        moves, so no label row is formed."""
        if not np.array_equal(by.x, bz.x):
            raise DomainError(f"ray pairs need one basepoint, got {_decode(by.x)!r} "
                              f"and {_decode(bz.x)!r}")
        jy, jz = by.steps(ty), bz.steps(tz)
        lo = np.minimum(jy, jz)
        w = int(lo.max(initial=0))
        k = _lcp_rows(by.moves[:, :w], lo, bz.moves[:, :w], lo)
        return (jy + jz - 2 * k).astype(np.float64)

    # -- sampling -----------------------------------------------------------

    def _neighbors(self, p: str) -> list[str]:
        out = [] if p == "" else [p[:-1]]
        last = p[-1] if p else None
        out.extend(p + ch for ch in self.alphabet if ch != last)
        return out

    def rays_chunk(self, x, count, rng, horizon) -> TreeRays:
        self.validate_point(x)
        steps = self._as_step(horizon) if abs(horizon - round(horizon)) <= 1e-9 else int(math.ceil(horizon))
        if count * steps > _MAX_WALK_STEPS:
            raise ParameterError(f"{count} tree walks to radius {float(horizon)!r} take "
                                 f"{count * steps} steps, above the cap of {_MAX_WALK_STEPS}; "
                                 "lower r or n")
        # uniform non-backtracking walk: q choices at the first step, q-1 after,
        # which is the uniform (counting) measure on every sphere
        u = rng.uniform(size=(count, max(steps, 1)))
        q, xl = self.q, _encode(x)
        # last label of x[:d] by depth d; q stands for "none" (the root)
        last_at = np.concatenate(([q], xl)).astype(np.int64)
        last = np.full(count, last_at[-1])
        came = np.full(count, q)           # child just climbed out of, or q
        up = np.zeros(count, dtype=np.int64)
        moves = np.zeros((count, max(steps, 1)), dtype=np.int8)
        for s in range(steps):
            # neighbours in order: the parent while every step so far has
            # climbed, then the children in label order without ``last`` and
            # ``came``
            parent = (up == s) & (up < len(xl))
            if not parent.any() and (last < q).all():
                # no walk climbs again, and none has just climbed (that one
                # would still have a parent, or stand at the root with no
                # last label), so every later step picks among the q - 1
                # children other than the last label: the same picks, filled
                # in place
                rest, picks = u[:, s:], moves[:, s:]
                rest *= q - 1
                picks[...] = rest
                np.minimum(picks, q - 2, out=picks)
                prev = last
                for col in picks.T:
                    col += col >= prev
                    prev = col
                break
            n = parent + (q - (last < q) - (came < q))
            pick = np.minimum((u[:, s] * n).astype(np.int64), n - 1)
            rise = parent & (pick == 0)
            child = pick - parent
            child += child >= np.minimum(last, came)
            child += child >= np.maximum(last, came)
            moves[:, s] = child
            up += rise
            came = np.where(rise, last, q)
            last = np.where(rise, last_at[len(xl) - up], child)
        return TreeRays(xl, up, moves, steps)

    def sample_radii(self, rng, count, r, k):
        if k == 0:
            r_int = self._as_step(r)
            if r_int < 1:
                raise ParameterError(f"sphere radius must be a positive integer, got {r}")
            return np.full(count, float(r_int))
        lo = max(int(math.ceil(r - k)), 1)
        hi = int(math.floor(r))
        if hi < lo:
            raise ParameterError(f"annulus [{r - k}, {r}] contains no integer radius")
        support = np.arange(lo, hi + 1)
        w = np.exp(self.h * (support - hi).astype(np.float64))
        w /= w.sum()
        return support[rng.choice(len(support), size=count, p=w)].astype(np.float64)

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
