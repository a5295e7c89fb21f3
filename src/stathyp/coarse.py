"""Threshold arithmetic of the annular terms of Rafi's distance formula.

An annular term compares the lengths ``l_x`` and ``l_y`` of one curve at two
points with the twist ``d_c`` between them.  Its exact value is the
hyperbolic distance between two horoball projections; its coarse value is
the log-max proxy.  The checks below say, elementwise, that the two agree up
to a factor 6 above the threshold floor, that thresholded sums of them chain
accordingly, and that a sum of thresholded logs and the thresholded max of
those logs agree up to a factor 3.  These are the estimates the distance
formula needs, and it needs them only up to such constants.

The pair arithmetic is written once in numpy: every function takes floats or
equal-length 1-D arrays and works elementwise.  A :class:`HoroballPair` is
either one pair or a batch of pairs, :func:`random_pairs` draws a batch, and
horoball distances use the one upper half-plane distance of
:mod:`stathyp.spaces.hyperbolic`.  Nothing in this module knows about
surfaces or geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .rng import chunked
from .spaces.hyperbolic import uhp_distance

# libm's log, elementwise.  numpy's SIMD log differs from it by one ulp on
# some inputs, and log_plus keeps the values of math.log.
_libm_log = np.frompyfunc(math.log, 1, 1)


def threshold_floor(eps0: float) -> float:
    """Smallest threshold for which the sandwich estimates are guaranteed."""
    return 36.0 * log_plus(1.0 / eps0)


def _scalar(x):
    """Unwrap a 0-d result so float input gives a float back."""
    return x.item() if isinstance(x, np.ndarray) and x.ndim == 0 else x


def log_plus(a):
    """max(0, log a), elementwise; zero on [0, 1]."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise DomainError(f"log_plus needs nonnegative arguments, got {a[a < 0].flat[0]}")
    return _scalar(np.asarray(_libm_log(np.maximum(a, 1.0)), dtype=float))


def threshold(value, m0: float):
    """``value`` where it meets the threshold ``m0``, else 0; elementwise."""
    if not m0 > 0:
        raise ParameterError(f"threshold m0 must be positive, got {m0}")
    return _scalar(np.where(np.asarray(value) >= m0, value, 0.0))


@dataclass(frozen=True)
class HoroballPair:
    """Lengths of one curve on two sides plus the twist between them.

    ``l_x`` and ``l_y`` are the curve lengths at the two endpoints and ``d_c``
    is the twisting distance.  The three fields are floats for one pair or
    equal-length 1-D arrays for a batch.
    """

    l_x: float | np.ndarray
    l_y: float | np.ndarray
    d_c: float | np.ndarray

    def __post_init__(self):
        l_x, l_y, d_c = (np.asarray(v, dtype=float) for v in (self.l_x, self.l_y, self.d_c))
        if not (l_x.shape == l_y.shape == d_c.shape and l_x.ndim <= 1):
            raise ParameterError("horoball pair fields must be floats or equal-length "
                                 f"1-D arrays, got shapes {l_x.shape}, {l_y.shape}, {d_c.shape}")
        for name, bad in (("curve lengths must be positive", ~((l_x > 0) & (l_y > 0))),
                          ("twist must be nonnegative", ~(d_c >= 0)),
                          ("horoball pair values must be finite",
                           ~(np.isfinite(l_x) & np.isfinite(l_y) & np.isfinite(d_c)))):
            if np.any(bad):
                i = np.flatnonzero(bad)[0]
                raise DomainError(f"{name}, got l_x={l_x.flat[i]}, l_y={l_y.flat[i]}, "
                                  f"d_c={d_c.flat[i]}")

    def __len__(self) -> int:
        return int(np.size(self.l_x))


def horoball_distance(pair: HoroballPair):
    """Hyperbolic distance between the horoball projections of the pair.

    The two projections are ``(0, max(1, 1/l_x))`` and ``(d_c, max(1, 1/l_y))``
    in the upper half-plane.
    """
    h1 = np.maximum(1.0, 1.0 / np.asarray(pair.l_x))
    h2 = np.maximum(1.0, 1.0 / np.asarray(pair.l_y))
    return _scalar(uhp_distance(0.0, h1, np.asarray(pair.d_c), h2))


def log_max_proxy(pair: HoroballPair):
    """max of log_plus of the twist and of the two inverse lengths."""
    terms = np.stack([pair.d_c, 1.0 / np.asarray(pair.l_x), 1.0 / np.asarray(pair.l_y)])
    return _scalar(log_plus(terms).max(axis=0))


def twist_only_distance(d_c):
    """Distance between ``(0, 1)`` and ``(d_c, 1)``: arccosh(1 + d_c^2 / 2)."""
    d_c = np.asarray(d_c, dtype=float)
    if np.any(d_c < 0):
        raise DomainError(f"twist must be nonnegative, got {d_c[d_c < 0].flat[0]}")
    return _scalar(2.0 * np.arcsinh(0.5 * d_c))


def max_log_identity(f, g, h, m0: float):
    """Compare the sum of thresholded logs with the thresholded max of logs.

    lhs = log_plus(thr(f)) + log_plus(thr(g)) + log_plus(thr(h)) with threshold
    m0; rhs = thr(max of the log_plus values) with threshold log(m0).  Returns
    (lhs, rhs, ok) where ok means each side is within a factor 3 of the other
    whenever either is positive.  Elementwise on equal-shape arrays.
    """
    if not m0 > 1:
        raise ParameterError(f"m0 must exceed 1, got {m0}")
    v = np.stack([f, g, h])
    logs = log_plus(v)
    # log_plus(thr(v)) without a second log: m0 > 1, and log_plus(0) = 0
    lhs = np.where(v >= m0, logs, 0.0).sum(axis=0)
    rhs = threshold(logs.max(axis=0), math.log(m0))
    ok = ((lhs == 0.0) & (rhs == 0.0)) | ((lhs <= 3.0 * rhs) & (rhs <= 3.0 * lhs))
    return _scalar(lhs), rhs, _scalar(ok)


def proxy_sandwich_holds(d, p, floor: float = 0.0):
    """Check 6^-1 * d <= p <= 6 * d, elementwise, for the horoball distances
    ``d`` and the log-max proxies ``p`` of a batch of pairs.

    Pairs where both the distance and the proxy lie below ``floor`` pass
    without a check.
    """
    return (np.maximum(d, p) < floor) | ((d <= 6.0 * p) & (p <= 6.0 * d))


def chain_inequality_holds(d, p, m0: float, profile_size: int | None = None):
    """Check the thresholded-sum chain over the horoball distances ``d`` and
    the log-max proxies ``p`` of pairs not short on both sides.

    sum 6^-1 thr_{6 m0}(d)  <=  sum thr_{m0}(p)  <=  sum 6 thr_{m0/6}(d).

    The sums run over the whole batch, or, given ``profile_size``, over each
    run of that many consecutive pairs (the last run may be shorter), with
    one verdict per run.
    """
    d, p = np.atleast_1d(d), np.atleast_1d(p)
    terms = np.stack([threshold(d, 6.0 * m0) / 6.0, threshold(p, m0),
                      6.0 * threshold(d, m0 / 6.0)])
    if profile_size is None:
        lo, mid, hi = terms.sum(axis=1)
    else:
        lo, mid, hi = np.add.reduceat(terms, np.arange(0, len(d), profile_size), axis=1)
    slack = 1e-9 * (1.0 + np.abs(mid))
    return (lo <= mid + slack) & (mid <= hi + slack)


# ---------------------------------------------------------------------------
# Random generators for stress sweeps
# ---------------------------------------------------------------------------

# one substream per drawn field: both length exponents, the zero-twist coin,
# the twist exponent and the replacement exponent for doubly short pairs
_PAIR_KEYS = tuple((0xC0A5, field_no) for field_no in range(5))
# exponent range of the drawn lengths ([_LOG_LO, 0]) and twists
_LOG_LO, _LOG_HI = -600.0, 600.0


def random_pairs(n: int, seed: int, eps0: float, first: int = 0) -> HoroballPair:
    """A batch of log-uniform horoball pairs off the doubly-short set.

    Lengths are drawn log-uniform with exponent in [_LOG_LO, 0] and the twist
    is 0 with probability 1/4, else log-uniform with exponent in
    [_LOG_LO, _LOG_HI]; the larger length of a pair with both lengths below
    eps0 is redrawn in [eps0, 1], so every pair satisfies the hypothesis of
    the sandwich estimates.

    The batch starts at chunk ``first`` of the seed's stream, pair
    ``first * rng.CHUNK``, and pair ``j`` depends only on ``(seed, j)``.
    """
    out = np.empty((3, n))
    at = 0
    for m, r_x, r_y, r_zero, r_twist, r_lift in chunked(seed, n, *_PAIR_KEYS, first=first):
        l_x = np.exp(r_x.uniform(_LOG_LO, 0.0, m))
        l_y = np.exp(r_y.uniform(_LOG_LO, 0.0, m))
        twist = np.exp(r_twist.uniform(_LOG_LO, _LOG_HI, m))
        d_c = np.where(r_zero.uniform(size=m) < 0.25, 0.0, twist)
        lift = np.exp(r_lift.uniform(math.log(eps0), 0.0, m))
        short = np.maximum(l_x, l_y) < eps0
        x_longer = l_x >= l_y
        l_x = np.where(short & x_longer, lift, l_x)
        l_y = np.where(short & ~x_longer, lift, l_y)
        out[:, at:at + m] = l_x, l_y, d_c
        at += m
    return HoroballPair(*out)
