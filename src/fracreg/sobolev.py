"""Fractional-Sobolev analytics on an interval.

Contains the nonsmooth test-function zoo (power cusp, blocks, piecewise
polynomials, bumps), the continuum seminorm

    |u|^2 = int int |u(x) - u(y)|^2 / |x - y|^(1+2s) dx dy

by singular-integral quadrature with diagonal-band exclusion, and the
spectral (graph) seminorm.

Quadrature scheme: composite midpoint on a 2^level x 2^level tensor grid.
Cells touching the diagonal x = y (lag 0 and 1) are excluded, so the band
shrinks with the mesh; its contribution is recovered by geometric
extrapolation of the refinement increments.  For members of the space the
increments decay geometrically and the extrapolated sequence is Cauchy; for
non-members the increments themselves keep growing, which is the divergence
signature reported back to the caller.  Only the kernel depends on s: the
lag sums of every level are computed once per function object and
refinement, and each s then needs one power array and one reduction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from fracreg.errors import InvalidInputError

if TYPE_CHECKING:
    from fracreg.spectral import EigenSystem

_FAMILIES = ("power", "piecewise_constant", "piecewise_polynomial", "bumps")

# Bump profile decay exponent; only the polynomial-decay form is implemented.
BUMP_DECAY = 4.0

MAX_REFINEMENT = 20  # finest quadrature level; a level-20 call peaks near 210 MB


@dataclass(frozen=True)
class TestFunction:
    """A 1-D test function on an open interval.

    Piecewise families follow the half-open convention: the piece over
    (b_i, b_{i+1}] owns its right endpoint.  The domain itself is open, so
    both outer endpoints are outside.
    """

    family: str
    domain: tuple
    alpha: float | None = None
    breakpoints: tuple = ()
    values: tuple = ()
    coefficients: tuple = ()   # tuple of ascending-order coefficient tuples
    centers: tuple = ()
    heights: tuple = ()
    widths: tuple = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError("unknown test-function family %r" % (self.family,))
        a, b = self.domain
        if not a < b:
            raise InvalidInputError("domain must be a non-empty interval")
        if self.family == "power":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise InvalidInputError("power exponent alpha must lie in (0, 1)")
        elif self.family in ("piecewise_constant", "piecewise_polynomial"):
            bp = self.breakpoints
            if len(bp) < 2 or any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
                raise InvalidInputError("breakpoints must be strictly increasing")
            if not (math.isclose(bp[0], a) and math.isclose(bp[-1], b)):
                raise InvalidInputError("breakpoints must partition the domain")
            pieces = len(bp) - 1
            if self.family == "piecewise_constant" and len(self.values) != pieces:
                raise InvalidInputError("need one value per piece")
            if self.family == "piecewise_polynomial" and len(self.coefficients) != pieces:
                raise InvalidInputError("need one coefficient list per piece")
        else:
            if not (len(self.centers) == len(self.heights) == len(self.widths)) or not self.centers:
                raise InvalidInputError("bumps need matching centers, heights, widths")
            if any(w <= 0 for w in self.widths):
                raise InvalidInputError("bump widths must be positive")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        a, b = self.domain
        if np.any(arr <= a) or np.any(arr >= b):
            raise InvalidInputError(
                "argument outside the open domain (%.17g, %.17g)" % (a, b)
            )
        if self.family == "power":
            out = np.abs(arr) ** self.alpha
        elif self.family == "piecewise_constant":
            idx = self._piece_index(arr)
            out = np.asarray(self.values, dtype=float)[idx]
        elif self.family == "piecewise_polynomial":
            idx = self._piece_index(arr)
            out = np.zeros_like(arr)
            for p, coeffs in enumerate(self.coefficients):
                mask = idx == p
                if np.any(mask):
                    out[mask] = np.polynomial.polynomial.polyval(
                        arr[mask], np.asarray(coeffs, dtype=float)
                    )
        else:
            out = np.zeros_like(arr)
            for t, h, w in zip(self.centers, self.heights, self.widths):
                out = out + h * (1.0 + np.abs((arr - t) / w)) ** (-BUMP_DECAY)
        if np.ndim(x) == 0:
            return float(out)
        return out

    @functools.cached_property
    def _lag_memo(self) -> dict:
        """refinement -> _level_table result; per object, so equal copies share nothing."""
        return {}

    def _piece_index(self, arr):
        # (b_i, b_{i+1}] binning: a point equal to an interior breakpoint
        # belongs to the piece on its left.
        inner = np.asarray(self.breakpoints[1:-1], dtype=float)
        return np.searchsorted(inner, arr, side="left")


def power_function(alpha: float, domain=(-1.0, 1.0)) -> TestFunction:
    return TestFunction("power", tuple(domain), alpha=alpha)


def piecewise_constant(breakpoints, values) -> TestFunction:
    bp = tuple(float(b) for b in breakpoints)
    return TestFunction(
        "piecewise_constant", (bp[0], bp[-1]), breakpoints=bp,
        values=tuple(float(v) for v in values),
    )


def piecewise_polynomial(breakpoints, coefficients) -> TestFunction:
    bp = tuple(float(b) for b in breakpoints)
    return TestFunction(
        "piecewise_polynomial", (bp[0], bp[-1]), breakpoints=bp,
        coefficients=tuple(tuple(float(c) for c in piece) for piece in coefficients),
    )


def bumps(centers, heights, widths, domain=(0.0, 5.0)) -> TestFunction:
    return TestFunction(
        "bumps", tuple(domain),
        centers=tuple(float(t) for t in centers),
        heights=tuple(float(h) for h in heights),
        widths=tuple(float(w) for w in widths),
    )


def zoo() -> dict:
    """The built-in truths f1..f4, referenced by name in experiment configs."""
    return {
        "f1": power_function(0.5),
        "f2": piecewise_constant([0.0, 1.0, 2.0, 3.0, 5.0], [1.0, 0.5, 2.0, -2.5]),
        "f3": piecewise_polynomial(
            [0.0, 1.0, 2.0, 3.0, 5.0],
            [(0.0, 1.0), (2.0, 0.0, 2.0), (2.0, -1.0), (-4.0, -2.0, 0.0, 0.2)],
        ),
        "f4": bumps(
            centers=[0.8, 1.7, 2.6, 3.6, 4.4],
            heights=[3.0, -2.0, 4.0, -3.5, 2.5],
            widths=[0.12, 0.18, 0.10, 0.15, 0.12],
        ),
    }


# Each zoo truth's smoothness s*, the supremum of the s with the truth in H^s:
# the cusp |x|^(1/2) reaches 1, the jumps of f2 and f3 stop at 1/2, and the
# kinks at the centres of f4's bumps at 3/2.
ZOO_SMOOTHNESS = {"f1": 1.0, "f2": 0.5, "f3": 0.5, "f4": 1.5}


def zoo_function(name: str) -> TestFunction:
    table = zoo()
    if name not in table:
        raise InvalidInputError(
            "unknown truth name %r (choose from %s)" % (name, ", ".join(sorted(table)))
        )
    return table[name]


@dataclass(frozen=True)
class SeminormResult:
    """Outcome of the quadrature: a value, or a divergence flag.

    Divergence is reported as the flag plus the refinement sequence, never as
    a fake large number; value is +inf in that case.
    """

    value: float
    s: float
    quadrature_cells: int
    estimated_error: float
    diverged: bool
    refinements: tuple


def _lag_sums(f: np.ndarray) -> np.ndarray:
    """G[k] = sum_i (f_i - f_{i+k})^2 for k = 1..N-1, via FFT autocorrelation."""
    N = f.shape[0]
    f = f - np.mean(f)  # shift invariance; keeps constants exactly zero
    sq = f * f
    csum = np.cumsum(sq)
    total = csum[-1]
    nfft = 1 << int(math.ceil(math.log2(2 * N)))
    transform = np.fft.rfft(f, nfft)
    ac = np.fft.irfft(transform * np.conj(transform), nfft)[:N]
    k = np.arange(1, N)
    head = csum[N - 1 - k]
    shifted = np.concatenate(([0.0], csum[:-1]))
    tail = total - shifted[k]
    return np.maximum(head + tail - 2.0 * ac[k], 0.0)


def _level_table(fn: TestFunction, refinement: int):
    """(k h at the finest lags k = 2..N-1, the terms G[k] h^2 of levels
    4..refinement at lags >= 2 concatenated, the index of each term's lag
    into k h, the offset of each level); independent of s."""
    memo = fn._lag_memo
    if refinement not in memo:
        a, b = fn.domain
        terms, lag = [], []
        for lv in range(4, refinement + 1):
            N = 1 << lv
            h = (b - a) / N
            mid = a + (np.arange(N) + 0.5) * h
            terms.append(_lag_sums(fn(mid))[1:] * (h * h))
            # lag k at level lv is the finest lag k 2^(refinement - lv), bit for bit
            lag.append((np.arange(2, N) << (refinement - lv)) - 2)
        offsets = np.cumsum([0] + [len(t) for t in terms[:-1]])
        memo[refinement] = (np.arange(2, N) * h, np.concatenate(terms),
                            np.concatenate(lag), offsets)
    return memo[refinement]


def continuum_seminorm(fn: TestFunction, s: float, refinement: int = 12) -> SeminormResult:
    """Squared seminorm of fn by refining tensor-grid quadrature.

    Evaluates levels 4..refinement and classifies the sequence: divergent
    when the last three refinement increments are positive and each grows on
    the one before (the power/log blow-up of non-membership); otherwise the
    limit is the geometric (Aitken) extrapolation of the final increments.
    """
    if not 0.0 < s < 1.0:
        raise InvalidInputError("s must lie in (0, 1)")
    if not 7 <= refinement <= MAX_REFINEMENT:
        raise InvalidInputError("refinement level must lie in [7, %d]" % MAX_REFINEMENT)
    N = 1 << refinement
    kh, terms, lag, offsets = _level_table(fn, refinement)
    weights = kh ** (-1.0 - 2.0 * s)
    seq = 2.0 * np.add.reduceat(terms * weights[lag], offsets)
    cells = (N - 1) * (N - 2)  # included ordered cell pairs at the finest level

    inc = np.diff(seq)  # refinement >= 7: at least 4 sums, 3 increments
    tiny = 1e-14 * max(1.0, float(seq[-1]))
    last = inc[-3:]
    if np.all(last > tiny) and last[1] > last[0] and last[2] > last[1]:
        return SeminormResult(
            value=math.inf, s=s, quadrature_cells=cells,
            estimated_error=math.inf, diverged=True, refinements=tuple(seq),
        )

    # Aitken extrapolation of the tail; falls back to the last sum when the
    # increments have already hit round-off.
    value = float(seq[-1])
    est = float(abs(inc[-1]))
    s0, s1, s2 = seq[-3], seq[-2], seq[-1]
    denom = (s2 - s1) - (s1 - s0)
    if abs(denom) > tiny:
        ratio = (s2 - s1) / (s1 - s0) if abs(s1 - s0) > tiny else 0.0
        if abs(ratio) < 1.0:
            extr = float(s2 - (s2 - s1) ** 2 / denom)
            est = abs(extr - value)
            value = extr
    return SeminormResult(
        value=max(value, 0.0), s=s, quadrature_cells=cells,
        estimated_error=est, diverged=False, refinements=tuple(seq),
    )


def spectral_seminorm(eig: EigenSystem, f_values: np.ndarray, s: float) -> float:
    """sum_i lambda_i^s <f, v_i>_n^2 over the computed pairs.

    s = 1 is admitted for the cross-check against the edge-sum Dirichlet form.
    eigensolve returns its near-zero eigenvalues as exact zeros; a negative one
    is refused.
    """
    if not 0.0 < s <= 1.0:
        raise InvalidInputError("s must lie in (0, 1]")
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (eig.n,):
        raise InvalidInputError("f_values must have length n=%d" % eig.n)
    if np.any(eig.values < 0.0):
        raise InvalidInputError("eigenvalue %.3e is negative" % float(eig.values.min()))
    coef = eig.coefficients(f_values)
    return float(np.sum(eig.values ** s * coef * coef))

