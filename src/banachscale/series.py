"""Truncated power series with certified tail bounds.

A `TruncatedSeries` stores exact coefficients for every multi-index I
with |I| <= cap plus one scalar `tail` >= 0 certified at `ref_radius`:
the discarded part h of the represented function satisfies

    sum_{|I| > cap} |h_I| t^|I|  <=  tail * (t / ref_radius)^(cap+1)

for all 0 < t <= ref_radius (Taylor basis; the Fourier basis on a strip
uses weights e^(|k| t) and the rescaling e^((cap+1)(t - ref_radius))).
Operations propagate both the coefficients (exactly, up to float
rounding) and the tail (conservatively), so the majorant norm

    |f|_t  =  sum_|I|<=cap |a_I| t^|I|  +  tail * (t/ref_radius)^(cap+1)

is a true upper bound for the l1 coefficient norm of the represented
function at radius t.  The Hilbert norm on the polydisc,

    |f|_H,t^2 = sum_I |a_I|^2 C(I) t^(2d + 2|I|),   C(I) = pi^d / prod(1 + i_k),

is exact and is the norm in which the degree-cutoff estimate
|[f]_N|_s <= (s/t)^(d+N) |f|_t holds.

`majorant_norm(t)` and `hilbert_norm(t)` return these norms as plain
floats and refuse a radius t outside (0, ref_radius] with SeriesError.

Tail bookkeeping rules worth knowing (each documented at the operation):

* multiply: T_fg = |f|_ref T_g + |g|_ref T_f + overflow of the exact
  product beyond the cap, majorized at ref_radius (the |f|_ref T_g
  cross terms double-count T_f T_g, which keeps the bound safe).  The
  exact product is a 1-D convolution in one variable.  In more
  variables it adds a_I b_J into I + J over the live pairs (|I|, |J| <=
  cap) only, a block of rows I at a time and in row-major (I, J) order,
  so time follows the live pairs, memory one block of them, and no bit
  depends on the block size.  The overflow is summed from the whole
  product, not from a graded bound.  The cross terms are formed only
  when a factor has a tail;
* reciprocal: with c = f(0), u = 1 - f/c and theta = |u|_ref < 1, the
  kept coefficients are those of P = 1/(1 - u_poly) through the cap,
  and T_1/f = T_uP / ((1 - theta) |c|), where T_uP is the tail of
  u.multiply(P): the error (u_poly P)_{>cap} + (u - u_poly) P of
  (1 - u) P = 1 has degree > cap, and dividing it by 1 - u costs at
  most 1/(1 - theta);
* derivative (Taylor only) with tail > 0 must shrink to an explicit smaller radius s:
  the monomialwise Cauchy bound n s^(n-1) (r - s) <= r^n gives
  T' = T / (r - s), and the cap drops by one because the new top
  coefficient depends on an unknown coefficient of f;
* divide_by_coordinate refuses a nonzero z_axis = 0 face, divides the
  tail by ref_radius and likewise drops the cap by one when a tail is
  present;
* at(s) is the series itself when its reference radius is at most s,
  else restrict(s): restricting to its own radius is the identity;
* align(f, g) brings two series to common ground before mixed
  arithmetic: both move to the smaller radius with `at` (a tail
  rescales by its decay factor), then to a common cap.  The tail-free
  side is widened when it has the smaller cap; otherwise the wider side
  is narrowed, folding its dropped coefficients into its tail.

The array-level function `truncated_product` acts on bare coefficient
arrays: `multiply` calls it, and so does a multiplication operator's
step on a tail-free iterate (see `local_ops`).  It cuts the full product
with `_kept_and_tail`, which a vector field's step shares, so `multiply`
and those steps agree bit for bit.

Majorants read their weights t^|I| (e^(|k| t) on a strip) from one
bounded cache keyed by (basis, dim, cap, t), which also holds the
overflow weights of the cap-2cap product grid, and reduce with
np.add.reduce, the reduction np.sum performs (`_weighted_sum`): the
cache changes no bit.  A Borel loop looks its weights up once and
passes them to `_weighted_sum` itself.

Ownership: no two series share a coefficient array.  The constructor
copies its input and refuses NaN coefficients, as `set_coefficient` does;
operations hand fresh arrays to `_owning`, which skips the copy and the
shape and NaN checks, not the tail check or the zero corner.
"""

from __future__ import annotations

import json
import math
import operator
from functools import lru_cache

import numpy as np

__all__ = ["TruncatedSeries", "SeriesError", "align", "truncated_product",
           "DEFAULT_CAP_1D", "DEFAULT_CAP_ND"]

DEFAULT_CAP_1D = 64
DEFAULT_CAP_ND = 16
_ROWS = 64              # live rows I per block of a multivariate product


class SeriesError(ValueError):
    """Domain or compatibility error in a series operation."""


# ---- the basis block: every Taylor/Fourier difference lives here ----
# Taylor: a_I sits at position I of a (cap+1,)*dim cube, with degree |I|
# and weight t^|I|; entries of degree > cap (the cube's corner) stay 0.
# Fourier: mode k sits at position k + cap of a (2 cap + 1,) vector, with
# degree |k| and weight e^(|k| t).

def _shape(basis: str, dim: int, cap: int) -> tuple:
    return (2 * cap + 1,) if basis == "fourier" else (cap + 1,) * dim


@lru_cache(maxsize=128)
def _degrees(basis: str, dim: int, cap: int) -> np.ndarray:
    """Degree of every entry of a cap-`cap` array (shared, read-only)."""
    if basis == "fourier":
        deg = np.abs(np.arange(-cap, cap + 1))
    else:
        deg = np.asarray(np.indices((cap + 1,) * dim).sum(axis=0))
    deg.flags.writeable = False
    return deg


@lru_cache(maxsize=128)
def _above(basis: str, dim: int, cap: int, above: int) -> np.ndarray:
    """Mask of degree > above on a cap-`cap` array (shared, read-only)."""
    mask = _degrees(basis, dim, cap) > above
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=512)
def _weights(basis: str, dim: int, cap: int, t: float,
             above: int = -1) -> np.ndarray:
    """w(deg, t) = t^deg (Taylor) or e^(deg t) (Fourier) on a cap-`cap`
    array, or, for above >= 0, on its entries of degree > above as a
    flat vector (shared, read-only)."""
    deg = _degrees(basis, dim, cap)
    if above >= 0:
        deg = deg[_above(basis, dim, cap, above)]
    w = np.asarray(np.exp(deg * t) if basis == "fourier"
                   else np.power(t, deg, dtype=float))
    w.flags.writeable = False
    return w


def _weighted_sum(coeffs: np.ndarray, w: np.ndarray) -> float:
    """sum |c| w, reduced as np.sum reduces: a vector along its one axis
    (the same bits as the flat reduction, without its axis handling), an
    nd array flat."""
    v = np.abs(coeffs) * w
    return float(np.add.reduce(v) if v.ndim == 1
                 else np.add.reduce(v, axis=None))


def _decay(basis: str, cap: int, r: float, t: float) -> float:
    """Factor by which a cap-`cap` tail certified at r shrinks at t <= r."""
    if basis == "fourier":
        return math.exp((cap + 1) * (t - r))
    return (t / r) ** (cap + 1)


def _window(basis: str, dim: int, cap: int, outer: int) -> tuple:
    """Slices of a cap-`outer` array that hold a cap-`cap` array."""
    if basis == "fourier":
        return (slice(outer - cap, outer + cap + 1),)
    return (slice(0, cap + 1),) * dim


def _position(basis: str, dim: int, cap: int, index) -> tuple:
    """Array position of a coefficient index (Taylor multi-index or
    Fourier mode); SeriesError when the index has the wrong number of
    axes or lies outside the stored array."""
    if isinstance(index, (int, np.integer)):
        index = (int(index),)
    else:
        index = tuple(operator.index(i) for i in index)
    if len(index) != dim:
        raise SeriesError(f"index {index} needs {dim} entries")
    if basis == "fourier":
        if abs(index[0]) > cap:
            raise SeriesError(f"mode {index[0]} beyond cap {cap}")
        return (index[0] + cap,)
    if min(index) < 0 or max(index) > cap:
        raise SeriesError(f"index {index} outside 0..{cap} per axis")
    return index


@lru_cache(maxsize=16)
def _pair_table(dim: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the live entries (|I| <= cap) of a Taylor array
    in `dim` > 1 variables, in row-major order: in the (cap+1)^dim cube
    and in the (2 cap + 1)^dim cube, where I + J sits at the sum of the
    positions of I and J.  Both are O(live), shared and read-only.
    """
    live = np.indices((cap + 1,) * dim).reshape(dim, -1)
    live = live[:, live.sum(axis=0) <= cap]
    src = np.ravel_multi_index(tuple(live), (cap + 1,) * dim)
    dst = np.ravel_multi_index(tuple(live), (2 * cap + 1,) * dim)
    src.flags.writeable = False
    dst.flags.writeable = False
    return src, dst


@lru_cache(maxsize=16)
def _degree_pairs(dim: int, cap: int) -> tuple:
    """The live pairs that build degree d of a reciprocal.

    For each degree d = 1..cap, the flat (cap+1)^dim cube positions of
    I, of J and of I + J over the live pairs with |I| >= 1 and
    |I| + |J| = d, in row-major (I, J) order, found `_ROWS` rows I at a
    time rather than from a live x live array.  Shared and read-only.
    """
    src = _pair_table(dim, cap)[0]
    deg = _degrees("taylor", dim, cap).ravel()[src]
    ij = np.concatenate([np.argwhere(deg[lo:lo + _ROWS, None] + deg <= cap)
                         + (lo, 0) for lo in range(0, src.size, _ROWS)])
    ij = ij[deg[ij[:, 0]] > 0]              # I = 0 feeds no degree
    total = deg[ij].sum(axis=1)
    order = np.argsort(total, kind="stable")
    cut = np.searchsorted(total[order], np.arange(1, cap + 2))
    i, j = src[ij[order].T]
    blocks = tuple((i[lo:hi], j[lo:hi], i[lo:hi] + j[lo:hi])
                   for lo, hi in zip(cut, cut[1:]))
    for a in (a for b in blocks for a in b):
        a.flags.writeable = False
    return blocks


def _full_product(dim: int, cap: int, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """The untruncated product of two cap-`cap` coefficient arrays, as a
    cap-2cap array.  One variable (Taylor or Fourier) is a plain 1-D
    convolution.  In more variables each live pair a_I b_J is added into
    I + J, `_ROWS` rows I at a time, by unbuffered np.add.at, which adds
    in index order: every cell sums its terms from 0 in row-major (I, J)
    order, real and imaginary parts apart, whatever the block size."""
    if dim == 1:
        return np.convolve(a, b)
    src, dst = _pair_table(dim, cap)
    a, b = a.ravel()[src], b.ravel()[src]
    full = np.zeros((2 * cap + 1) ** dim, dtype=complex)
    for lo in range(0, src.size, _ROWS):     # flat operands: the fast path
        np.add.at(full, (dst[lo:lo + _ROWS, None] + dst).ravel(),
                  np.multiply.outer(a[lo:lo + _ROWS], b).ravel())
    return full.reshape((2 * cap + 1,) * dim)


# ---- array-level operations: the methods below and local_ops share them ----

def _kept_and_tail(basis: str, dim: int, cap: int, r: float,
                   full: np.ndarray) -> tuple[np.ndarray, float]:
    """A cap-2cap product array kept through the cap, and the majorant
    at r of what lies beyond it.  One Taylor variable keeps a view of
    `full`, and its overflow is the slice above the cap: the entries,
    in the order, that the degree mask gathers.  An overflow of exact
    zeros weighs 0.0 without the sum, unless a weight overflowed (the
    top one, r^(2 cap), when any does), where 0 inf gives NaN.  In more
    variables the kept array's corner (degree > cap) is not yet zeroed;
    `_owning` does that."""
    w = _weights(basis, dim, 2 * cap, r, cap)
    if basis == "taylor" and dim == 1:
        over = full[cap + 1:]
        tail = _weighted_sum(over, w) if np.count_nonzero(over) \
            or (cap and w[-1] == math.inf) else 0.0
        return full[:cap + 1], tail
    tail = _weighted_sum(full[_above(basis, dim, 2 * cap, cap)], w)
    # a Fourier window is a view; a cube window is copied to free `full`
    return np.ascontiguousarray(full[_window(basis, dim, cap, 2 * cap)]), tail


def truncated_product(basis: str, dim: int, cap: int, r: float,
                      a: np.ndarray, b: np.ndarray
                      ) -> tuple[np.ndarray, float]:
    """The product of two cap-`cap` coefficient arrays kept through the
    cap, and the majorant at r of what lies beyond it: the coefficients
    and the tail `multiply` gives two tail-free series at radius r (see
    `_kept_and_tail`)."""
    return _kept_and_tail(basis, dim, cap, r, _full_product(dim, cap, a, b))


def _derivative_coeffs(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Taylor coefficients of d/dz_axis of the polynomial `coeffs`, at the
    same cap: index i + 1 along axis, times i + 1, lands at i, and the
    top face is +0."""
    cap = coeffs.shape[axis] - 1
    lead = (slice(None),) * axis
    ramp = _degrees("taylor", 1, cap)[1:]   # 1..cap: cached degrees
    out = np.empty_like(coeffs)
    np.multiply(coeffs[lead + (slice(1, None),)],
                ramp.reshape((cap,) + (1,) * (coeffs.ndim - axis - 1)),
                out=out[lead + (slice(0, -1),)])
    out[lead + (-1,)] = 0.0
    return out


@lru_cache(maxsize=64)
def _hilbert_c(dim: int, side: int) -> np.ndarray:
    """C(I) = pi^d / prod_k (1 + i_k) on the coefficient grid."""
    grids = np.indices((side,) * dim).astype(float)
    denom = np.prod(grids + 1.0, axis=0)
    return math.pi ** dim / denom


class TruncatedSeries:
    """Polynomial part + certified scalar tail, Taylor or Fourier basis."""

    __slots__ = ("dim", "cap", "ref_radius", "basis", "coeffs", "tail")

    def __init__(self, dim: int, cap: int, ref_radius: float,
                 basis: str = "taylor", coeffs: np.ndarray | None = None,
                 tail: float = 0.0):
        if basis not in ("taylor", "fourier"):
            raise SeriesError(f"unknown basis {basis!r}")
        if basis == "fourier" and dim != 1:
            raise SeriesError("fourier basis is univariate")
        if dim < 1 or cap < 0:
            raise SeriesError("need dim >= 1 and cap >= 0")
        if not (ref_radius > 0):
            raise SeriesError("ref_radius must be positive")
        if not (tail >= 0):             # NaN fails this test too
            raise SeriesError(f"tail must be nonnegative, got {tail}")
        self.dim = dim
        self.cap = cap
        self.ref_radius = float(ref_radius)
        self.basis = basis
        shape = _shape(basis, dim, cap)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != shape:
                raise SeriesError(f"coefficient shape {coeffs.shape} != {shape}")
            if np.isnan(coeffs).any():
                raise SeriesError("coefficients must not be NaN")
            coeffs = coeffs.copy()
            if dim > 1:         # only a cube has entries of degree > cap
                coeffs[_above(basis, dim, cap, cap)] = 0.0
        self.coeffs = coeffs
        self.tail = float(tail)

    @classmethod
    def _owning(cls, dim: int, cap: int, ref_radius: float, basis: str,
                coeffs: np.ndarray, tail: float) -> "TruncatedSeries":
        if not (tail >= 0):
            raise SeriesError(f"tail must be nonnegative, got {tail}")
        if dim > 1:
            coeffs[_above(basis, dim, cap, cap)] = 0.0
        s = object.__new__(cls)
        s.dim, s.cap, s.basis, s.coeffs = dim, cap, basis, coeffs
        s.ref_radius, s.tail = float(ref_radius), float(tail)
        return s

    # -- constructors --

    @staticmethod
    def zero(dim: int = 1, cap: int = DEFAULT_CAP_1D, ref_radius: float = 1.0,
             basis: str = "taylor") -> "TruncatedSeries":
        return TruncatedSeries(dim, cap, ref_radius, basis)

    @staticmethod
    def monomial(exponents, coeff: complex = 1.0, *, cap: int = DEFAULT_CAP_1D,
                 ref_radius: float = 1.0) -> "TruncatedSeries":
        if isinstance(exponents, int):
            exponents = (exponents,)
        s = TruncatedSeries(len(exponents), cap, ref_radius)
        s.set_coefficient(exponents, coeff)
        return s

    @staticmethod
    def fourier_mode(k: int, coeff: complex = 1.0, *, cap: int = DEFAULT_CAP_1D,
                     strip: float = 1.0) -> "TruncatedSeries":
        s = TruncatedSeries(1, cap, strip, basis="fourier")
        s.set_coefficient(k, coeff)
        return s

    def copy(self) -> "TruncatedSeries":
        return self._owning(self.dim, self.cap, self.ref_radius, self.basis,
                            self.coeffs.copy(), self.tail)

    # -- indexing helpers --

    def coefficient(self, index) -> complex:
        """a_I (Taylor multi-index or int) or c_k (Fourier mode); 0 for a
        Taylor index of total degree > cap inside the stored cube."""
        return complex(self.coeffs[_position(self.basis, self.dim, self.cap,
                                             index)])

    def set_coefficient(self, index, value: complex) -> None:
        pos = _position(self.basis, self.dim, self.cap, index)
        if _degrees(self.basis, self.dim, self.cap)[pos] > self.cap:
            raise SeriesError("index beyond cap")
        if np.isnan(value):
            raise SeriesError("coefficients must not be NaN")
        self.coeffs[pos] = value

    @property
    def is_zero(self) -> bool:
        return self.tail == 0.0 and not np.count_nonzero(self.coeffs)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if (self.dim, self.basis) != (other.dim, other.basis):
            raise SeriesError("mixed dimensions or bases")
        if self.cap != other.cap:
            raise SeriesError("mixed caps")
        if self.ref_radius != other.ref_radius:
            raise SeriesError(
                f"mixed reference radii {self.ref_radius} != {other.ref_radius}"
                " (restrict first)")

    # -- ring operations --

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return self._owning(self.dim, self.cap, self.ref_radius, self.basis,
                            self.coeffs + other.coeffs, self.tail + other.tail)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return self._owning(self.dim, self.cap, self.ref_radius, self.basis,
                            self.coeffs - other.coeffs, self.tail + other.tail)

    def scale(self, c: complex) -> "TruncatedSeries":
        return self._owning(self.dim, self.cap, self.ref_radius, self.basis,
                            self.coeffs * c, self.tail * abs(c))

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1.0)

    def _poly_majorant(self, t: float) -> float:
        """Majorant of the stored coefficients alone, tail excluded."""
        return _weighted_sum(self.coeffs,
                             _weights(self.basis, self.dim, self.cap, t))

    def multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact truncated product.

        `truncated_product` forms the full product of the stored
        coefficients by `_full_product`: np.convolve in one variable,
        otherwise a_I b_J added into I + J over the live pairs (|I|, |J|
        <= cap) in row-major (I, J) order, a block of rows at a time.
        Its overflow, sum_{|K| > cap} |c_K| w_K at ref_radius (w = r^|K|,
        or e^(|k| r) on a strip), is folded into the tail exactly,
        together with the |f_poly| T_g + |g_poly| T_f + T_f T_g cross
        terms when either tail is nonzero.

        The certified norm is submultiplicative at ref_radius.  Below
        ref_radius it stays sound but can exceed |f|_t |g|_t when both
        factors carry tails: the scalar tail model cannot remember that
        tail x tail starts at degree 2 cap + 2.
        """
        self._check_compatible(other)
        r = self.ref_radius
        kept, tail = truncated_product(self.basis, self.dim, self.cap, r,
                                       self.coeffs, other.coeffs)
        if self.tail or other.tail:
            tail = (self._poly_majorant(r) * other.tail
                    + other._poly_majorant(r) * self.tail
                    + self.tail * other.tail) + tail
        return self._owning(self.dim, self.cap, r, self.basis, kept, tail)

    def reciprocal(self) -> "TruncatedSeries":
        """1/f = (1/c) / (1 - u) with c = f(0) and u = 1 - f/c.

        Requires theta = |u|_r < 1 at r = ref_radius (u's tail T_u
        included).  The kept coefficients are those of P = 1/(1 - u_poly)
        through the cap, by the degree recursion

            g_0 = 1,   g_K = sum_{0 < I <= K} u_I g_{K-I}   (|K| <= cap),

        one pass over the live pairs with |I| + |J| <= cap.  Then
        (1 - u_poly) P = 1 - (u_poly P)_{>cap}, so with h = u - u_poly

            1/(1 - u) - P = [(u_poly P)_{>cap} + h P] / (1 - u).

        The bracket has only terms of degree > cap, and its majorant at r
        is at most the overflow of u_poly P plus |P|_r T_u: exactly the
        tail of u.multiply(P).  Dividing by 1 - u costs at most the
        factor 1/(1 - theta) and raises no degree, so the tail of 1/f is
        u.multiply(P).tail / ((1 - theta) |c|), and it decays like
        (t/r)^(cap+1) below r.
        """
        if self.basis != "taylor":
            raise SeriesError("reciprocal implemented for taylor basis")
        origin = (0,) * self.dim
        c = self.coefficient(origin)
        if c == 0:
            raise SeriesError("reciprocal needs a unit constant term")
        u = self.scale(-1.0 / c)
        u.coeffs[origin] += 1.0               # u = 1 - f/c
        # Rounding can leave a ~1e-16 constant term in u; fold it into c so
        # u has exact order >= 1, as the degree recursion below needs.
        eta = complex(u.coeffs[origin])
        if eta != 0:
            u.coeffs[origin] = 0.0
            c = c * (1.0 - eta)
            u = u.scale(1.0 / (1.0 - eta))
        theta = u.majorant_norm(self.ref_radius)
        if theta >= 1.0:
            raise SeriesError(f"not invertible at this radius (theta={theta})")
        dim, cap, r = self.dim, self.cap, self.ref_radius
        uv = u.coeffs.ravel()
        g = np.zeros(uv.size, dtype=complex)
        g[0] = 1.0
        if dim == 1:        # a dot per degree: faster, and no pair table
            for d in range(1, cap + 1):
                g[d] = np.dot(uv[1:d + 1], g[d - 1::-1])
        else:
            for i, j, k in _degree_pairs(dim, cap):
                np.add.at(g, k, uv[i] * g[j])
        g = g.reshape(u.coeffs.shape)
        p = self._owning(dim, cap, r, "taylor", g, 0.0)
        tail = u.multiply(p).tail / (1.0 - theta)
        return self._owning(dim, cap, r, "taylor", g * (1.0 / c),
                            tail / abs(c))

    # -- norms --

    def majorant_norm(self, t: float) -> float:
        if not (0.0 < t <= self.ref_radius):
            raise SeriesError(f"radius {t} outside (0, {self.ref_radius}]")
        return self._poly_majorant(t) + self.tail * _decay(
            self.basis, self.cap, self.ref_radius, t)

    def hilbert_norm(self, t: float) -> float:
        if self.basis != "taylor":
            raise SeriesError("hilbert norm defined for taylor basis")
        if self.tail != 0.0:
            raise SeriesError("hilbert norm needs an exact polynomial (tail 0)")
        if not (0.0 < t <= self.ref_radius):
            raise SeriesError(f"radius {t} outside (0, {self.ref_radius}]")
        deg = _degrees(self.basis, self.dim, self.cap)
        c = _hilbert_c(self.dim, self.cap + 1)
        sq = np.sum(np.abs(self.coeffs) ** 2 * c
                    * np.power(t, 2 * self.dim + 2 * deg, dtype=float))
        return math.sqrt(sq)

    # -- calculus --

    def derivative(self, axis: int = 0, *, at: float | None = None
                   ) -> "TruncatedSeries":
        """d/dz_axis of a Taylor series.

        Exact when tail == 0.  With a tail the result lives at a strictly
        smaller radius `at` (default: the worst-case maximizer
        ref_radius * cap / (cap + 1)) and the tail propagates as described
        in the module docstring.
        """
        if self.basis != "taylor":
            raise SeriesError("derivative implemented for taylor basis")
        if self.tail > 0.0 and at is None:
            at = self.ref_radius * self.cap / (self.cap + 1)
        if not (0 <= axis < self.dim):
            raise SeriesError("axis out of range")
        coeffs = _derivative_coeffs(self.coeffs, axis)
        if self.tail == 0.0:
            return self._owning(self.dim, self.cap, self.ref_radius,
                                "taylor", coeffs, 0.0)
        if at is None or not (0.0 < at < self.ref_radius):
            raise SeriesError("derivative of a tailed series needs at < ref")
        if self.cap == 0:
            raise SeriesError("cap too small to differentiate a tailed series")
        new_cap = self.cap - 1
        corner = _window(self.basis, self.dim, new_cap, self.cap)
        return self._owning(self.dim, new_cap, at, "taylor", coeffs[corner],
                            self.tail / (self.ref_radius - at))

    def divide_by_coordinate(self, axis: int = 0) -> "TruncatedSeries":
        """f / z_axis for f whose z_axis = 0 face is exactly zero; a
        nonzero face coefficient is refused."""
        if self.basis != "taylor":
            raise SeriesError("coordinate division is a taylor operation")
        if not (0 <= axis < self.dim):
            raise SeriesError("axis out of range")
        face = np.take(self.coeffs, 0, axis=axis)
        if np.any(face):
            raise SeriesError(f"not divisible: face coefficient "
                              f"{np.abs(face).max():g} is nonzero")
        coeffs = self._shifted_down(axis)
        new_tail = self.tail / self.ref_radius
        if self.tail > 0.0:
            if self.cap == 0:
                raise SeriesError("cap too small to divide a tailed series")
            new_cap = self.cap - 1
            corner = _window(self.basis, self.dim, new_cap, self.cap)
            return self._owning(self.dim, new_cap, self.ref_radius, "taylor",
                                coeffs[corner], new_tail)
        return self._owning(self.dim, self.cap, self.ref_radius, "taylor",
                            coeffs, new_tail)

    def _shifted_down(self, axis: int) -> np.ndarray:
        """Taylor coefficients of (f - f|_{z_axis = 0}) / z_axis: every
        index lowered by one along axis, zeros on the top face."""
        src = [slice(None)] * self.dim
        dst, top = list(src), list(src)
        src[axis], dst[axis], top[axis] = slice(1, None), slice(0, -1), -1
        out = np.empty_like(self.coeffs)
        out[tuple(dst)] = self.coeffs[tuple(src)]
        out[tuple(top)] = 0.0
        return out

    def cutoff(self, lo: int, hi: int | None = None) -> "TruncatedSeries":
        """Keep degrees (Taylor: total degree, Fourier: |k|) in [lo, hi).

        hi = None keeps everything from lo up, including the tail; a
        finite hi yields an exact polynomial window (tail dropped with the
        discarded high part).
        """
        deg = _degrees(self.basis, self.dim, self.cap)
        mask = deg >= lo if hi is None else (deg >= lo) & (deg < hi)
        coeffs = np.where(mask, self.coeffs, 0.0)
        tail = self.tail if hi is None else 0.0
        return TruncatedSeries(self.dim, self.cap, self.ref_radius, self.basis,
                               coeffs, tail)

    def order(self, tol: float = 0.0) -> int:
        """Smallest degree carrying a coefficient above tol in modulus (by
        default, a nonzero one); cap+1 when there is none at this cap."""
        deg = _degrees(self.basis, self.dim, self.cap)
        big = np.abs(self.coeffs) > tol
        if not np.any(big):
            return self.cap + 1
        return int(deg[big].min())

    def shift(self, c: complex) -> "TruncatedSeries":
        """f(z + c) for univariate Taylor polynomials (tail must be 0).

        Exact binomial re-expansion; the new reference radius is
        ref_radius - |c| so the represented disc stays inside the old one.
        """
        if self.basis != "taylor" or self.dim != 1:
            raise SeriesError("shift is univariate taylor only")
        if self.tail != 0.0:
            raise SeriesError("shift needs an exact polynomial (tail 0)")
        if not (abs(c) < self.ref_radius):
            raise SeriesError("|c| must be below ref_radius")
        n = self.cap
        out = np.zeros(n + 1, dtype=complex)
        for m in range(n + 1):
            # g_m = sum_{j>=m} C(j, m) a_j c^(j-m)
            acc = 0.0 + 0.0j
            cp = 1.0 + 0.0j
            for j in range(m, n + 1):
                acc += math.comb(j, m) * complex(self.coeffs[j]) * cp
                cp *= c
            out[m] = acc
        new_ref = self.ref_radius - abs(c)
        return TruncatedSeries(1, n, new_ref, "taylor", out, 0.0)

    def with_cap(self, new_cap: int) -> "TruncatedSeries":
        """Re-truncate at a different degree cap.

        Raising the cap needs tail == 0 (the scalar tail certifies decay
        from its own cap and cannot be promoted).  Lowering the cap folds
        the dropped coefficients, majorized at ref_radius, into the tail;
        the old tail transfers unchanged since it decays faster than the
        new claim requires.
        """
        if new_cap == self.cap:
            return self.copy()
        if new_cap < 0:
            raise SeriesError("cap must be nonnegative")
        if new_cap > self.cap:
            if self.tail != 0.0:
                raise SeriesError("cannot widen the cap of a tailed series")
            wide = np.zeros(_shape(self.basis, self.dim, new_cap), complex)
            wide[_window(self.basis, self.dim, self.cap, new_cap)] = \
                self.coeffs
            return self._owning(self.dim, new_cap, self.ref_radius,
                                self.basis, wide, 0.0)
        drop = _above(self.basis, self.dim, self.cap, new_cap)
        r = self.ref_radius
        extra = _weighted_sum(self.coeffs[drop], _weights(
            self.basis, self.dim, self.cap, r, new_cap))
        # as in multiply, _owning zeroes the window's corner
        kept = self.coeffs[_window(self.basis, self.dim, new_cap, self.cap)]
        return self._owning(self.dim, new_cap, r, self.basis, kept.copy(),
                            self.tail + extra)

    def restrict(self, s: float) -> "TruncatedSeries":
        """Move the reference radius down to s; coefficients unchanged,
        tail rescaled by its certified decay factor."""
        if not (0.0 < s <= self.ref_radius):
            raise SeriesError(f"cannot restrict {self.ref_radius} -> {s}")
        if s == self.ref_radius:
            return self.copy()
        factor = _decay(self.basis, self.cap, self.ref_radius, s)
        return self._owning(self.dim, self.cap, s, self.basis,
                            self.coeffs.copy(), self.tail * factor)

    def at(self, s: float) -> "TruncatedSeries":
        """This series read at radius s: itself when its reference radius
        is at most s, else `restrict(s)`, which refuses s <= 0 or NaN."""
        return self if self.ref_radius <= s else self.restrict(s)

    # -- serialization --

    def to_json_dict(self) -> dict:
        # index = array position minus the position of the zero index
        origin = _position(self.basis, self.dim, self.cap, (0,) * self.dim)
        entries = []
        it = np.nditer(self.coeffs, flags=["multi_index"])
        for v in it:
            c = complex(v)
            if c != 0:
                idx = [p - o for p, o in zip(it.multi_index, origin)]
                entries.append(idx + [c.real, c.imag])
        return {
            "dim": self.dim,
            "cap": self.cap,
            "ref_radius": self.ref_radius,
            "basis": self.basis,
            "coeffs": entries,
            "tail": self.tail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "TruncatedSeries":
        s = TruncatedSeries(d["dim"], d["cap"], d["ref_radius"], d["basis"],
                            tail=d["tail"])
        for entry in d["coeffs"]:
            idx, re, im = entry[:-2], entry[-2], entry[-1]
            s.set_coefficient(idx, complex(re, im))
        return s

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self.coeffs))
        return (f"TruncatedSeries(dim={self.dim}, cap={self.cap}, "
                f"ref={self.ref_radius:g}, basis={self.basis}, "
                f"nonzero={nz}, tail={self.tail:g})")


def align(f: TruncatedSeries, g: TruncatedSeries
          ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Bring f and g to a common reference radius and cap (see the module
    docstring): the smaller radius first, then the tail-free side widens
    to the other cap, or else the wider side folds down into its tail.
    A side that already fits is returned as is."""
    r = min(f.ref_radius, g.ref_radius)
    f, g = f.at(r), g.at(r)
    if f.cap < g.cap:
        if f.tail == 0.0:
            return f.with_cap(g.cap), g
        return f, g.with_cap(f.cap)
    if g.cap < f.cap:
        if g.tail == 0.0:
            return f, g.with_cap(f.cap)
        return f.with_cap(g.cap), g
    return f, g
