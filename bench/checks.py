"""Reference checks, computed apart from the program.

Each check receives one op's inputs and output and raises CheckError
when the output disagrees with a reference that does not call the
routine under test: closed forms evaluated in mpmath at 50 digits, a
numpy power-series Newton solve, or an index-pair accumulation of a
product.  Tolerances are rounding allowances fixed in advance, not
fitted to observed errors: gamma(n) = n u / (1 - n u) with u = 2^-53,
the bound for an n-term float sum (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3), for products and sums; (cap + 1) u times
the reference's size for the series solves; 4 ulp for the circle
correction.

The checks run outside the timed phase, on the first round's outputs;
later rounds are compared with the first byte for byte.
"""

from __future__ import annotations

import math
import re

import numpy as np

from banachscale import demos
from banachscale.series import TruncatedSeries

U = 2.0 ** -53


class CheckError(AssertionError):
    """An op's output disagrees with its reference."""


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _mp():
    import mpmath
    mpmath.mp.dps = 50
    return mpmath


# ---- engines ----

def _capture_conjugacy(replay):
    """Re-run a demo and keep the conjugacy its run_lie call built."""
    captured = []
    original = demos.run_lie

    def capture(*args, **kwargs):
        trace, conjugacy = original(*args, **kwargs)
        captured.append(conjugacy)
        return trace, conjugacy

    demos.run_lie = capture
    try:
        report = replay()
    finally:
        demos.run_lie = original
    return report, captured[-1]


def normalizing_map(r0: np.ndarray, k: int, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of psi = z + O(z^2) with psi^k + r0(psi) = z^k.

    Newton's method on power series, truncated at degree n + k - 1 so
    that the division by F'(psi) = z^(k-1) * unit loses no coefficient
    below n; each step doubles the number of correct coefficients.
    """
    from scipy.linalg import solve_triangular, toeplitz

    size = n + k
    r = np.trim_zeros(np.asarray(r0, dtype=complex)[:size], "b")
    dr = np.arange(1, len(r)) * r[1:]

    def mul(a, b):
        return np.convolve(a, b)[:size]

    def power(a, m):
        out = np.zeros(size, dtype=complex)
        out[0] = 1.0
        for _ in range(m):
            out = mul(out, a)
        return out

    def compose(c, p):
        out = np.zeros(size, dtype=complex)
        for cj in c[::-1]:
            out = mul(out, p)
            out[0] += cj
        return out

    psi = np.zeros(size, dtype=complex)
    psi[1] = 1.0
    m = size - (k - 1)
    for _ in range(int(math.log2(size)) + 4):
        F = power(psi, k) + compose(r, psi)
        F[k] -= 1.0
        D = k * power(psi, k - 1) + compose(dr, psi)
        T = np.tril(toeplitz(D[k - 1:k - 1 + m]))
        psi[:m] -= solve_triangular(T, F[k - 1:k - 1 + m], lower=True)
    return psi[:n]


def lie_conjugacy(out, replay, r0: TruncatedSeries, *, k: int,
                  t: float) -> None:
    """A z^k demo: the run's conjugacy applied to the coordinate z gives
    the normalizing map psi of f + r0."""
    report, text = out
    again, conjugacy = _capture_conjugacy(replay)
    _require(again.trace.to_json() == text,
             f"{report.name}: replayed trace differs from the timed run")
    cap = r0.cap
    z = TruncatedSeries.monomial(1, 1.0, cap=cap, ref_radius=t)
    psi, _ = conjugacy.apply(z)
    ref = normalizing_map(r0.coeffs, k, cap + 1)
    n = min(len(psi.coeffs), cap + 1)
    err = float(np.max(np.abs(psi.coeffs[:n] - ref[:n])))
    # psi_0 = 0 and psi_1 = 1 are exact; rounding acts on the part of
    # size max |psi_j|, j >= 2, through at most cap + 1 operations.
    tol = (cap + 1) * U * float(np.max(np.abs(ref[2:])))
    _require(err <= tol, f"{report.name}/{cap}: conjugacy applied to z is "
             f"off the normalizing map by {err:.3g} > {tol:.3g}")


def morse_orders(report) -> None:
    orders = report.details["orders"]
    for a, b in zip(orders, orders[1:]):
        _require(b >= 2 * a - 2, f"morse orders {orders} do not double")


def circle_correction(report, eps: float) -> None:
    """lambda_correction equals (sqrt(a^2 - b^2) - a) / 2 with
    a = 2 pi omega and b = 2 eps, to a few ulps of a."""
    mpmath = _mp()
    a = 2.0 * math.pi * demos.GOLDEN_MEAN
    ma, mb = mpmath.mpf(a), 2 * mpmath.mpf(eps)
    ref = (mpmath.sqrt(ma * ma - mb * mb) - ma) / 2
    got = report.details["lambda_correction"]
    err = abs(mpmath.mpf(got) - ref)
    tol = 4 * np.spacing(a)
    _require(err <= tol, f"circle eps={eps!r}: lambda correction {got!r} "
             f"off by {float(err):.3g} > {tol:.3g}")


def nashmoser(trace, coeff: float) -> None:
    """x_final solves u + u^2 = c z: (sqrt(1 + 4 c z) - 1) / 2, whose
    coefficients are (-1)^(n-1) Catalan(n-1) c^n."""
    x = TruncatedSeries.from_json_dict(trace.metadata["x_final"])
    ref = np.zeros(x.cap + 1)
    for n in range(1, x.cap + 1):
        catalan = math.comb(2 * (n - 1), n - 1) // n
        ref[n] = (-1.0) ** (n - 1) * float(catalan) * coeff ** n
    r = x.ref_radius
    weights = np.power(r, np.arange(x.cap + 1), dtype=float)
    err = float(np.sum(np.abs(x.coeffs - ref) * weights)) + x.tail
    tol = (x.cap + 1) * U * float(np.sum(np.abs(ref) * weights))
    _require(err <= tol, f"nashmoser c={coeff!r}: x_final off by "
             f"{err:.3g} > {tol:.3g} at radius {r}")


# ---- products ----

def _live(dim: int, cap: int) -> np.ndarray:
    idx = np.indices((cap + 1,) * dim).reshape(dim, -1).T
    return idx[idx.sum(axis=1) <= cap]


def pair_product(a: np.ndarray, b: np.ndarray, dim: int, cap: int,
                 chunk: int = 1 << 17):
    """Full product of two total-degree-truncated coefficient arrays by
    accumulating every index pair (I, J) into I + J, in chunks.

    Returns the product on the (2 cap + 1)^dim grid and, per entry, the
    sum of |a_I| |b_J| over its pairs (the rounding-bound weight).
    """
    live = _live(dim, cap)
    side = 2 * cap + 1
    cells = side ** dim
    ai = a[tuple(live.T)]
    bj = b[tuple(live.T)]
    flat = np.ravel_multi_index(tuple(live.T), (side,) * dim)
    re = np.zeros(cells)
    im = np.zeros(cells)
    mag = np.zeros(cells)
    rows = max(1, chunk // len(live))
    for s in range(0, len(live), rows):
        e = min(len(live), s + rows)
        k = (flat[s:e, None] + flat[None, :]).ravel()
        p = (ai[s:e, None] * bj[None, :]).ravel()
        re += np.bincount(k, p.real, cells)
        im += np.bincount(k, p.imag, cells)
        mag += np.bincount(k, np.abs(p), cells)
    shape = (side,) * dim
    return (re + 1j * im).reshape(shape), mag.reshape(shape)


def _degrees(dim: int, side: int) -> np.ndarray:
    return np.indices((side,) * dim).sum(axis=0)


def product(a: TruncatedSeries, b: TruncatedSeries,
            out: TruncatedSeries) -> None:
    """Kept coefficients and the overflow majorant folded into the tail
    agree with the pair accumulation within 2 gamma_n sum |a_I||b_J|
    (both sides round; n = terms per entry, plus 2 for the complex
    product)."""
    dim, cap, r = a.dim, a.cap, a.ref_radius
    _require((out.dim, out.cap, out.ref_radius) == (dim, cap, r),
             "product changed dim, cap or radius")
    full, mag = pair_product(a.coeffs, b.coeffs, dim, cap)
    deg = _degrees(dim, 2 * cap + 1)
    keep = deg <= cap
    corner = tuple(slice(0, cap + 1) for _ in range(dim))
    g = gamma((cap + 1) ** dim + 2)
    err = np.abs(out.coeffs - np.where(keep, full, 0.0)[corner])
    _require(bool(np.all(err <= 2.0 * g * mag[corner])),
             f"product d{dim}c{cap}: kept coefficient off by "
             f"{float(err.max()):.3g}")
    weights = np.power(r, deg[~keep], dtype=float)
    overflow = float(np.sum(np.abs(full[~keep]) * weights))
    tol = (2.0 * g * float(np.sum(mag[~keep] * weights))
           + 2.0 * gamma(full.size) * overflow)
    _require(abs(out.tail - overflow) <= tol,
             f"product d{dim}c{cap}: tail {out.tail!r} != overflow "
             f"{overflow!r} (tol {tol:.3g})")


def reciprocal(f: TruncatedSeries, g: TruncatedSeries) -> None:
    """f (1/f) - 1 vanishes through the cap within gamma_n sum |f_I||g_J|."""
    dim, cap = f.dim, f.cap
    _require((g.dim, g.cap) == (dim, cap), "reciprocal changed dim or cap")
    full, mag = pair_product(f.coeffs, g.coeffs, dim, cap)
    corner = tuple(slice(0, cap + 1) for _ in range(dim))
    keep = _degrees(dim, cap + 1) <= cap
    defect = np.where(keep, full[corner], 0.0)
    defect[(0,) * dim] -= 1.0
    tol = gamma((cap + 1) ** dim + 2) * mag[corner]
    _require(bool(np.all(np.abs(defect) <= tol)),
             f"reciprocal d{dim}c{cap}: f (1/f) - 1 reaches "
             f"{float(np.abs(defect).max()):.3g}")
    _require(g.tail >= 0.0, "reciprocal tail is negative")


# ---- schedules ----

def _field(text: str, pattern: str) -> str:
    m = re.search(pattern, text)
    _require(m is not None, f"missing {pattern!r} in output {text!r}")
    return m.group(1)


def _log_transform(family: str, x: float, n: int, mpmath):
    """Closed-form log a^pi_n: geometric q gives -(n+1) log q,
    exp_power(+1, alpha) gives -alpha^n / (2 - alpha)."""
    x = mpmath.mpf(x)
    if family == "geometric":
        return -(n + 1) * mpmath.log(x)
    return -x ** n / (2 - x)


def bruno_transform_text(text: str, family, n: int) -> None:
    mpmath = _mp()
    lo = float(_field(text, r"enclosure \[([^,]+),"))
    hi = float(_field(text, r"enclosure \[[^,]+, ([^\]]+)\]"))
    _require(_field(text, r"rigorous (\w+)") == "True", "not rigorous")
    exact = mpmath.exp(_log_transform(family[0], family[1], n, mpmath))
    _require(mpmath.mpf(lo) <= exact <= mpmath.mpf(hi),
             f"a^pi_{n} of {family} = {mpmath.nstr(exact, 17)} is outside "
             f"[{lo!r}, {hi!r}]")


def bruno_check_text(text: str, q: float) -> None:
    """For geometric q, sum_k |log a_k| / 2^(k+1) = log q; the partial
    sum stays below it and the partial sum plus the tail bound above."""
    mpmath = _mp()
    _require(_field(text, r"verdict (\w+)") == "bruno", "verdict not bruno")
    partial = mpmath.mpf(float(_field(text, r"partial sum (\S+)")))
    tail = mpmath.mpf(float(_field(text, r"tail bound (\S+)")))
    exact = mpmath.log(mpmath.mpf(q))
    slack = gamma(64) * exact
    _require(partial <= exact + slack and exact <= partial + tail + slack,
             f"bruno check q={q!r}: log q not in [partial, partial + tail]")


def _tame_logs(alpha: float, scale: float, n: int, mpmath):
    log_a = mpmath.mpf(alpha) ** n
    log_b = mpmath.log(mpmath.mpf(scale)) - mpmath.mpf(1.5) ** n
    return log_a, log_b


def tame_text(text: str, alpha: float, scale: float) -> None:
    mpmath = _mp()
    star = all(
        _tame_logs(alpha, scale, n, mpmath)[0]
        + 2 * _tame_logs(alpha, scale, n, mpmath)[1]
        <= _tame_logs(alpha, scale, n + 1, mpmath)[1]
        for n in range(60))
    printed = _field(text, r"on window 60: (\w+)") == "True"
    _require(printed == star, f"tame pair (*) printed {printed}, "
             f"reference {star}")
    for label in ("a >= 1", "b <= 1", "b -> 0"):
        _require(_field(text, re.escape(label) + r": (\w+)") == "True",
                 f"tame: {label} not True")


def model_text(text: str, alpha: float, scale: float, x0: float) -> None:
    """x_(n+1) = (a_n x_n^2 + b_n x_n) / 2 for 100 steps in mpmath: the
    envelope x_n <= b_n holds and the final x matches."""
    mpmath = _mp()
    x = mpmath.mpf(x0)
    bounded = True
    for n in range(101):
        log_a, log_b = _tame_logs(alpha, scale, n, mpmath)
        b = mpmath.exp(log_b)
        bounded = bounded and x <= b
        if n == 100:
            break
        x = (mpmath.exp(log_a) * x * x + b * x) / 2
    final = float(_field(text, r"final x (\S+)"))
    _require(_field(text, r"bounded by b: (\w+)") == str(bounded),
             "model: envelope verdict differs from the reference")
    _require(abs(final - float(x)) <= 1e-12 * float(x),
             f"model: final x {final!r} != {float(x)!r}")


def rho_text(text: str) -> None:
    mpmath = _mp()
    rho0 = float(_field(text, r"rho_0 (\S+)"))
    sigma0 = float(_field(text, r"sigma_0 (\S+)"))
    # rho_0 may print as 0: the value underflows, its log does not
    _require(0.0 <= rho0 < 1.0, f"rho_0 = {rho0!r} outside [0, 1)")
    exact = 1 - mpmath.mpf(rho0)
    _require(abs(mpmath.mpf(sigma0) - exact) <= 2 * U,
             f"sigma_0 = {sigma0!r} != 1 - rho_0")
    for label in (r"pair \(\*\) holds", r"rho a' sigma\^-l < b"):
        _require(_field(text, label + r": (\w+)") == "True",
                 f"rho: {label} not True")


def _rho_sigma_logs(rho, sigma, count: int, mpmath):
    """log rho_n and log sigma_n at 50 digits from the returned rho and
    sigma."""
    lr = [mpmath.mpf(rho.log(n)) for n in range(count)]
    ls = [mpmath.log(mpmath.mpf(sigma.value(n))) for n in range(count)]
    return lr, ls


def lemma_rho(out, a, aprime: float, beta: float, k: int, l: int) -> None:
    """Both conclusions of lemma_rho on its window, recomputed from the
    returned rho and sigma: the pair (A_n, B_n) = (a_n sigma_n^-k,
    rho_n a'_n sigma_n^-l) obeys A_n B_n^2 <= B_(n+1), and B_n < b_n."""
    mpmath = _mp()
    rho, sigma, report = out
    _require(report.passed, "lemma_rho report does not pass")
    window = report.window
    lr, ls = _rho_sigma_logs(rho, sigma, window + 1, mpmath)
    family, x = a
    x = mpmath.mpf(x)
    log_c = mpmath.log(mpmath.mpf(aprime))

    def log_a(n):
        return n * mpmath.log(x) if family == "geometric" else x ** n

    def log_B(n):
        return lr[n] + log_c - l * ls[n]

    for n in range(window):
        _require(log_a(n) - k * ls[n] + 2 * log_B(n) <= log_B(n + 1),
                 f"lemma_rho: pair (*) fails at n = {n}")
        _require(log_B(n) < -mpmath.mpf(beta) ** n,
                 f"lemma_rho: rho a' sigma^-l < b fails at n = {n}")


def rho_schedule(out, problem, j_const: float, t: float) -> None:
    """The schedule conditions that involve only rho, |j| and |kappa|
    (linear branch, exponential smallness, n-range), recomputed at 50
    digits from the returned rho and sigma; the radii start at t, fall
    strictly and stay above the reported limit."""
    mpmath = _mp()
    report = out.report
    _require(report.passed, "rho_schedule report does not pass")
    window = report.window
    lr, ls = _rho_sigma_logs(out.rho, out.sigma, window + 1, mpmath)
    l = problem.exponents.l
    log_j = mpmath.log(mpmath.mpf(j_const))
    log_4e = mpmath.log(4) + 1
    kappa = problem.kappa_norms
    for n in range(window):
        if kappa is not None:
            log_a4 = mpmath.log(4) + mpmath.mpf(kappa.log(n))
            _require(log_a4 - l * ls[n] + lr[n] <= lr[n + 1] / 2,
                     f"rho_schedule: linear branch fails at n = {n}")
        _require(log_4e + log_j - ls[n] + lr[n] / 2 <= lr[n + 1] / 4,
                 f"rho_schedule: exp smallness fails at n = {n}")
        _require(lr[n] / 4 < -n * mpmath.log(2),
                 f"rho_schedule: n-range fails at n = {n}")
    radii = [out.radii.radius(n) for n in range(window + 2)]
    limit = out.radii.limit
    _require(radii[0] == t, "radius schedule does not start at t")
    _require(all(b < a for a, b in zip(radii, radii[1:])),
             "radii do not fall strictly")
    _require(limit > 0.0 and radii[-1] > limit,
             f"radii fall below the reported limit {limit!r}")


def taming(out: float, spec, depth: int) -> None:
    """The window infimum of 2 log a^pi_n is attained at n = depth for
    these increasing families; the result is a lower bound for it and
    loses at most the float rounding of the depth + 1 term sums."""
    mpmath = _mp()
    exact = 2 * _log_transform(spec[0], spec[1], depth, mpmath)
    slack = 2 * gamma(depth + 2) * abs(exact) + 32 * U * (abs(exact) + 1)
    _require(out <= exact,
             f"taming {spec} depth {depth}: {out!r} above the exact "
             f"{mpmath.nstr(exact, 17)}")
    _require(out >= exact - slack,
             f"taming {spec} depth {depth}: {out!r} far below the exact "
             f"{mpmath.nstr(exact, 17)}")
