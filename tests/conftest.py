"""Shared oracles for the test suite.

The reference values here are computed by methods independent of the
package's own quadrature: a plain midpoint rule in the polar angle, and
mpmath's adaptive tanh-sinh integration at elevated precision with interval
splits computed in that same precision.
"""

import math

import numpy as np


def zonal_weight_constant(n):
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


def brute_zonal_midpoint(n, f, points=2_000_001):
    """Uniform midpoint rule in theta for the zonal surface integral."""
    theta = (np.arange(points) + 0.5) * (math.pi / points)
    vals = np.asarray(f(np.cos(theta)), dtype=float)
    h = math.pi / points
    return zonal_weight_constant(n) * h * float(np.sum(vals * np.sin(theta) ** (n - 2)))


def mp_zonal(n, f_mp, split=(), dps=30, root=None):
    """High-precision zonal integral; ``split`` lists interior break values
    of t (as exact mpf expressions or floats promoted exactly).  With
    ``root`` its root-th root, taken in mpmath precision: a q-th power's
    integral can leave double range where its root does not."""
    from mpmath import mp

    old = mp.dps
    mp.dps = dps
    try:
        c_n = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma((mp.mpf(n) - 1) / 2))
        expo = (mp.mpf(n) - 3) / 2
        points = [mp.mpf(-1)] + [mp.mpf(s) for s in split] + [mp.mpf(1)]
        total = mp.mpf(0)
        for lo, hi in zip(points, points[1:]):
            total += mp.quad(lambda t: f_mp(t) * (1 - t * t) ** expo, [lo, hi])
        total *= c_n
        return float(total if root is None else total ** (1 / mp.mpf(root)))
    finally:
        mp.dps = old


def mp_christoffel(n, order, t, dps=40):
    """Weight of the Gauss-Jacobi zonal rule of ``order`` nodes at the node
    nearest t: Newton's method from t on p_order, then 1 / sum_{k < order}
    p_k^2, all on the orthonormal recurrence of c_n (1-t^2)^((n-3)/2) dt in
    mpmath precision."""
    from mpmath import mp

    with mp.workdps(dps):
        b = [mp.sqrt(mp.mpf(k * (k + n - 3)) / ((2 * k + n - 3) ** 2 - 1)) for k in range(1, order + 1)]
        x = mp.mpf(t)
        for _ in range(2):  # a double node is within 1e-16: 1e-32 after one step
            p_prev, p, dp_prev, dp, total = 0, mp.mpf(1), 0, mp.mpf(0), mp.mpf(0)
            for b_k, b_next in zip([0] + b[:-1], b):
                total += p * p
                p, p_prev, dp, dp_prev = ((x * p - b_k * p_prev) / b_next, p,
                                          (p + x * dp - b_k * dp_prev) / b_next, dp)
            x -= p / dp
        return float(1 / total)


def mp_kernel(n, r, t):
    """Kernel value in mpmath arithmetic; r is promoted exactly from float."""
    from mpmath import mp

    rr = mp.mpf(r)
    return ((1 - rr * rr) / (1 + rr * rr - 2 * rr * t)) ** (n - 1)


def mp_crossing(n, r, a):
    """Crossing point of the kernel with level a, in mpmath precision.

    Both r and a are float64 inputs promoted exactly, so this is the true
    crossing of the function the double-precision code integrates.
    """
    from mpmath import mp

    rr = mp.mpf(r)
    aa = mp.mpf(a)
    return (1 + rr * rr) / (2 * rr) - (1 - rr * rr) / (2 * rr) * aa ** (mp.mpf(1) / (1 - n))


def count_f_evals(monkeypatch):
    """Hook the shift solves' F evaluations (solver._f_and_slope, plain and
    with the slope, at s = log a: one point of a lone solve, or every open
    solve of a sweep in one stacked pass); the returned list gets one entry
    per F, the number of the pass it came in (``f_passes`` counts them)."""
    from hypschwarz import solver

    calls = []
    real = solver._f_and_slope

    def counted(n, order, points, *args, **kwargs):
        counted.passes += 1
        calls.extend([counted.passes] * len(points))
        return real(n, order, points, *args, **kwargs)

    counted.passes = 0
    monkeypatch.setattr(solver, "_f_and_slope", counted)
    return calls


def solve_from(ctx, r, order, start, width):
    """(s, F(s)) at the root s = log a* of F(r, .) from a solve started at
    the log guess ``start`` (None: cold) with first step ``width``: the
    steps of solver._steps driven one F at a time through
    solver._f_and_slope, which a test may hook."""
    from hypschwarz import quadrature, solver

    with quadrature._overflow_guard():
        steps = solver._steps(ctx, r, order, start, width)
        try:
            point = next(steps)
            while True:
                point = steps.send(solver._f_and_slope(ctx.n, order, [point])[0])
        except StopIteration as solved:
            return solved.value


def f_passes(calls):
    """The number of F passes among the entries of ``count_f_evals``' list."""
    return len(set(calls))


def count_site_builds(monkeypatch):
    """Hook the building of kernel sites: a lone site (``quadrature._site``
    on a miss) or a stack's rows (``quadrature._new_sites``) each take their
    radius's kernel constants once, and nothing else in quadrature does; the
    returned list gets one entry per site built."""
    from hypschwarz import quadrature

    built = []
    real = quadrature._kernel_constants
    monkeypatch.setattr(quadrature, "_kernel_constants", lambda r: built.append(r) or real(r))
    return built


def avx512_targets():
    """The AVX512 targets numpy reports enabled here, for the messages of
    exact count pins: those pins are the counts of AVX512 dispatch (ROADMAP
    item 27), and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
    drops AVX512_SKX, AVX512_ICL and AVX512_SPR from the list."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x, whose numpy.core is not yet deprecated
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, enabled in __cpu_features__.items() if enabled and name.startswith("AVX512"))


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def mp_g_2(n, r, dps=60):
    """G_2(r) from its defining hypergeometric form, r promoted exactly."""
    from mpmath import mp

    with mp.workdps(dps):
        rr = mp.mpf(r)
        z = rr * rr
        moment = (1 - z) ** (2 * n - 2) * mp.hyp2f1(2 * n - 2, mp.mpf(3 * n - 2) / 2, mp.mpf(n) / 2, z)
        return float(mp.sqrt(moment - 1))


def mp_g_inf(n, r, dps=60):
    """G_inf(r) from its defining hypergeometric form, r promoted exactly."""
    from mpmath import mp

    with mp.workdps(dps):
        rr = mp.mpf(r)
        w = (2 * rr / (1 + rr * rr)) ** 2
        pref = (
            2 ** n * rr * (1 - rr * rr) ** (n - 1) * mp.gamma(mp.mpf(n) / 2) ** 2
            / (mp.pi * (1 + rr * rr) ** n * mp.gamma(n - 1))
        )
        return float(pref * mp.hyp2f1(1, mp.mpf(n) / 2, mp.mpf(3) / 2, w))


def mp_cap_pair(n, r, index, dps=60):
    """The cap pair u_i(r axis) in mpmath, r promoted exactly: the normalized
    measures I_x((n-1)/2, (n-1)/2), x = sin^2(angle/2), of the caps the
    Moebius map takes the pair to, x = rho^2 s / (1 - s + rho^2 s) and
    s / (rho^2 (1 - s) + s) for the caps of x = s = 1/(4 i^2), over twice
    the measure of the cap itself; rho = (1 + r)/(1 - r)."""
    from mpmath import mp

    with mp.workdps(dps):
        rho2 = ((1 + mp.mpf(r)) / (1 - mp.mpf(r))) ** 2
        s = 1 / (4 * mp.mpf(index) ** 2)
        half = (mp.mpf(n) - 1) / 2
        measure = lambda x: mp.betainc(half, half, 0, x, regularized=True)
        ring = measure(rho2 * s / (1 - s + rho2 * s)) - measure(s / (rho2 * (1 - s) + s))
        return float(ring / (2 * measure(s)))


def mp_g_even(n, r, q, dps=60):
    """(a*, G_p) at p = q/(q-1) for an even integer q >= 2, exact: r promoted
    exactly, no quadrature.

    The kernel moments M_j = integral K^j dsigma are
    (1-r^2)^((n-1)j) 2F1(a, a - n/2 + 1; n/2; r^2) with a = (n-1)j; Euler's
    transform leaves (1-r^2)^((n-1)(1-j)) times a terminating sum of
    (n-1)(j-1) + 1 positive terms (M_0 = M_1 = 1).  For even q, the
    stationarity function F(a) = integral (K - a)^(q-1) dsigma and
    Phi(a)^q = integral (K - a)^q dsigma are binomial sums of the M_j.  F
    decreases in a; its root a* is bisected in log a over the kernel range
    [-l, l] of log K, and G = Phi(a*).  The sums alternate, so ``dps`` must
    cover their cancellation.
    """
    from mpmath import mp

    with mp.workdps(dps):
        z, half = mp.mpf(r) ** 2, mp.mpf(n) / 2
        moments = [mp.mpf(1), mp.mpf(1)]
        for j in range(2, q + 1):
            a = (n - 1) * j
            term = total = mp.mpf(1)
            for k in range((n - 1) * (j - 1)):  # (c - a)_k (c - b)_k / ((c)_k k!) z^k, c = n/2
                term *= (half - a + k) * ((n - 1) * (1 - j) + k) / ((half + k) * (k + 1)) * z
                total += term
            moments.append((1 - z) ** ((n - 1) * (1 - j)) * total)

        def power_sum(a, m):  # integral (K - a)^m dsigma
            return mp.fsum(mp.binomial(m, j) * (-a) ** (m - j) * moments[j] for j in range(m + 1))

        ell = (n - 1) * (mp.log1p(mp.mpf(r)) - mp.log1p(-mp.mpf(r)))
        lo, hi = -ell, ell  # F > 0 at lo, F < 0 at hi
        for _ in range(3 * dps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if power_sum(mp.exp(mid), q - 1) > 0 else (lo, mid)
        a_star = mp.exp((lo + hi) / 2)
        return float(a_star), float(power_sum(a_star, q) ** (mp.mpf(1) / q))
