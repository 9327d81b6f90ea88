import math
import warnings

import numpy as np
import pytest

from hypschwarz import quadrature
from hypschwarz.errors import DomainError
from hypschwarz.kernel import (
    BallContext,
    _kernel_constants,
    _log_kernel,
    _split_point,
    kernel_range,
    poisson_szego_axis,
)
from hypschwarz.quadrature import (
    _PANELS,
    _graded_nodes,
    _graded_panels,
    build_rule,
    integrate_with_breakpoint,
)
from hypschwarz.objective import ObjectiveParams, phi
from hypschwarz.solver import g_p
from hypschwarz.verify import minimizing_sequence_p1
from conftest import mp_christoffel, mp_crossing, mp_kernel, mp_zonal


def exact_even_moment(n, k):
    # c_n * integral t^k (1-t^2)^((n-3)/2) dt = Beta-function ratio
    return math.exp(
        math.lgamma(n / 2.0)
        + math.lgamma((k + 1) / 2.0)
        - math.lgamma(0.5)
        - math.lgamma((n + k) / 2.0)
    )


class TestPlainRule:
    def test_weights_sum_to_one(self):
        for n in (3, 4, 5, 6, 8, 10, 30, 100):
            for order in (2, 8, 64, 128, 256, 512):
                rule = build_rule(n, order)
                assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)

    def test_nodes_sorted_and_interior(self):
        rule = build_rule(5, 128)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0.0)

    def test_polynomial_moments(self):
        for n in (3, 5):
            rule = build_rule(n, 6)
            for k in range(12):
                numeric = rule.weights @ rule.nodes ** k
                expected = 0.0 if k % 2 else exact_even_moment(n, k)
                assert numeric == pytest.approx(expected, abs=1e-14)

    def test_exactness_stops_at_rule_degree(self):
        rule = build_rule(3, 2)
        wrong = rule.weights @ rule.nodes ** 4
        assert abs(wrong - exact_even_moment(3, 4)) > 1e-3

    def test_even_moments_at_order_512(self):
        for n in (3, 4, 6, 10, 30, 100, 520):
            rule = build_rule(n, 512)
            for k in range(0, 65, 2):
                numeric = rule.weights @ rule.nodes ** k
                assert numeric == pytest.approx(exact_even_moment(n, k), abs=1e-13)

    def test_even_moments_at_every_order(self):
        for n in (3, 4, 5, 6, 8, 10, 30, 100):
            for order in (6, 7, 64, 128, 255, 256, 512):
                rule = build_rule(n, order)
                for k in range(0, min(2 * order - 1, 64) + 1, 2):
                    numeric = rule.weights @ rule.nodes ** k
                    assert numeric == pytest.approx(exact_even_moment(n, k), abs=2e-14), (n, order, k)

    @pytest.mark.parametrize("order", [128, 512])
    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_weights_against_mpmath(self, n, order):
        # Christoffel numbers at 40 digits, on the outermost nodes (the most
        # sensitive) and a spread of the rest: within 6.5e-13 here; the rule
        # is symmetric
        rule = build_rule(n, order)
        for i in sorted({*range(order - 4, order), *range(order // 2, order, order // 16)}):
            expected = mp_christoffel(n, order, rule.nodes[i])
            assert rule.weights[i] == pytest.approx(expected, rel=1e-12, abs=0), i
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])

    def test_rule_is_cached_and_frozen(self):
        rule = build_rule(3, 128)
        assert rule is build_rule(3, 128)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_rejects_bad_parameters(self):
        # (1423, 512) and (444, 1024): the first n at which the smallest
        # weights underflow to 0; refused without a warning
        for n, order in ((2, 64), (3, 1), (3.0, 64), (3, 2.5), (3, 64.0), (True, 64), (3, True),
                         (3, 8193), (1423, 512), (444, 1024)):
            with pytest.raises(DomainError):
                build_rule(n, order)
        assert build_rule(np.int64(3), np.int64(64)).nodes.shape == (64,)
        # one step below that frontier the rule builds
        for n, order in ((1422, 512), (443, 1024)):
            assert build_rule(n, order).nodes.shape == (order,)

    def test_builds_at_large_n(self):
        # from these n on, binom(order + n - 3, order) passes double range, so
        # a rule from unnormalized Gegenbauer values would be NaN throughout
        for n, order in ((1406, 256), (521, 512)):
            rule = build_rule(n, order)
            for k in range(0, 65, 2):
                numeric = rule.weights @ rule.nodes ** k
                assert numeric == pytest.approx(exact_even_moment(n, k), abs=2e-14), (n, order, k)


class TestIntegrateZonal:
    """Integrands as the graded rule sees them: scalars, shapes, overflow."""

    def test_constants(self):
        assert integrate_with_breakpoint(4, 64, lambda t: np.ones_like(t), 0.2) == pytest.approx(
            1.0, abs=1e-14)
        # scalar-returning integrand exercises the broadcast path
        assert integrate_with_breakpoint(4, 64, lambda t: 3.0, 0.2) == pytest.approx(3.0, abs=1e-14)

    def test_kernel_mean(self):
        # split at the pole, where the kernel peaks
        ctx = BallContext(3, 2.0)
        value = integrate_with_breakpoint(3, 128, lambda t: poisson_szego_axis(ctx, 0.7, t), 1.0)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_order_doubling_plateau_for_smooth_integrand(self):
        lo = integrate_with_breakpoint(4, 128, np.exp, 1.0)
        hi = integrate_with_breakpoint(4, 256, np.exp, 1.0)
        assert lo == pytest.approx(hi, rel=1e-14, abs=0)

    def test_non_vectorized_integrand_fallback(self):
        # a result shaped unlike the nodes is refused, not re-evaluated per node
        def awkward(t):
            if np.ndim(t):
                return np.full(1, 2.0)  # wrong shape on purpose
            return 2.0

        with pytest.raises(DomainError, match="shape"):
            integrate_with_breakpoint(3, 32, awkward, 0.5)

    def test_rejects_nonfinite_integrand(self):
        # a non-finite value makes its panel sum non-finite, also where the
        # sine power underflows to 0 next to the pole (inf * 0); numpy warns of none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, bad, t0 in ((3, np.inf, 0.3), (3, np.nan, 0.3), (200, np.inf, 1.0)):
                with pytest.raises(DomainError, match="non-finite"):
                    integrate_with_breakpoint(n, 32, lambda t: np.where(t < 0.999, 1.0, bad), t0)

    def test_rejects_a_total_past_double_range(self):
        # every value and panel sum is finite, but the sum over the sides
        # (2e308 before the factor c_3 = 1/2) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                integrate_with_breakpoint(3, 128, lambda t: np.full_like(t, 1e308), 0.2)
        value = integrate_with_breakpoint(3, 128, lambda t: np.full_like(t, 1e307), 0.2)
        assert value == pytest.approx(1e307, rel=1e-14, abs=0)

    def test_absolute_value_moment_at_high_order(self):
        # |t| is C^0 at zero; the Gauss-Jacobi nodes need a large order for 1e-8
        rule = build_rule(3, 8192)
        assert rule.weights @ np.abs(rule.nodes) == pytest.approx(0.5, abs=1e-8)


class TestBreakpointRule:
    def test_smooth_integrand_consistency(self):
        f = lambda t: np.cos(3.0 * t)
        rule = build_rule(3, 256)
        plain = rule.weights @ f(rule.nodes)
        split = integrate_with_breakpoint(3, 128, f, 0.2)
        assert split == pytest.approx(plain, rel=1e-12, abs=0)

    def test_kink_resolved_at_low_order(self):
        value = integrate_with_breakpoint(3, 128, np.abs, 0.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_inverse_square_root_singularity(self):
        # c_3 = 1/2, so the integral of |t - 0.3|^(-1/2) is sqrt(1.3) + sqrt(0.7)
        value = integrate_with_breakpoint(
            3, 128, lambda t: np.abs(t - 0.3) ** -0.5, 0.3
        )
        exact = math.sqrt(1.3) + math.sqrt(0.7)
        assert value == pytest.approx(exact, rel=1e-9, abs=0)

    def test_singular_kernel_deviation_against_mpmath(self):
        pytest.importorskip("mpmath")
        n, r, a = 3, 0.5, 2.0
        ctx = BallContext(n, 2.0)
        t0 = float(mp_crossing(n, r, a))
        numeric = integrate_with_breakpoint(
            n, 128, lambda t: np.abs(poisson_szego_axis(ctx, r, t) - a) ** -0.5, t0
        )
        ref = mp_zonal(
            n,
            lambda t: abs(mp_kernel(n, r, t) - a) ** -0.5,
            split=[mp_crossing(n, r, a)],
        )
        assert numeric == pytest.approx(ref, rel=1e-8, abs=0)

    def test_breakpoint_at_pole(self):
        # integrable endpoint singularity: c_3 * int (1-t)^(-1/4) dt, at
        # either pole; the empty side, where it is infinite, is never evaluated
        exact = 0.5 * (4.0 / 3.0) * 2.0 ** 0.75
        for sign in (1.0, -1.0):
            value = integrate_with_breakpoint(3, 128, lambda t: (1.0 - sign * t) ** -0.25, sign)
            assert value == pytest.approx(exact, rel=1e-9, abs=0)

    def test_one_integrand_call_per_integral(self):
        for t0 in (0.3, 1.0, -1.0):
            calls = []

            def f(t):
                calls.append(t)
                return np.abs(t - 0.3)

            integrate_with_breakpoint(3, 128, f, t0)
            assert len(calls) == 1

    def test_graded_panels_cached_and_frozen(self):
        offsets, weights, starts = _graded_panels(128, 2, quadrature._PANELS, quadrature._PANEL_NODES)
        assert _graded_panels(128, 2, quadrature._PANELS, quadrature._PANEL_NODES)[0] is offsets
        assert offsets.shape == weights.shape == (2 * 16 + 25 * 12,)
        assert starts.tolist() == [0, 16] + list(range(32, 332, 12))
        for array in (offsets, weights, starts):
            with pytest.raises(ValueError):
                array[0] = 1
        # one Gauss-Legendre builder, shared with the p = 1 cap pairs
        nodes, weights = quadrature._legendre(16)
        assert all(a is b for a, b in zip(quadrature._legendre(16), (nodes, weights)))
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 1
        quadrature._legendre.cache_clear()
        minimizing_sequence_p1(860, 0.1, 4)  # max(64, 858 // 2 + 2) = 431 nodes
        assert quadrature._legendre.cache_info().misses == 1
        minimizing_sequence_p1(860, 0.1, 4)
        minimizing_sequence_p1(860, 0.05, 8)
        assert quadrature._legendre.cache_info().misses == 1

    def test_graded_offsets_interior_and_ordered(self):
        edges = 0.5 ** np.arange(28)
        for order in (32, 128, 512):
            for outer in (2, 4, 27):
                offsets, weights, starts = _graded_panels(order, outer, quadrature._PANELS, quadrature._PANEL_NODES)
                assert offsets.min() > 0.0 and offsets.max() < 1.0
                assert np.all(weights > 0.0)
                panels = np.split(offsets, starts[1:])
                # panel j inside [2^-(j+1), 2^-j]: the index grows toward the breakpoint
                for j, panel in enumerate(panels):
                    assert edges[j + 1] < panel.min() and panel.max() < edges[j]
                # innermost panel first, each panel's nodes ascending
                assert np.all(np.diff(np.concatenate(panels[::-1])) > 0.0)

    def test_constant_integrates_to_one(self):
        # breakpoints at both poles leave a single side
        for n in (3, 4, 7):
            for t0 in (-1.0, -0.3, 0.0, 0.7, 1.0):
                value = integrate_with_breakpoint(n, 128, lambda t: np.ones_like(t), t0)
                assert value == pytest.approx(1.0, abs=1e-14)

    def test_rejects_breakpoint_outside_range(self):
        with pytest.raises(DomainError):
            integrate_with_breakpoint(3, 128, np.abs, 1.5)

    def test_rejects_non_integer_order(self):
        for order in (1, 2.5, 128.0, True):
            with pytest.raises(DomainError, match="order"):
                integrate_with_breakpoint(3, order, np.abs, 0.0)
        assert integrate_with_breakpoint(3, np.int64(128), np.abs, 0.0) == pytest.approx(0.5)

    def test_stacked_integrand_matches_separate_calls(self):
        ctx = BallContext(4, 3.0)
        kernel = lambda t: poisson_szego_axis(ctx, 0.8, t)
        parts = [kernel, lambda t: np.abs(kernel(t) - 1.5) ** 2.5, np.cos, lambda t: 2.0 + 0.0 * t]
        for t0 in (-1.0, 0.3, 1.0):
            separate = [integrate_with_breakpoint(4, 128, f, t0) for f in parts]
            stacked = integrate_with_breakpoint(
                4, 128, lambda t: np.stack([f(t) for f in parts]).reshape(2, 2, *t.shape), t0)
            assert stacked.shape == (2, 2)
            assert stacked.ravel().tolist() == separate

    def test_integrands_of_t_take_no_site(self):
        # the two site slots keep the kernel's sites: Phi(a*) reads the one
        # of the solve's last F, which an integral of t alone must not evict
        quadrature._site(4, 0.5, 128, 0.3)
        before = quadrature._site.cache_info()
        for f, t0 in ((np.abs, 0.0), (np.exp, 1.0), (lambda t: 2.0, -0.4)):
            integrate_with_breakpoint(4, 128, f, t0)
        assert quadrature._site.cache_info() == before

    def test_cached_site_is_read_only(self):
        # the site pass works in place: a stray write into a cached site would
        # corrupt every later integral on it, so every array of it refuses one
        for n, t0 in ((3, 0.3), (4, 0.3), (4, 1.0)):
            for lean in (False, True):
                quadrature._site.cache_clear()
                _, constants, log_kernel, (t, sinpow, weights, starts, theta0, lengths, layout) = quadrature._site(
                    n, 0.5, 128, t0, lean)
                for array in (log_kernel, t, sinpow, weights, starts):
                    with pytest.raises(ValueError, match="read-only"):
                        array[..., 0] = 0
                # a lone site's layout and kernel constants are immutable floats, ints and tuples
                assert isinstance(lengths, tuple) and isinstance(theta0, float)
                assert isinstance(layout, tuple) and all(isinstance(k, int) for k in layout)
                assert constants == _kernel_constants(0.5) and all(isinstance(c, float) for c in constants)

    def test_stack_must_end_in_the_node_shape(self):
        for shape in (lambda t: (3, *t.shape[1:]), lambda t: (*t.shape, 2), lambda t: (3, 7)):
            with pytest.raises(DomainError, match="shape"):
                integrate_with_breakpoint(3, 128, lambda t: np.zeros(shape(t)), 0.2)


def bits(array):
    return np.ascontiguousarray(array).tobytes()


class TestStackedSites:
    """A stack of sites is exact only because elementwise ufuncs and each
    panel's reduceat sum see their own values alone: a value's bits and a
    panel's sum do not depend on the array's length or its place in it."""

    def test_values_and_panel_sums_do_not_depend_on_place(self):
        _, _, log_kernel, (t, sinpow, weights, starts, *_) = quadrature._site(4, 0.5, 128, 0.3)
        ufuncs = (np.expm1, np.log1p, np.cos, np.sin, np.abs, lambda v: np.abs(v) ** 3.0,
                  lambda v: np.abs(v) ** 1.37, lambda v: np.abs(v) ** 2.0, lambda v: v * 0.7)
        values = np.abs(log_kernel.ravel())
        for lead in (0, 1, 2, 3, 5, 7, 8, 13):  # places that move SIMD blocks and their tails
            for tail in (0, 1, 6):
                placed = np.concatenate([np.full(lead, 0.25), values, np.full(tail, 0.5)])
                for f in ufuncs:
                    assert bits(f(placed)[lead:lead + values.size]) == bits(f(values)), (lead, tail, f)
        one = (np.abs(log_kernel) * sinpow * weights)[0]  # the (sides, nodes) of a site of one
        alone = np.add.reduceat(one, starts, axis=-1)
        stack = np.stack([2.0 * one, one, one[::-1] * 3.0, one])
        for row in (1, 3):
            assert bits(np.add.reduceat(stack, starts, axis=-1)[row]) == bits(alone)
        wide = np.concatenate([one, one[:, :20]], axis=-1)  # more panels after these
        starts_wide = np.concatenate([starts, [one.shape[-1], one.shape[-1] + 12]])
        assert bits(np.add.reduceat(wide, starts_wide, axis=-1)[:, :starts.size]) == bits(alone)

    def test_stacked_rows_are_their_sites_alone(self):
        # a stack of _new_sites is its sites row by row: est_error's outer
        # nodes rebuilt from its node set, and log K from its kernel constants,
        # have each site's own bits.  The columns are each site's math
        # constants: numpy 2.4's log1p(-r^2) differs from math's at r = 0.357
        radii, t0s = [2.0 ** -60, 0.357, 0.5, 0.5, 0.9, 0.9], [0.3, -0.2, 1.0, 0.95, -1.0, 0.3]
        groups = list(quadrature._new_sites(4, 128, radii, t0s, False))
        # interior splits form one group, the two pole splits (one side, every panel outer) another
        assert [rows for rows, _ in groups] == [[0, 1, 3, 5], [2, 4]]
        for rows, stack in groups:
            outer = quadrature._outer_nodes(4, 256, stack[3])
            log_kernels = _log_kernel(4, stack[1], outer[0])
            for i, k in enumerate(rows):
                site = quadrature._site(4, radii[k], 128, t0s[k])
                alone = quadrature._outer_nodes(4, 256, site[3])
                assert bits(outer[0][i]) == bits(alone[0]) and bits(outer[1][i]) == bits(alone[1]), k
                assert outer[5][i] == alone[5][0] and outer[6] == alone[6], k
                assert bits(log_kernels[i]) == bits(_log_kernel(4, site[1], alone[0])), k

    def test_new_sites_are_their_lone_sites(self):
        # the sites of one layout built in one node pass are each _site's bits;
        # the pole splits form their own group
        radii = [2.0 ** -60, 0.357, 0.5, 0.5, 0.9, 0.9, 0.99]
        t0s = [0.3, -0.2, 1.0, 0.95, -1.0, 0.3, -0.999999]
        for lean in (True, False):
            groups = list(quadrature._new_sites(4, 128, radii, t0s, lean))
            assert [rows for rows, _ in groups] == [[0, 1, 3, 5, 6], [2, 4]]
            for rows, stack in groups:
                assert stack[0] == [radii[k] for k in rows] and stack[3][0] is None
                for i, k in enumerate(rows):
                    alone = quadrature._site(4, radii[k], 128, t0s[k], lean)
                    assert bits(stack[2][i]) == bits(alone[2]), (lean, k)
                    assert bits(stack[3][1][i]) == bits(alone[3][1]), (lean, k)
                    assert stack[1][:, i].ravel().tolist() == list(alone[1]), (lean, k)
                    assert stack[3][4][i, 0, 0] == alone[3][4] and stack[3][5][i] == alone[3][5][0], (lean, k)
                    assert stack[3][6] == alone[3][6], (lean, k)

    def test_every_site_has_the_stack_shape(self):
        # a lone site is a stack of one: _site and every group of _new_sites
        # hold t (where kept), log K and the sine power of shape (sites,
        # sides, nodes), and one tuple of side lengths per site
        radii, t0s = [0.357, 0.5, 0.5, 0.9], [-0.2, 1.0, 0.95, -1.0]
        for lean in (True, False):
            sites = [quadrature._site(4, r, 128, t0, lean) for r, t0 in zip(radii, t0s)]
            sites += [stack for _, stack in quadrature._new_sites(4, 128, radii, t0s, lean)]
            assert [len(site[3][5]) for site in sites] == [1, 1, 1, 1, 2, 2]
            for i, (_, _, log_kernel, (t, sinpow, weights, _, _, lengths, _)) in enumerate(sites):
                sides = {len(side_lengths) for side_lengths in lengths}
                assert len(sides) == 1 and log_kernel.shape == sinpow.shape == (
                    len(lengths), *sides, weights.size), (lean, i)
                assert t.shape == log_kernel.shape if i < 4 else t is None, (lean, i)

    def test_side_totals_accumulate_as_the_loop(self):
        # np.add.accumulate along the panels keeps the left-to-right bits of a
        # loop from 0.0, and the tail from the last two panel sums is the
        # loop's: exact zeros, decay ratios of 1 and more, negative ratios and
        # a side of -0.0 panels, which adds nothing to a total from 0.0
        def loop(n, rows, lengths):
            totals = []
            for sides, row_lengths in zip(rows.tolist(), lengths):
                total = 0.0
                for length, panels in zip(row_lengths, sides):
                    side = 0.0
                    for panel in panels:
                        side += panel
                    prev = panels[-2]
                    if prev != 0.0:
                        ratio = panel / prev
                        if 0.0 < ratio < 1.0:
                            side += panel * ratio / (1.0 - ratio)
                    total += abs(length) * side
                totals.append(quadrature._zonal_constant(n) * total)
            return totals

        rng = np.random.default_rng(7)
        for sides in (1, 2):
            rows = rng.standard_normal((40, sides, 20)) * 10.0 ** rng.integers(-300, 300, (40, sides, 1))
            rows[0] = 0.0
            rows[1, :, -2:] = 0.0
            rows[2, :, -1] = rows[2, :, -2]  # ratio 1
            rows[3, :, -1] = 3.0 * rows[3, :, -2]
            rows[4, :, -1] = -0.5 * rows[4, :, -2]
            rows[5] = -0.0
            rows[6, :, 0] = -0.0
            rows[7, :, :5] = -0.0
            rows[8, :, -1] = 0.5 * rows[8, :, -2]
            lengths = [tuple(rng.uniform(-math.pi, math.pi, sides)) for _ in rows]
            for n in (3, 4, 100):
                assert [v.hex() for v in quadrature._side_total(n, rows, lengths)] == [
                    v.hex() for v in loop(n, rows, lengths)], (sides, n)


class TestHalfAngleNodes:
    """A node set keeps s^2 = sin^2(theta/2) = (1 - t)/2 and the sine power,
    both from one tan(theta/2) per node up to n = _TANGENT_SINE_MAX, the sine
    power from np.sin above it."""

    @staticmethod
    def angles(n, order, t0, lean):
        # the node angles as _nodes_at forms them, bit for bit
        theta0, lengths = quadrature._split(t0)
        offsets = _graded_panels(order, *quadrature._layout(n, t0, lean))[0]
        return np.multiply.outer((lengths,), offsets) + theta0

    def test_no_cos_or_sin_up_to_the_cut(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a node set called np.cos or np.sin")

        monkeypatch.setattr(np, "cos", refused)
        monkeypatch.setattr(np, "sin", refused)
        quadrature._site.cache_clear()
        for n in (3, 4, quadrature._TANGENT_SINE_MAX):
            for t0 in (0.3, 1.0, -1.0):
                for lean in (False, True):
                    nodes = _graded_nodes(n, 128, t0, lean)
                    quadrature._outer_nodes(n, 256, nodes)
                    quadrature._site(n, 0.5, 128, t0, lean)
            list(quadrature._new_sites(n, 128, [0.5, 0.9, 0.9], [0.3, 1.0, -0.2], True))
            assert integrate_with_breakpoint(n, 128, lambda t: t * t, 0.3) > 0.0

    def test_sine_power_above_the_cut_is_np_sin(self):
        for n in (quadrature._TANGENT_SINE_MAX + 1, 100):
            for t0 in (0.3, -1.0):
                s_sq, sinpow = _graded_nodes(n, 128, t0)[:2]
                theta = self.angles(n, 128, t0, False)
                assert bits(sinpow) == bits(np.sin(theta) ** (n - 2)), (n, t0)
                tau = np.tan(0.5 * theta)
                assert bits(s_sq) == bits(tau * tau / (tau * tau + 1.0)), (n, t0)

    def test_half_angle_square_against_mpmath(self):
        # s^2 within 3 ulps, and below 1, up to the antipode, where 1 + t =
        # 2 (1 - s^2) is all an integrand singular at t = -1 sees
        from mpmath import mp

        for t0 in (0.3, 1.0, -1.0):
            s_sq = _graded_nodes(4, 128, t0)[0].ravel()
            theta = self.angles(4, 128, t0, False).ravel()
            assert s_sq.max() < 1.0
            with mp.workdps(40):
                expected = [float(mp.sin(mp.mpf(x) / 2) ** 2) for x in theta]
            assert np.all(np.abs(s_sq - expected) <= 3 * np.spacing(expected)), t0

    def test_log_kernel_near_the_pole_within_ulps(self):
        # log K at r = 0.999 on a lone site and on a group of _new_sites split
        # near t = 1: within a few (n - 1) ulps of its scale log((1 + r)/(1 - r))
        # against mpmath at each node's angle
        from mpmath import mp

        r, t0s = 0.999, [1.0 - 1e-6, 1.0 - 2.0 ** -40, 1.0]
        for n in (4, 10, 30):
            peak = math.log1p(r) - math.log1p(-r)
            sites = [quadrature._site(n, r, 128, t0, True)[2] for t0 in t0s]
            groups = list(quadrature._new_sites(n, 128, [r] * 3, t0s, True))
            assert [rows for rows, _ in groups] == [[0, 1], [2]]
            stacked = [stack[2][i] for _, stack in groups for i in range(len(stack[0]))]
            for t0, alone, row in zip(t0s, sites, stacked):
                theta = self.angles(n, 128, t0, True).ravel()
                with mp.workdps(40):
                    rr = mp.mpf(r)
                    expected = np.array([float((n - 1) * (mp.log1p(rr) - mp.log1p(-rr) - mp.log1p(
                        4 * rr * mp.sin(mp.mpf(x) / 2) ** 2 / (1 - rr) ** 2))) for x in theta])
                for log_kernel in (alone.ravel(), row.ravel()):
                    err = np.abs(log_kernel - expected)
                    assert err.max() <= 4 * (n - 1) * peak * 2.0 ** -52, (n, t0)


class TestGradedLayout:
    """12 nodes on the inner panels at an interior breakpoint, order // 8 on
    the outer J(n) panels; order // 8 on every panel at a pole."""

    def test_nodes_per_site(self):
        for n, order, per_side in ((4, 128, 332), (4, 256, 364), (4, 512, 428),
                                   (100, 512, 3 * 64 + 24 * 12), (1000, 512, 6 * 64 + 21 * 12),
                                   (4, 64, 27 * 12)):
            assert _graded_nodes(n, order, 0.3)[0].shape == (1, 2, per_side)

    def test_lean_nodes_per_site(self):
        # a shift's own sites: 20 panels a side, 10 nodes on an inner one,
        # J(n) outer ones of order // 8; 424 nodes a site at n <= 33 and order
        # 128, 664 on the full layout
        for n, order, per_side in ((4, 128, 2 * 16 + 18 * 10), (33, 128, 2 * 16 + 18 * 10),
                                   (100, 512, 3 * 64 + 17 * 10), (4, 64, 2 * 12 + 18 * 10)):
            t, _, _, starts, _, _, layout = _graded_nodes(n, order, 0.3, True)
            assert t.shape == (1, 2, per_side) and layout == (quadrature._outer_panels(n), 20, 10)
            assert starts.size == 20
        assert _graded_nodes(4, 128, 0.3, True)[0].size == 424 and _graded_nodes(4, 128, 0.3)[0].size == 664
        # the full layout where J(n) reaches 20 panels, leaving none inner:
        # n - 1 > 2^23
        assert quadrature._layout(2 ** 23 + 1, 0.3, True) == (19, 20, 10)
        assert quadrature._layout(2 ** 23 + 2, 0.3, True) == (20, _PANELS, 12)

    def test_lean_inner_panels_at_rounding_level(self, monkeypatch):
        # The twin of test_inner_panels_at_rounding_level on the lean layout,
        # against the same all-outer reference: Phi's |d|^q within 2e-15 of
        # integral |f| (it read 1.1e-15), F's sign(d) |d|^(q-1) within 1e-9
        # (2.3e-10 at p = 20, n = 300: the tail of a nearly flat power past
        # 2^-20, which moves only a*, as G is stationary in a)
        exponents = [p / (p - 1.0) for p in (1.05, 1.5, 3.0, 20.0)]
        for n in (3, 5, 10, 30, 100, 300):
            for r in (0.1, 0.5, 0.9, 0.99):
                ctx = BallContext(n, 2.0)
                try:
                    kmin, kmax = kernel_range(ctx, r)
                except DomainError:
                    continue  # the kernel range leaves double precision
                for share in (0.1, 0.3, 0.5, 0.7, 0.9):
                    a = kmin ** (1.0 - share) * kmax ** share
                    scale = max(kmax - a, a - kmin)

                    def sums(t):
                        dev = (poisson_szego_axis(ctx, r, t) - a) / scale
                        size = np.abs(dev)
                        return np.stack([part for q in exponents for part in (
                            np.copysign(size ** (q - 1.0), dev), size ** (q - 1.0), size ** q)])

                    t0 = _split_point(ctx.n, r, math.log(a))
                    with quadrature._overflow_guard():
                        lean, = quadrature._site_sums(n, 2048, (None, None, None, _graded_nodes(n, 2048, t0, True)),
                                                      lambda _, s_sq: sums(1.0 - 2.0 * s_sq).reshape(
                                                          -1, *s_sq.shape[1:]))
                    with monkeypatch.context() as patch:
                        patch.setattr(quadrature, "_outer_panels", lambda n: _PANELS)
                        ref = integrate_with_breakpoint(n, 2048, sums, t0).reshape(4, 3)
                    err = np.abs(np.reshape(lean, (4, 3)) - ref)
                    assert np.all(err[:, 2] <= 2e-15 * ref[:, 2]), (n, r, share)
                    assert np.all(err[:, 0] <= 1e-9 * ref[:, 1]), (n, r, share)

    def test_pole_split_keeps_order_nodes_on_every_panel(self):
        # a pole split keeps the full layout, lean or not
        for n in (3, 30, 1000):
            for t0 in (1.0, -1.0):
                for lean in (False, True):
                    t, _, _, starts, theta0, lengths, layout = _graded_nodes(n, 512, t0, lean)
                    assert t.shape == (1, 1, 27 * 64) and len(lengths) == 1 and len(lengths[0]) == 1
                    assert theta0 == math.acos(t0) and layout == (_PANELS, _PANELS, 12)
                    assert starts.tolist() == list(range(0, 27 * 64, 64))

    def test_pole_split_resolves_the_kernel_peak(self):
        # the kernel mean is 1; with 12 nodes on the inner panels of a pole
        # split it was 3.0e-13 off at (30, 0.5) and 1.6e-7 at (100, 0.9)
        for n, r, tol in ((30, 0.5, 1e-14), (100, 0.9, 1e-10)):
            ctx = BallContext(n, 2.0)
            value = integrate_with_breakpoint(n, 128, lambda t: poisson_szego_axis(ctx, r, t), 1.0)
            assert abs(value - 1.0) <= tol, (n, r)

    def test_inner_panels_at_rounding_level(self, monkeypatch):
        # An order-2048 integral is within 1e-15 of integral |f| of the one
        # with 256 nodes on all 27 panels, for the F and Phi integrands (the
        # deviation scaled by its largest size) at shifts spread over the
        # kernel range.  J fixed at 1 missed by 1e-4 at n = 300, J fixed at 2
        # by 2.4e-12, J(300) = 4 by 1.4e-15 (F at p = 3, r = 0.1, a = 1).
        exponents = [p / (p - 1.0) for p in (1.05, 1.5, 3.0, 20.0)]
        for n in (3, 5, 10, 30, 100, 300):
            for r in (0.1, 0.5, 0.9, 0.99):
                ctx = BallContext(n, 2.0)
                try:
                    kmin, kmax = kernel_range(ctx, r)
                except DomainError:
                    continue  # the kernel range leaves double precision
                for share in (0.1, 0.3, 0.5, 0.7, 0.9):
                    a = kmin ** (1.0 - share) * kmax ** share
                    scale = max(kmax - a, a - kmin)

                    def sums(t):
                        dev = (poisson_szego_axis(ctx, r, t) - a) / scale
                        size = np.abs(dev)
                        return np.stack([part for q in exponents for part in (
                            np.copysign(size ** (q - 1.0), dev), size ** (q - 1.0), size ** q)])

                    t0 = _split_point(ctx.n, r, math.log(a))
                    value = integrate_with_breakpoint(n, 2048, sums, t0).reshape(4, 3)
                    with monkeypatch.context() as patch:
                        patch.setattr(quadrature, "_outer_panels", lambda n: _PANELS)
                        ref = integrate_with_breakpoint(n, 2048, sums, t0).reshape(4, 3)
                    err = np.abs(value - ref)
                    assert np.all(err[:, [0, 2]] <= 1e-15 * ref[:, [1, 2]]), (n, r, share)

    def test_phi_at_a_star_for_large_n(self, monkeypatch):
        # J(1000) = 6; with J fixed at 2, G was 3.9e-11 off at r = 0.005 and
        # order doubling did not see it
        for p in (1.05, 1.5, 3.0, 20.0):
            for r in (0.005, 0.01):
                ctx = BallContext(1000, p)
                result = g_p(ctx, r)
                with monkeypatch.context() as patch:
                    patch.setattr(quadrature, "_outer_panels", lambda n: _PANELS)
                    ref = phi(ObjectiveParams(ctx, r, 2048), result.a_star)
                    quadrature._site.cache_clear()  # its site has the reference layout
                assert abs(result.g_value - ref) <= 1e-13 * ref, (p, r)
