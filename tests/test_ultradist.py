import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow.fourier import CoefficientSequence, PeriodicGrid, synthesize
from thetaflow.ultradist import (
    GrowthClass,
    PowerRule,
    UltraDistribution,
    check_membership,
    derivative_bound_constants,
    derivative_sequence,
    derivative_ultra,
    evolution_deficit_pair,
    evolve_ultra,
    fit_growth,
    pair,
    positivity_check,
    smoothing_threshold,
    weak_limit_check,
)

TWO_PI = 2 * math.pi
NON_FINITE = [math.nan, math.inf, -math.inf]


def seq_from_rule(hw, rule):
    return CoefficientSequence.from_rule(hw, rule)


def comb(hw=8):
    """All-ones coefficients: the periodic delta train."""
    return UltraDistribution(
        seq_from_rule(hw, PowerRule(1.0, 1)),
        declared_class=GrowthClass("dual", 1.0, 1, 1.0),
    )


class TestGrowthClass:
    def test_kind_base_constraints(self):
        with pytest.raises(ValueError, match="base"):
            GrowthClass("test", 1.2, 1)
        with pytest.raises(ValueError, match="base"):
            GrowthClass("dual", 0.8, 1)
        with pytest.raises(ValueError, match="order"):
            GrowthClass("test", 0.5, 0)

    @pytest.mark.parametrize("kind", ["test", "dual"])
    @pytest.mark.parametrize("base", NON_FINITE)
    def test_non_finite_base_rejected(self, kind, base):
        with pytest.raises(ValueError, match="base"):
            GrowthClass(kind, base, 1, 1.0)

    @pytest.mark.parametrize("kind, base", [("test", 0.5), ("dual", 2.0)])
    def test_nan_constant_rejected(self, kind, base):
        with pytest.raises(ValueError, match="constant"):
            GrowthClass(kind, base, 1, math.nan)

    def test_bound_overflow_is_inf(self):
        g = GrowthClass("dual", 2.0, 2, 1.0)
        assert g.bound(100) == math.inf


class TestMembership:
    def test_equality_case_passes(self):
        c = seq_from_rule(8, PowerRule(0.5, 2))
        res = check_membership(c, GrowthClass("test", 0.5, 2, 1.0))
        assert res.ok
        assert res.worst_ratio <= 1.0 + 1e-12

    def test_exponential_dual_bounds(self):
        c = seq_from_rule(6, PowerRule(2.0, 1))
        assert check_membership(c, GrowthClass("dual", 2.0, 1, 1.0)).ok
        res = check_membership(c, GrowthClass("dual", 1.5, 1, 1.0))
        assert not res.ok

    def test_witness_index_and_ratio(self):
        c = CoefficientSequence.from_dict({0: 1.0, 1: 0.9, -1: 0.9})
        res = check_membership(c, GrowthClass("test", 0.5, 1, 1.0))
        assert not res.ok
        assert abs(res.worst_n) == 1
        assert res.worst_ratio == pytest.approx(1.8, rel=1e-12)

    def test_worst_witness_over_wider_window(self):
        c = seq_from_rule(5, PowerRule(0.9, 1))
        res = check_membership(c, GrowthClass("test", 0.5, 1, 1.0))
        assert not res.ok
        assert abs(res.worst_n) == 5
        assert res.worst_ratio == pytest.approx((0.9 / 0.5) ** 5, rel=1e-12)

    def test_rule_tail_is_scanned(self):
        # Window satisfies the bound; the rule violates it beyond the window.
        vals = {n: 0.5 ** abs(n) for n in range(-3, 4)}
        c = CoefficientSequence.from_dict(vals, rule=lambda n: 1.0)
        res = check_membership(c, GrowthClass("test", 0.5, 1, 1.0))
        assert not res.ok
        assert abs(res.worst_n) > 3

    def test_degenerate_class(self):
        zero = CoefficientSequence(4, np.zeros(9, dtype=complex))
        g = fit_growth(zero, 1)
        assert g.degenerate
        assert check_membership(zero, g).ok

    @given(st.floats(0.05, 0.95), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_order_two_members_satisfy_order_one(self, q, c, seed):
        # base^(|n|^k) <= base^|n| for base < 1, so k=2 membership with
        # constant c implies k=1 membership with the same constant.
        rng = np.random.default_rng(seed)
        hw = 6
        u = rng.uniform(-1, 1, 2 * hw + 1) * np.exp(1j * rng.uniform(0, TWO_PI, 2 * hw + 1))
        idx = np.arange(-hw, hw + 1)
        window = c * (q ** (idx.astype(float) ** 2)) * u
        seq = CoefficientSequence(hw, window)
        assert check_membership(seq, GrowthClass("test", q, 2, c)).ok
        assert check_membership(seq, GrowthClass("test", q, 1, c)).ok


class TestFitGrowth:
    def test_exponential(self):
        c = seq_from_rule(6, PowerRule(3.0, 1))
        g = fit_growth(c, 1)
        assert g.kind == "dual"
        assert g.base == pytest.approx(3.0, rel=1e-9)

    def test_gaussian(self):
        c = seq_from_rule(6, lambda n: math.exp(-float(n) ** 2))
        g = fit_growth(c, 2)
        assert g.kind == "test"
        assert g.base == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_noisy_fit_brackets_base(self):
        rng = np.random.default_rng(42)
        c = seq_from_rule(8, lambda n: 2.0 ** abs(n) * (1 + 0.01 * rng.uniform(-1, 1)))
        g = fit_growth(c, 1)
        assert 1.98 <= g.base <= 2.02

    def test_fit_constant_is_max_ratio(self):
        c = seq_from_rule(6, PowerRule(0.5, 1))
        g = fit_growth(c, 1)
        assert check_membership(c, g).ok

    def test_all_zero_degenerate(self):
        g = fit_growth(CoefficientSequence(5, np.zeros(11, dtype=complex)), 2)
        assert g.degenerate and g.kind == "test" and g.base == 0.5

    @pytest.mark.parametrize("rule, k", [(PowerRule(3.0, 1), 1), (PowerRule(0.5, 2), 2),
                                         (PowerRule(1.0, 1), 1)])
    def test_fit_is_finite(self, rule, k):
        g = fit_growth(seq_from_rule(6, rule), k)
        assert math.isfinite(g.base) and g.constant >= 0

    def test_small_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            fit_growth(CoefficientSequence(3, np.ones(7, dtype=complex)), 1)


class TestPairing:
    def test_delta_against_constant(self):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}))
        f = CoefficientSequence.from_dict({0: 1.0})
        res = pair(F, f)
        assert res.value == pytest.approx(TWO_PI, rel=1e-15)
        assert res.tail_bound == 0.0

    def test_comb_against_gaussian_weights(self):
        # Oracle: direct summation of 2pi * sum 0.5^(n^2).
        oracle = TWO_PI * (1.0 + 2.0 * sum(0.5 ** (n * n) for n in range(1, 20)))
        f = seq_from_rule(12, PowerRule(0.5, 2))
        res = pair(comb(), f, f_class=GrowthClass("test", 0.5, 2, 1.0))
        assert res.value.real == pytest.approx(oracle, rel=1e-13)
        assert abs(res.value.imag) < 1e-13
        assert res.value.real == pytest.approx(TWO_PI * 2.128936827211877, rel=1e-12)

    def test_growing_distribution_converges_when_pq_below_one(self):
        F = UltraDistribution(
            seq_from_rule(6, PowerRule(2.0, 2)),
            declared_class=GrowthClass("dual", 2.0, 2, 1.0),
        )
        f = seq_from_rule(6, PowerRule(0.25, 2))
        res = pair(F, f, f_class=GrowthClass("test", 0.25, 2, 1.0))
        oracle = TWO_PI * (1.0 + 2.0 * sum(0.5 ** (n * n) for n in range(1, 20)))
        assert res.value.real == pytest.approx(oracle, rel=1e-12)

    def test_divergent_pairing_rejected(self):
        F = UltraDistribution(
            seq_from_rule(4, PowerRule(4.0, 1)),
            declared_class=GrowthClass("dual", 4.0, 1, 1.0),
        )
        f = seq_from_rule(4, PowerRule(0.5, 1))
        with pytest.raises(ValueError, match="divergent pairing"):
            pair(F, f, f_class=GrowthClass("test", 0.5, 1, 1.0))

    def test_tail_bound_covers_truncation_error(self):
        F = UltraDistribution(
            seq_from_rule(4, PowerRule(1.2, 1)),
            declared_class=GrowthClass("dual", 1.2, 1, 1.0),
        )
        f = seq_from_rule(4, PowerRule(0.5, 1))
        f_class = GrowthClass("test", 0.5, 1, 1.0)
        coarse = pair(F, f, f_class=f_class, tol=1e-4)
        fine = pair(F, f, f_class=f_class, tol=1e-14)
        assert abs(coarse.value - fine.value) <= coarse.tail_bound
        assert fine.terms > coarse.terms


class TestEvolve:
    def test_semigroup_exact_in_coefficients(self):
        F = comb(10)
        t1, t2 = 0.31, 0.57
        twice = evolve_ultra(evolve_ultra(F, t1), t2)
        once = evolve_ultra(F, t1 + t2)
        a, b = twice.coeffs.coeffs, once.coeffs.coeffs
        scale = float(np.max(np.abs(b)))
        assert float(np.max(np.abs(a - b))) <= 1e-15 * scale

    def test_identity_at_zero(self):
        F = comb()
        assert evolve_ultra(F, 0.0) is F

    def test_exactly_diagonal(self):
        # A lone coefficient must evolve in place with no coupling.
        F = UltraDistribution(CoefficientSequence.from_dict({3: 2.0, -5: 0.0}))
        out = evolve_ultra(F, 0.7)
        for n in out.coeffs.indices():
            if n != 3:
                assert out.coeffs[int(n)] == 0.0
        assert out.coeffs[3] == pytest.approx(2.0 * math.exp(-9 * 0.7), rel=1e-15)

    def test_comb_becomes_classical(self):
        evolved = evolve_ultra(comb(12), 1.0)
        target = GrowthClass("test", math.exp(-1.0), 2, 1.0)
        assert check_membership(evolved.coeffs, target).ok

    def test_comb_rule_evolves_to_power(self):
        out = evolve_ultra(comb(6), 0.9)
        assert isinstance(out.coeffs.rule, PowerRule)
        assert out.coeffs.rule.order == 2
        assert out.coeffs.rule.base == pytest.approx(math.exp(-0.9))
        assert out.coeffs[8] == pytest.approx(math.exp(-64 * 0.9), rel=1e-12)

    def test_power_rule_order_two_stays_power(self):
        F = UltraDistribution(
            seq_from_rule(5, PowerRule(2.0, 2)),
            declared_class=GrowthClass("dual", 2.0, 2, 1.0),
        )
        out = evolve_ultra(F, 0.4)
        assert isinstance(out.coeffs.rule, PowerRule)
        assert out.coeffs.rule.base == pytest.approx(2.0 * math.exp(-0.4))

    def test_unsmoothable_class_rejected(self):
        F = UltraDistribution(
            seq_from_rule(4, PowerRule(1.5, 3)),
            declared_class=GrowthClass("dual", 1.5, 3, 1.0),
        )
        with pytest.raises(ValueError, match="unsmoothable class"):
            evolve_ultra(F, 0.5)

    def test_finite_window_any_order_is_fine(self):
        window = CoefficientSequence.from_dict({n: 1.5 ** abs(n) ** 3 for n in range(-3, 4)})
        F = UltraDistribution(window, declared_class=GrowthClass("dual", 1.5, 3, 1.0))
        out = evolve_ultra(F, 0.5)
        assert out.coeffs[1] == pytest.approx(1.5 * math.exp(-0.5))

    def test_declared_class_validated_at_construction(self):
        with pytest.raises(ValueError, match="declared class"):
            UltraDistribution(
                CoefficientSequence.from_dict({1: 2.0}),
                declared_class=GrowthClass("test", 0.5, 1, 1.0),
            )


class TestSmoothing:
    def test_threshold_value(self):
        g = GrowthClass("dual", 2.0, 2, 1.0)
        assert smoothing_threshold(g) == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
        assert smoothing_threshold(g) == pytest.approx(1.3862943611198906, abs=1e-8)

    def test_threshold_vanishes_near_base_one(self):
        g = GrowthClass("dual", 1.000001, 2, 1.0)
        assert 0.0 < smoothing_threshold(g) < 3e-6

    def test_order_restriction(self):
        with pytest.raises(ValueError, match="k = 2"):
            smoothing_threshold(GrowthClass("dual", 2.0, 1, 1.0))
        with pytest.raises(ValueError, match="dual"):
            smoothing_threshold(GrowthClass("test", 0.5, 2, 1.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_membership_flips_across_threshold(self, p):
        F = UltraDistribution(
            seq_from_rule(6, PowerRule(p, 2)),
            declared_class=GrowthClass("dual", p, 2, 1.0),
        )
        t_f = smoothing_threshold(F.declared_class)
        target = GrowthClass("test", math.exp(-t_f / 2.0), 2, 1.0)
        assert check_membership(evolve_ultra(F, t_f + 0.1).coeffs, target).ok
        assert not check_membership(evolve_ultra(F, t_f / 2.0).coeffs, target).ok


class TestWeakLimit:
    def test_comb_pairing_decays(self):
        f = seq_from_rule(10, PowerRule(0.3, 2))
        report = weak_limit_check(comb(), f, (1.0, 0.1, 0.01),
                                  f_class=GrowthClass("test", 0.3, 2, 1.0),
                                  tol=1.0)
        assert report.monotone
        assert report.magnitudes[0] > report.magnitudes[-1]

    def test_finite_distribution_first_order_rate(self):
        F = UltraDistribution(CoefficientSequence.from_dict({1: 0.5, -1: 0.5}))
        f = seq_from_rule(6, PowerRule(0.4, 2))
        ts = (1e-2, 1e-3, 1e-4)
        report = weak_limit_check(F, f, ts, tol=1e-2)
        assert report.monotone and report.passed
        for t, mag in zip(report.ts, report.magnitudes):
            # <evolved F - F, f> = 2pi * 0.4 * (exp(-t) - 1) ~ -2pi * 0.4 * t
            assert mag / t == pytest.approx(TWO_PI * 0.4, rel=0.05)

    def test_generator_form_limit(self):
        F = comb(8)
        f = seq_from_rule(10, PowerRule(0.3, 2))
        f_class = GrowthClass("test", 0.3, 2, 1.0)
        # 2pi * sum (-n^2) f_n conj(F_n), via the second-derivative pairing
        target = pair(derivative_ultra(F, 2), f).value
        gaps = []
        for t in (1e-3, 1e-4, 1e-5):
            lhs = evolution_deficit_pair(F, f, t, f_class=f_class).value / t
            gaps.append(abs(lhs - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 1e-3 * abs(target)

    def test_time_validation(self):
        with pytest.raises(ValueError, match="positive"):
            weak_limit_check(comb(), seq_from_rule(4, PowerRule(0.3, 2)), (0.1, 0.0))


class TestDerivative:
    def test_second_derivative_of_cosine(self):
        F = UltraDistribution(CoefficientSequence.from_dict({1: 0.5, -1: 0.5}))
        d2 = derivative_ultra(F, 2)
        assert d2.coeffs[1] == pytest.approx(-0.5)
        assert d2.coeffs[-1] == pytest.approx(-0.5)

    def test_order_zero_is_identity(self):
        F = comb()
        assert derivative_ultra(F, 0) is F

    def test_duality_identity(self):
        F = comb(10)
        f = seq_from_rule(10, PowerRule(0.4, 2))
        f_class = GrowthClass("test", 0.4, 2, 1.0)
        for m in (1, 2, 3, 4):
            lhs = pair(derivative_ultra(F, m), f).value
            rhs = (-1) ** m * pair(F, derivative_sequence(f, m),
                                   f_class=None).value
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_rule_is_differentiated(self):
        F = comb(4)
        d1 = derivative_ultra(F, 1)
        assert d1.coeffs[6] == pytest.approx(6j)


class TestDerivativeBounds:
    def test_unit_rate_order_one(self):
        g = GrowthClass("test", math.exp(-1.0), 1, 1.0)
        b = derivative_bound_constants(g)
        assert b.B == pytest.approx(1.0)
        assert b.C == pytest.approx(2.0)

    def test_unit_rate_order_two(self):
        g = GrowthClass("test", math.exp(-1.0), 2, 3.0)
        b = derivative_bound_constants(g)
        assert b.B == pytest.approx(1.0)
        assert b.C == pytest.approx(3.0)  # (2c/k) * 1 = c for k=2

    def test_rejects_dual(self):
        with pytest.raises(ValueError, match="test-kind"):
            derivative_bound_constants(GrowthClass("dual", 2.0, 2, 1.0))

    def test_empirical_bound_with_slack(self):
        # Spectral-derivative oracle: synthesize f^(m) from the coefficient
        # window and take the grid max.
        q, slack = 0.5, 10.0
        c = seq_from_rule(12, PowerRule(q, 2))
        bound = derivative_bound_constants(GrowthClass("test", q, 2, 1.0))
        grid = PeriodicGrid.line(256)
        for m in range(1, 13):
            deriv = synthesize(derivative_sequence(c, m), grid)
            observed = float(np.max(np.abs(deriv.values)))
            assert observed <= slack * bound.magnitude(m)


class TestPositivity:
    def test_delta_mass(self):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}))
        res = positivity_check(F, t=0.5, trial_count=10)
        assert res.positive
        assert res.route_gap < 1e-10

    def test_poisson_coefficients(self):
        F = UltraDistribution(seq_from_rule(24, PowerRule(math.exp(-1.0), 1)))
        res = positivity_check(F, t=0.3, trial_count=20)
        assert res.positive
        assert res.min_pairing >= -1e-10
        assert res.route_gap < 1e-10

    def test_signed_distribution_fails(self):
        # -cos x is negative near 0; pairing with |p|^2 concentrated there
        # goes negative for small smoothing times.
        F = UltraDistribution(CoefficientSequence.from_dict(
            {0: 0.05, 1: -0.5, -1: -0.5}))
        res = positivity_check(F, t=0.01, trial_count=40)
        assert not res.positive


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", NON_FINITE)
    def test_evolve_ultra(self, t):
        F = UltraDistribution(seq_from_rule(4, PowerRule(2.0, 1)))
        with pytest.raises(ValueError, match="time must be finite"):
            evolve_ultra(F, t)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_evolution_deficit_pair(self, t):
        f = seq_from_rule(4, PowerRule(0.3, 2))
        with pytest.raises(ValueError, match="time must be finite"):
            evolution_deficit_pair(comb(), f, t, f_class=GrowthClass("test", 0.3, 2, 1.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_weak_limit_check(self, t):
        f = seq_from_rule(4, PowerRule(0.3, 2))
        with pytest.raises(ValueError, match="time must be finite"):
            weak_limit_check(comb(), f, (1.0, t, 0.1))

    def test_weak_limit_check_negative_infinity(self):
        f = seq_from_rule(4, PowerRule(0.3, 2))
        with pytest.raises(ValueError, match="strictly positive"):
            weak_limit_check(comb(), f, (1.0, -math.inf, 0.1))

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_positivity_check(self, t):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}))
        with pytest.raises(ValueError, match="time must be finite"):
            positivity_check(F, t, trial_count=1)
