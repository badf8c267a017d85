import cmath
import collections
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaflow import ultradist
from thetaflow.fourier import CoefficientSequence, PeriodicGrid, synthesize
from thetaflow.ultradist import (
    GrowthClass,
    MembershipResult,
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

    @pytest.mark.parametrize("base, order, message", [
        (0.5, 0, "order"), (0.5, -1, "order"), (0.5, 1.9, "order"), (0.5, "2", "order"),
        (0.5, True, "order"), (math.nan, 1, "base"), (math.inf, 2, "base"),
    ])
    def test_power_rule_checks_order_and_base(self, base, order, message):
        # Order 0 once failed later with a ZeroDivisionError, 1.9 ran as order 1.
        with pytest.raises(ValueError, match=message):
            PowerRule(base, order)
        assert PowerRule(0.5, 2.0).order == 2 and type(PowerRule(0.5, 2.0).order) is int

    def test_bound_overflow_is_inf(self):
        g = GrowthClass("dual", 2.0, 2, 1.0)
        assert g.bound(100) == math.inf


class TestMembership:
    def test_declared_class_is_judged_by_the_membership_ratio(self):
        # |c_0| / c = 1.000000000001 is within the slack: check_membership
        # passed this class while UltraDistribution refused it as declared.
        c = CoefficientSequence.from_dict({0: 5.460466080471469})
        g = GrowthClass("dual", 1.0, 1, 5.4604660804660075)
        res = check_membership(c, g)
        assert res.ok and res.worst_ratio == 1.000000000001
        assert UltraDistribution(c, declared_class=g).declared_class == g
        tight = GrowthClass("dual", 1.0, 1, 5.46046608046)
        assert not check_membership(c, tight).ok
        with pytest.raises(ValueError, match="exceeds bound"):
            UltraDistribution(c, declared_class=tight)

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

    def test_exponential_dual_member_in_closed_form(self):
        # A 1e6-term scan took seconds; the closed form returns its result.
        c = seq_from_rule(6, PowerRule(2.0, 1))
        g = GrowthClass("dual", 2.0, 1, 1.0)
        check_membership(c, g)
        t0 = time.perf_counter()
        res = check_membership(c, g)
        assert time.perf_counter() - t0 < 0.05
        assert res == MembershipResult(True, -6, 1.0, 1_000_000)

    def test_high_order_power_tail_is_scanned(self):
        # (1e6)^60 is no float, so this class is checked by the chunked scan.
        c = seq_from_rule(3, PowerRule(0.5, 60))
        res = check_membership(c, GrowthClass("test", 0.5, 60, 1.0))
        assert res == MembershipResult(True, -1, 1.0, 4)

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

    def test_overflowing_tail_compared_in_log_magnitude(self):
        # Past |n| ~ 1024 both 2.0001^|n| and 1.1 * 2^|n| overflow; in log
        # magnitude the bound first fails at |n| = 1907.
        c = seq_from_rule(8, PowerRule(2.0001, 1))
        res = check_membership(c, GrowthClass("dual", 2.0, 1, 1.1))
        assert not res.ok
        assert abs(res.worst_n) == 1907
        assert res.checked_up_to == 1907
        assert 1.0 < res.worst_ratio < 1.0001

    def test_overflowing_member_passes(self):
        c = seq_from_rule(8, PowerRule(2.0, 1))
        res = check_membership(c, GrowthClass("dual", 2.0, 1, 1.0), max_terms=3000)
        assert res.ok
        assert res.checked_up_to == 3000
        assert res.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_undecidable_overflow_is_not_a_pass(self):
        # A rule without a known log magnitude: inf against inf is undecided.
        rule = PowerRule(2.0, 1)
        c = seq_from_rule(8, lambda n: rule(n))
        res = check_membership(c, GrowthClass("dual", 2.0, 1, 1.0), max_terms=3000)
        assert not res.ok
        assert res.worst_ratio == math.inf
        assert res.checked_up_to == abs(res.worst_n) < 3000

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


def _log_ratio_oracle(rule, g, m):
    try:
        log_v = m ** rule.order * math.log(abs(rule.base))
        log_b = math.log(g.constant) + m ** g.order * math.log(g.base)
        r = math.exp(log_v - log_b)
    except OverflowError:
        return math.inf
    return r if r == r else math.inf


def _scan_membership(c, g, tol, max_terms):
    """Brute-force oracle: the window from the library, the tail scanned term by term.

    The tail loop is the scalar scan check_membership ran before its
    PowerRule tails were decided in closed form.
    """
    w = check_membership(CoefficientSequence(c.halfwidth, c.coeffs), g, tol, max_terms)
    worst, worst_n, checked = w.worst_ratio, w.worst_n, c.halfwidth
    if worst <= 1.0 + 1e-12:
        for n in range(c.halfwidth + 1, max_terms + 1):
            v, b = abs(c.rule(n)), g.bound(n)
            r = v / b if b > 0.0 else (math.inf if v > 0.0 else 0.0)
            if r != r:
                r = _log_ratio_oracle(c.rule, g, n)
            checked = n
            if r > worst:
                worst, worst_n = r, n
            if r > 1.0 + 1e-12 or (b < tol and v < tol):
                break
    return MembershipResult(worst <= 1.0 + 1e-12, worst_n, worst, checked)


class TestClosedFormMembership:
    @given(st.floats(0.3, 3.0), st.integers(1, 3), st.floats(0.05, 3.0), st.integers(1, 3),
           st.floats(0.1, 10.0), st.integers(0, 5), st.integers(1, 1500),
           st.sampled_from([1e-14, 1e-8, 1e-3, 2.0]), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_scalar_scan(self, b, k, B, K, c, hw, max_terms, tol,
                                     same_base, unit_constant):
        # Equal bases and a unit constant make the ratio flat, the hardest ties.
        B = b if same_base else B
        c = 1.0 if unit_constant else c
        g = GrowthClass("test" if B < 1.0 else "dual", B, K, c)
        seq = seq_from_rule(hw, PowerRule(b, k))
        assert check_membership(seq, g, tol, max_terms) == _scan_membership(seq, g, tol, max_terms)

    @pytest.mark.parametrize("b, k, B, K, c", [
        (0.747, 2, 0.747, 3, 1.0),   # both sides underflow to 0 past the violation
        (0.5, 1, 0.5, 2, 4.4),
        (2.0001, 1, 2.0, 1, 1.1),    # decided in log magnitude past overflow
        (1.8, 1, 1.8, 1, 5.5),       # flat ratio with a non-unit constant
        (0.9, 3, 0.5, 1, 3.0),       # interior maximum of the log ratio
        (1.5, 1, 0.9, 2, 2.0),
    ])
    def test_regression_cases(self, b, k, B, K, c):
        g = GrowthClass("test" if B < 1.0 else "dual", B, K, c)
        seq = seq_from_rule(2, PowerRule(b, k))
        for tol in (1e-14, 1e-3):
            assert (check_membership(seq, g, tol, 3000)
                    == _scan_membership(seq, g, tol, 3000))


def _library_scan(c, g, tol, max_terms):
    """check_membership with the tail checked by the library's chunked scan alone."""
    w = check_membership(CoefficientSequence(c.halfwidth, c.coeffs), g, tol, max_terms)
    if not w.ok:
        return w
    ratio, n, checked = ultradist._scan(c, g, tol, c.halfwidth + 1, max_terms,
                                        w.worst_ratio, w.worst_n)
    return MembershipResult(ratio <= 1.0 + 1e-12, n, ratio, checked)


class TestOneEvaluator:
    @given(st.floats(0.3, 3.0), st.integers(1, 3),
           st.sampled_from([0.0, 1e-13, -1e-13, 1e-4, -0.5]), st.integers(1, 3),
           st.floats(0.1, 10.0), st.integers(0, 5), st.integers(1, 4000),
           st.sampled_from([1e-14, 1e-3]), st.booleans())
    @example(2.0001, 1, 2.0 / 2.0001 - 1.0, 1, 1.1, 8, 3000, 1e-14, False)  # log magnitude decides
    @example(2.0, 1, 0.0, 1, 3.0, 6, 3000, 1e-14, False)  # flat past overflow
    @settings(max_examples=60, deadline=None)
    def test_closed_form_agrees_with_the_chunked_scan(self, b, k, dB, K, c, hw, max_terms,
                                                      tol, unit_constant):
        # Bases within rounding of each other make ties; bases above 1 overflow
        # within max_terms, so some tails are decided in log magnitude.
        B = b * (1.0 + dB)
        g = GrowthClass("test" if B < 1.0 else "dual", B, K, 1.0 if unit_constant else c)
        seq = seq_from_rule(hw, PowerRule(b, k))
        assert check_membership(seq, g, tol, max_terms) == _library_scan(seq, g, tol, max_terms)

    def test_stop_inside_a_tie_span_is_the_stop(self):
        # The ratio 1 + 1e-12 (the slack) is first passed at n = 1030; the
        # stop search, misled by its non-monotone rounding, reported 1054.
        seq = seq_from_rule(5, PowerRule(2.3308526089474624, 1))
        g = GrowthClass("dual", 2.33085260894746, 1, 1.0)
        res = check_membership(seq, g, 2.0, 2513)
        assert res == _library_scan(seq, g, 2.0, 2513)
        assert res == MembershipResult(False, 1030, 1.0000000000010232, 1030)

    def test_near_tie_tails_agree_with_the_chunked_scan(self):
        # Class bases within a few ulps of the rule's: the ratio creeps past
        # the slack after hundreds of terms. 13 of these 300 stopped late.
        rng = np.random.default_rng(2020)
        for _ in range(300):
            k, b = int(rng.integers(1, 3)), float(rng.uniform(1.05, 3.0))
            B = float(f"{b:.14g}") if rng.random() < 0.5 else b * (1 - rng.uniform(-4, 4) * 1e-16)
            seq = seq_from_rule(int(rng.integers(0, 8)), PowerRule(b, k))
            g = GrowthClass("dual", B, k, 1.0)
            tol, max_terms = (1e-14, 2.0)[int(rng.integers(2))], int(rng.integers(100, 4000))
            assert (check_membership(seq, g, tol, max_terms)
                    == _library_scan(seq, g, tol, max_terms)), (b, B, k, tol, max_terms)

    def test_high_order_overflow_is_decided_in_log_magnitude(self):
        # (1e5)^60 is no float, so the scan decides; it took inf against inf
        # at n = 2 for a violation, which the closed form (up to 1e4) did not.
        c = seq_from_rule(1, PowerRule(2.0, 60))
        g = GrowthClass("dual", 2.0, 60, 1.0)
        assert check_membership(c, g, max_terms=10_000) == MembershipResult(True, -1, 1.0, 10_000)
        assert check_membership(c, g, max_terms=100_000) == MembershipResult(True, -1, 1.0, 100_000)

    def test_scalar_forms_past_the_float_range(self):
        # (1e6)^60 overflows a float: the value underflows, it is not inf.
        assert PowerRule(0.5, 60)(10**6) == 0.0
        assert GrowthClass("test", 0.5, 60).bound(10**6) == 0.0
        assert PowerRule(2.0, 60)(10**6) == math.inf
        assert GrowthClass("dual", 2.0, 60, 0.0).bound(10**6) == 0.0
        # Indices are int64: a larger one is refused, not wrapped around.
        with pytest.raises(OverflowError):
            PowerRule(0.5, 1)(2**63)
        with pytest.raises(OverflowError):
            GrowthClass("test", 0.5, 1).bound(2**63)

    def test_scalar_forms_refuse_a_non_integer_index(self):
        # They once truncated it: PowerRule(0.5, 1)(9.5) gave 0.5^9.
        with pytest.raises(ValueError, match="got 9.5$"):
            PowerRule(0.5, 1)(9.5)
        with pytest.raises(ValueError, match="got 9.9$"):
            GrowthClass("test", 0.5, 1).bound(9.9)
        with pytest.raises(ValueError, match="got True$"):
            PowerRule(0.5, 1)(True)
        with pytest.raises(ValueError, match="got 7.5$"):
            derivative_sequence(seq_from_rule(3, PowerRule(0.5, 1)), 1).value(7.5)
        assert PowerRule(0.5, 1)(np.int32(9)) == GrowthClass("test", 0.5, 1).bound(9) == 0.5**9

    def test_reported_numbers_are_python_numbers(self):
        res = pair(comb(), seq_from_rule(12, PowerRule(0.5, 2)),
                   f_class=GrowthClass("test", 0.5, 2, 1.0))
        assert type(res.tail_bound) is float
        m = check_membership(seq_from_rule(6, PowerRule(2.0, 1)),
                             GrowthClass("dual", 2.0, 1, 3.0), max_terms=3000)
        assert type(m.worst_ratio) is float and type(m.worst_n) is int

    def test_flat_tie_is_scanned_in_chunks(self):
        # Every tied index was evaluated one at a time: 3.4 s.
        c = seq_from_rule(6, PowerRule(2.0, 1))
        g = GrowthClass("dual", 2.0, 1, 3.0)
        t0 = time.perf_counter()
        res = check_membership(c, g)
        assert time.perf_counter() - t0 < 1.1
        assert res == MembershipResult(True, 378194, 0.3333333333382416, 1_000_000)

    def test_index_powers_round_once_from_the_exact_integer(self):
        rng = np.random.default_rng(11)
        for k in (3, 4, 5, 8):
            root = int(2 ** (63 / k))  # the powers cross 2^63 here
            ns = rng.integers(root // 4, 16 * root, 25_000)
            expected = [float(n ** k) for n in ns.tolist()]
            assert ultradist._index_powers(ns, k).tolist() == expected
            assert ultradist._index_powers(-ns, k).tolist() == expected

    def test_index_powers_end_at_the_float_range(self):
        n = int(2 ** (1024 / 17))
        while (n + 1) ** 17 < 2**1024 - 2**970:
            n += 1
        while n ** 17 >= 2**1024 - 2**970:
            n -= 1
        got = ultradist._index_powers(np.array([n, n + 1]), 17).tolist()
        assert got == [float(n ** 17), math.inf]


class TestArrayForm:
    RULES = {
        "power": PowerRule(1.5, 2),
        "power_test": PowerRule(0.7, 1),
        "evolved": evolve_ultra(UltraDistribution(seq_from_rule(3, PowerRule(1.5, 2))),
                                0.05).coeffs.rule,
        "differentiated": derivative_sequence(seq_from_rule(3, PowerRule(1.5, 2)), 3).rule,
        "callable": lambda n: 1.02 ** abs(n) * complex(math.cos(n), math.sin(n)),
    }

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_values_agree_with_value(self, name):
        # Across the window edge and, for the growing rules, into overflow.
        seq = seq_from_rule(8, self.RULES[name])
        ns = np.concatenate([np.arange(-12, 13), np.arange(40, 46), -np.arange(40, 46),
                             np.arange(1000, 1004)])
        scalar = np.array([seq.value(int(n)) for n in ns])
        np.testing.assert_allclose(seq.values(ns), scalar, rtol=1e-13, atol=0.0)

    def test_overflowed_differentiated_rule_is_not_nan(self):
        d = derivative_sequence(seq_from_rule(3, PowerRule(1.5, 2)), 1)
        assert d.value(50) == complex(0.0, math.inf)
        assert d.value(-50) == complex(0.0, -math.inf)

    def test_bounds_agree_with_bound(self):
        ns = np.arange(-60, 61)
        for g in (GrowthClass("dual", 1.5, 2, 3.0), GrowthClass("test", 0.4, 1, 0.0)):
            scalar = np.array([g.bound(int(n)) for n in ns])
            np.testing.assert_allclose(g.bounds(ns), scalar, rtol=1e-13, atol=0.0)


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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(4, 30), st.booleans())
    @example(1, 3, 30, True)  # worst ratio 1 + 2.2e-12 at n = -30 against the old fit
    @settings(max_examples=60, deadline=None)
    def test_window_is_a_member_of_its_fit(self, seed, k, hw, growing):
        # The constant was fitted against exp(slope |n|^k), not the bound
        # check_membership forms; near base 1 they part by more than the slack.
        rng = np.random.default_rng(seed)
        d = rng.uniform(1e-4, 1e-2)
        base = 1.0 + d if growing else 1.0 - d
        n = np.abs(np.arange(-hw, hw + 1)).astype(float)
        c = CoefficientSequence(hw, rng.uniform(0.5, 1.0, 2 * hw + 1) * base ** n**k)
        assert check_membership(c, fit_growth(c, k)).ok

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


    def test_declared_test_class_is_verified(self):
        # f decays like 0.999^|n|, not 0.5^|n|: trusting the class gave a
        # tail bound of 3.7e-10 against a true error of 1.2e4.
        f = seq_from_rule(8, PowerRule(0.999, 1))
        with pytest.raises(ValueError, match=r"class of f violated at n = 1\b"):
            pair(comb(), f, f_class=GrowthClass("test", 0.5, 1, 1.0), tol=1e-10)

    def test_declared_tail_of_f_is_verified(self):
        # The window satisfies the class; the rule breaks it from |n| = 9.
        window = {n: 0.5 ** abs(n) for n in range(-8, 9)}
        f = CoefficientSequence.from_dict(window, rule=PowerRule(0.6, 1))
        with pytest.raises(ValueError, match=r"class of f violated at n = 9\b"):
            pair(comb(), f, f_class=GrowthClass("test", 0.5, 1, 1.0))

    def test_declared_distribution_tail_is_verified(self):
        F = UltraDistribution(
            CoefficientSequence.from_dict({n: 1.0 for n in range(-4, 5)},
                                          rule=PowerRule(1.1, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        f = seq_from_rule(4, PowerRule(0.5, 1))
        with pytest.raises(ValueError, match=r"class of F violated at n = 5\b"):
            pair(F, f, f_class=GrowthClass("test", 0.5, 1, 1.0))

    def test_growth_of_higher_order_than_decay_refused(self):
        # pq = 0.6 < 1, yet 1.2^(n^2) 0.5^n diverges.
        F = UltraDistribution(seq_from_rule(4, PowerRule(1.2, 2)),
                              declared_class=GrowthClass("dual", 1.2, 2, 1.0))
        f = seq_from_rule(4, PowerRule(0.5, 1))
        with pytest.raises(ValueError, match="divergent pairing"):
            pair(F, f, f_class=GrowthClass("test", 0.5, 1, 1.0), tol=1e-4)

    def test_terms_counts_the_summed_indices(self):
        # f has no rule past |n| = 2, so the sum ends there, exactly.
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}, rule=lambda n: 1.0))
        f = CoefficientSequence.from_dict({n: 1.0 for n in range(-2, 3)})
        res = pair(F, f)
        assert res.terms == 5 and res.tail_bound == 0.0
        assert res.value == pytest.approx(5 * TWO_PI, rel=1e-15)

    @pytest.mark.parametrize("tol", [1e-14, 1.0, 1.7e308])
    def test_bare_window_ends_the_sum_exactly(self, tol):
        # The sum walked 25 terms past f's window and reported a tail bound of
        # 2pi * 16 tol: 1.0e-12, 100.5 and inf, though every term left is 0.
        F = UltraDistribution(seq_from_rule(4, PowerRule(1.0, 1)))
        f = CoefficientSequence.from_dict({0: 1.0, 1: 0.5})
        res = pair(F, f, tol=tol)
        assert (res.value, res.tail_bound, res.terms) == (3 * math.pi, 0.0, 3)

    def test_declared_class_is_verified_past_a_bare_window(self):
        # f is 0 past |n| = 2, yet F's class is checked where the class tail still sums.
        F = UltraDistribution(
            CoefficientSequence.from_dict({n: 1.0 for n in range(-4, 5)},
                                          rule=PowerRule(1.1, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        f = CoefficientSequence.from_dict({n: 0.5 ** abs(n) for n in range(-2, 3)})
        with pytest.raises(ValueError, match=r"class of F violated at n = 5\b"):
            pair(F, f, f_class=GrowthClass("test", 0.5, 1, 1.0))

    def test_class_driven_sum_is_chunked_in_a_fixed_order(self):
        f = seq_from_rule(8, PowerRule(0.999, 1))
        g = GrowthClass("test", 0.999, 1, 1.0)
        a = pair(comb(), f, f_class=g)
        b = pair(comb(), f, f_class=g)
        assert a == b
        exact = TWO_PI * (1.999 / 0.001)
        assert abs(a.value - exact) <= a.tail_bound + 2 * a.terms * 2.3e-16 * exact


    @pytest.mark.parametrize("classes", [True, False])
    def test_overflowed_term_is_refused(self, classes):
        # 2^|n| overflows at |n| = 1024 while 0.49^|n| is still subnormal: the
        # sum was nan + nan j with a tail bound of 6.2e-14.
        F = UltraDistribution(seq_from_rule(4, PowerRule(2.0, 1)),
                              GrowthClass("dual", 2.0, 1, 1.0) if classes else None)
        f = seq_from_rule(4, PowerRule(0.49, 1))
        f_class = GrowthClass("test", 0.49, 1, 1.0) if classes else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"at n = 1024 is not finite"):
                pair(F, f, f_class=f_class)
            with pytest.raises(OverflowError, match=r"at n = 1024 is not finite"):
                evolution_deficit_pair(F, f, 0.5, f_class)


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


    def test_declared_class_refuses_non_finite_entries(self):
        # 1.5^(n^2) overflows from |n| = 42: 38 inf entries passed as inf <= inf.
        with pytest.raises(ValueError, match="n = -60: .* is not finite"):
            UltraDistribution(seq_from_rule(60, PowerRule(1.5, 2)),
                              declared_class=GrowthClass("dual", 1.5, 2, 1.0))

    def test_declared_class_refuses_nan_entries(self):
        with pytest.raises(ValueError, match="n = 2: .* is not finite"):
            UltraDistribution(CoefficientSequence.from_dict({2: math.nan, -2: 0.0}),
                              declared_class=GrowthClass("dual", 2.0, 1, 1.0))

    def test_overflowed_window_evolves_without_error(self):
        # Used to warn on inf * 0 and end in an OverflowError.
        F = UltraDistribution(seq_from_rule(60, PowerRule(1.5, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_ultra(F, 2.0)
        w = out.coeffs.coeffs
        assert np.all(np.isfinite(w))
        assert out.coeffs[50] == 0.0  # the damping factor underflows to exactly 0
        assert out.coeffs[3] == pytest.approx(1.5 ** 9 * math.exp(-18.0), rel=1e-14)


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


class CountingPhasedRule:
    """Opaque rule n -> r^|n| e^(i theta n) that counts its calls per index."""

    def __init__(self, r, theta=0.7):
        self.r, self.theta = r, theta
        self.calls = collections.Counter()

    def __call__(self, n):
        self.calls[n] += 1
        return self.r ** abs(n) * cmath.exp(1j * self.theta * n)


class TestKeptTailPairings:
    """Pairings read an opaque rule's kept values: each index is asked once, results unchanged."""

    def test_two_pairings_and_a_weak_limit_check_ask_each_index_once(self):
        rule = CountingPhasedRule(0.9)
        f = seq_from_rule(8, rule)
        q = GrowthClass("test", 0.9, 1, 1.0)
        first = pair(comb(), f, f_class=q)
        assert pair(comb(), f, f_class=q) == first
        pair(UltraDistribution(comb().coeffs, None), f)
        report = weak_limit_check(comb(), f, [2.0 ** -k for k in range(7)], f_class=q)
        assert len(report.magnitudes) == 7
        last = first.terms // 2
        assert set(range(-last, last + 1)) <= set(rule.calls)
        assert max(rule.calls.values()) == 1

    def test_a_membership_scan_and_a_pairing_ask_each_index_once(self):
        # The scan reads the sequence, and keeps, as the pairing does.
        rule = CountingPhasedRule(0.9)
        f = seq_from_rule(8, rule)
        q = GrowthClass("test", 0.95, 1, 1.0)
        res = check_membership(f, q)
        assert res.ok and res.checked_up_to > 500
        pair(comb(), f, f_class=q)
        assert set(range(-res.checked_up_to, res.checked_up_to + 1)) <= set(rule.calls)
        assert max(rule.calls.values()) == 1

    def test_F_is_asked_only_where_f_is_not_zero(self):
        rule = CountingPhasedRule(1.0)
        F = UltraDistribution(seq_from_rule(4, rule), None)
        f = CoefficientSequence(4, np.ones(9), lambda n: 0.8 ** abs(n) if n % 3 == 0 else 0.0)
        assert pair(F, f) == pair(F, f)
        tail = [n for n in rule.calls if abs(n) > 4]
        assert len(tail) > 50 and all(n % 3 == 0 for n in tail)
        assert max(rule.calls.values()) == 1

    def test_threads_pairing_one_sequence_get_the_serial_results(self):
        q = GrowthClass("test", 0.97, 1, 1.0)

        def work(f):
            return [pair(comb(), f, f_class=q), pair(UltraDistribution(comb().coeffs, None), f),
                    evolution_deficit_pair(comb(), f, 0.01, f_class=q)]

        serial = work(seq_from_rule(8, CountingPhasedRule(0.97)))
        rules = [CountingPhasedRule(0.97) for _ in range(20)]
        shared = [seq_from_rule(8, rule) for rule in rules]  # a fresh one a round
        barrier = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def run(k):
            for f in shared:
                barrier.wait(timeout=60)
                results[k].append(work(f))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the kept tail's updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(rs) == 20 and all(r == serial for r in rs) for rs in results)
        for rule, f in zip(rules, shared):
            asked = sum(rule.calls.values())
            assert work(f) == serial
            assert sum(rule.calls.values()) == asked  # no kept value was lost to a race

    def test_derived_sequences_ask_their_source_once_per_index(self):
        # An evolution or a derivative reads its source's kept values, not the bare rule.
        rule = CountingPhasedRule(1.0)
        F = UltraDistribution(seq_from_rule(8, rule), None)
        f = seq_from_rule(8, PowerRule(0.95, 1))
        evolved = evolve_ultra(F, 0.01)
        for G in (evolved, derivative_ultra(F, 1), derivative_ultra(evolved, 2)):
            first = pair(G, f)
            assert pair(G, f) == pair(G, f) == first
        assert len(rule.calls) > 1000 and max(rule.calls.values()) == 1

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.05, 0.95), theta=st.floats(-4.0, 4.0), phi=st.floats(-4.0, 4.0),
           hw=st.integers(0, 12), t=st.floats(1e-6, 10.0), declared=st.booleans(),
           opaque_F=st.booleans(), step=st.sampled_from([None, "evolve", "derive"]))
    def test_fresh_and_kept_sequences_pair_alike(self, r, theta, phi, hw, t, declared,
                                                 opaque_F, step):
        F_class = GrowthClass("dual", 1.0, 1, 1.0) if declared else None
        f_class = GrowthClass("test", r, 1, 1.0) if declared else None

        def fresh():
            F_rule = CountingPhasedRule(1.0, phi) if opaque_F else PowerRule(1.0, 1)
            return (UltraDistribution(seq_from_rule(hw, F_rule), F_class),
                    seq_from_rule(hw, CountingPhasedRule(r, theta)))

        def derived(F):  # the step, if any, whose rule reads F's sequence
            if step == "evolve":
                return evolve_ultra(F, t)
            if step == "derive":
                return UltraDistribution(derivative_sequence(F.coeffs, 1), None)
            return F

        def results(F, f):
            G = derived(F)
            return pair(G, f, f_class=f_class), evolution_deficit_pair(G, f, t, f_class)

        F, f = fresh()
        first = results(F, f)
        assert results(*fresh()) == results(F, f) == first
        assert max(f.rule.calls.values()) == 1
        if opaque_F:
            assert max(F.coeffs.rule.calls.values()) == 1


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


BAD_TOLS = [-1.0, 0.0, math.nan, math.inf, -math.inf]


def _sweep_pairings():
    """(F, f, f_class) for the class-driven sum, the heuristic tail and a bare window."""
    F = comb(4)
    f = seq_from_rule(4, PowerRule(0.5, 1))
    plain = UltraDistribution(F.coeffs)
    return [(F, f, GrowthClass("test", 0.5, 1)), (plain, f, None),
            (plain, CoefficientSequence.from_dict({0: 1.0, 1: 0.5}), None)]


class TestToleranceAndTerms:
    """Every tol of the coefficient engine is positive and finite, and max_terms an integer."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_pair_refuses_a_bad_tol(self, tol):
        # tol = -1 gave tail_bound -100.5; tol = nan a NaN bound after 200 001 terms.
        for F, f, f_class in _sweep_pairings():
            with pytest.raises(ValueError, match="^tol must be positive and finite"):
                pair(F, f, f_class, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_check_membership_refuses_a_bad_tol(self, tol):
        # tol = nan scanned the tail to max_terms = 1 000 000.
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            check_membership(comb(4).coeffs, GrowthClass("dual", 1.0, 1), tol=tol)

    @pytest.mark.parametrize("max_terms", [0.5, 2.5, math.nan, "3", None, True])
    def test_check_membership_refuses_a_max_terms_that_is_not_an_integer(self, max_terms):
        # max_terms = 0.5 left the tail 2^|n| unchecked and still returned ok=True.
        c = CoefficientSequence.from_dict({0: 1.0}, rule=lambda n: 2.0 ** abs(n))
        g = GrowthClass("dual", 1.5, 1)
        with pytest.raises(ValueError, match="^max_terms must be an integer"):
            check_membership(c, g, max_terms=max_terms)
        assert not check_membership(c, g, max_terms=1).ok

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_weak_limit_check_refuses_a_bad_tol(self, tol):
        # With tol = nan the report could never pass.
        f = seq_from_rule(10, PowerRule(0.3, 2))
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            weak_limit_check(comb(), f, (1.0, 0.1), GrowthClass("test", 0.3, 2), tol=tol)

    @given(tol=st.floats() | st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308]),
           max_terms=st.integers(-10, 10**6) | st.sampled_from([2.5, math.nan, "3", None]))
    @settings(max_examples=80, deadline=None)
    def test_sweep_refuses_or_reports_a_bound(self, tol, max_terms):
        good_tol = math.isfinite(tol) and tol > 0
        calls = [(lambda F=F, f=f, g=g: pair(F, f, g, tol=tol).tail_bound, good_tol)
                 for F, f, g in _sweep_pairings()]
        calls.append((lambda: check_membership(comb(4).coeffs, GrowthClass("dual", 1.0, 1),
                                               tol=tol, max_terms=max_terms).worst_ratio,
                      good_tol and isinstance(max_terms, int)))
        calls.append((lambda: weak_limit_check(comb(), seq_from_rule(10, PowerRule(0.3, 2)),
                                               (1.0, 0.1), GrowthClass("test", 0.3, 2),
                                               tol=tol).final, good_tol))
        for call, valid in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = call()
                except ValueError:
                    assert not valid
                    continue
            assert valid
            assert value >= 0.0 and math.isfinite(value)  # >= 0 refuses NaN


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

    @pytest.mark.parametrize("m", [-1, 1.5, math.nan, math.inf, "2", True])
    def test_order_must_be_a_nonnegative_integer(self, m):
        with pytest.raises(ValueError, match="derivative order"):
            derivative_sequence(seq_from_rule(3, PowerRule(0.5, 1)), m)

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


def _cosine(a, scale=1.0):
    """scale * (1 + 2a cos x)."""
    return UltraDistribution(CoefficientSequence.from_dict({0: scale, 1: scale * a, -1: scale * a}))


def _nonneg_trial_coefficients(rng, degree):
    """Coefficients of |p(x)|^2 for a random trig polynomial p of the degree, and sum |p_m|^2."""
    phat = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
    # c_n = sum_m p_m conj(p_(m - n)): the autocorrelation of the p_m
    f = CoefficientSequence(2 * degree, np.convolve(phat, np.conj(phat[::-1])))
    return f, float(np.sum(np.abs(phat) ** 2))


def _abs_sum(F, t):
    """sum |G_n| over |n| <= 12 for G_n = F_n exp(-n^2 t): the scale of the round-off."""
    return float(np.abs(evolve_ultra(F, t).coeffs.values(np.arange(-12, 13))).sum())


POSITIVITY_CASES = {
    "cosine_0.55": (_cosine(0.55), 1e-3),
    "poisson": (UltraDistribution(seq_from_rule(24, PowerRule(math.exp(-1.0), 1))), 0.3),
    "comb": (comb(), 0.5),
    "complex": (UltraDistribution(CoefficientSequence(
        14, [1.0, 1j] @ np.random.default_rng(3).normal(size=(2, 29)))), 0.01),
}


class TestPositivity:
    def test_delta_mass(self):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}))
        res = positivity_check(F, t=0.5)
        assert res.positive
        assert res.route_gap < 1e-10

    def test_poisson_coefficients(self):
        F = UltraDistribution(seq_from_rule(24, PowerRule(math.exp(-1.0), 1)))
        res = positivity_check(F, t=0.3)
        assert res.positive
        assert res.min_pairing >= -1e-10
        assert res.route_gap < 1e-10

    def test_signed_distribution_fails(self):
        # -cos x is negative near 0; pairing with |p|^2 concentrated there
        # goes negative for small smoothing times.
        F = UltraDistribution(CoefficientSequence.from_dict(
            {0: 0.05, 1: -0.5, -1: -0.5}))
        res = positivity_check(F, t=0.01)
        assert not res.positive

    @pytest.mark.parametrize("t", [1e-3, 1e-2])
    def test_cosine_closed_form(self, t):
        # 1 + 1.1 cos x evolves to a function negative near pi. A is tridiagonal
        # (1 on the diagonal, a e^-t beside it), least eigenvalue 1 - 2 a e^-t cos(pi/14).
        a = 0.55
        res = positivity_check(_cosine(a), t)
        assert not res.positive
        exact = TWO_PI * (1.0 - 2.0 * a * math.exp(-t) * math.cos(math.pi / 14))
        assert res.min_pairing == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_huge_signed_cosine_fails(self):
        assert not positivity_check(_cosine(1.0, 1e300), 1e-3).positive

    def test_scope_is_degree_twelve(self):
        # T_t F for 1 + 1.01 cos x dips to -0.009 at pi, yet every |p|^2 of degree
        # <= 12 pairs with it positively: the verdict covers that class only.
        a, t = 0.505, 1e-3
        assert 1.0 - 2.0 * a * math.exp(-t) < -0.008
        res = positivity_check(_cosine(a), t)
        assert res.positive
        exact = TWO_PI * (1.0 - 2.0 * a * math.exp(-t) * math.cos(math.pi / 14))
        assert res.min_pairing == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_scaled_comb_within_round_off(self):
        # The evolved comb's least pairing is round-off, far above 1e-10 at scale 1e20:
        # the allowance 2pi * 13 eps * sum |G_n| covers it.
        F, t = UltraDistribution(CoefficientSequence(16, np.full(33, 1e20))), 1e-3
        res = positivity_check(F, t)
        assert res.positive
        assert abs(res.min_pairing) <= 1e-10 + 13 * np.finfo(float).eps * TWO_PI * _abs_sum(F, t)

    @pytest.mark.parametrize("name", sorted(POSITIVITY_CASES))
    def test_no_trial_pairs_below_the_least(self, name):
        F, t = POSITIVITY_CASES[name]
        least = positivity_check(F, t).min_pairing
        evolved, slack = evolve_ultra(F, t), 1e-12 * TWO_PI * _abs_sum(F, t)
        rng = np.random.default_rng(12345)
        for _ in range(200):
            f, norm = _nonneg_trial_coefficients(rng, 6)
            assert pair(evolved, f).value.real / norm >= least - slack

    @pytest.mark.parametrize("name", sorted(POSITIVITY_CASES))
    def test_witness_pairs_twice_at_the_least(self, name, monkeypatch):
        F, t = POSITIVITY_CASES[name]
        values, core = [], ultradist._pair_core

        def counted(*args, **kwargs):
            res = core(*args, **kwargs)
            values.append(res.value)
            return res

        monkeypatch.setattr(ultradist, "_pair_core", counted)
        res = positivity_check(F, t)
        assert len(values) == 2
        slack = 1e-12 * TWO_PI * _abs_sum(F, t)
        assert all(abs(v.real - res.min_pairing) <= slack for v in values)
        assert res.route_gap == abs(values[0] - values[1])

    def test_non_finite_coefficient_names_n(self):
        F = UltraDistribution(seq_from_rule(2, PowerRule(1e30, 2)))
        with pytest.raises(OverflowError, match="n = -12"):
            positivity_check(F, 1e-3)

    def test_huge_coefficient_is_decided(self):
        # Unscaled, eigh raised LinAlgError("Eigenvalues did not converge") here.
        F = UltraDistribution(CoefficientSequence.from_dict({7: 1.0, 8: 1.0, 9: 7.5263851567623624e227}))
        res = positivity_check(F, 0.0)
        assert not res.positive
        # A is G_9 / 2 on four disjoint index pairs (k, k - 9): lambda_min = -G_9 / 2
        assert math.isclose(res.min_pairing, -math.pi * 7.5263851567623624e227, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(t=st.just(0.0) | st.floats(5e-324, 1e300),
           window=st.integers(0, 16).flatmap(lambda hw: st.tuples(st.just(hw), st.lists(
               st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
               min_size=2 * hw + 1, max_size=2 * hw + 1))),
           rule=st.none() | st.builds(PowerRule, st.floats(-1e300, 1e300), st.integers(1, 3)))
    # A subnormal max |G_n|: dividing A by its power of 2 overflowed and warned.
    @example(t=0.0, window=(0, [5e-324]), rule=None)
    def test_sweep_is_finite_or_refused(self, t, window, rule):
        hw, values = window
        F = UltraDistribution(CoefficientSequence(hw, values, rule))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = positivity_check(F, t)
            except (ValueError, OverflowError) as e:
                assert not isinstance(e, np.linalg.LinAlgError)
                return
        assert math.isfinite(res.min_pairing) and math.isfinite(res.route_gap)


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
            positivity_check(F, t)


class TestHugeTime:
    """exp(-n^2 t) overflows in its exponent; only n = 0 may survive."""

    def test_evolve_and_positivity(self):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0, 1: 2.0, -3: 0.5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_ultra(F, 1.7e308)
            res = positivity_check(F, 1.7e308)
        assert np.array_equal(out.coeffs.coeffs, np.where(out.coeffs.indices() == 0, 1.0, 0.0))
        assert res.positive and res.route_gap == 0.0

    def test_evolution_deficit_pair(self):
        f = seq_from_rule(4, PowerRule(0.3, 2))
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0, 1: 2.0, 3: 0.5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evolution_deficit_pair(F, f, 1.7e308)
        # Every mode but n = 0 loses all of itself: expm1 -> -1 (f_0 = F_0 = 1).
        assert res.value == pytest.approx(-(pair(F, f).value - TWO_PI), abs=1e-12)
