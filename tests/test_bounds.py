"""Tests for the closed-form bound and exponent calculus.

Frozen expected values were derived by hand from the stated formulas and
cross-checked with an independent double-precision evaluation; exact
rational outcomes are asserted with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import gamma_quarter_region_max, oracle_bounds_jsonable
from weightlab import (
    ConfigError,
    DyadicGrid,
    ExponentProfile,
    PowerWeight,
    TabulatedWeight,
    check_factorization,
    evaluate_bounds,
    simplified_weak_type_factor,
    trace_proof,
    unit_weight,
    weak_type_factor,
)
from weightlab.bounds import (
    exponent_comparison,
    extrapolated_strong_bound,
    loss_chain_exponents,
    loss_chain_values,
)
from weightlab.errors import EpsilonOutOfRangeError
from weightlab.profiles import SLACK, GehringProfile, admissible_epsilon, gamma_rate
from weightlab.serialize import dump_json
from weightlab.weights import conjugate_exponent


class TestExponentProfile:
    def test_window_fields_and_derived_exponents(self):
        prof = ExponentProfile(1.0, 4.0)
        assert prof.p == 2.0
        assert prof.q0_star == 2.0
        assert prof.ap_index == 2.0
        assert ExponentProfile(1.5, 4.0).ap_index == pytest.approx(4.0 / 3.0)

    def test_q0_star_convention_at_infinity(self):
        assert ExponentProfile(1.0, math.inf).q0_star == 1.0

    def test_q0_star_spot_values(self):
        assert ExponentProfile(1.0, 4.0).q0_star == 2.0
        assert ExponentProfile(1.0, 3.0).q0_star == 3.0
        assert ExponentProfile(1.0, 6.0).q0_star == 1.5

    @pytest.mark.parametrize("p0", [0.5, 2.0, 2.5])
    def test_p0_outside_window_rejected(self, p0):
        with pytest.raises(ValueError):
            ExponentProfile(p0, 4.0)

    @pytest.mark.parametrize("q0", [2.0, 1.5, -1.0, math.nan])
    def test_q0_at_or_below_two_rejected(self, q0):
        with pytest.raises(ValueError):
            ExponentProfile(1.0, q0)
        with pytest.raises(ConfigError):  # one check serves both error kinds
            ExponentProfile(1.0, q0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 4.0, 5.0])
    def test_target_exponent_outside_open_window_rejected(self, p):
        with pytest.raises(ValueError):
            ExponentProfile(1.0, 4.0, p=p)


class TestGehringProfile:
    def test_worked_values_at_full_range(self):
        prof = GehringProfile(q0_star=2.0, epsilon=2.0 / 3.0)
        assert prof.theta == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert prof.theta_conj == pytest.approx(2.5, rel=1e-15)
        assert prof.gamma == pytest.approx(0.2, rel=1e-15)

    @given(
        q0s=st.floats(min_value=1.05, max_value=8.0),
        eps=st.floats(min_value=1e-3, max_value=4.0),
    )
    def test_gamma_is_reciprocal_of_conjugate_times_q0_star(self, q0s, eps):
        prof = GehringProfile(q0_star=q0s, epsilon=eps)
        assert prof.gamma == pytest.approx(
            1.0 / (prof.theta_conj * prof.q0_star), rel=1e-12
        )
        # theta and its conjugate are genuinely conjugate exponents
        assert 1.0 / prof.theta + 1.0 / prof.theta_conj == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(EpsilonOutOfRangeError):
            GehringProfile(q0_star=2.0, epsilon=0.0)

    def test_epsilon_above_recorded_maximum_rejected(self):
        with pytest.raises(EpsilonOutOfRangeError):
            GehringProfile(q0_star=2.0, epsilon=1.0, epsilon_max=0.5)

    def test_epsilon_at_recorded_maximum_allowed(self):
        prof = GehringProfile(q0_star=2.0, epsilon=0.5, epsilon_max=0.5)
        assert prof.epsilon == 0.5

    def test_q0_star_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            GehringProfile(q0_star=1.0, epsilon=0.5)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
    def test_epsilon_that_is_not_positive_and_finite_rejected(self, eps):
        with pytest.raises(EpsilonOutOfRangeError):
            GehringProfile(q0_star=2.0, epsilon=eps)


class TestGammaAndDefaultEpsilon:
    def test_gamma_spot_values(self):
        assert gamma_rate(2.0, 2.0 / 3.0) == pytest.approx(0.2, rel=1e-15)
        assert gamma_rate(2.0, 0.5) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert GehringProfile(2.0, 0.5).gamma == gamma_rate(2.0, 0.5)

    @given(eps=st.floats(min_value=1e-3, max_value=10.0))
    def test_gamma_is_one_when_q0_star_is_one(self, eps):
        # eps / (1*(1 + eps - 1)) collapses to eps/eps
        assert gamma_rate(1.0, eps) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_validation(self):
        for q0s in (0.5, math.nan):
            with pytest.raises(ConfigError):
                gamma_rate(q0s, 0.5)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(EpsilonOutOfRangeError):
                gamma_rate(2.0, eps)
        with pytest.raises(EpsilonOutOfRangeError):
            gamma_rate(2.0, 1.0, epsilon_max=0.5)

    def test_default_epsilon_spot_values(self):
        assert admissible_epsilon(2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert admissible_epsilon(1.5, 1.0) == 0.5

    def test_default_epsilon_shrinks_with_characteristic(self):
        assert admissible_epsilon(2.0, 4.0) < admissible_epsilon(2.0, 2.0)

    def test_default_epsilon_validation(self):
        for a_infty_pow in (0.5, math.nan):
            with pytest.raises(ConfigError):
                admissible_epsilon(2.0, a_infty_pow)

    @pytest.mark.parametrize(
        "fn, args, error",
        [
            (weak_type_factor, (1.0, 1.0, 0.5, 0.5), ConfigError),  # q0* < 1
            (weak_type_factor, (1.0, 1.0, 2.0, math.inf), EpsilonOutOfRangeError),
            (weak_type_factor, (1.0, 1.0, 2.0, 0.0), EpsilonOutOfRangeError),
            (simplified_weak_type_factor, (1.0, 1.0, 2.0, math.inf), EpsilonOutOfRangeError),
            (simplified_weak_type_factor, (1.0, 1.0, math.nan, 1.0), ConfigError),
        ],
        ids=lambda v: v.__name__ if callable(v) else repr(v),
    )
    def test_bound_formulas_refuse_through_the_single_checks(self, fn, args, error):
        with pytest.raises(error):
            fn(*args)


class TestWeakTypeFactor:
    def test_unit_characteristics_give_nine_quarters(self):
        # gamma = 1/5 at the full range; rh = 1 kills the power factor and
        # ln(1) = 0, leaving (3/2)*(3/2)
        assert weak_type_factor(1.0, 1.0, 2.0, 2.0 / 3.0) == 2.25

    def test_log_term_activates_above_one(self):
        assert weak_type_factor(1.0, math.e, 2.0, 1.0) == 2.0

    def test_hand_evaluated_spot(self):
        # rh = a_infty = 4, q0* = 2, eps = 1/2: gamma = 1/6 and the value is
        # 4^(5/6) * 2 * (2 + ln 4)
        got = weak_type_factor(4.0, 4.0, 2.0, 0.5)
        assert got == pytest.approx(21.50162892446279, rel=1e-12)
        assert got == pytest.approx(
            4.0 ** (5.0 / 6.0) * 2.0 * (2.0 + math.log(4.0)), rel=1e-12
        )

    @given(
        rh=st.floats(min_value=1.0, max_value=10.0),
        a_inf=st.floats(min_value=1.0, max_value=10.0),
        q0s=st.floats(min_value=1.1, max_value=5.0),
        a_pow=st.floats(min_value=1.0, max_value=50.0),
    )
    def test_simplified_form_matches_general_form_at_pinned_gap(
        self, rh, a_inf, q0s, a_pow
    ):
        eps = 1.0 / (4.0 * a_pow)
        assert simplified_weak_type_factor(rh, a_inf, q0s, a_pow) == pytest.approx(
            weak_type_factor(rh, a_inf, q0s, eps), rel=1e-12
        )

    @given(
        rh=st.floats(min_value=1.0, max_value=10.0),
        a_inf=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_decreasing_in_the_gap(self, rh, a_inf):
        values = [weak_type_factor(rh, a_inf, 2.0, e) for e in (0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestWeakAndStrongNormBounds:
    def test_weak_bound_unit_spot(self):
        report = evaluate_bounds(unit_weight(), DyadicGrid(4), 1.0, 4.0)
        assert report.epsilon == 2.0 / 3.0
        assert report.weak_bound == 1.5

    @given(
        alpha=st.floats(min_value=-0.4, max_value=0.4),
        eps_frac=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_weak_bound_square_identity(self, alpha, eps_frac):
        grid = DyadicGrid(4)
        eps_max = evaluate_bounds(PowerWeight(alpha), grid, 1.0, 4.0).epsilon
        report = evaluate_bounds(PowerWeight(alpha), grid, 1.0, 4.0, epsilon=eps_frac * eps_max)
        eta = weak_type_factor(report.rh_char, report.a_infty_char, 2.0, report.epsilon)
        assert report.eta == eta
        assert report.weak_bound ** 2 == pytest.approx(
            report.ap_char * report.rh_char * eta, rel=1e-12
        )

    def test_strong_exponent_is_one_at_the_reference_window(self):
        assert ExponentProfile(1.0, 4.0, 2.0).strong_exponent == 1.0

    @given(
        p0=st.floats(min_value=1.0, max_value=1.95),
        q0=st.one_of(st.floats(min_value=2.1, max_value=50.0), st.just(math.inf)),
    )
    def test_strong_exponent_at_two_is_determined_by_p0(self, p0, q0):
        # the second branch (q0/2)'/(2 q0*) is always exactly 1/2 at q = 2
        assert ExponentProfile(p0, q0, 2.0).strong_exponent == pytest.approx(
            1.0 / (2.0 - p0), rel=1e-12
        )

    def test_strong_exponent_off_center(self):
        # q = 3 in the (1, 4) window: max(1/2, (4/3)'/4) = max(1/2, 1) = 1
        assert ExponentProfile(1.0, 4.0, 3.0).strong_exponent == pytest.approx(1.0, rel=1e-12)

    def test_strong_exponent_validation(self):
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 1.0).strong_exponent
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 4.0).strong_exponent

    @pytest.mark.parametrize(
        "read",
        [
            # a NaN q0 is not q0 = ∞
            pytest.param(lambda: ExponentProfile(1.0, math.nan, 2.0).strong_exponent,
                         id="strong_exponent-(2.0, 1.0, nan)"),
            pytest.param(lambda: ExponentProfile(0.5, 4.0, 2.0).strong_exponent,
                         id="strong_exponent-(2.0, 0.5, 4.0)"),
            pytest.param(lambda: ExponentProfile(2.5, math.inf, 3.0).strong_exponent,
                         id="strong_exponent-(3.0, 2.5, inf)"),
            pytest.param(lambda: ExponentProfile(1.0, math.nan, 2.0).bridge_index,
                         id="bridge_index-(2.0, 1.0, nan)"),
            # p0 outside [1, 2)
            pytest.param(lambda: ExponentProfile(2.5, math.inf, 3.0).bridge_index,
                         id="bridge_index-(3.0, 2.5, inf)"),
            pytest.param(lambda: ExponentProfile(1.0, 1.8, 1.5).bridge_index,
                         id="bridge_index-(1.5, 1.0, 1.8)"),
            pytest.param(lambda: ExponentProfile(1.0, math.nan, 2.5).inflation(3.0),
                         id="inflation-(3.0, 2.5, 1.0, nan)"),
            pytest.param(lambda: ExponentProfile(0.5, 4.0, 2.5).inflation(3.0),
                         id="inflation-(3.0, 2.5, 0.5, 4.0)"),
            pytest.param(lambda: ExponentProfile(1.0, 1.8, 1.6).inflation(1.5),
                         id="inflation-(1.5, 1.6, 1.0, 1.8)"),
        ],
    )
    def test_window_outside_the_paper_is_refused(self, read):
        # every exponent of the window is read from a checked profile
        with pytest.raises(ConfigError):
            read()

    def test_extrapolated_bound_cannot_take_a_nan_window(self):
        # the window reaches the bound only as a checked profile
        with pytest.raises(ConfigError):
            extrapolated_strong_bound(2.0, 2.0, ExponentProfile(1.0, math.nan), 0.2)

    def test_strong_bound_spots(self):
        # (ap·rh)^{1/(2−p0)}: the first power at p0 = 1, the square at p0 = 3/2
        w, grid = PowerWeight(0.25), DyadicGrid(6)
        report = evaluate_bounds(w, grid, 1.0, 4.0)
        assert report.strong_bound == report.ap_char * report.rh_char
        report = evaluate_bounds(w, grid, 1.5, 4.0)
        assert report.strong_bound == (report.ap_char * report.rh_char) ** 2


class TestBridgeIndexAndInflation:
    def test_bridge_index_reference_value(self):
        assert ExponentProfile(1.0, 4.0, 2.0).bridge_index == 3.0

    def test_bridge_index_at_infinite_upper_exponent(self):
        assert ExponentProfile(1.0, math.inf, 2.0).bridge_index == 2.0
        assert ExponentProfile(1.5, math.inf, 2.0).bridge_index == pytest.approx(
            2.0 / 1.5, rel=1e-15
        )

    def test_bridge_index_validation(self):
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 1.0).bridge_index
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 4.0).bridge_index

    def test_inflation_is_one_at_and_below_the_anchor(self):
        assert ExponentProfile(1.0, 4.0, 2.0).inflation(2.0) == 1.0
        assert ExponentProfile(1.0, 4.0, 3.0).inflation(2.0) == 1.0

    def test_inflation_above_one_when_target_sits_below_anchor(self):
        # p = 3, q = 5/2 in the (1, 4) window: (3/2 * 2) / (1 * 3/2) = 2
        assert ExponentProfile(1.0, 4.0, 2.5).inflation(3.0) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_inflation_at_infinite_upper_exponent(self):
        assert ExponentProfile(1.0, math.inf, 2.5).inflation(3.0) == pytest.approx(
            4.0 / 3.0, rel=1e-15
        )

    def test_inflation_validation(self):
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 3.0).inflation(1.0)
        with pytest.raises(ConfigError):
            ExponentProfile(1.0, 4.0, 4.0).inflation(3.0)
        # the target p = 3 lies in (1, 4); inflation checks that the anchor does too
        for anchor in (1.0, 0.5, 4.0, 5.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="anchor"):
                ExponentProfile(1.0, 4.0, 3.0).inflation(anchor)


class TestExponentComparison:
    def test_reference_window_values(self):
        cmp = exponent_comparison(ExponentProfile(1.0, 4.0), 0.2)
        assert cmp.weak_a_exponent == 0.5
        assert cmp.strong_a_exponent == 1.0
        assert cmp.weak_rh_exponent == pytest.approx(1.9, rel=1e-15)
        assert cmp.strong_rh_exponent == 1.0
        assert cmp.a_winner == "weak"
        assert cmp.note == ""

    def test_infinite_upper_exponent_carries_a_note(self):
        cmp = exponent_comparison(ExponentProfile(1.0, math.inf), 1.0)
        assert cmp.note != ""

    @given(p0=st.floats(min_value=1.0, max_value=1.95))
    def test_weak_a_exponent_always_beats_strong(self, p0):
        cmp = exponent_comparison(ExponentProfile(p0, 4.0), 0.2)
        assert cmp.a_winner == "weak"
        assert cmp.weak_a_exponent < cmp.strong_a_exponent


class TestLossChain:
    def test_reference_exponents(self):
        rep = loss_chain_exponents(2.0, 0.2)
        assert rep.direct_exponent == pytest.approx(2.9, rel=1e-15)
        assert rep.extrapolated_exponent == pytest.approx(3.4, rel=1e-15)
        assert rep.exponent_gap == pytest.approx(0.5, rel=1e-15)
        assert rep.direct_value is None and rep.extrapolated_value is None

    @given(
        q0s=st.floats(min_value=1.01, max_value=10.0),
        gamma=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_gap_is_exactly_one_half_everywhere(self, q0s, gamma):
        rep = loss_chain_exponents(q0s, gamma)
        assert rep.exponent_gap == pytest.approx(0.5, rel=1e-12)

    @staticmethod
    def at_proven_gap(ap, rh, a_infty, a_infty_pow, profile):
        eps = admissible_epsilon(profile.q0_star, a_infty_pow)
        return loss_chain_values(ap, rh, a_infty, profile, eps, gamma_rate(profile.q0_star, eps))

    def test_unit_values(self):
        rep = self.at_proven_gap(1.0, 1.0, 1.0, 1.0, ExponentProfile(1.0, 4.0))
        assert rep.direct_exponent == pytest.approx(2.9, rel=1e-15)
        assert rep.extrapolated_exponent == pytest.approx(3.4, rel=1e-15)
        assert rep.exponent_gap == pytest.approx(0.5, rel=1e-15)
        assert rep.direct_value == 1.5
        assert rep.extrapolated_value == 1.0

    def test_direct_route_wins_on_values_for_large_characteristics(self):
        rep = self.at_proven_gap(4.0, 4.0, 4.0, 16.0, ExponentProfile(1.0, 4.0))
        assert rep.direct_value < rep.extrapolated_value

    def test_extrapolated_bound_rejects_products_below_one(self):
        with pytest.raises(ConfigError):
            extrapolated_strong_bound(0.5, 1.0, ExponentProfile(1.0, 4.0), 0.2)

    def test_a_constant_weight_whose_product_rounds_below_one_is_bounded(self):
        # ap·rh is 1 for a constant weight; a tabulated one rounds it to 1 − 3e-16,
        # and the trace, which reads this report, runs on it
        grid = DyadicGrid(8)
        w = TabulatedWeight(np.full(grid.n_cells, 123.456))
        report = evaluate_bounds(w, grid, 1.5, 4.0)
        assert report.ap_char * report.rh_char < 1.0
        assert report.loss_chain.extrapolated_value == pytest.approx(1.0, rel=1e-14)
        trace = trace_proof(np.ones(grid.n_cells), w, grid, ExponentProfile(1.5, 4.0))
        assert trace.c0 == pytest.approx(4 / 9, rel=1e-14)

    def test_the_product_check_reads_ap_rh_before_its_power(self):
        # at q0 = 2.0002 the power (q0/2)' = 10001 multiplies the rounding of ap·rh
        # past SLACK; the check reads ap·rh itself, so the weight is bounded and traced
        grid, profile = DyadicGrid(6), ExponentProfile(1.25, 2.0002)
        w = TabulatedWeight(np.full(grid.n_cells, 1.03))
        report = evaluate_bounds(w, grid, 1.25, 2.0002)
        assert (report.ap_char * report.rh_char) ** profile.rh_index < 1.0 - SLACK
        assert report.loss_chain.extrapolated_value == pytest.approx(1.0, rel=1e-11)
        trace = trace_proof(np.ones(grid.n_cells), w, grid, profile)
        assert trace.c0 == pytest.approx(11113333.444446892, rel=1e-14)

    def test_a_power_past_the_double_range_reads_inf(self):
        assert extrapolated_strong_bound(1e200, 1.0, ExponentProfile(1.0, 4.0), 0.2) == math.inf

    def test_an_overflowing_strong_bound_leaves_the_trace_as_it_was(self):
        # at p0 = 1.99 the strong exponent is 100 and (ap·rh)^100 ≈ 1e337; the report
        # reads inf there, and the trace, which reads the report, runs as before
        grid, profile = DyadicGrid(8), ExponentProfile(1.99, 4.0)
        w = TabulatedWeight(np.repeat([0.03, 100.0], grid.n_cells // 2))
        report = evaluate_bounds(w, grid, 1.99, 4.0)
        assert report.strong_bound == math.inf
        assert math.isfinite(report.loss_chain.extrapolated_value)
        trace = trace_proof(np.ones(grid.n_cells), w, grid, profile)
        assert trace.c0 == pytest.approx(0.10229227489499848, rel=1e-14)


class TestGammaQuarterRegion:
    def test_pinned_gap_gamma_spot(self):
        assert gamma_rate(2.0, 1.0 / (4.0 * 1.0)) == pytest.approx(0.1, rel=1e-15)

    def test_region_maximum_is_two_ninths(self):
        worst = gamma_quarter_region_max()
        assert worst == pytest.approx(2.0 / 9.0, rel=1e-12)
        assert worst < 0.25
        # the maximum sits at the lower-left corner of the sampled region
        assert gamma_rate(1.5, 1.0 / (4.0 * 1.0)) == pytest.approx(
            2.0 / 9.0, rel=1e-15
        )

    def test_bound_fails_for_small_q0_star(self):
        # just outside the guaranteed region the pinned-gap rate exceeds 1/4
        assert gamma_rate(1.1, 1.0 / (4.0 * 1.0)) > 0.25


def power_bridge(w, p, p0, q0, grid):
    """The factorization check at the bridge's indices q = p/p0 and s = (q0/p)',
    whose lifted index s(q−1)+1 must be φ(p) = ``ExponentProfile(p0, q0, p).bridge_index``."""
    chk = check_factorization(w, p / p0, conjugate_exponent(q0 / p), grid)
    assert math.isclose(chk.combined_index, ExponentProfile(p0, q0, p).bridge_index, rel_tol=1e-12)
    return chk


class TestPowerBridge:
    def test_power_weight_bridge_passes_with_matching_index(self):
        g = DyadicGrid(8)
        chk = power_bridge(PowerWeight(0.25), 1.5, 1.0, 4.0, g)
        assert chk.lower_ok and chk.upper_ok
        assert chk.combined_index == pytest.approx(
            ExponentProfile(1.0, 4.0, 1.5).bridge_index, rel=1e-15
        )
        # [x^{1/4}]_{A_{3/2}} in closed form: (1/(5/4)) * (1/(1/2))^{1/2}
        assert chk.aq == pytest.approx(0.8 * math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,p",
        [(-0.25, 1.5), (-0.25, 2.0), (-0.125, 3.0), (0.125, 3.0), (0.25, 2.5)],
    )
    def test_bridge_holds_across_window_positions(self, alpha, p):
        g = DyadicGrid(8)
        chk = power_bridge(PowerWeight(alpha), p, 1.0, 4.0, g)
        assert chk.lower_ok and chk.upper_ok

    def test_bridge_holds_for_tabulated_weight(self):
        g = DyadicGrid(6)
        w = TabulatedWeight([1.0, 2.0, 0.5, 1.0] * 16)
        chk = power_bridge(w, 2.0, 1.0, 4.0, g)
        assert chk.lower_ok and chk.upper_ok


class TestEvaluateBounds:
    @pytest.mark.parametrize("p0, q0", [(0.0, 4.0), (0.5, 4.0), (2.0, 4.0), (math.nan, 4.0),
                                        (1.0, 2.0), (1.0, math.nan)])
    def test_window_outside_the_profile_rejected(self, p0, q0):
        with pytest.raises(ValueError):
            evaluate_bounds(unit_weight(), DyadicGrid(4), p0, q0)

    def test_unit_weight_reference_window_full_report(self, grid8):
        rep = evaluate_bounds(unit_weight(), grid8, 1.0, 4.0)
        assert rep.to_jsonable() == {
            "p0": 1.0,
            "q0": 4.0,
            "q0_star": 2.0,
            "ap_char": 1.0,
            "rh_char": 1.0,
            "a_infty_char": 1.0,
            "a_infty_pow_char": 1.0,
            "epsilon": 0.6666666666666666,
            "gamma": 0.2,
            "eta": 2.25,
            "weak_bound": 1.5,
            "strong_bound": 1.0,
            "bridge_index": 3.0,
            "comparison": {
                "weak_a_exponent": 0.5,
                "strong_a_exponent": 1.0,
                "weak_rh_exponent": 1.9,
                "strong_rh_exponent": 1.0,
                "a_winner": "weak",
                "note": "",
            },
            "loss_chain": {
                "direct_exponent": 2.9,
                "extrapolated_exponent": 3.4,
                "exponent_gap": 0.5,
                "direct_value": 1.5,
                "extrapolated_value": 1.0,
            },
        }

    def test_infinite_upper_exponent_path(self, grid8):
        rep = evaluate_bounds(unit_weight(), grid8, 1.0, math.inf)
        assert rep.q0_star == 1.0
        assert rep.rh_char == 1.0  # exponent-1 reverse Hölder is trivially 1
        assert rep.epsilon == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.gamma == pytest.approx(1.0, rel=1e-12)
        assert rep.eta == pytest.approx(9.0, rel=1e-12)
        assert rep.weak_bound == pytest.approx(3.0, rel=1e-12)
        assert rep.strong_bound == 1.0
        assert rep.bridge_index == 2.0
        assert rep.comparison.note != ""
        assert rep.to_jsonable()["q0"] == "inf"

    def test_infinite_upper_exponent_with_nonunit_weight(self, grid8):
        rep = evaluate_bounds(PowerWeight(0.25), grid8, 1.0, math.inf)
        assert rep.rh_char == 1.0
        assert rep.ap_char > 1.0
        assert math.isfinite(rep.weak_bound) and rep.weak_bound > 0.0

    def test_epsilon_override_threads_through(self, grid8):
        rep = evaluate_bounds(unit_weight(), grid8, 1.0, 4.0, epsilon=0.5)
        assert rep.epsilon == 0.5
        assert rep.gamma == pytest.approx(1.0 / 6.0, rel=1e-15)
        # the loss-chain values stay pinned at the guaranteed gap
        assert rep.loss_chain.direct_value == 1.5

    @pytest.mark.parametrize("w, q0", [(unit_weight(), 4.0), (PowerWeight(-0.25), math.inf)])
    def test_epsilon_above_the_proven_maximum_is_refused(self, w, q0, grid8):
        proven = evaluate_bounds(w, grid8, 1.0, q0).epsilon
        # the same 1e-12 relative slack as GehringProfile
        assert evaluate_bounds(w, grid8, 1.0, q0, epsilon=proven * (1 + 1e-13)).epsilon > proven
        for eps in (proven * (1 + 1e-9), 1e300):
            with pytest.raises(EpsilonOutOfRangeError):
                evaluate_bounds(w, grid8, 1.0, q0, epsilon=eps)

    def test_power_weight_internal_consistency(self, grid8):
        rep = evaluate_bounds(PowerWeight(-0.25), grid8, 1.0, 4.0)
        assert rep.ap_char >= 1.0 and rep.rh_char >= 1.0
        assert rep.a_infty_char >= 1.0 and rep.a_infty_pow_char >= 1.0
        assert rep.weak_bound**2 == pytest.approx(
            rep.ap_char * rep.rh_char * rep.eta, rel=1e-12
        )
        assert rep.gamma == pytest.approx(
            gamma_rate(rep.q0_star, rep.epsilon), rel=1e-12
        )
        assert rep.strong_bound == pytest.approx(
            (rep.ap_char * rep.rh_char) ** (1.0 / (2.0 - rep.p0)), rel=1e-12
        )


LOGNORMAL = TabulatedWeight(np.exp(np.random.default_rng(11).normal(0.0, 0.8, 256)))


class TestBoundsJsonBytes:
    @pytest.mark.parametrize("w", [unit_weight(), PowerWeight(-0.25), PowerWeight(0.3), LOGNORMAL],
                             ids=["unit", "x^-0.25", "x^0.3", "lognormal"])
    @pytest.mark.parametrize("p0, q0", [(1.0, 4.0), (1.5, 6.0), (1.0, math.inf), (1.2, 3.0)])
    def test_json_matches_the_field_by_field_oracle(self, w, p0, q0, grid8):
        rep = evaluate_bounds(w, grid8, p0, q0)
        assert dump_json(rep.to_jsonable()) == dump_json(oracle_bounds_jsonable(rep))

    def test_one_window_check_per_report(self, grid8, monkeypatch):
        # q0* is computed in the same constructor, so it is computed once too
        calls = []
        check = ExponentProfile.__post_init__
        monkeypatch.setattr(ExponentProfile, "__post_init__",
                            lambda self: calls.append(self) or check(self))
        evaluate_bounds(PowerWeight(-0.25), grid8, 1.0, 4.0)
        assert [(c.p0, c.q0, c.p) for c in calls] == [(1.0, 4.0, 2.0)]
