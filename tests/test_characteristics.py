"""Weight characteristics: closed forms, duality, maximal-function constant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import POWER_ALPHAS, brute_a_infty, seeded_tabulated_weights
from weightlab import (
    ConfigError,
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    a_infty_fw,
    ap_constant,
    characteristic_report,
    check_duality,
    check_factorization,
    pow_weight,
    rh_constant,
    unit_weight,
)


def power_ap_closed_form(alpha: float, p: float) -> float:
    """Sup over intervals [0, t) of the two-sided product for x^alpha,
    computed from the exact antiderivatives; attained at the left edge."""
    pc = p / (p - 1.0)
    return (1.0 / (alpha + 1.0)) * (1.0 / (alpha * (1.0 - pc) + 1.0)) ** (p - 1.0)


def power_rh_closed_form(alpha: float, q: float) -> float:
    return (alpha + 1.0) / (1.0 + alpha * q) ** (1.0 / q)


class TestPowerClosedForms:
    @pytest.mark.parametrize("alpha", POWER_ALPHAS)
    def test_a2_matches_closed_form(self, alpha, grid8):
        # closed form 1/(1 - alpha^2), scale-invariant on left-edge cubes
        got = ap_constant(PowerWeight(alpha), 2.0, grid8)
        assert got == pytest.approx(1.0 / (1.0 - alpha * alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", POWER_ALPHAS)
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_ap_matches_closed_form(self, alpha, p, grid8):
        w = PowerWeight(alpha)
        assert ap_constant(w, p, grid8) == pytest.approx(
            power_ap_closed_form(alpha, p), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [a for a in POWER_ALPHAS if a > -0.5])
    def test_rh2_matches_closed_form(self, alpha, grid8):
        got = rh_constant(PowerWeight(alpha), 2.0, grid8)
        assert got == pytest.approx(power_rh_closed_form(alpha, 2.0), rel=1e-12)

    def test_rh3_matches_closed_form(self, grid8):
        got = rh_constant(PowerWeight(0.25), 3.0, grid8)
        assert got == pytest.approx(power_rh_closed_form(0.25, 3.0), rel=1e-12)

    def test_argmax_sits_on_the_left_edge(self, grid8):
        report = characteristic_report(PowerWeight(0.375), grid8)
        assert report.ap_argmax[2.0].index == 0


class TestUnitWeight:
    def test_all_characteristics_are_one(self, grid8):
        w = unit_weight()
        assert ap_constant(w, 2.0, grid8) == 1.0
        assert ap_constant(w, 1.5, grid8) == 1.0
        assert rh_constant(w, 2.0, grid8) == 1.0
        assert a_infty_fw(w, grid8) == 1.0

    def test_tie_break_picks_the_root(self, grid8):
        report = characteristic_report(unit_weight(), grid8)
        assert report.ap_argmax[2.0] == DyadicCube(0, 0)
        assert report.a_infty_argmax == DyadicCube(0, 0)


class TestHandOracles:
    def test_a2_two_cells(self):
        g = DyadicGrid(1)
        a, b = 1.0, 3.0
        w = TabulatedWeight([a, b])
        expected = ((a + b) / 2) * ((1 / a + 1 / b) / 2)  # root; cells give 1
        assert ap_constant(w, 2.0, g) == pytest.approx(expected, rel=1e-14)

    def test_a_infty_two_cells(self):
        # root: cell 0 sees max(2, 1) = 2, cell 1 sees max(2, 3) = 3,
        # integral 2.5 against mass 2 -> 1.25; single cells give 1
        g = DyadicGrid(1)
        w = TabulatedWeight([1.0, 3.0])
        report = characteristic_report(w, g)
        assert report.a_infty == pytest.approx(1.25, rel=1e-14)
        assert report.a_infty_argmax == DyadicCube(0, 0)

    def test_a_infty_matches_brute_force(self):
        g = DyadicGrid(4)
        for w in seeded_tabulated_weights(4, depth=4, seed=99):
            expected, expected_cube = brute_a_infty(w, g)
            report = characteristic_report(w, g)
            assert report.a_infty == pytest.approx(expected, rel=1e-12)
            assert report.a_infty_argmax == expected_cube

    def test_designed_spike_argmax(self):
        g = DyadicGrid(3)
        vals = np.ones(8)
        vals[4] = 100.0  # cube (3,4) dominates; worst two-sided pair is (2,2)
        w = TabulatedWeight(vals)
        assert characteristic_report(w, g).ap_argmax[2.0] == DyadicCube(2, 2)


class TestStructuralProperties:
    def test_ap_nonincreasing_in_p(self, grid6):
        for w in seeded_tabulated_weights(6):
            a = ap_constant(w, 1.5, grid6)
            b = ap_constant(w, 2.0, grid6)
            c = ap_constant(w, 3.0, grid6)
            assert a >= b * (1 - 1e-12) and b >= c * (1 - 1e-12)

    def test_characteristics_at_least_one(self, grid6):
        for w in seeded_tabulated_weights(6):
            assert ap_constant(w, 2.0, grid6) >= 1.0 - 1e-12
            assert rh_constant(w, 2.0, grid6) >= 1.0 - 1e-12
            assert a_infty_fw(w, grid6) >= 1.0 - 1e-12

    def test_duality_identity(self, grid6):
        for w in seeded_tabulated_weights(8):
            for p in (1.5, 2.0, 3.0):
                chk = check_duality(w, p, grid6)
                assert chk.rel_error <= 1e-9

    def test_scaling_by_power_of_two_is_bit_exact(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        scaled = TabulatedWeight(w.values * 4.0)
        assert ap_constant(w, 2.0, grid6) == ap_constant(scaled, 2.0, grid6)
        assert rh_constant(w, 2.0, grid6) == rh_constant(scaled, 2.0, grid6)
        assert a_infty_fw(w, grid6) == a_infty_fw(scaled, grid6)

    @given(st.floats(0.3, 3.0))
    def test_scaling_invariance_general(self, c):
        g = DyadicGrid(4)
        w = TabulatedWeight(np.linspace(0.5, 2.0, 16))
        scaled = TabulatedWeight(np.linspace(0.5, 2.0, 16) * c)
        assert ap_constant(scaled, 3.0, g) == pytest.approx(
            ap_constant(w, 3.0, g), rel=1e-12
        )
        assert a_infty_fw(scaled, g) == pytest.approx(a_infty_fw(w, g), rel=1e-12)


class TestFactorization:
    @pytest.mark.parametrize("q,s", [(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)])
    def test_two_sided_bounds(self, q, s, grid6):
        weights = [unit_weight(), PowerWeight(0.25), PowerWeight(-0.125)]
        weights += seeded_tabulated_weights(4)
        for w in weights:
            chk = check_factorization(w, q, s, grid6)
            assert chk.lower_ok and chk.upper_ok
            assert chk.combined_index == s * (q - 1.0) + 1.0

    def test_unit_weight_saturates_both_sides(self, grid6):
        chk = check_factorization(unit_weight(), 2.0, 2.0, grid6)
        assert chk.aq == 1.0 and chk.rh_s == 1.0 and chk.combined == 1.0


class TestPowerRhRelation:
    def test_chain_within_slack(self, grid6):
        # [w^q]_{A∞}^{1/q} / [w]_{A∞} <= [w]_{RH_q} <= [w]_{A∞}^{1/q}, each side
        # within a slack factor 4 on the dyadic characteristics
        slack_factor = 4.0
        for w in [PowerWeight(0.25), PowerWeight(-0.125)] + seeded_tabulated_weights(4):
            a_inf_w = a_infty_fw(w, grid6)
            lower = a_infty_fw(pow_weight(w, 2.0), grid6) ** 0.5 / a_inf_w
            middle = rh_constant(w, 2.0, grid6)
            upper = a_inf_w**0.5
            assert lower <= middle * slack_factor and middle <= upper * slack_factor
            assert lower <= upper * slack_factor**2


class TestReport:
    def test_report_round_trips_to_json(self, grid6):
        import json

        rep = characteristic_report(
            PowerWeight(0.25), grid6, ap_exponents=(1.5, 2.0), rh_exponents=(2.0,)
        )
        payload = json.loads(json.dumps(rep.to_jsonable()))
        assert payload["depth"] == 6
        assert payload["ap"]["2.0"] == pytest.approx(1.0 / (1 - 0.0625), rel=1e-12)
        assert set(payload["ap_argmax"]) == {"1.5", "2.0"}

    def test_a_characteristic_below_one_is_refused(self):
        # every RH_q is at least 1; 0.7**4001 underflows, so each cube's quantity reads 0
        w, grid = TabulatedWeight(np.full(64, 0.7)), DyadicGrid(6)
        assert rh_constant(w, 400.0, grid) == pytest.approx(1.0, rel=1e-12)
        for read in (lambda: rh_constant(w, 4001.0, grid),
                     lambda: characteristic_report(w, grid, rh_exponents=(2.0, 4001.0))):
            with pytest.raises(ConfigError, match=r"RH_4001\.0.*reads 0\.0, below 1: "
                                                  r"the weight's powers leave the double range"):
                read()
