"""Self-improving integrability: proven ranges, the sharp RH kernel, subset bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_sharp_rh, seeded_tabulated_weights, standard_weight_corpus
from weightlab import (
    CellSet,
    DIMENSIONAL_FACTOR,
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    SubsetError,
    TabulatedWeight,
    epsilon_range,
    gehring_profile,
    max_epsilon_empirical,
    random_subset_checks,
    rh_constant,
    sharp_rh_levels,
    sharp_rh_max_ratio,
    tree_totals,
    unit_weight,
    verify_subset_bound,
    weights,
)


class TestEpsilonRange:
    def test_unit_weight_values(self, grid8):
        # q0*/(4*[w^{q0*}]_Ainf - 1) with the dimensional factor 4 = 2^(1+1)
        assert DIMENSIONAL_FACTOR == 4.0
        assert epsilon_range(unit_weight(), 2.0, grid8) == pytest.approx(2 / 3, rel=1e-14)
        assert epsilon_range(unit_weight(), 1.5, grid8) == pytest.approx(0.5, rel=1e-14)

    def test_shrinks_for_rougher_weights(self, grid8):
        rough = PowerWeight(-0.375)
        assert epsilon_range(rough, 2.0, grid8) < epsilon_range(unit_weight(), 2.0, grid8)

    def test_nonincreasing_in_depth(self):
        w = PowerWeight(-0.25)
        values = [epsilon_range(w, 2.0, DyadicGrid(L)) for L in (4, 6, 8, 10)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def kernel_rows(w, t, rh, grid):
    """The kernel's cubes as ``(level, index, lhs, rhs, ratio)``, coarse to fine,
    after checking that it yields every level once, finest first."""
    levels = list(sharp_rh_levels(w, t, rh, grid))
    assert [k for k, *_ in levels] == list(range(grid.depth, -1, -1))
    rows = []
    for k, lhs, rhs, ratio in reversed(levels):
        assert lhs.shape == rhs.shape == ratio.shape == (1 << k,)
        sides = zip(lhs.tolist(), rhs.tolist(), ratio.tolist())
        rows.extend((k, i, a, b, r) for i, (a, b, r) in enumerate(sides))
    return rows


def assert_within_ulps(actual, expected, ulps):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.all(np.abs(actual - expected) <= ulps * np.spacing(np.abs(expected)))


# name -> weight at a depth; tabulated weights are seeded at that native depth
ORACLE_WEIGHTS = {
    "unit": lambda depth: unit_weight(),
    "x^-1/4": lambda depth: PowerWeight(-0.25),
    "x^0.8": lambda depth: PowerWeight(0.8),
    **{
        f"tab{i}": (lambda depth, i=i: seeded_tabulated_weights(4, depth)[i])
        for i in range(4)
    },
}


class TestSharpReverseHolder:
    def test_unit_weight_ratio_is_half(self, grid6):
        w, t = unit_weight(), 2.0 + 2 / 3
        rh = rh_constant(w, 2.0, grid6)
        for rows in (kernel_rows(w, t, rh, grid6), oracle_sharp_rh(w, t, rh, grid6)):
            assert len(rows) == 127
            for *_, lhs, rhs, ratio in rows:
                assert lhs == pytest.approx(1.0, rel=1e-14)
                assert rhs == pytest.approx(2.0, rel=1e-14)
                assert ratio == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("depth", [6, 10])
    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_kernel_matches_per_cube_oracle(self, name, depth):
        grid = DyadicGrid(depth)
        w = ORACLE_WEIGHTS[name](depth)
        rh = rh_constant(w, 2.0, grid)
        eps_max = epsilon_range(w, 2.0, grid)
        for t in (2.0 + eps_max / 2, 2.0 + eps_max, 3.5):
            got = kernel_rows(w, t, rh, grid)
            want = oracle_sharp_rh(w, t, rh, grid)
            assert [r[:2] for r in got] == [r[:2] for r in want]
            got_sides, want_sides = np.array(got)[:, 2:], np.array(want)[:, 2:]
            assert np.array_equal(got_sides[:, 0], want_sides[:, 0])
            assert_within_ulps(got_sides[:, 1:], want_sides[:, 1:], 4)

    def test_max_ratio_agrees_with_per_cube_scan(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        eps = epsilon_range(w, 2.0, grid6)
        rows = oracle_sharp_rh(w, 2.0 + eps, rh_constant(w, 2.0, grid6), grid6)
        expected = max(ratio for *_, ratio in rows)
        assert_within_ulps(sharp_rh_max_ratio(w, 2.0, eps, grid6), expected, 4)

    def test_cube_with_both_sides_underflowing_fails(self):
        # cells 0-31 are tiny: every cube inside them has moment and mean^t 0
        values = np.ones(64)
        values[0:32:2], values[1:32:2] = 1e-200, 3e-200
        w, grid = TabulatedWeight(values), DyadicGrid(6)
        assert sharp_rh_max_ratio(w, 2.0, 0.1, grid) == math.inf
        rh = rh_constant(w, 2.0, grid)
        for k, lhs, rhs, ratio in sharp_rh_levels(w, 2.1, rh, grid):
            unverified = (lhs == 0.0) & (rhs == 0.0)
            assert unverified.any() == (k > 0)
            assert np.all(ratio[unverified] == math.inf)
            assert np.all(np.isfinite(ratio[~unverified]))

    def test_fresh_epsilon_leaves_pyramid_store_unchanged(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        sharp_rh_max_ratio(w, 2.0, 0.1, grid6)
        store = dict(w._pyramids)
        for eps in (0.2, 0.05):
            sharp_rh_max_ratio(w, 2.0, eps, grid6)
            assert w._pyramids == store
        assert sorted(t for _, t in store) == [1.0, 2.0]

    def test_never_violated_on_corpus(self, grid6):
        for w in standard_weight_corpus(n_tabulated=6):
            eps_max = epsilon_range(w, 2.0, grid6)
            for frac in (0.25, 1.0):
                assert sharp_rh_max_ratio(w, 2.0, eps_max * frac, grid6) <= 1 + 1e-12


class TestSubsetBound:
    def test_requires_containment(self, grid6):
        with pytest.raises(SubsetError):
            verify_subset_bound(
                unit_weight(),
                2.0,
                0.5,
                DyadicCube(1, 1),
                CellSet.from_cube(grid6, DyadicCube(1, 0)),
                grid6,
            )

    def test_empty_subset_has_zero_ratio(self, grid6):
        chk = verify_subset_bound(
            unit_weight(), 2.0, 0.5, DyadicCube(1, 1), CellSet.empty(grid6), grid6
        )
        assert chk.lhs == 0.0 and chk.ratio == 0.0

    def test_full_subset_unit_weight(self, grid6):
        # E = Q makes both mass fractions 1; the bound is 2^(1/theta) * rh^(...)
        eps = 2 / 3  # theta = 5/3 at q0* = 2
        chk = verify_subset_bound(
            unit_weight(), 2.0, eps, DyadicCube(1, 0), CellSet.from_cube(grid6, DyadicCube(1, 0)), grid6
        )
        assert chk.lhs == pytest.approx(1.0, rel=1e-14)
        assert chk.rhs == pytest.approx(2.0 ** (3 / 5), rel=1e-14)

    def test_random_subsets_never_violate(self, grid6):
        for w in [unit_weight(), PowerWeight(-0.25)] + seeded_tabulated_weights(3):
            eps = epsilon_range(w, 2.0, grid6)
            rows = random_subset_checks(w, 2.0, [eps], grid6, 200, seed=5)
            assert max(chk.ratio for *_, chk in rows) <= 1 + 1e-12

    def test_check_rows_cycle_epsilons(self, grid6):
        eps_list = [0.2, 0.4, 0.6]
        rows = random_subset_checks(unit_weight(), 2.0, eps_list, grid6, 7, seed=3)
        assert len(rows) == 7
        assert [eps for _, eps, _ in rows] == [0.2, 0.4, 0.6, 0.2, 0.4, 0.6, 0.2]
        assert all(chk.ratio <= 1 + 1e-12 for _, _, chk in rows)

    def test_subset_samples_build_no_pyramid_per_sample(self, grid6, monkeypatch):
        # every pyramid built lands in w's store, which does not grow with the samples
        built = []
        monkeypatch.setattr(
            weights, "tree_totals", lambda *args: built.append(1) or tree_totals(*args)
        )
        stores = []
        for n_samples in (1, 200):
            w = seeded_tabulated_weights(1)[0]
            built.clear()
            random_subset_checks(w, 2.0, [0.05, 0.1], grid6, n_samples, seed=3)
            assert len(built) == len(w._pyramids)
            stores.append(sorted(w._pyramids))
        assert stores[0] == stores[1]


class TestGehringProfileHelper:
    @given(st.floats(1.05, 6.0), st.floats(0.05, 0.95))
    def test_gamma_identity(self, q0_star, eps_frac):
        g = DyadicGrid(4)
        eps = eps_frac * epsilon_range(unit_weight(), q0_star, g)
        prof = gehring_profile(unit_weight(), q0_star, g, epsilon=eps)
        theta_conj = prof.theta / (prof.theta - 1.0)
        assert prof.gamma == pytest.approx(1.0 / (theta_conj * q0_star), rel=1e-12)
        assert prof.theta > 1.0
        assert 0.0 < prof.gamma <= 1.0


class TestEmpiricalEpsilonSearch:
    def test_unit_weight_hits_the_cap(self, grid6):
        res = max_epsilon_empirical(unit_weight(), 2.0, grid6)
        assert res.cap_hit
        assert res.epsilon_empirical == pytest.approx(64.0, rel=1e-6)
        assert res.proven_epsilon == pytest.approx(2 / 3, rel=1e-12)
        assert res.conjectured_scale == 1.0

    def test_negative_power_terminates_before_divergence(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert not res.cap_hit
        assert res.cap == pytest.approx(2.0, rel=1e-12)  # moment divergence at 4
        assert res.proven_epsilon * (1 - 1e-9) <= res.epsilon_empirical < res.cap
        assert res.rh == rh_constant(w, 2.0, grid6)

    def test_search_respects_monotone_predicate(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6, rel_precision=1e-5)
        eps = res.epsilon_empirical
        assert sharp_rh_max_ratio(w, 2.0, eps, grid6) <= 1 + 1e-9
        assert sharp_rh_max_ratio(w, 2.0, min(eps * 1.01, res.cap * (1 - 1e-9)), grid6) > 1

    def test_search_caches_no_pyramid_per_step(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert not res.cap_hit
        assert sorted(t for _, t in w._pyramids) == [1.0, 2.0]

    def test_large_first_probe_is_not_taken_for_a_pass(self):
        # the first probe t = p + 64 has e = 1.4*66 + 1 = 93.4: at depth 12 it
        # lies beyond the double range of i**(e-1) and 2**(-k*e). Every left-edge
        # cube of x^1.4 has ratio 3.8**(t/2) / (2*(1.4*t + 1)), so t passes while
        # that is at most 1.
        res = max_epsilon_empirical(PowerWeight(1.4), 2.0, DyadicGrid(12))
        lo, hi = 2.0, 66.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 0.5 * mid * math.log(3.8) <= math.log(2.0 * (1.4 * mid + 1.0)):
                lo = mid
            else:
                hi = mid
        assert not res.cap_hit
        assert res.epsilon_empirical == pytest.approx(lo - 2.0, rel=1e-3)

    def test_improvement_probe_reports_conjectured_scale(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert res.conjectured_scale == pytest.approx(1.0 / res.rh**2.0, rel=1e-12)
        # the empirical range should dominate the proven closed-form range
        assert res.epsilon_empirical >= res.proven_epsilon * (1 - 1e-9)
