"""Property-based tests for the extension modules."""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import LearningCurvePrice, MarginModel, ShrinkAnalysis
from repro.geometry import Die, Wafer, best_aspect_ratio, dies_per_wafer_maly
from repro.manufacturing import BottomUpWaferCost, erlang_c
from repro.manufacturing.test_cost import TestEconomics
from repro.yieldsim import YieldLearningCurve


class TestLearningCurveProperties:
    @given(d0=st.floats(min_value=0.5, max_value=50.0),
           floor_frac=st.floats(min_value=0.01, max_value=0.99),
           tau=st.floats(min_value=0.5, max_value=36.0),
           t1=st.floats(min_value=0.0, max_value=100.0),
           t2=st.floats(min_value=0.0, max_value=100.0))
    # D∞ + (D0 − D∞)·exp(−t/τ) rounded to D0 + 1 ulp here while
    # exp(−t/τ) still equals 1.0.
    @example(d0=11.492225108932212, floor_frac=0.23855368677617922,
             tau=1.0, t1=0.0, t2=1e-300)
    def test_density_monotone_and_bounded(self, d0, floor_frac, tau, t1, t2):
        assume(t1 < t2)
        curve = YieldLearningCurve(d0, d0 * floor_frac, tau)
        da, db = curve.density(t1), curve.density(t2)
        assert da >= db
        assert d0 * floor_frac <= db <= d0
        assert curve.density(0.0) == d0

    @given(d0=st.floats(min_value=0.5, max_value=20.0),
           tau=st.floats(min_value=1.0, max_value=24.0),
           factor=st.floats(min_value=1.0, max_value=10.0),
           t=st.floats(min_value=0.1, max_value=60.0))
    def test_faster_learning_never_dirtier(self, d0, tau, factor, t):
        curve = YieldLearningCurve(d0, 0.1, tau)
        fast = curve.accelerated(factor)
        assert fast.density(t) <= curve.density(t) + 1e-12


class TestPricingProperties:
    @given(p1=st.floats(min_value=0.01, max_value=1e6),
           rate=st.floats(min_value=0.05, max_value=0.95),
           q1=st.floats(min_value=1.0, max_value=1e12),
           q2=st.floats(min_value=1.0, max_value=1e12))
    def test_price_monotone_decreasing_in_volume(self, p1, rate, q1, q2):
        assume(q1 < q2)
        price = LearningCurvePrice(p1, rate)
        assert price.price(q1) >= price.price(q2)

    @given(p1=st.floats(min_value=0.01, max_value=1e6),
           rate=st.floats(min_value=0.05, max_value=0.95),
           q=st.floats(min_value=1.0, max_value=1e9))
    def test_doubling_law_exact(self, p1, rate, q):
        price = LearningCurvePrice(p1, rate)
        assert price.price(2.0 * q) == price.price(q) * rate \
            or abs(price.price(2.0 * q) - price.price(q) * rate) \
            < 1e-9 * price.price(q)

    @given(price=st.floats(min_value=0.1, max_value=1e5),
           cost=st.floats(min_value=0.1, max_value=1e5))
    def test_margin_and_markup_consistent(self, price, cost):
        m = MarginModel(price, cost)
        assert abs(m.gross_margin - (1.0 - 1.0 / m.markup)) < 1e-9


class TestTestEconomicsProperties:
    @given(y=st.floats(min_value=0.05, max_value=0.99),
           c1=st.floats(min_value=0.0, max_value=1.0),
           c2=st.floats(min_value=0.0, max_value=1.0))
    def test_defect_level_monotone_in_coverage(self, y, c1, c2):
        assume(c1 < c2)
        low = TestEconomics(yield_value=y, fault_coverage=c1)
        high = TestEconomics(yield_value=y, fault_coverage=c2)
        assert high.defect_level <= low.defect_level + 1e-12

    @given(y=st.floats(min_value=0.05, max_value=0.99),
           c=st.floats(min_value=0.0, max_value=1.0))
    def test_defect_level_in_unit_interval(self, y, c):
        econ = TestEconomics(yield_value=y, fault_coverage=c)
        assert 0.0 <= econ.defect_level < 1.0
        assert y <= econ.shipped_fraction() <= 1.0


class TestQueueProperties:
    @given(servers=st.integers(min_value=1, max_value=24),
           rho=st.floats(min_value=0.01, max_value=0.98))
    def test_erlang_c_is_probability(self, servers, rho):
        p = erlang_c(servers, rho * servers)
        assert 0.0 <= p <= 1.0

    @given(servers=st.integers(min_value=1, max_value=12),
           rho1=st.floats(min_value=0.05, max_value=0.95),
           rho2=st.floats(min_value=0.05, max_value=0.95))
    def test_erlang_c_monotone_in_load(self, servers, rho1, rho2):
        assume(rho1 < rho2)
        assert erlang_c(servers, rho1 * servers) <= \
            erlang_c(servers, rho2 * servers) + 1e-12


class TestBottomUpProperties:
    @settings(max_examples=25)
    @given(lam1=st.floats(min_value=0.3, max_value=1.5),
           lam2=st.floats(min_value=0.3, max_value=1.5))
    def test_wafer_cost_monotone_in_shrink(self, lam1, lam2):
        assume(lam1 < lam2)
        model = BottomUpWaferCost()
        assert model.cost(lam1) >= model.cost(lam2)

    @settings(max_examples=25)
    @given(growth=st.floats(min_value=1.0, max_value=2.5))
    def test_facility_growth_raises_implied_x(self, growth):
        base = BottomUpWaferCost()
        import dataclasses
        tweaked = dataclasses.replace(
            base, facility_growth_per_generation=growth)
        if growth >= base.facility_growth_per_generation:
            assert tweaked.effective_growth_rate() >= \
                base.effective_growth_rate() - 1e-9


class TestAspectRatioProperties:
    @settings(max_examples=25)
    @given(area=st.floats(min_value=0.3, max_value=6.0))
    def test_best_ratio_at_least_square_packing(self, area):
        wafer = Wafer(radius_cm=7.5)
        _, best = best_aspect_ratio(wafer, area)
        square = dies_per_wafer_maly(wafer, Die.from_area(area))
        assert best >= square


class TestShrinkProperties:
    @settings(max_examples=20)
    @given(n_tr=st.floats(min_value=1e5, max_value=3e6),
           dd=st.floats(min_value=30.0, max_value=400.0),
           lam=st.floats(min_value=0.4, max_value=1.2))
    def test_cost_positive_when_feasible(self, n_tr, dd, lam):
        analysis = ShrinkAnalysis(n_transistors=n_tr, design_density=dd,
                                  mature_density_per_cm2=0.5)
        try:
            cost = analysis.cost_per_transistor(lam)
        except Exception:
            return  # infeasible combinations are allowed to raise
        assert cost > 0.0 and math.isfinite(cost)

    @settings(max_examples=20)
    @given(d_dirty=st.floats(min_value=1.0, max_value=10.0))
    def test_dirtier_process_never_cheaper(self, d_dirty):
        analysis = ShrinkAnalysis(n_transistors=1e6, design_density=150.0,
                                  mature_density_per_cm2=0.5)
        clean = analysis.cost_per_transistor(0.8, 0.5)
        dirty = analysis.cost_per_transistor(0.8, 0.5 + d_dirty)
        assert dirty >= clean
