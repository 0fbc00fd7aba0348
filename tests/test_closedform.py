import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezelink import closedform, config, model, oracle, selfcheck, sweep
from squeezelink.closedform import (
    DegenerateSqueeze,
    DuanResult,
    duan_sum_adiabatic_general,
    duan_sum_adiabatic_identical,
    duan_sum_nonadiabatic,
    duan_sum_nonadiabatic_general,
    duan_sum_nonadiabatic_general_arrays,
    duan_sum_strong_coupling_approx,
    duan_sum_weak_coupling_approx,
    field_sum_nonadiabatic,
    minimum_power,
    threshold_cooperativity,
)
from squeezelink.model import SqueezedBath
from exact import exact_total
from units import (KAPPA, SPECTRAL_CASES, SYSTEM_ARGS, asymmetric_system, make_system,
                   system_units, temperature_for_occupation)


def unit_rates(Gamma_a, gamma, n_th):
    """A unit record (gamma, kappa, G, n_th) whose Gamma_a = 4 G^2 / kappa is ``Gamma_a``
    to an ulp: kappa = 4, so that Gamma_a = G * G."""
    return model.SidebandArrays(gamma, 4.0, math.sqrt(Gamma_a), n_th)


def general(unit1, unit2, bath):
    return duan_sum_adiabatic_general(unit1, unit2, bath.N, bath.M_corr)


class TestAdiabaticGeneral:
    def test_vacuum_inputs_reproduce_vacuum_variance(self):
        unit = unit_rates(Gamma_a=1e4, gamma=100.0, n_th=0.0)
        result = general(unit, unit, SqueezedBath(r=0.0))
        assert result.total == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_case_reduces_to_identical_formula(self):
        gamma, n_th, r = 880.0, 5.0, 1.3
        for C in (0.5, 3.0, 40.0):
            unit = unit_rates(Gamma_a=C * gamma, gamma=gamma, n_th=n_th)
            total = general(unit, unit, SqueezedBath(r=r)).total
            identical = duan_sum_adiabatic_identical(C, r, n_th).total
            assert total == pytest.approx(identical, abs=1e-12)

    def test_separability_floor_for_random_asymmetric_rates(self):
        # without squeezing, no pair of units reaches below the vacuum bound 2
        rng = np.random.default_rng(20240817)
        bath = SqueezedBath(r=0.0)
        lowest = math.inf
        for _ in range(10_000):
            gamma = 10.0 ** rng.uniform(1.0, 4.0)
            ga1, ga2 = gamma * 10.0 ** rng.uniform(-2.0, 3.0, size=2)
            n1, n2 = rng.uniform(0.0, 30.0, size=2)
            total = general(unit_rates(ga1, gamma, n1), unit_rates(ga2, gamma, n2), bath).total
            lowest = min(lowest, total)
        assert lowest >= 2.0 - 1e-12

    def test_asymmetric_drive_is_worse_than_symmetric(self):
        # brute-force scan: fixing the mean radiation-pressure rate, the
        # symmetric split minimizes the variance sum (gamma << Gamma_a)
        gamma, r, n_th = 1.0, 2.0, 0.0
        bath = SqueezedBath(r=r)
        mean_ga = 1e4
        unit = unit_rates(mean_ga, gamma, n_th)
        symmetric = general(unit, unit, bath).total
        for split in (0.25, 0.4, 2.0 / 3.0):
            ga1 = 2 * mean_ga * split
            ga2 = 2 * mean_ga - ga1
            result = general(unit_rates(ga1, gamma, n_th), unit_rates(ga2, gamma, n_th), bath)
            assert result.total > symmetric

    @pytest.mark.parametrize("unit2, error, text", [
        # unit 2's (gamma, kappa, G, n_th): the unit gate names the first field out of bounds
        ((-1.0, 2.0, 1.0, 0.0), ValueError, "gamma must be > 0 and finite, got -1.0"),
        ((0.0, 1.0, 0.0, 0.0), ValueError, "gamma must be > 0 and finite, got 0.0"),
        ((0.5, -4.0, 1.0, 0.0), ValueError, "kappa must be > 0 and finite, got -4.0"),
        ((100.0, 0.0, 1.0, 0.0), ValueError, "kappa must be > 0 and finite, got 0.0"),
        ((100.0, -0.0, 1.0, 0.0), ValueError, "kappa must be > 0 and finite, got -0.0"),
        ((100.0, 4.0, -1.0, 0.0), ValueError, "G must be >= 0 and finite, got -1.0"),
        ((100.0, 4.0, 1.0, -0.5), ValueError, "n_th must be >= 0 and finite, got -0.5"),
        # a NaN or infinite field, as an overflow upstream leaves it
        ((100.0, math.inf, 1.0, 0.0), FloatingPointError, "kappa must be > 0 and finite, got inf"),
        ((100.0, 4.0, math.nan, 0.0), FloatingPointError, "G must be >= 0 and finite, got nan"),
        ((100.0, 4.0, 1.0, -math.inf), FloatingPointError,
         "n_th must be >= 0 and finite, got -inf"),
    ])
    def test_rate_bounds_on_both_routes(self, unit2, error, text):
        unit1 = unit_rates(Gamma_a=1e4, gamma=100.0, n_th=1.0)
        unit2 = model.SidebandArrays(*unit2)
        text = f"^{re.escape('unit 2: ' + text)}$"
        with pytest.raises(error, match=text):
            duan_sum_adiabatic_general(unit1, unit2, 1.0, 1.0)
        # the array twin, with the bad element between good ones
        arrays = [model.SidebandArrays(*map(np.array, zip(unit1, unit, unit1)))
                  for unit in (unit1, unit2)]
        with pytest.raises(error, match=text):
            closedform.duan_sum_adiabatic_arrays(*arrays, 1.0, 1.0)

    def test_cancelled_digits_raise_alike_on_both_routes(self):
        # at the default preset r = 2 keeps its digits and r = 10 is the first to lose them
        ss1, ss2 = default_units()
        general(ss1, ss2, SqueezedBath(r=2.0))
        with pytest.raises(FloatingPointError, match="lost its digits") as expected:
            general(ss1, ss2, SqueezedBath(r=10.0))
        N, M = model.squeeze_arrays([2.0, 10.0, 12.0])
        with pytest.raises(FloatingPointError) as got:
            closedform.duan_sum_adiabatic_arrays(ss1, ss2, N, M)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("units", [
        "default",
        (unit_rates(3e5, 100.0, 5.0), unit_rates(1e6, 300.0, 1.0)),
        (unit_rates(10.0, 1.0, 0.0), unit_rates(1e4, 50.0, 20.0)),
    ])
    def test_returned_totals_match_a_50_digit_evaluation(self, units):
        # every total the form returns up to r = 25 holds its digits; the rest raise
        unit1, unit2 = default_units() if units == "default" else units
        r = np.linspace(0.0, 25.0, 101)
        returned = []
        for x in r.tolist():
            try:
                returned.append((x, general(unit1, unit2, SqueezedBath(r=x)).total))
            except FloatingPointError:
                pass
        assert len(returned) >= 20  # r <= 5 at least
        for x, total in returned:
            assert total == pytest.approx(adiabatic_reference(unit1, unit2, x), rel=1e-5)
        kept, totals = np.array(returned).T
        assert np.array_equal(closedform.duan_sum_adiabatic_arrays(
            unit1, unit2, *model.squeeze_arrays(kept)), totals)


@pytest.mark.parametrize("args", SPECTRAL_CASES[2:5])
def test_every_general_route_takes_one_unit_record(args):
    # the adiabatic and nonadiabatic forms, their array twins and the oracle's
    # variances take the same (unit1, unit2, N, M) from model.unit_record
    system, steady = asymmetric_system(*args)
    units, bath = system_units(system, steady), (system.bath.N, system.bath.M_corr)
    for point, twin in ((duan_sum_adiabatic_general, closedform.duan_sum_adiabatic_arrays),
                        (duan_sum_nonadiabatic_general, duan_sum_nonadiabatic_general_arrays)):
        assert twin(*units, *bath).tolist() == point(*units, *bath).total
    var_X, var_Y = oracle.duan_variance_arrays(*units, *bath)
    assert var_X + var_Y == pytest.approx(duan_sum_nonadiabatic_general(*units, *bath).total,
                                          rel=1e-9)
    assert sweep.evaluate(system, "mirror", "adiabatic")[0] == duan_sum_adiabatic_general(
        *units, *bath)


#: the scales 4^k, k = -3..3: powers of 2 whose square roots are too, so that every
#: operation of a route scales exactly, with no new rounding
SCALES = np.array([4.0 ** k for k in range(-3, 4)])


@settings(max_examples=150, deadline=None)
@given(args=SYSTEM_ARGS)
def test_every_general_route_is_invariant_under_scaling_the_rates(args):
    # gamma, kappa and G of both units times 4^k leave every total bit for bit as it is,
    # per point and over an array of the seven scales
    system, steady = asymmetric_system(*args)
    units, bath = system_units(system, steady), (system.bath.N, system.bath.M_corr)
    scaled = [[(g * s, k * s, G * s, n) for g, k, G, n in units] for s in SCALES.tolist()]
    arrays = [(g * SCALES, k * SCALES, G * SCALES, n) for g, k, G, n in units]
    totals = {
        "adiabatic": [duan_sum_adiabatic_general(*u, *bath).total for u in scaled],
        "adiabatic arrays": closedform.duan_sum_adiabatic_arrays(*arrays, *bath).tolist(),
    }
    for pair in ("mirror", "field"):
        totals[pair] = [duan_sum_nonadiabatic_general(*u, *bath, pair).total for u in scaled]
        totals[f"{pair} arrays"] = duan_sum_nonadiabatic_general_arrays(*arrays, *bath,
                                                                        pair).tolist()
        var_X, var_Y = oracle.duan_variance_arrays(*arrays, *bath, pair)
        totals[f"{pair} oracle"] = (var_X + var_Y).tolist()
    for route, values in totals.items():
        assert values == [values[3]] * len(SCALES), (route, values)


def default_units():
    system = config.default_system()
    return tuple(model.unit_record(unit, model.mean_fields_from_effective_detuning(
        unit, -unit.mirror.omega_M)) for unit in (system.unit1, system.unit2))


def adiabatic_reference(unit1, unit2, r):
    """The adiabatic mirror total in 50 digits, from the units' float records and r."""
    import mpmath

    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        N, M = mpmath.sinh(r) ** 2, mpmath.sinh(r) * mpmath.cosh(r)
        rates = []
        for gamma, kappa, G, n_th in (map(mpmath.mpf, unit) for unit in (unit1, unit2)):
            Ga = 4 * G * G / kappa  # Gamma_a, exact from the record's floats
            rates.append((Ga, Ga + gamma, n_th))
        (Ga1, G1, n1), (Ga2, G2, n2) = rates
        total = ((2 * N + 1) * (Ga1 / G1 + Ga2 / G2)
                 - 8 * mpmath.sqrt(Ga1 * Ga2) * M / (G1 + G2)
                 + (G1 - Ga1) / G1 * (2 * n1 + 1) + (G2 - Ga2) / G2 * (2 * n2 + 1))
        return float(total)


class TestAdiabaticIdentical:
    def test_no_squeezing_floor(self):
        for C in (0.0, 1.0, 100.0):
            for n_th in (0.0, 2.0, 30.0):
                total = duan_sum_adiabatic_identical(C, 0.0, n_th).total
                assert total == pytest.approx(2.0 + 4.0 * n_th / (C + 1.0), rel=1e-12)
                assert total >= 2.0 - 1e-12

    def test_uncoupled_limit(self):
        for n_th in (0.0, 1.0, 7.5):
            total = duan_sum_adiabatic_identical(0.0, 1.7, n_th).total
            assert total == pytest.approx(2.0 * (1.0 + 2.0 * n_th), rel=1e-12)

    def test_reference_value(self):
        assert duan_sum_adiabatic_identical(15.0, 1.0, 5.0).total == pytest.approx(
            1.628754, abs=1e-6
        )

    @given(
        c1=st.floats(0.01, 1e4),
        factor=st.floats(1.01, 100.0),
        r=st.floats(0.01, 4.0),
        n_th=st.floats(0.0, 50.0),
    )
    def test_strictly_decreasing_in_cooperativity(self, c1, factor, r, n_th):
        lo = duan_sum_adiabatic_identical(c1, r, n_th).total
        hi = duan_sum_adiabatic_identical(c1 * factor, r, n_th).total
        assert hi < lo

    @given(st.lists(st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 400.0),
                              st.floats(0.0, 1e300)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th = (np.array(column) for column in zip(*points))
        totals = closedform.duan_sum_adiabatic_identical_arrays(C, r, n_th)
        assert totals.tolist() == [duan_sum_adiabatic_identical(*p).total for p in points]

    @pytest.mark.parametrize("args", [
        (np.array([1.0, -1.0]), 1.0, 1.0),
        (1.0, np.array([0.0, -800.0]), 1.0),
        (1.0, 1.0, np.array([1.0, -0.5])),
        (1.0, 1.0, np.array([1.0, math.inf])),
        (np.array([1.0, math.nan]), 1.0, 1.0),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args):
        with pytest.raises((ValueError, FloatingPointError)) as expected:
            duan_sum_adiabatic_identical(*(float(np.ravel(a)[-1]) for a in args))
        with pytest.raises(type(expected.value), match=str(expected.value)):
            closedform.duan_sum_adiabatic_identical_arrays(*args)


class TestApproximations:
    def test_strong_coupling_limit(self):
        assert duan_sum_strong_coupling_approx(1e308, 1.0, 5.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-12
        )

    def test_strong_coupling_close_to_exact(self):
        exact = duan_sum_adiabatic_identical(1e6, 1.0, 5.0).total
        approx = duan_sum_strong_coupling_approx(1e6, 1.0, 5.0)
        assert approx == pytest.approx(exact, abs=1e-4)

    def test_threshold_region_magnitude(self):
        approx = duan_sum_strong_coupling_approx(2.3, 1.0, 1.0)
        assert approx == pytest.approx(2.0 * math.exp(-2.0) + 4.0 / 2.3, rel=1e-12)
        assert 1.9 < approx < 2.1

    def test_weak_coupling_values(self):
        assert duan_sum_weak_coupling_approx(0.0, 1.0, 3.0) == pytest.approx(14.0)
        # overshoot above the exact value is first order in C
        exact = duan_sum_adiabatic_identical(0.01, 1.0, 0.0).total
        approx = duan_sum_weak_coupling_approx(0.01, 1.0, 0.0)
        assert approx - exact == pytest.approx(approx * 0.01 / 1.01, rel=1e-10)

    @given(C=st.floats(0.0, 1e6), r=st.floats(0.0, 10.0), n_th=st.floats(0.0, 100.0))
    def test_weak_coupling_never_below_two(self, C, r, n_th):
        assert duan_sum_weak_coupling_approx(C, r, n_th) >= 2.0


class TestNonadiabatic:
    def test_reference_value(self):
        total = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.01, 1.0).total
        assert total == pytest.approx(1.613210, abs=1e-6)

    def test_reduces_to_adiabatic(self):
        for C in (0.5, 15.0, 90.0):
            full = duan_sum_nonadiabatic(C, 1.0, 5.0, 1e-8, 1.0).total
            adiab = duan_sum_adiabatic_identical(C, 1.0, 5.0).total
            assert full == pytest.approx(adiab, abs=1e-6)

    def test_more_dissipation_hurts(self):
        lo = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.01, 1.0).total
        hi = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.05, 1.0).total
        assert hi > lo

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 5.0), st.floats(0.0, 50.0),
                              st.floats(1e-8, 10.0)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th, gamma = (np.array(column) for column in zip(*points))
        totals = closedform.duan_sum_nonadiabatic_arrays(C, r, n_th, gamma, 1.0)
        assert totals.tolist() == [duan_sum_nonadiabatic(*p, 1.0).total for p in points]

    @pytest.mark.parametrize("args, message", [
        ((np.array([1.0, -1.0]), 1.0, 1.0, 0.1, 1.0), "C must be >= 0"),
        ((1.0, 1.0, 1.0, np.array([0.1, 0.0]), 1.0), "gamma must be > 0"),
        ((1.0, 1.0, 1.0, 0.1, np.array([1.0, math.nan])), "kappa must be > 0"),
        ((np.array([1.0, math.nan]), 1.0, 1.0, 0.1, 1.0), "C must be >= 0 and finite, got nan"),
        ((1.0, np.array([0.0, -800.0]), 1.0, 0.1, 1.0), "r must be >= 0"),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args, message):
        with pytest.raises((ValueError, FloatingPointError), match=message):
            closedform.duan_sum_nonadiabatic_arrays(*args)


class TestFieldSum:
    def test_reference_value(self):
        total = field_sum_nonadiabatic(15.0, 1.0, 5.0, 6.5e-4, 1.0).total
        assert total == pytest.approx(0.283903, abs=1e-6)

    def test_lossless_mirror_limit(self):
        total = field_sum_nonadiabatic(15.0, 1.0, 5.0, 1e-15, 1.0).total
        assert total == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 400.0), st.floats(0.0, 50.0),
                              st.floats(1e-8, 10.0)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th, gamma = (np.array(column) for column in zip(*points))
        totals = closedform.field_sum_nonadiabatic_arrays(C, r, n_th, gamma, 1.0)
        assert totals.tolist() == [field_sum_nonadiabatic(*p, 1.0).total for p in points]

    @pytest.mark.parametrize("args", [
        (np.array([1.0, -1.0]), 1.0, 1.0, 0.1, 1.0),
        (1.0, np.array([0.0, -800.0]), 1.0, 0.1, 1.0),
        (1.0, 1.0, np.array([1.0, math.inf]), 0.1, 1.0),
        (1.0, 1.0, 1.0, 0.1, np.array([1.0, 0.0])),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args):
        with pytest.raises((ValueError, FloatingPointError)) as expected:
            field_sum_nonadiabatic(*(float(np.ravel(a)[-1]) for a in args))
        with pytest.raises(type(expected.value), match=str(expected.value)):
            closedform.field_sum_nonadiabatic_arrays(*args)

    def test_insensitive_to_cooperativity(self):
        t15 = field_sum_nonadiabatic(15.0, 1.0, 5.0, 6.5e-4, 1.0).total
        t90 = field_sum_nonadiabatic(90.0, 1.0, 5.0, 6.5e-4, 1.0).total
        assert abs(t90 - t15) <= 1e-3

    def test_strong_coupling_limit_form(self):
        # large C: 2 (2 n_th + 1) gamma / (gamma + kappa) + 2 exp(-2 r)
        def limit(r, n_th, gamma, kappa):
            return 2.0 * (2.0 * n_th + 1.0) * gamma / (gamma + kappa) + 2.0 * math.exp(-2.0 * r)

        assert limit(1.0, 5.0, 6.5e-4, 1.0) == pytest.approx(0.2849612775110508, rel=1e-12)
        # the limit drops terms of order gamma/kappa, so the residual at
        # large C is set by the dissipation ratio, not by 1/C
        full = field_sum_nonadiabatic(1e6, 1.0, 5.0, 6.5e-4, 1.0).total
        assert full == pytest.approx(limit(1.0, 5.0, 6.5e-4, 1.0), abs=2 * math.exp(-2.0) * 6.5e-4)
        tight = field_sum_nonadiabatic(1e6, 1.0, 5.0, 1e-6, 1.0).total
        assert tight == pytest.approx(limit(1.0, 5.0, 1e-6, 1.0), abs=1e-5)


class TestThreshold:
    def test_reference_value(self):
        assert threshold_cooperativity(1.0, 1.0) == pytest.approx(2.313035, abs=1e-6)

    def test_zero_occupation_threshold_is_zero(self):
        for r in (0.1, 1.0, 3.0):
            assert threshold_cooperativity(r, 0.0) == 0.0

    def test_boundary_exactness(self):
        for r in (0.3, 1.0, 2.5):
            for n_th in (0.5, 1.0, 10.0):
                c_min = threshold_cooperativity(r, n_th)
                total = duan_sum_adiabatic_identical(c_min, r, n_th).total
                assert total == pytest.approx(2.0, abs=1e-10)
                assert duan_sum_adiabatic_identical(1.01 * c_min, r, n_th).total < 2.0
                assert duan_sum_adiabatic_identical(0.99 * c_min, r, n_th).total > 2.0

    def test_degenerate_squeeze(self):
        # r = 0 passes the range gate and keeps its own error; a bad n_th fails the gate first
        with pytest.raises(DegenerateSqueeze, match="diverges at r = 0"):
            threshold_cooperativity(0.0, 1.0)
        with pytest.raises(DegenerateSqueeze, match="diverges at r = 0"):
            closedform.diagnostic_minimum_power(config.default_system().unit1, 0.0, 1e-3)
        with pytest.raises(FloatingPointError, match="^n_th must be >= 0 and finite, got nan$"):
            threshold_cooperativity(0.0, math.nan)


class TestMinimumPower:
    def setup_method(self):
        self.unit = config.preset_system("fig3").unit1

    def test_doubling_occupation_doubles_power(self):
        omega_M = self.unit.mirror.omega_M
        t1 = temperature_for_occupation(omega_M, 2.0)
        t2 = temperature_for_occupation(omega_M, 4.0)
        p1 = minimum_power(self.unit, 1.0, t1)
        p2 = minimum_power(self.unit, 1.0, t2)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-9)

    def test_more_squeezing_needs_less_power(self):
        powers = [minimum_power(self.unit, r, 50e-6) for r in (0.5, 1.0, 2.0)]
        assert powers[0] > powers[1] > powers[2]

    def test_boundary_root(self):
        for r in (0.5, 1.0, 2.0):
            p_min = minimum_power(self.unit, r, 50e-6)
            unit = self.unit.replace(resonator=self.unit.resonator.replace(power=p_min))
            ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
            n_th = model.thermal_occupation(unit.mirror.omega_M, 50e-6)
            total = duan_sum_adiabatic_identical(ss.C, r, n_th).total
            assert total == pytest.approx(2.0, abs=1e-8)

    def test_diagnostic_ratio_is_two(self):
        p_min = minimum_power(self.unit, 1.0, 50e-6)
        p_diag = closedform.diagnostic_minimum_power(self.unit, 1.0, 50e-6)
        assert p_diag / p_min == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("gamma, power, slope", [(1e-300, 0.01, "inf"), (1e307, 1e-300, "0.0")])
    def test_degenerate_cooperativity_slope_is_a_named_error(self, gamma, power, slope):
        unit = self.unit.replace(mirror=self.unit.mirror.replace(gamma=gamma),
                                 resonator=self.unit.resonator.replace(power=power))
        with pytest.raises(OverflowError, match=f"C/P is {slope} /W, as C = Gamma_a / gamma"):
            minimum_power(unit, 1.0, 50e-6)


class TestVerdict:
    def test_boundary_semantics(self):
        # strict inequality: a total variance of exactly 2 is separable
        for total, entangled in ((0.0, True), (1.9999, True), (2.0, False), (2.5, False)):
            assert DuanResult.from_total(total).entangled is entangled

    def test_negative_total_rejected(self):
        with pytest.raises(FloatingPointError, match=r"^total variance is -0\.1$"):
            DuanResult.from_total(-0.1)

    def test_nan_total_rejected(self):
        with pytest.raises(FloatingPointError, match="^total variance is NaN$"):
            DuanResult.from_total(math.nan)

    def test_infinite_total_rejected(self):
        # an overflow upstream; never "separable"
        with pytest.raises(FloatingPointError, match="^total variance is inf$"):
            DuanResult.from_total(math.inf)

    def test_non_finite_result_rejected(self):
        # sqrt(Gamma_a1 * Gamma_a2) overflows first at huge asymmetric drives
        for var_X in (math.nan, math.inf, -math.inf):
            with pytest.raises(FloatingPointError):
                DuanResult(var_X=var_X, var_Y=1.0)

    def test_negative_result_rejected(self):
        # (2N + 1) - 2M cancels at large r and can leave a negative total
        with pytest.raises(FloatingPointError, match="total variance is -"):
            DuanResult(var_X=-2.0, var_Y=1.0)

    def test_closed_form_total_is_kept_as_given(self):
        # halving a subnormal total and adding the halves back drops its last bit
        total = 1.191933759602653e-308
        assert DuanResult.from_total(total).total == total
        result = field_sum_nonadiabatic(2.225073858507203e-309, 355.0, 0.0, 2.0, 1.0)
        assert result.total == total
        assert result.var_X == result.var_Y == total / 2.0

    def test_result_exposes_xy_symmetry(self):
        result = duan_sum_adiabatic_identical(15.0, 1.0, 5.0)
        assert result.var_X == result.var_Y
        assert result.total == result.var_X + result.var_Y


# ---------------------------------------------------------------------------
# the nonadiabatic closed form of any two units: the frequency integral of the
# noise spectra, the table's I_2 and I_4


def spectral_total(system, steady, pair):
    """The nonadiabatic total of any two units at one system's floats."""
    return duan_sum_nonadiabatic_general(*system_units(system, steady), system.bath.N,
                                         system.bath.M_corr, pair).total


def lyapunov_total(system, steady, pair):
    return oracle.duan_from_covariance(
        oracle.solve_lyapunov(oracle.build_rwa_drift_diffusion(system, steady)), pair).total


class TestSpectralIntegration:
    def test_thermal_only_variances(self):
        system, steady = make_system(0.0, 0.0, 3.0, 0.01)
        total = spectral_total(system, steady, "mirror")
        # two uncorrelated thermal mirrors, each variance n_th + 1/2
        assert total == pytest.approx(2 * (2 * 3.0 + 1.0), rel=1e-8)

    def test_adiabatic_regime_matches_closed_form(self):
        system, steady = make_system(15.0, 1.0, 5.0, 1e-6)
        total = spectral_total(system, steady, "mirror")
        expected = duan_sum_adiabatic_identical(15.0, 1.0, 5.0).total
        assert total == pytest.approx(expected, abs=1e-4)

    def test_nonadiabatic_matches_closed_form(self):
        for C, r, n_th, ratio in [(15.0, 2.0, 5.0, 0.05), (0.5, 0.5, 1.0, 0.01)]:
            system, steady = make_system(C, r, n_th, ratio)
            total = spectral_total(system, steady, "mirror")
            expected = duan_sum_nonadiabatic(
                C, r, n_th, ratio * KAPPA, KAPPA
            ).total
            assert total == pytest.approx(expected, rel=1e-6)

    def test_field_pair_matches_closed_form(self):
        system, steady = make_system(15.0, 1.0, 5.0, 6.5e-4)
        total = spectral_total(system, steady, "field")
        expected = field_sum_nonadiabatic(
            15.0, 1.0, 5.0, 6.5e-4 * KAPPA, KAPPA
        ).total
        assert total == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("pair", ["mirror", "field"])
    def test_bad_rates_raise_typed_errors(self, pair):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        gamma, kappa, G = system.unit1.mirror.gamma, system.unit1.resonator.kappa, steady[0].G
        unit = (gamma, kappa, G, np.array([5.0, math.nan]))
        with pytest.raises(FloatingPointError, match="^unit 1: n_th must be >= 0 and finite, "
                                                     "got nan$"):
            duan_sum_nonadiabatic_general_arrays(unit, unit, 0.0, 0.0, pair)
        bad = ((gamma, -kappa, G, 5.0), (gamma, kappa, G, 5.0), 0.0, 0.0, pair)
        text = f"^unit 1: kappa must be > 0 and finite, got {-kappa!r}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match=text):
                duan_sum_nonadiabatic_general_arrays(*bad)
        with pytest.raises(ValueError, match=text):
            duan_sum_nonadiabatic_general(*bad)

    @pytest.mark.parametrize("pair", ["mirror", "field"])
    @pytest.mark.parametrize("mismatch", [0.0, 1e-4])
    def test_strong_coupling_on_a_narrow_mirror_matches_lyapunov(self, mismatch, pair):
        # gamma/2 and G, the spectrum's narrowest and widest features, lie 11 decades apart
        unit1 = (1e-8 * KAPPA, KAPPA, 1e3 * KAPPA, 5.0)
        unit2 = tuple(x * (1.0 + mismatch) for x in unit1)
        bath = SqueezedBath(r=1.0)
        N, M = bath.N, bath.M_corr
        total = duan_sum_nonadiabatic_general_arrays(unit1, unit2, N, M, pair)
        var_X, var_Y = oracle.duan_variance_arrays(unit1, unit2, N, M, pair)
        assert math.isfinite(total)
        assert total == pytest.approx((var_X + var_Y)[0], rel=1e-8)


@pytest.mark.parametrize("pair", ["mirror", "field"])
@pytest.mark.parametrize("args", SPECTRAL_CASES)
def test_spectral_route_matches_lyapunov(args, pair):
    system, steady = asymmetric_system(*args)
    assert spectral_total(system, steady, pair) == pytest.approx(
        lyapunov_total(system, steady, pair), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(args=SYSTEM_ARGS)
def test_spectral_route_matches_lyapunov_over_systems(args):
    system, steady = asymmetric_system(*args)
    for pair in ("mirror", "field"):
        assert spectral_total(system, steady, pair) == pytest.approx(
            lyapunov_total(system, steady, pair), rel=1e-10)


@pytest.mark.parametrize("pair", ["mirror", "field"])
def test_spectral_route_matches_a_20_digit_integral(pair):
    # the unrotated complex integrand s - 2 M Re(num / (d1 conj d2)), whose
    # integral over w is pi times the total
    import mpmath

    system, steady = asymmetric_system(15.0, 40.0, 0.01, 0.02, 1.7, 5.0, 2.0, 1.0)
    with mpmath.workdps(20):
        p = [tuple(map(mpmath.mpf, rates)) for rates in system_units(system, steady)]
        N, M = mpmath.mpf(system.bath.N), mpmath.mpf(system.bath.M_corr)
        (g1, k1, G1, _), (g2, k2, G2, _) = p

        def integrand(w):
            d = [G**2 + (g / 2 + 1j * w) * (k / 2 + 1j * w) for g, k, G, _ in p]
            s = 0
            for (g, k, G, n_th), dj in zip(p, d):
                if pair == "mirror":
                    s += (g * ((k / 2) ** 2 + w**2) * (2 * n_th + 1)
                          + G**2 * k * (2 * N + 1)) / (2 * abs(dj) ** 2)
                else:
                    s += (G**2 * g * (2 * n_th + 1)
                          + ((g / 2) ** 2 + w**2) * k * (2 * N + 1)) / (2 * abs(dj) ** 2)
            if pair == "mirror":
                num = G1 * G2 * mpmath.sqrt(k1 * k2)
            else:
                num = mpmath.sqrt(k1 * k2) * (g1 / 2 + 1j * w) * (g2 / 2 - 1j * w)
            return s - 2 * M * mpmath.re(num / (d[0] * mpmath.conj(d[1])))

        features = sorted({w for g, k, G, _ in p for w in (g / 2, k / 2, G, g / 2 + 2 * G**2 / k)})
        points = [-mpmath.inf, *(-w for w in reversed(features)), 0, *features, mpmath.inf]
        expected = float(mpmath.quad(integrand, points) / mpmath.pi)
    assert spectral_total(system, steady, pair) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("r", [4.0, 8.0, 12.0, 16.0])
def test_spectral_stack_matches_closed_form_at_large_squeezing(r):
    # the selfcheck's triple grid, squeezed far past where a cancelling
    # integrand loses every digit to e^{2r}
    C, _, n_th, ratio = selfcheck._grid()
    kappa = selfcheck.KAPPA_REF
    spec = duan_sum_nonadiabatic_general_arrays(*selfcheck._symmetric_units(C, r, n_th, ratio))
    exact = closedform.duan_sum_nonadiabatic_arrays(C, r, n_th, ratio * kappa, kappa)
    assert np.max(np.abs(spec / exact - 1.0)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(points=st.lists(SYSTEM_ARGS, min_size=1, max_size=4),
       pair=st.sampled_from(["mirror", "field"]))
def test_spectral_stack_equals_one_system_calls(points, pair):
    systems = [asymmetric_system(*point) for point in points]
    rates = [system_units(*s) for s in systems]
    unit1, unit2 = (tuple(np.array(column) for column in zip(*(r[j] for r in rates)))
                    for j in (0, 1))
    N = np.array([s.bath.N for s, _ in systems])
    M = np.array([s.bath.M_corr for s, _ in systems])
    totals = duan_sum_nonadiabatic_general_arrays(unit1, unit2, N, M, pair)
    assert totals.tolist() == [spectral_total(*s, pair) for s in systems]


def test_spectral_stack_broadcasts_and_checks_its_pair():
    unit = (0.1, 1.0, np.array([[0.2], [0.5]]), np.array([0.0, 1.0, 2.0]))
    assert duan_sum_nonadiabatic_general_arrays(unit, unit, 0.0, 0.0).shape == (2, 3)
    assert duan_sum_nonadiabatic_general_arrays(unit, unit, 0.0, 0.0, "field").shape == (2, 3)
    with pytest.raises(ValueError, match="pair must be"):
        duan_sum_nonadiabatic_general_arrays(unit, unit, 0.0, 0.0, "bogus")
    point = (0.1, 1.0, 0.2, 0.0)
    with pytest.raises(ValueError, match="^pair must be 'mirror' or 'field', got 'bogus'$"):
        duan_sum_nonadiabatic_general(point, point, 0.0, 0.0, "bogus")


@pytest.mark.parametrize("pair", ["mirror", "field"])
def test_float_and_array_routes_agree_over_zero_and_inf_rates(pair):
    bath = SqueezedBath(r=1.0)
    for rates in itertools.product((0.0, 1.0, math.inf), repeat=6):
        args = ((*rates[:3], 1.5), (*rates[3:], 0.5), bath.N, bath.M_corr, pair)
        try:
            total = duan_sum_nonadiabatic_general(*args).total
        except (FloatingPointError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                duan_sum_nonadiabatic_general_arrays(*args)
        else:
            assert duan_sum_nonadiabatic_general_arrays(*args).item() == total, rates


def dyadic_root(x):
    """``sqrt(x)`` rounded to 26 significant bits: its square is a float whose
    ``math.sqrt`` is exact."""
    m, e = math.frexp(math.sqrt(x))
    return math.ldexp(round(m * 2**26) / 2**26, e)


@pytest.mark.parametrize("pair", ["mirror", "field"])
@pytest.mark.parametrize("r", [2.0, 8.0, 14.0, 20.0])
def test_both_routes_match_the_exact_total(r, pair):
    # gamma and kappa squares of floats of 26 significant bits; unit 2 differs
    # from unit 1 by delta in one of gamma, kappa and G in turn, down to 1e-12,
    # where e^{2r} ~ 2e17 multiplies the cancelling difference a_1 - a_2
    unit = (dyadic_root(1e-6 * KAPPA) ** 2, dyadic_root(KAPPA) ** 2, 2.0 * KAPPA, 5.0)
    assert math.sqrt(unit[0]) ** 2 == unit[0] and math.sqrt(unit[1]) ** 2 == unit[1]
    bath = SqueezedBath(r=r)
    for which in range(3):
        for delta in (0.0, 1e-12, 1e-9, 1e-6, 1e-2):
            unit2 = list(unit)
            unit2[which] *= 1.0 + delta
            args = (unit, tuple(unit2), bath.N, bath.M_corr, pair)
            exact = exact_total(*args)
            for total in (duan_sum_nonadiabatic_general(*args).total,
                          duan_sum_nonadiabatic_general_arrays(*args).item()):
                assert abs(Fraction(total) / exact - 1) <= 1e-12, (which, delta, total)


@pytest.mark.parametrize("make, sizes", [
    (selfcheck._separability_totals, [1]),  # r = 0 at 10,000 parameter sets
    (lambda: sweep.figure_dataset("fig4"), [1]),
    (lambda: sweep.figure_dataset("fig8"), [1, 1]),
], ids=["separability", "fig4", "fig8"])
def test_identical_unit_forms_map_exp_over_r_alone(monkeypatch, make, sizes):
    mapped = []

    def counting(fn, *arrays):
        values = model.map_math(fn, *arrays)
        mapped.append(values.size)
        return values

    monkeypatch.setattr(closedform, "map_math", counting)
    make()
    assert mapped == sizes


@pytest.mark.parametrize("pair", ["mirror", "field"])
def test_identical_units_stay_finite_where_e2r_overflows(pair):
    # at r = 355, e^{2r} = 2N + 1 + 2M is inf while N and M are finite; the
    # anti-squeezed term is inf times a zero I_4 for identical units, which is 0
    system = config.default_system()
    ss = model.mean_fields_from_effective_detuning(system.unit1, -system.unit1.mirror.omega_M)
    unit = (system.unit1.mirror.gamma, system.unit1.resonator.kappa, ss.G, ss.n_th)
    totals = []
    for r in (354.0, 355.0):
        bath = SqueezedBath(r=r)
        assert math.isfinite(bath.N) and math.isfinite(bath.M_corr)
        args = (unit, unit, bath.N, bath.M_corr, pair)
        total = duan_sum_nonadiabatic_general(*args).total
        assert duan_sum_nonadiabatic_general_arrays(*args).item() == total
        totals.append(total)
    bath = SqueezedBath(r=355.0)
    assert 2.0 * bath.N + 1.0 + 2.0 * bath.M_corr == math.inf
    assert 0.0 < totals[1] == pytest.approx(totals[0], rel=1e-12)
