import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelink import model
from squeezelink.model import (
    HBAR,
    KB,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SystemParams,
    mean_fields_from_bare_detuning,
    mean_fields_from_effective_detuning,
    single_photon_coupling,
    set_param,
    stability_check,
    thermal_occupation,
)

OMEGA_M = 2 * math.pi * 947e3


def default_unit(power=10e-3, temperature=50e-6):
    return OptomechanicalUnit(
        resonator=ResonatorParams(
            omega_r=2 * math.pi * 5.64e14,
            omega_L=2 * math.pi * 2.82e14,
            kappa=2 * math.pi * 215e3,
            length=25e-3,
            power=power,
        ),
        mirror=MirrorParams(
            omega_M=OMEGA_M, gamma=2 * math.pi * 140.0, mass=145e-12,
            temperature=temperature,
        ),
    )


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(OMEGA_M, 0.0) == 0.0

    def test_ln2_temperature_gives_unit_occupation(self):
        T = HBAR * OMEGA_M / (KB * math.log(2.0))
        assert thermal_occupation(OMEGA_M, T) == pytest.approx(1.0, rel=1e-12)

    def test_reference_point_236_uk(self):
        # quoted label is n_th = 5; direct evaluation lands ~5% below
        assert thermal_occupation(OMEGA_M, 236e-6) == pytest.approx(5.0, rel=0.10)

    # domains keep hbar*omega/(kB*T) well below ~700 so the occupation
    # stays above float underflow and strict ordering is meaningful
    @given(
        omega=st.floats(1e3, 1e8),
        t1=st.floats(1e-4, 1e-1),
        factor=st.floats(1.01, 10.0),
    )
    def test_strictly_increasing_in_temperature(self, omega, t1, factor):
        assert thermal_occupation(omega, t1 * factor) > thermal_occupation(omega, t1)

    @given(
        omega=st.floats(1e3, 1e8),
        t=st.floats(1e-4, 1e-1),
        factor=st.floats(1.01, 10.0),
    )
    def test_strictly_decreasing_in_frequency(self, omega, t, factor):
        assert thermal_occupation(omega * factor, t) < thermal_occupation(omega, t)

    def test_deep_cryogenic_underflow_is_graceful(self):
        n = thermal_occupation(2 * math.pi * 1.5e9, 1e-7)
        assert 0.0 <= n < 1e-200

    def test_inverse(self):
        for n in (0.0, 0.3, 1.0, 5.0, 100.0):
            T = model.temperature_for_occupation(OMEGA_M, n)
            assert thermal_occupation(OMEGA_M, T) == pytest.approx(n, rel=1e-12, abs=0.0)


class TestSingleSinglePhotonCoupling:
    def test_reference_value(self):
        g = single_photon_coupling(2 * math.pi * 5.64e14, 25e-3, 145e-12, OMEGA_M)
        assert g == pytest.approx(49.55735503830434, rel=1e-12)

    def test_doubling_length_halves_g(self):
        g1 = single_photon_coupling(1e15, 0.01, 1e-10, 1e6)
        g2 = single_photon_coupling(1e15, 0.02, 1e-10, 1e6)
        assert g2 == pytest.approx(g1 / 2, rel=1e-12)

    def test_quadrupling_mass_halves_g(self):
        g1 = single_photon_coupling(1e15, 0.01, 1e-10, 1e6)
        g2 = single_photon_coupling(1e15, 0.01, 4e-10, 1e6)
        assert g2 == pytest.approx(g1 / 2, rel=1e-12)


class TestDriveAmplitude:
    def test_zero_power(self):
        assert model.drive_amplitude(0.0, 1e6, 1e15) == 0.0

    def test_square_root_law(self):
        e1 = model.drive_amplitude(1e-3, 1e6, 1e15)
        e4 = model.drive_amplitude(4e-3, 1e6, 1e15)
        assert e4 == pytest.approx(2 * e1, rel=1e-12)

    def test_reference_value(self):
        eps = model.drive_amplitude(10e-3, 2 * math.pi * 215e3, 2 * math.pi * 2.82e14)
        assert eps**2 == pytest.approx(1.445916409347265e23, rel=1e-12)


class TestSqueezedBath:
    @given(st.floats(0.0, 10.0))
    def test_moment_constraint(self, r):
        bath = SqueezedBath(r=r)
        assert bath.M_corr**2 == pytest.approx(bath.N * (bath.N + 1), rel=1e-12, abs=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezedBath(r=-0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError):
            SqueezedBath(r=r)

    @pytest.mark.parametrize("r", [356.0, 400.0, 1000.0])
    def test_overflow_raises_instead_of_inf(self, r):
        bath = SqueezedBath(r=r)
        with pytest.raises(OverflowError, match="overflows"):
            bath.N
        with pytest.raises(OverflowError, match="overflows"):
            bath.M_corr


class TestMeanFields:
    def test_reference_photon_number_at_red_sideband(self):
        ss = mean_fields_from_effective_detuning(default_unit(), -OMEGA_M)
        assert ss.n_bar == pytest.approx(4032022417.2749853, rel=1e-12)

    def test_steady_state_invariants(self):
        ss = mean_fields_from_effective_detuning(default_unit(), -OMEGA_M)
        assert ss.n_bar == pytest.approx(abs(ss.alpha) ** 2, rel=1e-12)
        assert ss.G == pytest.approx(ss.g * math.sqrt(ss.n_bar), rel=1e-12)
        assert ss.Gamma_a == pytest.approx(4 * ss.G**2 / default_unit().resonator.kappa, rel=1e-12)
        assert ss.Gamma == ss.Gamma_a + default_unit().mirror.gamma
        assert ss.C == pytest.approx(ss.Gamma_a / default_unit().mirror.gamma, rel=1e-12)

    def test_phase_convention_makes_alpha_negative_imaginary(self):
        for d in (-OMEGA_M, -0.3 * OMEGA_M, 0.7 * OMEGA_M):
            ss = mean_fields_from_effective_detuning(default_unit(), d)
            assert abs(ss.alpha.real) <= 1e-12 * abs(ss.alpha)
            assert ss.alpha.imag < 0

    def test_undriven_cavity(self):
        ss = mean_fields_from_effective_detuning(default_unit(power=1e-300), -OMEGA_M)
        assert ss.n_bar < 1e-200
        assert ss.G < 1e-90
        assert ss.C < 1e-180

    def test_round_trip_effective_to_bare(self):
        # at full power the operating point is bistable: three real branches
        # exist and the solver must pick the red-sideband one
        ss = mean_fields_from_effective_detuning(default_unit(), -OMEGA_M)
        with pytest.warns(model.MultipleBranches):
            back = mean_fields_from_bare_detuning(default_unit(), ss.delta_bare)
        assert back.delta_eff == pytest.approx(-OMEGA_M, rel=1e-9)

    def test_round_trip_at_weak_drive_is_single_branch(self):
        import warnings as _warnings

        unit = default_unit(power=1e-9)
        for d in (-OMEGA_M, -0.4 * OMEGA_M, 0.6 * OMEGA_M):
            ss = mean_fields_from_effective_detuning(unit, d)
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                back = mean_fields_from_bare_detuning(unit, ss.delta_bare)
            assert back.delta_eff == pytest.approx(d, rel=1e-9)

    def test_bare_equals_effective_when_undriven(self):
        unit = default_unit(power=1e-300)
        for delta in (-OMEGA_M, 0.0, 2.5e6):
            ss = mean_fields_from_bare_detuning(unit, delta)
            assert ss.delta_eff == pytest.approx(delta, rel=1e-9, abs=1e-3)


class TestValidation:
    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            ResonatorParams(omega_r=-1.0, omega_L=1e15, kappa=1e6, length=0.01, power=1e-3)
        with pytest.raises(ValueError):
            MirrorParams(omega_M=1e6, gamma=0.0, mass=1e-10, temperature=1e-4)
        with pytest.raises(ValueError):
            MirrorParams(omega_M=1e6, gamma=1e3, mass=1e-10, temperature=-1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            ResonatorParams(omega_r=bad, omega_L=1e15, kappa=1e6, length=0.01, power=1e-3)
        with pytest.raises(ValueError):
            MirrorParams(omega_M=1e6, gamma=bad, mass=1e-10, temperature=1e-4)
        with pytest.raises(ValueError):
            MirrorParams(omega_M=1e6, gamma=1e3, mass=1e-10, temperature=bad)

    def test_low_finesse_warns_but_builds(self):
        with pytest.warns(UserWarning):
            ResonatorParams(omega_r=1e8, omega_L=1e8, kappa=1e6, length=0.01, power=1e-3)


class TestStability:
    def test_decoupled_damped_modes(self):
        gamma, kappa = 880.0, 1.35e6
        A = np.diag([-gamma / 2, -gamma / 2, -kappa / 2, -kappa / 2])
        report = stability_check(A)
        assert report.stable
        assert report.max_real_part == pytest.approx(-gamma / 2, rel=1e-12)

    def test_coupled_blocks_always_stable(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gamma = 10.0 ** rng.uniform(0, 6)
            kappa = 10.0 ** rng.uniform(0, 7)
            G = 10.0 ** rng.uniform(-2, 8)
            A = np.array([[-gamma / 2, G], [-G, -kappa / 2]])
            assert stability_check(A).stable

    def test_stack_names_least_stable_matrix(self):
        stack = np.stack([-np.eye(3), np.diag([-1.0, 0.5, -2.0]), -2.0 * np.eye(3)])
        report = stability_check(stack)
        assert not report.stable
        assert report.worst_index == (1,)
        assert report.max_real_part == pytest.approx(0.5)
        assert stability_check(stack[[0, 2]]).stable

    def test_equal_rates_give_exact_margin(self):
        gamma = 1234.5
        for G in (0.1, 10.0, 1e5):
            A = np.array([[-gamma / 2, G], [-G, -gamma / 2]])
            report = stability_check(A)
            assert report.max_real_part == pytest.approx(-gamma / 2, rel=1e-12)


def test_unit_with_cooperativity_round_trip():
    unit = model.unit_with_cooperativity(C=15.0, kappa=1.35e6, gamma=880.0, n_th=5.0)
    ss = mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    assert ss.C == pytest.approx(15.0, rel=1e-10)
    assert ss.n_th == pytest.approx(5.0, rel=1e-10)


PARTS = (("resonator", ResonatorParams), ("mirror", MirrorParams))


class TestSetParam:
    @staticmethod
    def values(system):
        return {(unit, part, f.name): getattr(getattr(getattr(system, unit), part), f.name)
                for unit in ("unit1", "unit2")
                for part, params in PARTS for f in dataclasses.fields(params)}

    def test_every_field_of_both_units_by_full_and_short_path(self):
        system = SystemParams(default_unit(), default_unit(), SqueezedBath(r=1.0))
        before = self.values(system)
        for unit, part, field in before:
            for path in (f"{unit}.{part}.{field}", f"{unit}.{field}"):
                changed = set_param(system, path, 1.5 * before[unit, part, field])
                expected = before | {(unit, part, field): 1.5 * before[unit, part, field]}
                assert self.values(changed) == expected, path
                assert changed.bath == system.bath

    def test_part_field_names_are_disjoint(self):
        # what makes the short path unitN.field unambiguous
        names = [{f.name for f in dataclasses.fields(params)} for _, params in PARTS]
        assert all(names) and not names[0] & names[1]
