import inspect
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelink import closedform, model, oracle
from squeezelink.model import (
    HBAR,
    KB,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SystemParams,
    mean_fields_from_effective_detuning,
    set_param,
    stability_check,
    thermal_occupation,
)
from units import temperature_for_occupation, unit_with_cooperativity

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


def sideband_arrays(unit, **fields):
    """``unit``'s record with ``fields`` set to arrays: the field check, then the rate core."""
    res, mir = dict(vars(unit.resonator)), dict(vars(unit.mirror))
    model.set_field_arrays(res, mir, fields)
    return model.sideband_rate_arrays(res, mir)


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(OMEGA_M, 0.0) == 0.0

    def test_ln2_temperature_gives_unit_occupation(self):
        T = HBAR * OMEGA_M / (KB * math.log(2.0))
        assert thermal_occupation(OMEGA_M, T) == pytest.approx(1.0, rel=1e-12)

    def test_reference_point_236_uk(self):
        # quoted label is n_th = 5; direct evaluation lands ~5% below
        assert thermal_occupation(OMEGA_M, 236e-6) == pytest.approx(5.0, rel=0.10)

    @pytest.mark.parametrize("label, n_th", [(62.2e-6, 1.0), (236e-6, 5.0), (452e-6, 10.0)])
    def test_temperature_labels_assume_hbar_of_1e_minus_34(self, label, n_th):
        # n_th at the label with hbar = 1e-34 J s is n_th at label * HBAR / 1e-34 with
        # CODATA hbar; the three-digit labels then hold to their rounding, where
        # CODATA hbar itself misses them by 5 to 7 percent
        assert thermal_occupation(OMEGA_M, label * HBAR / 1e-34) == pytest.approx(n_th, rel=3e-3)

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

    def test_temperature_whose_k_t_underflows_gives_zero(self):
        # below about 3.6e-301 K, k_B T rounds to 0 and the occupation is exp(-inf)
        assert thermal_occupation(OMEGA_M, 2.2250738585e-313) == 0.0

    @pytest.mark.parametrize("omega_M, temperature", [(1e-320, 1e-3), (5e-324, 1.0)])
    def test_underflowing_quantum_raises_overflow(self, omega_M, temperature):
        # hbar omega_M rounds to 0, so the occupation 1 / expm1(0) diverges
        with pytest.raises(OverflowError, match=f"omega_M = {omega_M!r} rad/s, "
                                                f"T = {temperature!r} K"):
            thermal_occupation(omega_M, temperature)

    def test_inverse(self):
        for n in (0.0, 0.3, 1.0, 5.0, 100.0):
            T = temperature_for_occupation(OMEGA_M, n)
            assert thermal_occupation(OMEGA_M, T) == pytest.approx(n, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega_M, temperature", [
        (math.nan, 1e-3), (math.inf, 1e-3), (OMEGA_M, math.nan), (OMEGA_M, math.inf),
    ])
    def test_non_finite_input_rejected(self, omega_M, temperature):
        with pytest.raises(FloatingPointError, match="finite"):
            thermal_occupation(omega_M, temperature)

    @pytest.mark.parametrize("omega_M, n_th", [
        (OMEGA_M, math.inf), (OMEGA_M, math.nan), (math.inf, 1.0), (math.nan, 1.0),
    ])
    def test_inverse_rejects_non_finite_input(self, omega_M, n_th):
        with pytest.raises(FloatingPointError, match="finite"):
            temperature_for_occupation(omega_M, n_th)


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
        with pytest.raises(FloatingPointError, match="^squeeze parameter r must be >= 0 and "
                                                     "finite, got (nan|inf)$"):
            SqueezedBath(r=r)

    @pytest.mark.parametrize("r", [356.0, 400.0, 1000.0])
    def test_overflow_raises_instead_of_inf(self, r):
        bath = SqueezedBath(r=r)
        with pytest.raises(OverflowError, match="overflows"):
            bath.N
        with pytest.raises(OverflowError, match="overflows"):
            bath.M_corr


class TestArrayHelpers:
    @pytest.mark.parametrize("r", [
        np.array([[0.0, 1.3, 0.25], [1.3, 7.0, 0.0]]),  # repeated values
        # every last bit up to the overflow; at 5.017925 np.square(sinh r) differs
        np.append(np.linspace(0.0, 355.0, 20001), 5.017925),
    ])
    def test_squeeze_arrays_equal_the_bath_bit_for_bit(self, r):
        N, M = model.squeeze_arrays(r)
        assert N.shape == M.shape == r.shape
        baths = [SqueezedBath(r=x) for x in r.ravel().tolist()]
        assert N.ravel().tolist() == [bath.N for bath in baths]
        assert M.ravel().tolist() == [bath.M_corr for bath in baths]
        N, M = model.squeeze_arrays(2.0)
        assert (N.item(), M.item()) == (SqueezedBath(r=2.0).N, SqueezedBath(r=2.0).M_corr)

    @pytest.mark.parametrize("bad, error", [
        (-0.5, ValueError), (math.nan, FloatingPointError), (400.0, OverflowError),
        (355.6, OverflowError),  # just past the overflow of N and M_corr
        # two failing elements: the first in flat order names the error
        pytest.param([-0.5, -2.0], ValueError, id="first-of-two-negative"),
        pytest.param([400.0, 360.0], OverflowError, id="first-of-two-overflowing"),
    ])
    def test_squeeze_arrays_raise_what_the_bath_raises(self, bad, error):
        bad = bad if isinstance(bad, list) else [bad]
        with pytest.raises(error) as expected:
            bath = SqueezedBath(r=bad[0])
            bath.N, bath.M_corr
        with pytest.raises(error) as got:
            model.squeeze_arrays(np.array([0.5, *bad, 0.5]))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("a, b", [
        (2.0, 3.0),
        (np.array([[1.0], [2.0], [1.0]]), 3.0),
        (np.array([1.0, 2.0, 1.0]), np.array([[3.0], [4.0]])),
        (np.zeros((0, 2)), 1.0),
    ])
    def test_map_math_equals_per_element_calls(self, a, b):
        calls = []

        def fn(x, y):
            calls.append((x, y))
            return x / y

        out = model.map_math(fn, a, b)
        A, B = np.broadcast_arrays(a, b)
        assert out.shape == A.shape
        assert out.tolist() == (A / B).tolist()
        assert calls == list(zip(A.ravel().tolist(), B.ravel().tolist()))

    @pytest.mark.parametrize("a, b", [
        (10.0, np.linspace(-6.0, 3.0, 1001)),  # a scalar first, as 10 ** u
        (np.sinh(np.linspace(0.0, 30.0, 1001)), 2.0),  # a scalar second, as sinh ** 2
        (np.array(10.0), np.linspace(-2.0, 3.0, 7).reshape(7, 1)),  # a 0-d array
        (np.array([[1.5]]), np.array([2.0, -0.5, 3.0])),  # size 1, broadcast to (1, 3)
        (np.array([2.0]), np.zeros((0, 3))),  # size 1 beside no elements
        (2.0, 0.5),  # every argument a scalar
        (np.float32(1.1), 3),  # cast to float alike
    ])
    def test_map_math_size_1_arguments_give_the_broadcast_bits(self, a, b):
        # a size-1 argument repeats one float instead of a broadcast list
        def broadcast(fn, *arrays):
            shape = np.broadcast(*arrays).shape
            columns = [np.empty(shape) for _ in arrays]
            for column, array in zip(columns, arrays):
                np.copyto(column, array)
            values = map(fn, *(column.ravel().tolist() for column in columns))
            return np.fromiter(values, float, columns[0].size).reshape(shape)

        got, want = model.map_math(math.pow, a, b), broadcast(math.pow, a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_occupation_arrays_equal_the_point_bit_for_bit(self):
        # x = hbar omega_M / k_B T log-spaced across the x > 700 branch, where
        # the occupation is exp(-x); T = 0, and a T where k_B T underflows to 0
        x = np.geomspace(1e-12, 750.0, 2001)
        temperature = np.append(HBAR * OMEGA_M / (KB * x), [0.0, 2.2250738585e-313])
        n_th = sideband_arrays(default_unit(), temperature=temperature).n_th
        assert [v.hex() for v in n_th.tolist()] == [
            thermal_occupation(OMEGA_M, t).hex() for t in temperature.tolist()]
        # an (n, 1) x (1, m) broadcast
        omega_M = OMEGA_M * np.geomspace(1e-3, 1e3, 7)[:, None]
        temperature = np.array([[0.0, 1e-9, 50e-6, 1.0, 300.0]])
        n_th = sideband_arrays(default_unit(), omega_M=omega_M,
                           temperature=temperature).n_th
        assert n_th.shape == (7, 5)
        assert [v.hex() for v in n_th.ravel().tolist()] == [
            thermal_occupation(w, t).hex()
            for w, t in zip(*(a.ravel().tolist()
                              for a in np.broadcast_arrays(omega_M, temperature)))]

    def test_sideband_arrays_equal_the_steady_state_bit_for_bit(self):
        # every field of the record, and C, over a broadcast grid of five fields; T = 0,
        # and T = 1e-9 K, where x = hbar omega_M / k_B T > 700 at every omega_M
        fields = {
            "power": np.array([1e-6, 10e-3, 30e-3])[:, None, None, None, None],
            "omega_M": OMEGA_M * np.array([0.5, 1.0, 2.0])[:, None, None, None],
            "kappa": 2 * math.pi * np.array([50e3, 215e3, 1e6])[:, None, None],
            "gamma": 2 * math.pi * np.array([1.0, 140.0])[:, None],
            "temperature": np.array([0.0, 1e-9, 50e-6, 1.0, 300.0]),
        }
        arrays = sideband_arrays(default_unit(), **fields)
        grid = np.broadcast_arrays(*fields.values())
        unit, records, states = default_unit(), [], []
        for values in zip(*(a.ravel().tolist() for a in grid)):
            point = dict(zip(fields, values))
            res = {name: point.pop(name) for name in ("power", "kappa")}
            moved = unit.replace(resonator=unit.resonator.replace(**res),
                                 mirror=unit.mirror.replace(**point))
            states.append(mean_fields_from_effective_detuning(moved, -point["omega_M"]))
            records.append(model.unit_record(moved, states[-1]))
        C = model._cooperativity(arrays.gamma, arrays.kappa, arrays.G)
        for name, values, want in [*((name, getattr(arrays, name),
                                      [getattr(rec, name) for rec in records])
                                     for name in model.SidebandArrays._fields),
                                   ("C", C, [ss.C for ss in states])]:
            got = np.broadcast_to(values, grid[0].shape).ravel().tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want], name


class TestMeanFields:
    def test_reference_rates_at_red_sideband(self):
        # G = g sqrt(n_bar) with g = 49.557 rad/s and n_bar = 4.032e9 photons
        ss = mean_fields_from_effective_detuning(default_unit(), -OMEGA_M)
        assert (ss.G.hex(), ss.C.hex()) == ("0x1.802199e630243p+21", "0x1.0469c65ce3638p+15")

    @pytest.mark.parametrize("part, field, factor, G_factor", [
        ("resonator", "length", 2.0, 0.5),  # g ~ 1 / L
        ("mirror", "mass", 4.0, 0.5),  # g ~ 1 / sqrt(M)
        ("resonator", "power", 4.0, 2.0),  # n_bar ~ P
    ])
    def test_G_scales_with_length_mass_and_power(self, part, field, factor, G_factor):
        unit = default_unit()
        params = getattr(unit, part)
        scaled = unit.replace(**{part: params.replace(**{field: factor * getattr(params, field)})})
        G = mean_fields_from_effective_detuning(unit, -OMEGA_M).G
        assert mean_fields_from_effective_detuning(scaled, -OMEGA_M).G == pytest.approx(
            G_factor * G, rel=1e-12)

    def test_steady_state_invariants(self):
        unit = default_unit()
        ss = mean_fields_from_effective_detuning(unit, -OMEGA_M)
        gamma, kappa = unit.mirror.gamma, unit.resonator.kappa
        assert ss.C == pytest.approx(4 * ss.G**2 / (gamma * kappa), rel=1e-12)
        # C = Gamma_a / gamma with the adiabatic form's Gamma_a = 4 G^2 / kappa, bit for bit
        assert ss.C == 4.0 * (ss.G * ss.G) / kappa / gamma
        assert model.unit_record(unit, ss) == (gamma, kappa, ss.G, ss.n_th)

    def test_undriven_cavity(self):
        ss = mean_fields_from_effective_detuning(default_unit(power=1e-300), -OMEGA_M)
        assert ss.G < 1e-90
        assert ss.C < 1e-180

    @pytest.mark.parametrize("part, fields, delta_eff", [
        ("mirror", {"mass": 1e-320, "omega_M": 1e-10}, -1e-10),  # M omega_M
        ("resonator", {"omega_L": 1e-300, "kappa": 1e-304}, -OMEGA_M),  # hbar omega_L
        ("resonator", {"kappa": 1e-170}, 0.0),  # (kappa/2)^2 + delta_eff^2
    ])
    def test_underflowing_rate_denominator_is_a_named_overflow(self, part, fields, delta_eff):
        unit = default_unit(temperature=0.0)
        unit = unit.replace(**{part: getattr(unit, part).replace(**fields)})
        with pytest.raises(OverflowError, match=r"steady-state rates diverge at .*"
                           r"underflows to 0"):
            mean_fields_from_effective_detuning(unit, delta_eff)

    @pytest.mark.parametrize("delta_eff", [math.inf, -math.inf, math.nan])
    def test_non_finite_detuning_rejected(self, delta_eff):
        # as the range gate raises for a non-finite value
        with pytest.raises(FloatingPointError,
                           match=f"^delta_eff must be finite, got {delta_eff!r}$"):
            mean_fields_from_effective_detuning(default_unit(), delta_eff)


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
        with pytest.raises(FloatingPointError):
            ResonatorParams(omega_r=bad, omega_L=1e15, kappa=1e6, length=0.01, power=1e-3)
        with pytest.raises(FloatingPointError):
            MirrorParams(omega_M=1e6, gamma=bad, mass=1e-10, temperature=1e-4)
        with pytest.raises(FloatingPointError):
            MirrorParams(omega_M=1e6, gamma=1e3, mass=1e-10, temperature=bad)

    def test_low_finesse_warns_but_builds(self):
        with pytest.warns(UserWarning):
            ResonatorParams(omega_r=1e8, omega_L=1e8, kappa=1e6, length=0.01, power=1e-3)


def drift_blocks(gamma, kappa, G):
    """The model's drift block rows ``(4, 4, ...)`` of two identical units, as the
    oracle writes them."""
    unit = (gamma, kappa, G, 0.0)
    return oracle._model_rows(unit, unit, 0.0, 0.0)[0]


class TestStability:
    def test_decoupled_damped_modes(self):
        gamma, kappa = 880.0, 1.35e6
        report = stability_check(drift_blocks(gamma, kappa, 0.0))
        assert report.stable
        assert report.max_real_part == pytest.approx(-gamma / 2, rel=1e-12)

    def test_coupled_blocks_always_stable(self):
        rng = np.random.default_rng(3)
        gamma, kappa, G = 10.0 ** rng.uniform([0, 0, -2], [6, 7, 8], size=(200, 3)).T
        assert stability_check(drift_blocks(gamma, kappa, G)).stable

    def test_stack_names_least_stable_matrix(self):
        rates = np.array([2.0, 2.0, 4.0])
        stack = drift_blocks(rates, rates, 0.0)
        stack[0, 2, 1] = 0.5  # entry 00 of system 1's (Y1, y1) block
        report = stability_check(stack)
        assert not report.stable
        assert report.worst_index == (1,)
        assert report.max_real_part == pytest.approx(0.5)
        assert stability_check(stack[..., [0, 2]]).stable

    @pytest.mark.parametrize("shape", [(4, 4, 0), (4, 2, 3, 0)])
    def test_a_stack_of_no_systems_is_vacuously_stable(self, shape):
        report = stability_check(np.zeros(shape))
        assert report.replace(exponents=None) == model.StabilityReport(
            stable=True, max_real_part=-math.inf)
        assert report.worst_index == () and report.exponents.shape == shape[1:]

    def test_equal_rates_give_exact_margin(self):
        gamma = 1234.5
        for G in (0.1, 10.0, 1e5):
            report = stability_check(drift_blocks(gamma, gamma, G))
            assert report.max_real_part == pytest.approx(-gamma / 2, rel=1e-12)


def test_unit_with_cooperativity_round_trip():
    unit = unit_with_cooperativity(C=15.0, kappa=1.35e6, gamma=880.0, n_th=5.0)
    ss = mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    assert ss.C == pytest.approx(15.0, rel=1e-10)
    assert ss.n_th == pytest.approx(5.0, rel=1e-10)


def test_unit_with_cooperativity_is_the_reference_device():
    assert list(inspect.signature(unit_with_cooperativity).parameters) == [
        "C", "kappa", "gamma", "n_th"]
    unit = unit_with_cooperativity(C=15.0, kappa=1.35e6, gamma=880.0, n_th=5.0)
    res, mir = unit.resonator, unit.mirror
    device = model.REFERENCE_DEVICE
    assert (res.omega_r, res.omega_L, res.length, mir.omega_M, mir.mass) == (
        device["omega_r"], device["omega_L"], device["length"], device["omega_M"],
        device["mass"])
    assert (res.kappa, mir.gamma) == (1.35e6, 880.0)


PARTS = (("resonator", ResonatorParams), ("mirror", MirrorParams))


class TestSetParam:
    @staticmethod
    def values(system):
        return {(unit, part, field): getattr(getattr(getattr(system, unit), part), field)
                for unit in ("unit1", "unit2")
                for part, params in PARTS for field in params._fields}

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
        names = [set(params._fields) for _, params in PARTS]
        assert all(names) and not names[0] & names[1]


def _records():
    """(class, its fields in order, the values of one valid record, the values
    its defaults take, a change the constructor rejects and the error it raises)."""
    from squeezelink import oracle, selfcheck, sweep
    from squeezelink.closedform import DuanResult

    unit = default_unit()
    system = SystemParams(unit, unit, SqueezedBath(r=1.0))
    steady = mean_fields_from_effective_detuning(unit, -OMEGA_M)
    drift, diffusion = np.zeros((4, 4)), np.zeros((4, 6))
    return [
        (ResonatorParams, ("omega_r", "omega_L", "kappa", "length", "power"),
         dict(vars(unit.resonator)), {}, {"power": -1.0}, ValueError),
        (MirrorParams, ("omega_M", "gamma", "mass", "temperature"),
         dict(vars(unit.mirror)), {}, {"gamma": -1.0}, ValueError),
        (SqueezedBath, ("r",), {"r": 1.0}, {}, {"r": -1.0}, ValueError),
        (OptomechanicalUnit, ("resonator", "mirror"), dict(vars(unit)), {}, None, None),
        (SystemParams, ("unit1", "unit2", "bath"), dict(vars(system)), {}, None, None),
        (model.SteadyState, ("delta_eff", "G", "C", "n_th"),
         dict(vars(steady)), {}, None, None),
        (model.StabilityReport, ("stable", "max_real_part", "worst_index", "exponents"),
         {"stable": True, "max_real_part": -1.0}, {"worst_index": (), "exponents": None},
         None, None),
        (DuanResult, ("var_X", "var_Y", "total"), {"var_X": 0.5, "var_Y": 0.75},
         {"total": 1.25}, {"total": math.nan}, FloatingPointError),
        (sweep.SweepSpec, ("base", "axis", "start", "stop", "count", "scale", "quantity"),
         {"base": system, "axis": "bath.r", "start": 0.0, "stop": 1.0, "count": 3},
         {"scale": "linear", "quantity": "mirror-duan-adiabatic"}, {"count": 1}, ValueError),
        (sweep.OptimizeSpec, ("lo", "hi", "tolerance"), {"lo": 0.0, "hi": 1.0},
         {"tolerance": 1e-6}, {"hi": -1.0}, ValueError),
        (sweep.FigureDataset, ("axis_name", "axis_unit", "columns", "rows", "metadata"),
         {"axis_name": "r", "axis_unit": "1", "columns": ["total"], "rows": [(0.0, 1.0)],
          "metadata": {}}, {}, None, None),
        (oracle.DriftDiffusion, ("A", "D"), {"A": drift, "D": diffusion}, {}, None, None),
        (selfcheck.CheckResult, ("name", "passed", "max_err", "tolerance", "detail"),
         {"name": "triple", "passed": True, "max_err": 0.0, "tolerance": 1e-6},
         {"detail": ""}, None, None),
    ]


@pytest.mark.parametrize("case", _records(), ids=lambda case: case[0].__name__)
def test_record_semantics(case):
    cls, fields, given, defaults, invalid, error = case
    record = cls(**given)
    values = given | defaults
    assert cls._fields == fields and vars(record) == values and list(vars(record)) == list(fields)
    assert cls(*(values[field] for field in fields)) == record  # by position too
    # frozen
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[fields[0]])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    # equal by type and value: a copy (holding the same objects, as arrays
    # compare only by identity), never another record type or a tuple
    copy = cls(**given)
    assert copy == record and not copy != record
    other = SqueezedBath(r=1.0) if cls is not SqueezedBath else MirrorParams(1.0, 1.0, 1.0, 0.0)
    assert record != other and record != tuple(values[field] for field in fields)
    if cls.__name__ in ("FigureDataset", "DriftDiffusion"):
        with pytest.raises(TypeError):  # a list, a dict or an array is unhashable
            hash(record)
    else:
        assert hash(copy) == hash(record)
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{field}={values[field]!r}" for field in fields) + ")")
    # a missing, unknown or repeated field
    with pytest.raises(TypeError):
        cls(**{field: value for field, value in given.items() if field != fields[0]})
    with pytest.raises(TypeError):
        cls(**given, unknown=1.0)
    with pytest.raises(TypeError):
        cls(given[fields[0]], **given)
    # replace builds through the constructor, so it validates
    assert record.replace() == record
    if invalid is not None:
        with pytest.raises(error):
            record.replace(**invalid)
        with pytest.raises(error):
            cls(**(given | invalid))


@pytest.mark.parametrize("case", [case for case in _records() if case[3]],
                         ids=lambda case: case[0].__name__)
def test_record_from_a_positional_prefix_equals_the_record_by_keyword(case):
    cls, fields, given, defaults, _, _ = case
    values = given | defaults
    required = [field for field in fields if field not in defaults]
    assert fields[:len(required)] == tuple(required)  # the defaults trail
    for k in range(len(required), len(fields)):
        prefix = fields[:k]
        assert cls(*(values[field] for field in prefix)) == cls(**{f: values[f] for f in prefix})
    # a required field missing by position keeps the constructor's message
    short = [values[field] for field in required[:-1]]
    with pytest.raises(TypeError) as raised:
        cls(*short)
    assert str(raised.value) == (f"{cls.__name__}() takes the fields {', '.join(fields)}; "
                                 f"got {len(short)} by position and none by keyword")


#: unit records (gamma, kappa, G, n_th) at zero, subnormal, huge and negative values of
#: each field, and a negative G and n_th: all finite
GATE_GRID = [*itertools.product((1e-3, 0.0, 5e-324, 1e300, -1.0), (1.0, 0.0, 1e300, 5e-324),
                                (10.0, 0.0, 1e160, 1e300), (0.5, 0.0, 1e300)),
             (1e-3, 1.0, -10.0, 0.5), (1e-3, 1.0, 10.0, -0.5)]
#: records with a NaN or infinite field, as an overflow upstream leaves them
NON_FINITE = [(math.nan, 1.0, 10.0, 0.5), (1e-3, math.inf, 10.0, 0.5), (1e-3, 1.0, math.inf, 0.5),
              (1e-3, 1.0, 10.0, -math.inf), (1e-3, 1.0, -math.inf, math.nan)]
#: the partner of every record
NORMAL = (1e-3, 1.0, 10.0, 0.5)
GATE_TEXT = re.compile(r"^unit [12]: (gamma|kappa|G|n_th) must be ")


def gate_verdict(record, j):
    """What :func:`model._require_unit` raises for ``record`` as unit ``j``, or None."""
    try:
        model._require_unit(j, *record)
    except (ValueError, FloatingPointError) as exc:
        return exc
    return None


def route_outcomes(record, j):
    """The exception, or None, of every general route with ``record`` as unit ``j`` and
    ``NORMAL`` as the other unit at r = 1: per point, and over arrays of three systems
    with ``record`` in the middle."""
    bath = SqueezedBath(r=1.0)
    units = (record, NORMAL) if j == 1 else (NORMAL, record)
    arrays = [tuple(np.array([n, x, n]) for n, x in zip(NORMAL, unit)) for unit in units]
    args, array_args = (*units, bath.N, bath.M_corr), (*arrays, bath.N, bath.M_corr)
    routes = {
        "adiabatic": lambda: closedform.duan_sum_adiabatic_general(*args),
        "mirror": lambda: closedform.duan_sum_nonadiabatic_general(*args, "mirror"),
        "field": lambda: closedform.duan_sum_nonadiabatic_general(*args, "field"),
        "drift": lambda: oracle._model_rows(*args),
        "adiabatic arrays": lambda: closedform.duan_sum_adiabatic_arrays(*array_args),
        "mirror arrays": lambda: closedform.duan_sum_nonadiabatic_general_arrays(
            *array_args, "mirror"),
        "field arrays": lambda: closedform.duan_sum_nonadiabatic_general_arrays(
            *array_args, "field"),
        "oracle arrays": lambda: oracle.duan_variance_arrays(*array_args),
        "drift arrays": lambda: oracle._model_rows(*array_args),
    }
    outcomes = {}
    for name, route in routes.items():
        try:
            route()
            outcomes[name] = None
        except Exception as exc:  # any outcome: the tests compare them
            outcomes[name] = exc
    return outcomes


class TestUnitGate:
    def test_the_grid_splits_as_the_bounds_say(self):
        rejected = [r for r in GATE_GRID if gate_verdict(r, 1) is not None]
        assert (len(GATE_GRID), len(rejected)) == (242, 134)
        assert all(isinstance(gate_verdict(r, 2), ValueError) for r in rejected)
        assert all(isinstance(gate_verdict(r, 1), FloatingPointError) for r in NON_FINITE)

    def test_messages_name_the_unit_the_field_and_the_value(self):
        with pytest.raises(FloatingPointError,
                           match=r"^unit 2: G must be >= 0 and finite, got inf$"):
            model._require_unit(2, 1e-3, 1.0, math.inf, 0.5)
        with pytest.raises(ValueError, match=r"^unit 1: gamma must be > 0 and finite, got -1.0$"):
            model._require_unit(1, -1.0, 1.0, -10.0, -0.5)  # the first field out of bounds

    @pytest.mark.parametrize("j", [1, 2])
    def test_rejected_records_raise_one_error_on_every_route(self, j):
        # the gate runs before any arithmetic, so no numpy warning comes first either
        rejected = [r for r in GATE_GRID + NON_FINITE if gate_verdict(r, j) is not None]
        for record in rejected:
            expected = gate_verdict(record, j)
            for name, exc in route_outcomes(record, j).items():
                assert (type(exc), str(exc)) == (type(expected), str(expected)), (record, name)

    @pytest.mark.parametrize("j", [1, 2])
    def test_admitted_records_never_raise_the_gates_error(self, j):
        # nor a numpy warning: an overflow on a huge record, such as the oracle's
        # diffusion gamma (2 n_th + 1) / 2, shows as a typed error or not at all
        admitted = [r for r in GATE_GRID if gate_verdict(r, j) is None]
        assert len(admitted) == 108
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for record in admitted:
                for name, exc in route_outcomes(record, j).items():
                    assert exc is None or (isinstance(exc, (ArithmeticError, model.UnstableDrift))
                                           and not GATE_TEXT.match(str(exc))), (record, name, exc)

    def test_array_gate_raises_for_the_first_element_unit_1_before_unit_2(self):
        bad1 = (np.array([1e-3, 1e-3, -1.0]), 1.0, 10.0, 0.5)
        bad2 = (1e-3, 1.0, np.array([10.0, math.inf, -1.0]), 0.5)
        with pytest.raises(FloatingPointError,
                           match="^unit 2: G must be >= 0 and finite, got inf$"):
            model.require_units({1: bad1, 2: bad2})  # element 1 before element 2
        bad1[0][1] = -1.0
        with pytest.raises(ValueError, match="^unit 1: gamma must be > 0 and finite, got -1.0$"):
            model.require_units({1: bad1, 2: bad2})  # unit 1 before unit 2 at one element
        with pytest.raises(FloatingPointError, match="^unit 2: G must be"):
            model.require_units({2: bad2})
        model.require_units({1: NORMAL, 2: tuple(np.full(3, x) for x in NORMAL)})


def record_fields_arrays(record):
    """The array twin of building ``record``: :func:`model.set_field_arrays` with the one
    array among the arguments as its field, on the default unit."""
    def twin(*args):
        name, values = next((field, value) for field, value in zip(record._fields, args)
                            if isinstance(value, np.ndarray))
        unit = default_unit()
        model.set_field_arrays(dict(vars(unit.resonator)), dict(vars(unit.mirror)),
                               {name: values})
    return twin


POSITIVE, NONNEGATIVE = "> 0", ">= 0"
#: every gated function but the unit gate: (per point, array twin or None, valid
#: arguments, the (name, bound) of each argument that the gate checks, in order)
GATED = {
    "resonator": (ResonatorParams, record_fields_arrays(ResonatorParams),
                  (1e15, 1e15, 1e6, 0.01, 1e-3),
                  [("omega_r", POSITIVE), ("omega_L", POSITIVE), ("kappa", POSITIVE),
                   ("length", POSITIVE), ("power", POSITIVE)]),
    "mirror": (MirrorParams, record_fields_arrays(MirrorParams), (1e6, 1e3, 1e-10, 1e-4),
               [("omega_M", POSITIVE), ("gamma", POSITIVE), ("mass", POSITIVE),
                ("temperature", NONNEGATIVE)]),
    "bath": (SqueezedBath, model.squeeze_arrays, (1.0,),
             [("squeeze parameter r", NONNEGATIVE)]),
    "occupation": (thermal_occupation, None, (OMEGA_M, 1e-3),
                   [("omega_M", POSITIVE), ("temperature", NONNEGATIVE)]),
    "adiabatic identical": (closedform.duan_sum_adiabatic_identical,
                            closedform.duan_sum_adiabatic_identical_arrays, (1.0, 1.0, 1.0),
                            [("C", NONNEGATIVE), ("r", NONNEGATIVE), ("n_th", NONNEGATIVE)]),
    "nonadiabatic": (closedform.duan_sum_nonadiabatic, closedform.duan_sum_nonadiabatic_arrays,
                     (1.0, 1.0, 1.0, 0.1, 1.0),
                     [("C", NONNEGATIVE), ("r", NONNEGATIVE), ("n_th", NONNEGATIVE),
                      ("gamma", POSITIVE), ("kappa", POSITIVE)]),
    "field": (closedform.field_sum_nonadiabatic, closedform.field_sum_nonadiabatic_arrays,
              (1.0, 1.0, 1.0, 0.1, 1.0),
              [("C", NONNEGATIVE), ("r", NONNEGATIVE), ("n_th", NONNEGATIVE),
               ("gamma", POSITIVE), ("kappa", POSITIVE)]),
    "strong": (closedform.duan_sum_strong_coupling_approx, None, (1.0, 1.0, 1.0),
               [("C", POSITIVE), ("r", NONNEGATIVE), ("n_th", NONNEGATIVE)]),
    "weak": (closedform.duan_sum_weak_coupling_approx, None, (1.0, 1.0, 1.0),
             [("C", NONNEGATIVE), ("r", NONNEGATIVE), ("n_th", NONNEGATIVE)]),
    "threshold": (closedform.threshold_cooperativity, None, (1.0, 1.0),
                  [("r", NONNEGATIVE), ("n_th", NONNEGATIVE)]),
    "minimum power": (lambda r, T: closedform.minimum_power(default_unit(), r, T), None,
                      (1.0, 1e-3), [("r", NONNEGATIVE), ("temperature", POSITIVE)]),
    "diagnostic power": (lambda r, T: closedform.diagnostic_minimum_power(default_unit(), r, T),
                         None, (1.0, 1e-3), [("r", NONNEGATIVE), ("temperature", POSITIVE)]),
}
#: inputs that the per-function checks before the gate let through, or rejected with
#: another type or text: (function, arguments, error, text)
PROBES = [
    ("threshold", (1.0, math.nan), FloatingPointError, "n_th must be >= 0 and finite, got nan"),
    ("threshold", (-1.0, 1.0), ValueError, "r must be >= 0 and finite, got -1.0"),
    ("strong", (1.0, -1.0, 1.0), ValueError, "r must be >= 0 and finite, got -1.0"),
    ("strong", (math.nan, 1.0, 1.0), FloatingPointError, "C must be > 0 and finite, got nan"),
    ("weak", (1.0, 1.0, math.nan), FloatingPointError, "n_th must be >= 0 and finite, got nan"),
    ("nonadiabatic", (math.nan, 1.0, 1.0, 0.1, 1.0), FloatingPointError,
     "C must be >= 0 and finite, got nan"),
    ("nonadiabatic", (1.0, 1.0, 1.0, math.nan, 1.0), FloatingPointError,
     "gamma must be > 0 and finite, got nan"),
    ("adiabatic identical", (1.0, math.inf, 1.0), FloatingPointError,
     "r must be >= 0 and finite, got inf"),
]


def gated_inputs():
    """(function, argument index, bad value) for every gated argument and each value out
    of its range: -1, NaN, +inf and -inf, and 0 where the bound is "> 0"."""
    for case, (_, _, _, rows) in GATED.items():
        for i, (_, bound) in enumerate(rows):
            for bad in (-1.0, math.nan, math.inf, -math.inf) + ((0.0,) * (bound == POSITIVE)):
                yield pytest.param(case, i, bad, id=f"{case}-{rows[i][0]}-{bad!r}")


def raises_per_point_and_over_arrays(case, args, i, error, text):
    """Check that ``case`` raises ``error`` with exactly ``text`` at ``args``, and its array
    twin, if any, with ``args[i]`` as the middle of three elements, the others valid."""
    point, twin, good, _ = GATED[case]
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        point(*args)
    if twin is not None:
        args = list(args)
        args[i] = np.array([good[i], args[i], good[i]])
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            twin(*args)


class TestRangeGate:
    @pytest.mark.parametrize("case, i, bad", gated_inputs())
    def test_each_input_out_of_range_raises_one_type_and_text(self, case, i, bad):
        _, _, good, rows = GATED[case]
        name, bound = rows[i]
        args = good[:i] + (bad,) + good[i + 1:]
        error = ValueError if math.isfinite(bad) else FloatingPointError
        raises_per_point_and_over_arrays(case, args, i, error,
                                         f"{name} must be {bound} and finite, got {bad!r}")

    @pytest.mark.parametrize("case, args, error, text", PROBES)
    def test_probe_cases_raise_at_the_gate(self, case, args, error, text):
        bad = next(i for i, (x, y) in enumerate(zip(args, GATED[case][2])) if x != y)
        raises_per_point_and_over_arrays(case, args, bad, error, text)
