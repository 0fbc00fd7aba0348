"""Chunked, stacked Lyapunov solves in the selfcheck grids."""

import inspect
import math

import numpy as np
import pytest

from squeezelink import model, oracle, selfcheck
from units import unit_with_cooperativity


def symmetric_system(C, r, n_th, ratio):
    """One system of two :func:`selfcheck._symmetric_units` units, and its steady states."""
    kappa = selfcheck.KAPPA_REF
    unit = unit_with_cooperativity(C=C, kappa=kappa, gamma=ratio * kappa, n_th=n_th)
    system = model.SystemParams(unit1=unit, unit2=unit, bath=model.SqueezedBath(r=r))
    ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return system, (ss, ss)


def random_systems(count):
    """((gamma, kappa, G, n_th), N, M) arrays of random identical-unit systems,
    and each system's drift and diffusion built on its own."""
    rng = np.random.default_rng(3)
    units, baths, dds = [], [], []
    for _ in range(count):
        C = float(10.0 ** rng.uniform(-1, 2))
        r = float(rng.uniform(0.0, 2.0))
        system, (ss, _) = symmetric_system(C, r, 2.0, 0.01)
        unit = system.unit1
        units.append((unit.mirror.gamma, unit.resonator.kappa, ss.G, ss.n_th))
        baths.append((system.bath.N, system.bath.M_corr))
        dds.append(oracle.build_rwa_drift_diffusion(system, (ss, ss)))
    N, M = np.array(baths).T
    return tuple(np.array(column) for column in zip(*units)), N, M, dds


@pytest.mark.parametrize("count", [1, 7, 14, 23])
def test_chunked_solves_match_single_solves(monkeypatch, count):
    # 7 per chunk: one partial chunk, exact multiples and a remainder
    monkeypatch.setattr(oracle, "STACK_CHUNK", 7)
    unit, N, M, dds = random_systems(count)
    chunks = list(oracle.covariance_chunks(unit, unit, N, M))
    assert [len(V) for V in chunks] == [7] * (count // 7) + [count % 7] * (count % 7 > 0)
    for V, dd in zip(np.concatenate(chunks), dds, strict=True):
        assert np.array_equal(V, oracle.solve_lyapunov(dd))


def test_unstable_item_aborts_the_check(monkeypatch):
    monkeypatch.setattr(oracle, "STACK_CHUNK", 4)
    (gamma, kappa, G, n_th), N, M, _ = random_systems(6)
    kappa[5] = -kappa[5]  # a growing cavity mode
    unit = (gamma, kappa, G, n_th)
    chunks = oracle.covariance_chunks(unit, unit, N, M)
    assert len(next(chunks)) == 4  # the first chunk is solved on its own
    with pytest.raises(oracle.UnstableDrift, match="at stack index 1"):
        next(chunks)


def dense_lyapunov(dd):
    """The unsplit 64-unknown Kronecker solve, as a reference."""
    n = dd.A.shape[0]
    K = np.kron(np.eye(n), dd.A) + np.kron(dd.A, np.eye(n))
    V = np.linalg.solve(K, -dd.D.reshape(n * n)).reshape(n, n)
    return 0.5 * (V + V.T)


def scalar_separability_totals(samples, seed):
    """(closed-form, oracle) totals, one dense solve per sample, in draw order."""
    rng = np.random.default_rng(seed)
    bath = model.SqueezedBath(r=0.0)
    totals = []
    for _ in range(samples):
        C = float(10.0 ** rng.uniform(-2, 3))
        n_th = float(rng.uniform(0.0, 50.0))
        ratio = float(10.0 ** rng.uniform(-6, 0))
        kappa = selfcheck.KAPPA_REF
        closed = selfcheck.closedform.duan_sum_nonadiabatic(
            C, 0.0, n_th, ratio * kappa, kappa
        ).total
        system, steady = symmetric_system(C, 0.0, n_th, ratio)
        system = model.SystemParams(system.unit1, system.unit2, bath)
        V = dense_lyapunov(oracle.build_rwa_drift_diffusion(system, steady))
        totals.append((closed, oracle.duan_from_covariance(V, "mirror").total))
    return totals


@pytest.mark.parametrize("seed", [1, 20240817])
def test_separability_matches_scalar_loop(monkeypatch, seed):
    monkeypatch.setattr(oracle, "STACK_CHUNK", 16)
    monkeypatch.setattr(selfcheck, "SEPARABILITY_SAMPLES", 50)
    monkeypatch.setattr(selfcheck, "SEPARABILITY_SEED", seed)
    reference = scalar_separability_totals(50, seed)
    closed, lyap = selfcheck._separability_totals()
    assert len(closed) == len(lyap) == len(reference)
    for c, total, (ref_closed, ref_lyap) in zip(closed.tolist(), lyap.tolist(), reference):
        assert c == ref_closed  # same draws, same order
        assert total == pytest.approx(ref_lyap, rel=1e-12)
    dip = max(0.0, *(2.0 - total for pair in reference for total in pair))
    result = selfcheck.check_separability_floor()
    assert result.passed
    assert result.max_err == pytest.approx(dip, abs=1e-14)


def test_separability_powers_equal_float_powers_bit_for_bit():
    # the draws' 10 ** x by math.pow over the array, against Python's float power
    rng = np.random.default_rng(selfcheck.SEPARABILITY_SEED)
    log_C, _, log_ratio = rng.uniform([-2, 0, -6], [3, 50, 0],
                                      size=(selfcheck.SEPARABILITY_SAMPLES, 3)).T
    for u in (log_C, log_ratio):
        mapped = model.map_math(math.pow, 10.0, u).tolist()
        assert len(mapped) == 10_000
        assert list(map(float.hex, mapped)) == [float.hex(10.0 ** x) for x in u.tolist()]


def test_separability_bits_do_not_depend_on_the_oracle_chunk(monkeypatch):
    # the selfcheck hands all its draws to the oracle at once; only the oracle chunks
    assert oracle.STACK_CHUNK == 256
    closed, lyap = selfcheck._separability_totals()
    monkeypatch.setattr(oracle, "STACK_CHUNK", 7)
    small_closed, small_lyap = selfcheck._separability_totals()
    assert len(lyap) == selfcheck.SEPARABILITY_SAMPLES
    assert np.array_equal(small_closed, closed)
    assert np.array_equal(small_lyap, lyap)


def test_array_route_equals_per_point_solves(monkeypatch):
    # the grid's oracle totals, built over arrays and solved in chunks, equal
    # one build_rwa_drift_diffusion_stack + solve_lyapunov per point on the
    # same (gamma, kappa, G, n_th) floats
    monkeypatch.setattr(oracle, "STACK_CHUNK", 50)
    grid = selfcheck._grid()
    totals = np.add(*selfcheck._mirror_variances(*grid))
    assert totals.shape == (192,)
    kappa = selfcheck.KAPPA_REF
    for (C, r, n_th, ratio), total in zip(grid.T.tolist(), totals.tolist()):
        gamma = ratio * kappa
        unit = (gamma, kappa, math.sqrt(C * gamma * kappa) / 2.0, n_th)
        bath = model.SqueezedBath(r=r)
        A, D = oracle.build_rwa_drift_diffusion_stack(unit, unit, bath.N, bath.M_corr)
        V = oracle.solve_lyapunov(oracle.DriftDiffusion(A=A, D=D))
        assert total == oracle.duan_from_covariance(V, "mirror").total


def test_symmetric_units_take_the_grids_n_th_and_c_as_given():
    # the first separability draws: n_th reaches the oracle bit for bit, and
    # the coupling G gives back C = 4 G^2 / (gamma kappa) to rounding
    rng = np.random.default_rng(selfcheck.SEPARABILITY_SEED)
    log_C, n_th, log_ratio = rng.uniform([-2, 0, -6], [3, 50, 0], size=(256, 3)).T
    C, ratio = 10.0 ** log_C, 10.0 ** log_ratio
    (gamma, kappa, G, unit_n_th), _, N, M = selfcheck._symmetric_units(C, 0.0, n_th, ratio)
    assert np.array_equal(unit_n_th, n_th)
    assert np.all(np.abs(4.0 * G * G / (gamma * kappa) - C) <= 4 * np.spacing(C))
    assert not N.any() and not M.any()


@pytest.mark.parametrize("C, n_th, ratio, name", [
    (-1.0, 1.0, 1e-3, "C"), (math.nan, 1.0, 1e-3, "C"), (math.inf, 1.0, 1e-3, "C"),
    (1.0, -1.0, 1e-3, "n_th"), (1.0, math.inf, 1e-3, "n_th"),
    (1.0, 1.0, -1e-3, "gamma/kappa"), (1.0, 1.0, math.nan, "gamma/kappa"),
])
def test_symmetric_units_reject_what_a_unit_rejects(C, n_th, ratio, name):
    kappa = selfcheck.KAPPA_REF
    with pytest.raises(ValueError):
        unit_with_cooperativity(C, kappa, ratio * kappa, n_th)
    good = (1.0, 1.0, 1e-3)
    C, n_th, ratio = (np.array([g, x]) for g, x in zip(good, (C, n_th, ratio)))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        selfcheck._symmetric_units(C, 0.0, n_th, ratio)


def test_array_route_rejects_what_the_per_point_route_rejects():
    with pytest.raises(ValueError, match="C must be >= 0"):
        selfcheck._mirror_variances(np.array([1.0, -1.0]), 0.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="n_th must be >= 0"):
        selfcheck._mirror_variances(1.0, 0.0, np.array([1.0, -1.0]), 0.01)
    with pytest.raises(ValueError, match="squeeze parameter r"):
        selfcheck._mirror_variances(1.0, np.array([0.5, np.nan]), 1.0, 0.01)


def test_constructed_systems_equal_one_trial_at_a_time():
    # the per-trial loop that one stacked draw replaced, as the reference
    rng = np.random.default_rng(selfcheck.LYAPUNOV_SEED)
    systems = []
    for _ in range(selfcheck.LYAPUNOV_TRIALS):
        B = rng.standard_normal((8, 8))
        A = B - (max(np.linalg.eigvals(B).real.max(), 0.0) + 1.0) * np.eye(8)
        L = rng.standard_normal((8, 8))
        V0 = L @ L.T
        systems.append((V0, A, -(A @ V0 + V0 @ A.T)))
    stacks = selfcheck._constructed_systems(np.random.default_rng(selfcheck.LYAPUNOV_SEED))
    for stack, reference in zip(stacks, zip(*systems), strict=True):
        assert np.array_equal(stack, np.array(reference))


def test_every_check_takes_only_its_tolerance():
    for name, check in selfcheck.ALL_CHECKS.items():
        assert list(inspect.signature(check).parameters) == ["tolerance"], name
