import math

import numpy as np
import pytest

from squeezelink import closedform, model, oracle
from squeezelink.model import SqueezedBath, SystemParams, unit_with_cooperativity
from squeezelink.oracle import (
    IDX,
    QUADRATURES,
    DriftDiffusion,
    QuadratureConfig,
    RwaViolation,
    UnstableDrift,
    build_rwa_drift_diffusion,
    duan_from_covariance,
    solve_lyapunov,
    solve_lyapunov_stack,
    spectral_duan_sum,
)

KAPPA = 2 * math.pi * 215e3


def make_system(C, r, n_th, ratio, kappa=KAPPA):
    unit = unit_with_cooperativity(C=C, kappa=kappa, gamma=ratio * kappa, n_th=n_th)
    system = SystemParams(unit1=unit, unit2=unit, bath=SqueezedBath(r=r))
    ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return system, (ss, ss)


class TestDriftDiffusion:
    def test_vacuum_covariance_is_half_identity(self):
        system, steady = make_system(0.0, 0.0, 0.0, 0.01)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady)).V
        assert np.allclose(V, np.eye(8) / 2, atol=1e-12)

    def test_decoupled_thermal_and_squeezed_baths(self):
        system, steady = make_system(0.0, 1.3, 3.0, 0.01)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady)).V
        N = system.bath.N
        for name in ("X1", "Y1", "X2", "Y2"):
            assert V[IDX[name], IDX[name]] == pytest.approx(3.5, rel=1e-10)
        for name in ("x1", "y1", "x2", "y2"):
            assert V[IDX[name], IDX[name]] == pytest.approx(N + 0.5, rel=1e-10)

    def test_field_cross_covariances_from_squeezing(self):
        # two decoupled fields: cross covariance solves
        # (kappa1 + kappa2)/2 * V12 = sqrt(kappa1 kappa2) * M
        system, steady = make_system(0.0, 0.8, 0.0, 0.01)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady)).V
        M = system.bath.M_corr
        assert V[IDX["x1"], IDX["x2"]] == pytest.approx(M, rel=1e-10)
        assert V[IDX["y1"], IDX["y2"]] == pytest.approx(-M, rel=1e-10)
        assert V[IDX["x1"], IDX["y2"]] == pytest.approx(0.0, abs=1e-12)

    def test_drift_block_structure(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        A = build_rwa_drift_diffusion(system, steady).A
        G = steady[0].G
        gamma = system.unit1.mirror.gamma
        kappa = system.unit1.resonator.kappa
        assert A[IDX["X1"], IDX["X1"]] == pytest.approx(-gamma / 2)
        assert A[IDX["X1"], IDX["x1"]] == pytest.approx(G)
        assert A[IDX["x1"], IDX["X1"]] == pytest.approx(-G)
        assert A[IDX["x1"], IDX["x1"]] == pytest.approx(-kappa / 2)
        # no coupling between the units in the drift
        assert np.all(A[:4, 4:] == 0) and np.all(A[4:, :4] == 0)

    def test_off_sideband_warns(self):
        system, _ = make_system(15.0, 1.0, 5.0, 0.01)
        wrong = (
            model.mean_fields_from_effective_detuning(
                system.unit1, -1.01 * system.unit1.mirror.omega_M
            ),
        ) * 2
        with pytest.warns(RwaViolation):
            build_rwa_drift_diffusion(system, wrong)


class TestLyapunovSolver:
    def test_scalar_ornstein_uhlenbeck(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        D = np.diag(np.arange(1.0, 9.0))
        V = solve_lyapunov(DriftDiffusion(A=-np.diag(rates), D=D)).V
        assert np.allclose(np.diag(V), np.diag(D) / (2 * rates), rtol=1e-12)

    def test_constructed_solutions(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            B = rng.standard_normal((8, 8))
            A = B - (max(np.linalg.eigvals(B).real.max(), 0.0) + 1.0) * np.eye(8)
            L = rng.standard_normal((8, 8))
            V0 = L @ L.T
            D = -(A @ V0 + V0 @ A.T)
            V = solve_lyapunov(DriftDiffusion(A=A, D=D)).V
            assert np.linalg.norm(V - V0) <= 1e-9 * np.linalg.norm(V0)

    def test_unstable_drift_rejected(self):
        A = np.eye(8)
        with pytest.raises(UnstableDrift):
            solve_lyapunov(DriftDiffusion(A=A, D=np.eye(8)))

    def test_residual_and_psd(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        dd = build_rwa_drift_diffusion(system, steady)
        V = solve_lyapunov(dd).V
        residual = np.linalg.norm(dd.A @ V + V @ dd.A.T + dd.D)
        assert residual <= 1e-10 * np.linalg.norm(dd.D)
        assert np.linalg.eigvalsh(V).min() >= -1e-12
        assert np.allclose(V, V.T, atol=1e-12)


def random_stable_system(rng, n=8):
    B = rng.standard_normal((n, n))
    A = B - (max(np.linalg.eigvals(B).real.max(), 0.0) + 1.0) * np.eye(n)
    L = rng.standard_normal((n, n))
    V0 = L @ L.T
    return A, -(A @ V0 + V0 @ A.T)


def physical_stack():
    dds = [
        build_rwa_drift_diffusion(*make_system(C, r, n_th, ratio))
        for C, r, n_th, ratio in [
            (0.5, 0.0, 0.0, 6.5e-4), (15.0, 1.0, 5.0, 0.01), (90.0, 2.0, 10.0, 0.05),
        ]
    ]
    return np.stack([dd.A for dd in dds]), np.stack([dd.D for dd in dds])


class TestStackedLyapunov:
    @pytest.mark.parametrize("kind", ["rwa", "generic"])
    def test_stack_equals_per_item_solves(self, kind):
        if kind == "rwa":
            A, D = physical_stack()
        else:
            rng = np.random.default_rng(5)
            A, D = (np.stack(m) for m in zip(*(random_stable_system(rng) for _ in range(6))))
        V = solve_lyapunov_stack(A, D)
        for a, d, v in zip(A, D, V):
            single = solve_lyapunov(DriftDiffusion(A=a, D=d)).V
            assert np.allclose(v, single, rtol=1e-12, atol=1e-12)

    def test_rwa_model_splits_into_x_and_y_blocks(self):
        A, D = physical_stack()
        blocks = [[QUADRATURES[i] for i in block] for block in oracle._blocks(A, D)]
        assert sorted(blocks) == [["X1", "x1", "X2", "x2"], ["Y1", "y1", "Y2", "y2"]]
        xs = [IDX[name] for name in ("X1", "x1", "X2", "x2")]
        ys = [IDX[name] for name in ("Y1", "y1", "Y2", "y2")]
        for M in (A, D, solve_lyapunov_stack(A, D)):
            assert np.all(M[:, xs][:, :, ys] == 0) and np.all(M[:, ys][:, :, xs] == 0)

    def test_y_block_is_solved_not_copied(self):
        # flipping the y1-y2 bath correlation moves var(Y1 + Y2) and leaves
        # var(X1 - X2) alone; a Y block derived from the X block would not
        A, D = physical_stack()
        D2 = D.copy()
        for i, j in (("y1", "y2"), ("y2", "y1")):
            D2[:, IDX[i], IDX[j]] *= -1.0
        before = duan_from_covariance(oracle.CovarianceMatrix(V=solve_lyapunov_stack(A, D)[2]))
        after = duan_from_covariance(oracle.CovarianceMatrix(V=solve_lyapunov_stack(A, D2)[2]))
        assert after.var_X == before.var_X
        assert after.var_Y > before.var_Y + 1.0

    def test_generic_drift_is_one_block(self):
        rng = np.random.default_rng(11)
        A, D = random_stable_system(rng)
        assert [block.tolist() for block in oracle._blocks(A[None], D[None])] == [
            list(range(8))
        ]

    def test_pattern_is_the_union_over_the_stack(self):
        # each item alone is diagonal except for one different link
        A = np.stack([-np.eye(4), -np.eye(4)])
        A[0, 0, 1] = 0.3
        A[1, 2, 3] = 0.3
        D = np.stack([np.eye(4), np.eye(4)])
        assert [b.tolist() for b in oracle._blocks(A, D)] == [[0, 1], [2, 3]]
        D[1, 1, 2] = D[1, 2, 1] = 0.1
        assert [b.tolist() for b in oracle._blocks(A, D)] == [[0, 1, 2, 3]]
        V = solve_lyapunov_stack(A, D)
        residual = A @ V + V @ A.transpose(0, 2, 1) + D
        assert np.abs(residual).max() <= 1e-14

    def test_unstable_item_is_named(self):
        A, D = physical_stack()
        A[1] = -A[1]
        with pytest.raises(UnstableDrift, match="at stack index 1"):
            solve_lyapunov_stack(A, D)

    @pytest.mark.parametrize("which", ["A", "D"])
    def test_non_finite_item_is_named(self, which):
        A, D = physical_stack()
        (A if which == "A" else D)[2, 0, 0] = math.inf
        with pytest.raises(FloatingPointError, match="at stack index 2"):
            solve_lyapunov_stack(A, D)

    def test_overflowing_solution_is_named(self):
        A = np.stack([-np.eye(2), -1e-10 * np.eye(2)])
        D = np.stack([np.eye(2), 1e300 * np.eye(2)])  # V = D / 2e-10 overflows
        with pytest.raises(FloatingPointError, match="at stack index 1"):
            solve_lyapunov_stack(A, D)

    def test_residual_gate_holds_when_the_norm_of_d_overflows(self):
        # ||D|| overflows at this scale; the gate works on D / max|D|, so it
        # neither warns nor lets the solution through unchecked
        A, D = physical_stack()
        V = solve_lyapunov_stack(A, D)
        huge = solve_lyapunov_stack(A, 1e200 * D)
        assert np.abs(huge / 1e200 - V).max() <= 1e-14 * np.abs(V).max()

    def test_shape_mismatch_rejected(self):
        A, D = physical_stack()
        with pytest.raises(ValueError):
            solve_lyapunov_stack(A, D[:2])
        with pytest.raises(ValueError):
            solve_lyapunov_stack(A[0], D[0])


class TestDuanFromCovariance:
    def test_two_mode_vacuum_sits_on_boundary(self):
        V = oracle.CovarianceMatrix(V=np.eye(8) / 2)
        result = duan_from_covariance(V, "mirror")
        assert result.total == pytest.approx(2.0)
        assert not result.entangled

    def test_matches_adiabatic_formula(self):
        system, steady = make_system(15.0, 1.0, 5.0, 1e-6)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady))
        result = duan_from_covariance(V, "mirror")
        assert result.total == pytest.approx(1.628754, abs=1e-4)

    def test_identical_units_give_equal_xy(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady))
        result = duan_from_covariance(V, "mirror")
        assert abs(result.var_X - result.var_Y) <= 1e-10

    def test_field_pair_matches_closed_form(self):
        system, steady = make_system(15.0, 1.0, 5.0, 6.5e-4)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady))
        result = duan_from_covariance(V, "field")
        expected = closedform.field_sum_nonadiabatic(
            15.0, 1.0, 5.0, 6.5e-4 * KAPPA, KAPPA
        ).total
        assert result.total == pytest.approx(expected, rel=1e-8)

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            duan_from_covariance(oracle.CovarianceMatrix(V=np.eye(8) / 2), "bogus")


class TestSpectralIntegration:
    def test_thermal_only_variances(self):
        system, steady = make_system(0.0, 0.0, 3.0, 0.01)
        total = spectral_duan_sum(system, steady, "mirror")
        # two uncorrelated thermal mirrors, each variance n_th + 1/2
        assert total == pytest.approx(2 * (2 * 3.0 + 1.0), rel=1e-8)

    def test_adiabatic_regime_matches_closed_form(self):
        system, steady = make_system(15.0, 1.0, 5.0, 1e-6)
        total = spectral_duan_sum(system, steady, "mirror")
        expected = closedform.duan_sum_adiabatic_identical(15.0, 1.0, 5.0).total
        assert total == pytest.approx(expected, abs=1e-4)

    def test_nonadiabatic_matches_closed_form(self):
        for C, r, n_th, ratio in [(15.0, 2.0, 5.0, 0.05), (0.5, 0.5, 1.0, 0.01)]:
            system, steady = make_system(C, r, n_th, ratio)
            total = spectral_duan_sum(system, steady, "mirror")
            expected = closedform.duan_sum_nonadiabatic(
                C, r, n_th, ratio * KAPPA, KAPPA
            ).total
            assert total == pytest.approx(expected, rel=1e-6)

    def test_field_pair_matches_closed_form(self):
        system, steady = make_system(15.0, 1.0, 5.0, 6.5e-4)
        total = spectral_duan_sum(system, steady, "field")
        expected = closedform.field_sum_nonadiabatic(
            15.0, 1.0, 5.0, 6.5e-4 * KAPPA, KAPPA
        ).total
        assert total == pytest.approx(expected, rel=1e-6)

    def test_overtight_tolerance_raises(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        with pytest.raises(oracle.QuadratureFailure):
            spectral_duan_sum(
                system, steady, "mirror",
                QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, subdivision_limit=3),
            )


class TestStructuralProperties:
    def test_unit_swap_invariance(self):
        kappa = KAPPA
        u1 = unit_with_cooperativity(C=15.0, kappa=kappa, gamma=0.01 * kappa, n_th=5.0)
        u2 = unit_with_cooperativity(C=40.0, kappa=1.7 * kappa, gamma=0.02 * kappa, n_th=2.0)
        bath = SqueezedBath(r=1.0)
        ss = lambda u: model.mean_fields_from_effective_detuning(u, -u.mirror.omega_M)
        forward = duan_from_covariance(
            solve_lyapunov(build_rwa_drift_diffusion(
                SystemParams(u1, u2, bath), (ss(u1), ss(u2)))),
            "mirror",
        ).total
        swapped = duan_from_covariance(
            solve_lyapunov(build_rwa_drift_diffusion(
                SystemParams(u2, u1, bath), (ss(u2), ss(u1)))),
            "mirror",
        ).total
        assert swapped == pytest.approx(forward, rel=1e-12)

    def test_no_entanglement_without_cross_correlations(self):
        # keep the bath occupation N but remove the two-mode correlations:
        # a classically uncorrelated hot bath cannot entangle the mirrors
        for C, n_th in [(15.0, 0.0), (90.0, 1.0), (2.0, 5.0)]:
            system, steady = make_system(C, 1.5, n_th, 0.01)
            dd = build_rwa_drift_diffusion(system, steady)
            D = dd.D.copy()
            D[IDX["x1"], IDX["x2"]] = D[IDX["x2"], IDX["x1"]] = 0.0
            D[IDX["y1"], IDX["y2"]] = D[IDX["y2"], IDX["y1"]] = 0.0
            total = duan_from_covariance(
                solve_lyapunov(DriftDiffusion(A=dd.A, D=D)), "mirror"
            ).total
            assert total >= 2.0 - 1e-12

    def test_uncertainty_products(self):
        for C, r, n_th, ratio in [(0.5, 0.0, 0.0, 6.5e-4), (90.0, 2.0, 10.0, 0.05)]:
            system, steady = make_system(C, r, n_th, ratio)
            V = solve_lyapunov(build_rwa_drift_diffusion(system, steady))
            for x, y in (("X1", "Y1"), ("x1", "y1"), ("X2", "Y2"), ("x2", "y2")):
                assert V.variance(x) * V.variance(y) >= 0.25 - 1e-10
