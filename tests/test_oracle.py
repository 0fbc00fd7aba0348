import functools
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezelink import closedform, model, oracle, selfcheck
from squeezelink.model import SqueezedBath, SystemParams
from squeezelink.oracle import (
    QUADRATURES,
    DriftDiffusion,
    RwaViolation,
    UnstableDrift,
    build_rwa_drift_diffusion,
    duan_from_covariance,
    solve_lyapunov,
    spectral_duan_sum,
)
from test_package import fresh
from units import (DRIFT_BLOCKS, KAPPA, SPECTRAL_CASES, SYSTEM_ARGS, asymmetric_system,
                   make_system, matrix_of, rows_of, system_units, unit_with_cooperativity)

IDX = {name: i for i, name in enumerate(QUADRATURES)}


def dense(dd):
    """The 8x8 A and D of the rows of ``dd``."""
    return matrix_of(dd.A, DRIFT_BLOCKS), matrix_of(dd.D)


class TestDriftDiffusion:
    def test_vacuum_covariance_is_half_identity(self):
        system, steady = make_system(0.0, 0.0, 0.0, 0.01)
        V = solve_lyapunov(build_rwa_drift_diffusion(system, steady))
        assert V.shape == (4, 6)
        assert np.allclose(matrix_of(V), np.eye(8) / 2, atol=1e-12)

    def test_decoupled_thermal_and_squeezed_baths(self):
        system, steady = make_system(0.0, 1.3, 3.0, 0.01)
        V = matrix_of(solve_lyapunov(build_rwa_drift_diffusion(system, steady)))
        N = system.bath.N
        for name in ("X1", "Y1", "X2", "Y2"):
            assert V[IDX[name], IDX[name]] == pytest.approx(3.5, rel=1e-10)
        for name in ("x1", "y1", "x2", "y2"):
            assert V[IDX[name], IDX[name]] == pytest.approx(N + 0.5, rel=1e-10)

    def test_field_cross_covariances_from_squeezing(self):
        # two decoupled fields: cross covariance solves
        # (kappa1 + kappa2)/2 * V12 = sqrt(kappa1 kappa2) * M
        system, steady = make_system(0.0, 0.8, 0.0, 0.01)
        V = matrix_of(solve_lyapunov(build_rwa_drift_diffusion(system, steady)))
        M = system.bath.M_corr
        assert V[IDX["x1"], IDX["x2"]] == pytest.approx(M, rel=1e-10)
        assert V[IDX["y1"], IDX["y2"]] == pytest.approx(-M, rel=1e-10)
        assert V[IDX["x1"], IDX["y2"]] == pytest.approx(0.0, abs=1e-12)

    def test_drift_block_structure(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        dd = build_rwa_drift_diffusion(system, steady)
        assert dd.A.shape == (4, 4) and dd.D.shape == (4, 6)
        A, _ = dense(dd)
        G = steady[0].G
        gamma = system.unit1.mirror.gamma
        kappa = system.unit1.resonator.kappa
        assert A[IDX["X1"], IDX["X1"]] == pytest.approx(-gamma / 2)
        assert A[IDX["X1"], IDX["x1"]] == pytest.approx(G)
        assert A[IDX["x1"], IDX["X1"]] == pytest.approx(-G)
        assert A[IDX["x1"], IDX["x1"]] == pytest.approx(-kappa / 2)

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
        V = solve_lyapunov(DriftDiffusion(A=rows_of(-np.diag(rates), DRIFT_BLOCKS), D=rows_of(D)))
        assert np.allclose(np.diag(matrix_of(V)), np.diag(D) / (2 * rates), rtol=1e-12)

    def test_constructed_solutions(self):
        # the selfcheck's split systems, on another seed, one at a time
        V0, A, D, _ = selfcheck._constructed_systems(np.random.default_rng(42))
        for t in range(A.shape[-1]):
            V, want = (matrix_of(x) for x in (solve_lyapunov(DriftDiffusion(A=A[..., t],
                                                                             D=D[..., t])),
                                              V0[..., t]))
            assert np.linalg.norm(V - want) <= 1e-9 * np.linalg.norm(want)

    def test_unstable_drift_rejected(self):
        with pytest.raises(UnstableDrift):
            solve_lyapunov(DriftDiffusion(A=rows_of(np.eye(8), DRIFT_BLOCKS),
                                          D=rows_of(np.eye(8))))

    def test_residual_and_psd(self):
        system, steady = make_system(15.0, 1.0, 5.0, 0.01)
        dd = build_rwa_drift_diffusion(system, steady)
        V = matrix_of(solve_lyapunov(dd))
        A, D = dense(dd)
        residual = np.linalg.norm(A @ V + V @ A.T + D)
        assert residual <= 1e-10 * np.linalg.norm(D)
        assert np.linalg.eigvalsh(V).min() >= -1e-12
        assert np.allclose(V, V.T, atol=1e-12)


def kronecker_solve(A, C, D):
    """Dense reference: ``A V + V C^T + D = 0`` as ``(A (x) I + I (x) C) vec V = -vec D``,
    by LAPACK, for a stack of m x m blocks."""
    B, m, _ = A.shape
    K = np.einsum("bij,kl->bikjl", A, np.eye(m)) + np.einsum("ij,bkl->bikjl", np.eye(m), C)
    return np.linalg.solve(K.reshape(B, m * m, m * m), -D.reshape(B, m * m, 1)).reshape(B, m, m)


def eigenvalue_report(A):
    """Dense reference: the stability report of the drift block rows A ``(4, 4, B)`` from
    the eigenvalues of their 8x8 matrices, by LAPACK."""
    max_re = np.linalg.eigvals(matrix_of(A, DRIFT_BLOCKS)).real.max(axis=-1)
    worst = int(np.argmax(max_re))
    return model.StabilityReport(stable=bool(max_re[worst] < 0.0),
                                 max_real_part=float(max_re[worst]), worst_index=(worst,))


def physical_stack():
    """The drift and diffusion rows ``(4, 4, 3)`` and ``(4, 6, 3)`` of three model systems."""
    dds = [
        build_rwa_drift_diffusion(*make_system(C, r, n_th, ratio))
        for C, r, n_th, ratio in [
            (0.5, 0.0, 0.0, 6.5e-4), (15.0, 1.0, 5.0, 0.01), (90.0, 2.0, 10.0, 0.05),
        ]
    ]
    return np.stack([dd.A for dd in dds], axis=-1), np.stack([dd.D for dd in dds], axis=-1)


def spy_on(monkeypatch, name):
    """Record the shapes of the arguments of every call of ``oracle.<name>``;
    returns the record."""
    shapes, fn = [], getattr(oracle, name)
    def spy(*args):
        shapes.append(tuple(np.shape(x) for x in args))
        return fn(*args)
    monkeypatch.setattr(oracle, name, spy)
    return shapes


def drift_block(gamma, kappa, G):
    """One unit's 2x2 drift block of the model, (X, x) or (Y, y)."""
    return np.array([[-gamma / 2.0, G], [-G, -kappa / 2.0]])


def random_stable_blocks(rng, count):
    """Stable 2x2 drift blocks: overdamped model blocks at gamma/kappa = 1e-6
    (real eigenvalue pairs), underdamped ones (complex pairs) and generic ones."""
    blocks = []
    for k in range(count):
        if k % 3 == 0:
            blocks.append(drift_block(1e-6, 1.0, rng.uniform(0.0, 0.2)))
        elif k % 3 == 1:
            blocks.append(drift_block(rng.uniform(1e-3, 1.0), 1.0, rng.uniform(1.0, 10.0)))
        else:
            M = rng.standard_normal((2, 2))
            blocks.append(M - (max(np.linalg.eigvals(M).real.max(), 0.0) + 0.1) * np.eye(2))
    return np.array(blocks)


class TestStackedLyapunov:
    @pytest.mark.parametrize("kind", ["rwa", "constructed"])
    def test_stack_equals_per_item_solves(self, kind):
        if kind == "rwa":
            A, D = physical_stack()
        else:
            _, A, D, _ = selfcheck._constructed_systems(np.random.default_rng(5))
        V = solve_lyapunov(DriftDiffusion(A, D))
        for t in range(A.shape[-1]):  # the split does not depend on the stack
            assert np.array_equal(V[..., t], solve_lyapunov(DriftDiffusion(A[..., t], D[..., t])))

    def test_split_is_the_even_and_odd_quadratures(self):
        assert QUADRATURES[::2] == ("X1", "x1", "X2", "x2")
        assert QUADRATURES[1::2] == ("Y1", "y1", "Y2", "y2")

    def test_rwa_stack_is_solved_on_its_drift_blocks_in_one_call(self, monkeypatch):
        # three pairs of 2x2 drift blocks within X and three within Y, in
        # closed form from the four blocks and each pair's exponent, and the
        # four blocks' stability in one check
        shapes, blocks = (spy_on(monkeypatch, name) for name in ("_sylvester_2x2",
                                                                 "stability_check"))
        A, D = physical_stack()
        V = solve_lyapunov(DriftDiffusion(A, D))
        assert shapes == [((4, 4, 3), (6, 3), (4, 6, 3))] and blocks == [((4, 4, 3),)]
        # the bath correlates the fields of items 1 and 2 (r > 0), entry 11 of the
        # X1-X2 pair, and V stays symmetric: entries 01 and 10 of each diagonal pair
        assert V[3, 1, 1:].all() and np.array_equal(V[1, [0, 2, 3, 5]], V[2, [0, 2, 3, 5]])

    def test_y_block_is_solved_not_copied(self):
        # flipping the y1-y2 bath correlation, entry 11 of the Y1-Y2 pair, moves
        # var(Y1 + Y2) and leaves var(X1 - X2) alone; a Y block derived from the
        # X block would not
        A, D = physical_stack()
        D2 = D.copy()
        D2[3, 4] *= -1.0
        before = duan_from_covariance(solve_lyapunov(DriftDiffusion(A, D))[..., 2])
        after = duan_from_covariance(solve_lyapunov(DriftDiffusion(A, D2))[..., 2])
        assert after.var_X == before.var_X
        assert after.var_Y > before.var_Y + 1.0

    @pytest.mark.parametrize("a, d", [
        ((8, 8), (8, 8)),  # an 8x8 system
        ((3, 8, 8), (3, 8, 8)),
        ((4, 4, 3), (4, 6, 2)),  # rows of different systems
        ((4, 4), (4, 6, 1)),
        ((4, 4, 0), (4, 6, 3)),
        ((4, 6, 3), (4, 4, 3)),  # drift and diffusion swapped
        ((4,), (4, 6)),
        ((), ()),
    ], ids=["8x8", "8x8-stack", "other-systems", "one-and-a-stack", "empty-and-three",
            "swapped", "1-d", "scalars"])
    def test_malformed_rows_are_rejected_naming_both_shapes(self, a, d):
        text = (f"need drift rows (4, 4, ...) and diffusion rows (4, 6, ...) of the same "
                f"systems, got {a} and {d}")
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            solve_lyapunov(DriftDiffusion(np.zeros(a), np.zeros(d)))

    def test_closed_form_blocks_agree_with_the_kronecker_solve(self):
        # entries scaled by 2**500 or 2**-500 would overflow or underflow
        # the closed form's products unscaled; RuntimeWarnings are errors
        rng = np.random.default_rng(11)
        count = 600
        A, C = random_stable_blocks(rng, count), random_stable_blocks(rng, count)[::-1]
        L = rng.standard_normal((count, 2, 2))
        D = L @ L.transpose(0, 2, 1) + rng.standard_normal((count, 2, 2))
        scale_A, scale_D = (np.ldexp(1.0, rng.choice([-500, 0, 500], count))[:, None, None]
                            for _ in range(2))
        def sylvester(A, C, D):  # on the rows of entries 00, 01, 10, 11
            W = pair_sylvester(*(x.reshape(-1, 4).T for x in (A, C, D)))
            return W.T.reshape(-1, 2, 2)

        for A_k, C_k, D_k in ((A, C, D), (scale_A * A, scale_A * C, scale_D * D)):
            W, ref = sylvester(A_k, C_k, D_k), kronecker_solve(A_k, C_k, D_k)
            error = np.abs(W - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
            assert error.max() <= 1e-12
        # the scalings are powers of two, so they move no bit
        assert np.array_equal(sylvester(scale_A * A, scale_A * C, scale_D * D),
                              scale_D / scale_A * sylvester(A, C, D))

    @pytest.mark.parametrize("case", ["unstable", "zero-trace", "overdamped", "constructed"])
    def test_block_stability_report_is_that_of_the_eigenvalues(self, case):
        if case == "constructed":  # the lyapunov check's systems, near the boundary to 1e-4
            _, A, _, max_real = selfcheck._constructed_systems(
                selfcheck.SeededUniform(selfcheck.LYAPUNOV_SEED))
            for t, constructed in enumerate(max_real):  # also where it is not the least stable
                one = A[..., t:t + 1]
                report, ref = model.stability_check(one), eigenvalue_report(one)
                assert report.stable and ref.stable
                assert report.max_real_part == pytest.approx(ref.max_real_part, rel=1e-10)
                assert ref.max_real_part == pytest.approx(constructed, rel=1e-10)
            report, ref = model.stability_check(A), eigenvalue_report(A)
            assert (report.stable, report.worst_index) == (ref.stable, ref.worst_index)
            return
        gamma = KAPPA * np.array([1e-3, 0.01, 0.05, 0.2])
        G = KAPPA * np.array([0.01, 0.05, 0.1, 2.0])
        if case == "overdamped":  # tr/2 + sqrt(disc) loses 2 to 3 digits
            G = KAPPA * np.array([0.01, 0.02, 0.03, 0.05])
        A, _ = oracle._model_rows((gamma, KAPPA, G, 1.0), (gamma[::-1], KAPPA, G[::-1], 2.0),
                                  0.0, 0.0)
        if case == "unstable":
            A[..., 1] = -A[..., 1]
        if case == "zero-trace":  # unit 1 of item 2 has no damping at all: entries 00
            A[np.ix_([0, 3], [0, 2], [2])] = 0.0  # and 11 of its X and Y blocks
        report, ref = model.stability_check(A), eigenvalue_report(A)
        assert (report.stable, report.worst_index) == (ref.stable, ref.worst_index)
        assert report.stable == (case == "overdamped")
        assert report.max_real_part == pytest.approx(ref.max_real_part, rel=1e-12)

    def test_stack_real_parts_are_those_of_one_system_at_a_time(self):
        # the lyapunov check reads every system's value from one call: each block
        # is scaled on its own, so a system's bits do not depend on the others
        _, A, _, _ = selfcheck._constructed_systems(
            selfcheck.SeededUniform(selfcheck.LYAPUNOV_SEED))
        A[..., 1] = -A[..., 1]
        stable, max_re, exponents = model._stability(A)
        assert stable is model.stability_check(A).stable is False
        assert max_re.tolist() == [model.stability_check(A[..., t:t + 1]).max_real_part
                                   for t in range(A.shape[-1])]
        assert np.array_equal(exponents, np.concatenate(
            [model.stability_check(A[..., t:t + 1]).exponents for t in range(A.shape[-1])],
            axis=-1))

    def test_overdamped_block_real_part_does_not_cancel(self):
        # at gamma/kappa = 1e-6 the slow rate is ~1e-6 of the trace: LAPACK's
        # eigenvalues keep ~5 fewer digits of it than the closed form
        rng = np.random.default_rng(3)
        G = KAPPA * 10.0 ** rng.uniform(-4.0, -0.7, 8)
        A, _ = oracle._model_rows((1e-6 * KAPPA, KAPPA, G, 1.0),
                                  (1e-6 * KAPPA, KAPPA, G[::-1], 1.0), 0.0, 0.0)
        report = model.stability_check(A)
        assert report.worst_index == eigenvalue_report(A).worst_index
        import mpmath
        with mpmath.workdps(40):
            for t in range(A.shape[-1]):
                exact = max(
                    mpmath.re(h + mpmath.sqrt(h * h - det))
                    for a, b, c, d in ([mpmath.mpf(x) for x in A[:, p, t]] for p in (0, 1))
                    for h, det in [(a / 2 + d / 2, a * d - b * c)])
                report = model.stability_check(A[..., t:t + 1])
                assert report.max_real_part == pytest.approx(float(exact), rel=1e-14)

    def test_unstable_item_is_named(self):
        A, D = physical_stack()
        A[..., 1] = -A[..., 1]
        with pytest.raises(UnstableDrift, match="at stack index 1"):
            solve_lyapunov(DriftDiffusion(A, D))

    @pytest.mark.parametrize("which", ["A", "D"])
    def test_non_finite_item_is_named(self, which):
        A, D = physical_stack()
        (A if which == "A" else D)[0, 0, 2] = math.inf
        with pytest.raises(FloatingPointError, match="at stack index 2"):
            solve_lyapunov(DriftDiffusion(A, D))

    def test_overflowing_solution_is_named(self):
        A = rows_of(np.stack([-np.eye(8), -1e-10 * np.eye(8)]), DRIFT_BLOCKS)
        D = rows_of(np.stack([np.eye(8), 1e300 * np.eye(8)]))  # V = D / 2e-10 overflows
        with pytest.raises(FloatingPointError, match="at stack index 1"):
            solve_lyapunov(DriftDiffusion(A, D))

    @pytest.mark.parametrize("k", [-900, -600, 900])
    def test_drift_norms_past_the_float_range_run_quietly(self, k):
        # the constructed drifts alone times 2**k, where ||A_p||^2 of the drift or
        # ||V_pq||^2 of V = 2**-k V_0 leaves the float range: the gate's frame takes
        # both back to order 1, so V moves by 2**-k, bit for bit, and the gate's
        # ratios by no bit (RuntimeWarnings are errors here)
        _, A, D, _ = selfcheck._constructed_systems(np.random.default_rng(5))
        V = solve_lyapunov(DriftDiffusion(A, D))
        scaled = solve_lyapunov(DriftDiffusion(np.ldexp(A, k), D))
        assert np.ldexp(scaled, k).tobytes() == V.tobytes()
        assert ratios(A, D, V).tobytes() == ratios(np.ldexp(A, k), D, scaled).tobytes()

    @pytest.mark.parametrize("case", ["constructed", "physical"])
    def test_scaling_a_and_d_by_a_power_of_two_moves_no_bit(self, case):
        # A and D both times 2**k leave V as it is, and the gate's frame, 2**-a for
        # the drift and 2**-(a + v) for D, takes the 2**k back out exactly: every
        # residual-to-bound ratio keeps its bits, and no bound is 0, inf or NaN
        if case == "physical":
            A, D = physical_stack()
        else:
            _, A, D, _ = selfcheck._constructed_systems(selfcheck.SeededUniform(5))
        V = solve_lyapunov(DriftDiffusion(A, D))
        scaled = {k: (np.ldexp(A, k), np.ldexp(D, k))
                  for k in (-900, -600, -500, 0, 512, 600, 900)}
        for k, (A_k, D_k) in scaled.items():
            assert solve_lyapunov(DriftDiffusion(A_k, D_k)).tobytes() == V.tobytes(), k
        want = ratios(A, D, V)
        for k, (A_k, D_k) in scaled.items():
            residual, bound = gate(A_k, D_k, V)
            assert (residual / bound).tobytes() == want.tobytes(), k
            assert (np.isfinite(bound) & (bound > 0.0)).all(), k

    def test_residual_gate_holds_when_the_norm_of_d_overflows(self):
        # ||D|| overflows at this scale; the gate works on D / 2**(a + v), so it
        # neither warns nor lets the solution through unchecked
        A, D = physical_stack()
        V = solve_lyapunov(DriftDiffusion(A, D))
        huge = solve_lyapunov(DriftDiffusion(A, 1e200 * D))
        assert np.abs(huge / 1e200 - V).max() <= 1e-14 * np.abs(V).max()

    def test_a_stack_of_no_systems_gives_an_empty_stack(self):
        V = solve_lyapunov(DriftDiffusion(np.zeros((4, 4, 0)), np.zeros((4, 6, 0))))
        assert V.shape == (4, 6, 0) and V.dtype == np.float64

    def test_one_system_equals_its_stack_of_one(self):
        A, D = physical_stack()
        for t in range(A.shape[-1]):
            V = solve_lyapunov(DriftDiffusion(A[..., t], D[..., t]))
            assert V.shape == (4, 6)
            stack = solve_lyapunov(DriftDiffusion(A[..., t:t + 1], D[..., t:t + 1]))
            assert V.tobytes() == stack[..., 0].tobytes()


class TestDuanFromCovariance:
    def test_two_mode_vacuum_sits_on_boundary(self):
        result = duan_from_covariance(rows_of(np.eye(8) / 2), "mirror")
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
            duan_from_covariance(rows_of(np.eye(8) / 2), "bogus")

    @pytest.mark.parametrize("shape", [(8, 8), (4, 6, 1), (4, 6, 2), (6, 4), (24,), ()], ids=str)
    def test_anything_but_one_systems_rows_is_rejected(self, shape):
        text = f"need one system's covariance rows (4, 6), got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            duan_from_covariance(np.full(shape, 0.5))


@pytest.mark.parametrize("pair", ["mirror", "field"])
def test_spectral_route_is_the_nonadiabatic_closed_form_of_one_system(pair):
    assert list(inspect.signature(spectral_duan_sum).parameters) == ["system", "steady", "pair"]
    for args in SPECTRAL_CASES:
        system, steady = asymmetric_system(*args)
        closed = closedform.duan_sum_nonadiabatic_general(
            *system_units(system, steady), system.bath.N, system.bath.M_corr, pair)
        assert spectral_duan_sum(system, steady, pair) == closed.total


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
            D[3, [1, 4]] = 0.0  # x1-x2 and y1-y2: entry 11 of the X and Y cross pairs
            total = duan_from_covariance(
                solve_lyapunov(DriftDiffusion(A=dd.A, D=D)), "mirror"
            ).total
            assert total >= 2.0 - 1e-12

    def test_uncertainty_products(self):
        for C, r, n_th, ratio in [(0.5, 0.0, 0.0, 6.5e-4), (90.0, 2.0, 10.0, 0.05)]:
            system, steady = make_system(C, r, n_th, ratio)
            V = matrix_of(solve_lyapunov(build_rwa_drift_diffusion(system, steady)))
            for x, y in (("X1", "Y1"), ("x1", "y1"), ("X2", "Y2"), ("x2", "y2")):
                assert V[IDX[x], IDX[x]] * V[IDX[y], IDX[y]] >= 0.25 - 1e-10


def reference_drift_diffusion(system, steady):
    """The one-system assembly as it was before the array builder, kept verbatim."""
    units = (system.unit1, system.unit2)
    A = np.zeros((8, 8))
    D = np.zeros((8, 8))
    N, M = system.bath.N, system.bath.M_corr
    for j, (unit, ss) in enumerate(zip(units, steady)):
        o = 4 * j
        gamma, kappa, G = unit.mirror.gamma, unit.resonator.kappa, ss.G
        for q in (0, 1):
            A[o + q, o + q] = -gamma / 2.0
            A[o + q, o + q + 2] = G
            A[o + q + 2, o + q + 2] = -kappa / 2.0
            A[o + q + 2, o + q] = -G
        D[o + 0, o + 0] = D[o + 1, o + 1] = gamma * (2.0 * ss.n_th + 1.0) / 2.0
        D[o + 2, o + 2] = D[o + 3, o + 3] = kappa * (2.0 * N + 1.0) / 2.0
    kgm = math.sqrt(units[0].resonator.kappa * units[1].resonator.kappa) * M
    D[IDX["x1"], IDX["x2"]] = D[IDX["x2"], IDX["x1"]] = kgm
    D[IDX["y1"], IDX["y2"]] = D[IDX["y2"], IDX["y1"]] = -kgm
    return A, D


class TestArrayBuilder:
    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(SYSTEM_ARGS, min_size=1, max_size=5))
    def test_stack_and_one_system_builds_keep_their_bits(self, points):
        systems = [asymmetric_system(*point) for point in points]
        def unit_arrays(j):
            rows = [((s.unit1, s.unit2)[j], steady[j]) for s, steady in systems]
            return tuple(np.array(column) for column in zip(*(
                (u.mirror.gamma, u.resonator.kappa, ss.G, ss.n_th) for u, ss in rows)))

        units = (unit_arrays(0), unit_arrays(1))
        N = np.array([s.bath.N for s, _ in systems])
        M = np.array([s.bath.M_corr for s, _ in systems])
        A, D = oracle._model_rows(*units, N, M)
        assert A.shape == (4, 4, len(systems)) and D.shape == (4, 6, len(systems))
        for t, (system, steady) in enumerate(systems):
            dd = build_rwa_drift_diffusion(system, steady)
            assert A[..., t].tobytes() == dd.A.tobytes() and D[..., t].tobytes() == dd.D.tobytes()
            # the rows hold every entry of the reference assembly, zero elsewhere
            ref_A, ref_D = reference_drift_diffusion(system, steady)
            dense_A, dense_D = dense(dd)
            assert dense_A.tobytes() == ref_A.tobytes() and dense_D.tobytes() == ref_D.tobytes()

    def test_scalars_give_one_pair_and_shapes_broadcast(self):
        A, D = oracle._model_rows((0.1, 1.0, 0.5, 2.0), (0.1, 1.0, 0.5, 2.0), 0.0, 0.0)
        assert A.shape == (4, 4) and D.shape == (4, 6)
        G = np.array([0.5, 0.7, 0.9])
        A, D = oracle._model_rows((0.1, 1.0, G, 2.0), (0.1, 1.0, G, 2.0), 1.0, 1.5)
        assert A.shape == (4, 4, 3) and D.shape == (4, 6, 3)
        assert A[1, 1].tolist() == G.tolist()  # entry 01 of the (X2, x2) block
        assert np.all(D[3, 1] == 1.5)  # entry 11 of the X1-X2 pair: x1-x2

    def test_bath_cross_term_survives_an_overflowing_kappa_product(self):
        # kappa1 kappa2 = 1e600 overflows: the cross term is sqrt(kappa1) sqrt(kappa2) M,
        # 0 at M = 0 rather than inf * 0 = NaN, and the variances are the bare 2 n_th + 1,
        # to the ulp that the split solve's rounding leaves
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            variances = oracle.duan_variance_arrays((1e-3, 1e300, 0.0, 1.0),
                                                    (2e-3, 1e300, 0.0, 1.0), 0.0, 0.0)
            _, D = oracle._model_rows((1e-3, 1e300, 0.0, 1.0), (2e-3, 4e300, 0.0, 1.0),
                                      0.0, 1e-5)
        assert [v.tolist() for v in variances] == [[pytest.approx(3.0, rel=1e-15)]] * 2
        assert D[3, 1] == -D[3, 4] == math.sqrt(1e300) * math.sqrt(4e300) * 1e-5


def chunks_of(V, monkeypatch):
    """Make ``oracle.covariance_chunks`` hand out the pair rows of the 8x8 stack V as
    one chunk, whatever it is given; returns arguments to pass it."""
    rows = rows_of(V)
    monkeypatch.setattr(oracle, "covariance_chunks", lambda *args: iter([rows]))
    return model_arrays([SPECTRAL_CASES[0]], len(V))


class TestStackedDuan:
    def test_equals_per_item_results(self):
        # the row reader on one stack, and over the arrays in chunks, reads what
        # the one-system reader reads from each system's rows
        args = model_arrays(SPECTRAL_CASES, len(SPECTRAL_CASES))
        V = solve_lyapunov(DriftDiffusion(*oracle._model_rows(*args)))
        for pair in ("mirror", "field"):
            by_rows = oracle._duan_variances(V, pair)
            by_arrays = oracle.duan_variance_arrays(*args, pair)
            for k in range(V.shape[-1]):
                single = duan_from_covariance(V[..., k], pair)
                assert ((by_rows[0][k], by_rows[1][k]) == (by_arrays[0][k], by_arrays[1][k])
                        == (single.var_X, single.var_Y))

    def test_first_bad_total_raises_the_per_point_error(self, monkeypatch):
        V = np.stack([np.eye(8) / 2] * 3)
        V[1, IDX["X1"], IDX["X1"]] = math.nan
        args = chunks_of(V, monkeypatch)
        with pytest.raises(FloatingPointError, match="total variance is NaN"):
            oracle.duan_variance_arrays(*args)
        with pytest.raises(ValueError, match="pair must be"):
            oracle.duan_variance_arrays(*args, "bogus")
        with pytest.raises(ValueError, match="pair must be"):
            oracle._duan_variances(rows_of(V), "bogus")

    @pytest.mark.parametrize("pair", ["mirror", "field"])
    def test_no_systems_give_empty_variances(self, pair):
        unit = (np.empty(0),) * 4
        var_X, var_Y = oracle.duan_variance_arrays(unit, unit, np.empty(0), np.empty(0), pair)
        assert var_X.shape == var_Y.shape == (0,)
        assert var_X.dtype == var_Y.dtype == np.float64

    @pytest.mark.parametrize("pair", ["mirror", "field"])
    def test_cancelled_digits_raise_on_both_routes(self, pair, monkeypatch):
        # V11 = V22 = 1e6 + 1/2 and V12 = 1e6 for each variance: the estimate
        # ulp(1) (4e6 + 1) / 1 is 8.9e-10, under 1e-6; at 1e10 it is 8.9e-6
        def cancelling(size):
            V = np.eye(8) / 2
            for u1, u2, sign in (("X1", "X2", 1.0), ("Y1", "Y2", -1.0), ("x1", "x2", 1.0),
                                 ("y1", "y2", -1.0)):
                V[IDX[u1], IDX[u1]] = V[IDX[u2], IDX[u2]] = size + 0.5
                V[IDX[u1], IDX[u2]] = V[IDX[u2], IDX[u1]] = sign * size
            return V

        assert duan_from_covariance(rows_of(cancelling(1e6)), pair).total == 2.0
        message = r"lost its digits to cancellation: .* estimate 8\.9e-06 exceeds 1e-06"
        with pytest.raises(FloatingPointError, match=message):
            duan_from_covariance(rows_of(cancelling(1e10)), pair)
        V = np.stack([cancelling(1e6), cancelling(1e10), cancelling(1e11), np.eye(8) / 2])
        V[2, 0, 0] = math.nan  # a NaN total after the first cancelled one
        with pytest.raises(FloatingPointError, match=message):
            oracle.duan_variance_arrays(*chunks_of(V, monkeypatch), pair)


def test_selfcheck_loads_neither_scipy_nor_numpy_polynomial():
    # nor numpy.random: the seeded checks draw from the standard library's
    # random.Random, so no command pays numpy.random's extension modules
    assert fresh(
        "import json, sys\n"
        "import squeezelink.cli\n"
        "at_import = 'numpy.polynomial' in sys.modules\n"
        "from squeezelink import selfcheck\n"
        "passed = all(result.passed for result in selfcheck.run_checks())\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([at_import, passed, scipy,\n"
        "                  [m in sys.modules for m in ('numpy.polynomial', 'numpy.random')]]))\n"
    ) == [False, True, [], [False, False]]


def gate(A, D, V):
    """The residual gate's norms and bounds ``(7, B)``, on the block exponents of the
    stability check, as the kernel runs it."""
    return oracle._split_residual(A, model.stability_check(A).exponents, D, V)


def ratios(A, D, V):
    """The residual gate's ratios of residual to bound ``(7, B)``."""
    residual, bound = gate(A, D, V)
    return residual / bound


def exponent(x, axis):
    """The exponent of ``frexp`` of the largest entry of ``x`` over ``axis``."""
    return np.frexp(np.abs(x).max(axis=axis))[1]


def split_pair_rows(A, D, V):
    """The rows (4, 6, B) of A_p, A_q, D_pq and V_pq, pair by pair, of split systems'
    drift, diffusion and covariance rows."""
    return A[:, oracle._P], A[:, oracle._Q], D, V


def squared_8x8(pairs):
    """The squared 8x8 norm from the pairs' squared norms (6, B), added in pair
    order, a cross pair as twice its square, as the 8x8 matrix holds it twice."""
    total = np.zeros(pairs.shape[1:])
    for (p, q), square in zip(oracle._PAIRS, pairs):
        total += 2.0 * square if p != q else square
    return total


def reference_gate(A, C, D, V):
    """The residual gate's norms and bounds from the gathered rows (4, 6, B) of each
    pair's A_p, A_q, D_pq and V_pq, in the frame of each system's largest entries of
    A_p and A_q and of V, the residual's and D's squares in the unit of their own
    largest entry, with ||A_p|| and ||A_q|| from those rows, one temporary per
    operation."""
    a, v = exponent(np.maximum(np.abs(A), np.abs(C)), (0, 1)), exponent(V, (0, 1))
    A, C, Vs, Ds = np.ldexp(A, -a), np.ldexp(C, -a), np.ldexp(V, -v), np.ldexp(D, -(a + v))
    R = np.empty(D.shape)
    for i in (0, 1):  # (A_i0 V_0j + A_i1 V_1j) + (V_i0 C_j0 + V_i1 C_j1), two j at a time
        R[2 * i:2 * i + 2] = ((A[2 * i] * Vs[:2] + A[2 * i + 1] * Vs[2:])
                              + (Vs[2 * i] * C[::2] + Vs[2 * i + 1] * C[1::2]))
    R = R + Ds
    u = exponent(np.maximum(np.abs(R), np.abs(Ds)), (0, 1))
    R2, D2 = (np.square(np.ldexp(x, -u)).sum(axis=0) for x in (R, Ds))
    V2, A2, C2 = (np.square(x).sum(axis=0) for x in (Vs, A, C))
    A_pq = np.sqrt(A2) + np.sqrt(C2)
    residual = np.ldexp(np.vstack([np.sqrt(R2), np.sqrt(squared_8x8(R2))]), u)
    bound = np.vstack([
        1e-10 * (np.ldexp(np.sqrt(D2), u) + A_pq * np.sqrt(V2) + 1e-300 * (1.0 + A_pq)),
        1e-10 * np.maximum(np.ldexp(np.sqrt(squared_8x8(D2)), u), 1e-300)])
    return residual, bound


def matmul_gate(A, D, V):
    """The 8x8 residual norm and bound of the gate in its frame, A / 2**a, V / 2**v and
    D / 2**(a + v), by dense matmuls on the rows' 8x8 matrices."""
    A, D, V = matrix_of(A, DRIFT_BLOCKS), matrix_of(D), matrix_of(V)
    a, v = (exponent(x, (1, 2))[:, None, None] for x in (A, V))
    As, Vs, Ds = np.ldexp(A, -a), np.ldexp(V, -v), np.ldexp(D, -(a + v))
    residual = np.linalg.norm(As @ Vs + Vs @ As.transpose(0, 2, 1) + Ds, axis=(1, 2))
    return residual, 1e-10 * np.linalg.norm(Ds, axis=(1, 2))


class TestSplitResidualGate:
    def test_six_pair_norm_is_the_8x8_norm(self):
        # a symmetric error on every pair, so that the residual is not round-off
        A, D = physical_stack()
        V = solve_lyapunov(DriftDiffusion(A, D))
        E = np.random.default_rng(8).standard_normal((A.shape[-1], 8, 8))
        E = rows_of(E + E.transpose(0, 2, 1))
        V_bad = V + 1e-3 * np.abs(V).max(axis=(0, 1)) * E
        residual, bound = gate(A, D, V_bad)
        ref_residual, ref_bound = matmul_gate(A, D, V_bad)
        assert residual.shape == bound.shape == (7, A.shape[-1])
        assert residual[6] == pytest.approx(ref_residual, rel=1e-12)
        assert bound[6] == pytest.approx(ref_bound, rel=1e-14)
        # and the solution itself passes both
        residual, bound = gate(A, D, V)
        assert (residual <= bound).all()

    @pytest.mark.parametrize("case", ["physical", "constructed", "2**900", "2**-900",
                                      "1e200 D"])
    def test_norms_and_bounds_keep_the_bits_of_the_gathered_rows(self, case):
        # ||A_p|| and ||A_q|| from the four blocks' norms, the frame from the stability
        # check's exponents, and A_p and A_q gathered in the gate's own array, give the
        # bits of the rows gathered and scaled apart; at 2**900 and 2**-900 times the
        # drift every bound stays finite
        if case == "physical":
            A, D = physical_stack()
        else:
            _, A, D, _ = selfcheck._constructed_systems(np.random.default_rng(5))
            A = np.ldexp(A, int(case[3:])) if case.startswith("2**") else A
            D = 1e200 * D if case == "1e200 D" else D
        V = solve_lyapunov(DriftDiffusion(A, D))
        E = np.random.default_rng(9).standard_normal(V.shape)
        for V_k in (V, V * (1.0 + 1e-6 * E)):
            got = gate(A, D, V_k)
            want = reference_gate(*split_pair_rows(A, D, V_k))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
            assert np.isfinite(got[1]).all()

    def test_a_residual_beside_a_huge_drift_is_not_squared_away(self):
        # G = 1e160 against gamma = 1e-3 and kappa = 1: D is some 1e-160 of A V, so in
        # the frame of A and V the residual's entries are ~1e-164 and their squares
        # underflow to 0; in the unit of R and D they keep their size, and the gate
        # rejects this V, whose total is 1e-4 off the exact one (7.5216 for 7.5209)
        bath, units = SqueezedBath(r=1.0), ((1e-3, 1.0, 1e160, 0.5), (1e-3, 1.0, 10.0, 0.5))
        for pair in (units, units[::-1]):
            with pytest.raises(UnstableDrift, match="residual at stack index 0 is .* times"):
                oracle.duan_variance_arrays(*pair, bath.N, bath.M_corr)

    def test_an_error_in_a_small_pair_fails_its_own_bound_only(self, monkeypatch):
        # at r = 1e-3 the x1-x2 covariance is ~1e-3 of D; an error of 1e-8 of
        # it is far inside the 8x8 bound, but not inside the pair's
        A, D = physical_stack()
        dd = build_rwa_drift_diffusion(*make_system(15.0, 1e-3, 5.0, 0.01))
        A = np.concatenate([A, dd.A[..., None]], axis=-1)
        D = np.concatenate([D, dd.D[..., None]], axis=-1)
        V = solve_lyapunov(DriftDiffusion(A, D))
        error = np.ones_like(V)
        error[:, 1, 3] = 1.0 + 1e-8  # item 3's X1-X2 pair, and so its transpose X2-X1
        residual, bound = gate(A, D, V * error)
        assert residual[1, 3] > bound[1, 3] and residual[6, 3] <= bound[6, 3]
        assert (np.delete(residual <= bound, 3, axis=1)).all()
        ref_residual, ref_bound = matmul_gate(A, D, V * error)
        assert (ref_residual <= ref_bound).all()  # the 8x8 gate alone lets it through

        sylvester = oracle._sylvester_2x2
        def planted(drift, exponent, D_rows):
            W = sylvester(drift, exponent, D_rows)
            W[:, 1, 3] *= 1.0 + 1e-8
            return W
        monkeypatch.setattr(oracle, "_sylvester_2x2", planted)
        with pytest.raises(UnstableDrift, match="Lyapunov residual at stack index 3 is .* times its bound"):
            solve_lyapunov(DriftDiffusion(A, D))


STACK_UNITS = st.lists(SYSTEM_ARGS, min_size=1, max_size=6)


def model_arrays(points, size):
    """Oracle arguments (unit1, unit2, N, M) of ``size`` systems that cycle
    through the mismatched ``points``."""
    systems = [asymmetric_system(*point) for point in points]
    rates = np.resize(np.array([[*np.ravel(system_units(*s)), s[0].bath.N, s[0].bath.M_corr]
                                for s in systems]), (size, 10)).T
    return tuple(rates[:4]), tuple(rates[4:8]), rates[8], rates[9]


CHUNK = oracle.STACK_CHUNK


class TestRowAndMatrixRoutes:
    """The chunked route of the arrays, and the one call of the shims on the same rows."""

    @settings(max_examples=25, deadline=None)
    @given(points=STACK_UNITS,
           size=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    def test_chunks_equal_the_one_call_solve(self, points, size):
        args = model_arrays(points, size)
        chunks = list(oracle.covariance_chunks(*args))
        assert [V.shape for V in chunks] == [(4, 6, min(CHUNK, size - k))
                                             for k in range(0, size, CHUNK)]
        V = solve_lyapunov(DriftDiffusion(*oracle._model_rows(*args)))
        assert np.concatenate(chunks, axis=-1).tobytes() == V.tobytes()

    @pytest.mark.parametrize("shape", [(), (3, 5), (2, 1, 7)])
    def test_broadcast_inputs_give_the_bits_of_raveled_ones(self, monkeypatch, shape):
        # scalars stay scalars and partly broadcast inputs go through .flat, chunk
        # by chunk; the systems come in flat order with the bits of 1-D inputs
        monkeypatch.setattr(oracle, "STACK_CHUNK", 4)  # chunks that cut across rows
        unit1, unit2, N, M = model_arrays([SPECTRAL_CASES[3]], 1)
        (gamma, kappa, G, n_th), unit2 = ([float(x[0]) for x in u] for u in (unit1, unit2))
        rows = cols = 1.0  # gamma varies along the first axis and G along the last
        if shape:
            rows = np.linspace(0.5, 1.5, shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
            cols = np.linspace(0.9, 1.1, shape[-1])
        args = ((gamma * rows, kappa, G * cols, n_th), unit2, float(N[0]), float(M[0]))
        flat = [np.ravel(x) for x in np.broadcast_arrays(*args[0], *unit2, *args[2:])]
        expected = np.concatenate(
            list(oracle.covariance_chunks(flat[:4], flat[4:8], *flat[8:])), axis=-1)
        chunks = list(oracle.covariance_chunks(*args))
        assert [V.shape[-1] for V in chunks] == [min(4, flat[0].size - k)
                                                 for k in range(0, flat[0].size, 4)]
        assert np.concatenate(chunks, axis=-1).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entry, value, error, text", [
        # the bath's M: the records pass the unit gate, and the kernel names the
        # item by its index in the whole input, past the first chunk
        (9, math.inf, FloatingPointError,
         f"drift or diffusion matrix is not finite at stack index {CHUNK + 44}"),
        # a record out of bounds stops at the unit gate, in the same chunk
        # a finite N whose field terms kappa (2N + 1)/2 overflow: the row builder
        # of both routes names it, by the same index
        (8, 1e308, OverflowError, "squeezed-bath diffusion terms kappa (2N + 1)/2 and "
         f"sqrt(kappa1 kappa2) M overflow a float at stack index {CHUNK + 44}"),
        (2, math.nan, FloatingPointError, "unit 1: G must be >= 0 and finite, got nan"),
        (1, math.inf, FloatingPointError, "unit 1: kappa must be > 0 and finite, got inf"),
        (0, -2.0, ValueError, "unit 1: gamma must be > 0 and finite, got -2.0"),
    ])
    def test_a_bad_system_raises_alike_on_both_routes(self, entry, value, error, text):
        unit1, unit2, N, M = model_arrays([SPECTRAL_CASES[3]], 2 * CHUNK + 1)
        inputs = [np.array(x) for x in (*unit1, *unit2, N, M)]
        bad = CHUNK + 44  # item 44 of the second chunk
        inputs[entry][bad] = value
        with pytest.raises(error, match=f"^{re.escape(text)}$") as by_chunks:
            list(oracle.covariance_chunks(inputs[:4], inputs[4:8], *inputs[8:]))
        with pytest.raises(error) as in_one_call:
            solve_lyapunov(DriftDiffusion(*oracle._model_rows(inputs[:4], inputs[4:8],
                                                              *inputs[8:])))
        assert str(by_chunks.value) == str(in_one_call.value)

    @pytest.mark.parametrize("entries, value, error, text", [
        # gamma = kappa = 5e-324 pass the unit gate, but -gamma/2 and -kappa/2 round to -0
        ((0, 1), 5e-324, UnstableDrift,
         "drift matrix is not stable (max Re eigenvalue = -0 at stack index 1200)"),
        # kappa = G = 5e-324: a negative trace, but a zero determinant
        ((1, 2), 5e-324, UnstableDrift,
         "drift matrix is not stable (max Re eigenvalue = -0 at stack index 1200)"),
        ((9,), math.inf, FloatingPointError,
         "drift or diffusion matrix is not finite at stack index 1200"),
        # finite N and M whose field terms overflow a float
        ((8, 9), 1e308, OverflowError, "squeezed-bath diffusion terms kappa (2N + 1)/2 and "
         "sqrt(kappa1 kappa2) M overflow a float at stack index 1200"),
    ])
    def test_errors_name_the_index_in_the_whole_input(self, entries, value, error, text):
        unit1, unit2, N, M = model_arrays([SPECTRAL_CASES[3]], 1500)
        inputs = [np.array(x) for x in (*unit1, *unit2, N, M)]
        for entry in entries:
            inputs[entry][1200] = value  # in the second chunk, as its item 176
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            oracle.duan_variance_arrays(inputs[:4], inputs[4:8], *inputs[8:])

    def test_stacked_routes_take_no_shim(self, monkeypatch):
        # the Duan variances over more than one chunk, the chunks themselves and
        # the selfcheck's grid checks read the kernel's rows, not the shims
        def forbidden(*args):
            raise AssertionError("shim taken")
        for name in ("build_rwa_drift_diffusion", "solve_lyapunov", "duan_from_covariance"):
            monkeypatch.setattr(oracle, name, forbidden)
        args = model_arrays(SPECTRAL_CASES, 2 * oracle.STACK_CHUNK + 1)
        for pair in ("mirror", "field"):
            var_X, var_Y = oracle.duan_variance_arrays(*args, pair)
            assert var_X.shape == var_Y.shape == (2 * oracle.STACK_CHUNK + 1,)
        # (the lyapunov check solves its constructed rows through solve_lyapunov)
        results = selfcheck.run_checks(only=["triple", "separability", "xy-symmetry"])
        assert [result.passed for result in results] == [True] * 3
        chunks = list(oracle.covariance_chunks(*model_arrays([SPECTRAL_CASES[3]], 3)))
        assert [V.shape for V in chunks] == [(4, 6, 3)]




def expression_sylvester_2x2(A, C, D):
    """The closed-form 2x2 Sylvester solve in expression form, one temporary per
    operation, as it was before the kernel worked in place in one array."""
    def entries(*rows):
        e = np.frexp(functools.reduce(np.maximum, [np.abs(x).max(axis=0) for x in rows]))[1]
        return [np.ldexp(x, -e) for x in rows], e

    ((a, b, c, d), (e, g, f, h)), eA = entries(A, C)
    ((q11, q12, q21, q22),), eD = entries(-D)
    t, k = a + d + e + h, (e * h - f * g) - (a * d - b * c)
    r11 = (a + h) * q11 + b * q21 - g * q12
    r12 = (a + e) * q12 + b * q22 - f * q11
    r21 = (d + h) * q21 + c * q11 - g * q22
    r22 = (d + e) * q22 + c * q12 - f * q21
    m11, m12, m21, m22 = t * a + k, t * b, t * c, t * d + k
    W = np.array([m22 * r11 - m12 * r21, m22 * r12 - m12 * r22,
                  m11 * r21 - m21 * r11, m11 * r22 - m21 * r12])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.ldexp(W / (m11 * m22 - m12 * m21), eD - eA)


def pair_exponents(drift):
    """Each pair's exponent ``(6, B)`` for :func:`oracle._sylvester_2x2`, as the kernel
    takes it: the larger of its two blocks' exponents from the stability check."""
    e = model.stability_check(drift).exponents
    return np.maximum(e[oracle._P], e[oracle._Q])


def pair_sylvester(A, C, D):
    """The kernel's W of ``A W + W C^T + D = 0`` for the rows (4, m) of m blocks each:
    A and C as drift blocks 0 and 1 of m systems, solved as their pair (0, 1)."""
    drift = np.stack([A, C, C, A], axis=1)
    W = oracle._sylvester_2x2(drift, pair_exponents(drift),
                              np.repeat(D[:, None], len(oracle._PAIRS), axis=1))
    return W[:, 1]


class TestInPlaceKernel:
    def test_pair_exponents_are_those_of_each_pairs_largest_entry(self):
        # each block at its own scale, 2**-1000 to 2**1000; the stability check
        # reports each block's exponent, and frexp's exponent grows with the value,
        # so the larger of two blocks' exponents is the pair's
        rng = np.random.default_rng(23)
        count = 600
        blocks = random_stable_blocks(rng, 4 * count).reshape(count, 4, 4)
        drift = np.ldexp(blocks, rng.integers(-1000, 1001, (count, 4, 1))).T
        exponents = model.stability_check(drift).exponents
        assert np.array_equal(exponents, np.frexp(np.abs(drift).max(axis=0))[1])
        largest = np.maximum(*(np.abs(drift[:, side]).max(axis=0)
                               for side in (oracle._P, oracle._Q)))
        assert np.array_equal(pair_exponents(drift), np.frexp(largest)[1])

    @pytest.mark.parametrize("case", ["random", "overdamped", "near-boundary", "1e300",
                                      "-1e300"])
    def test_sylvester_keeps_the_bits_of_the_expression_form(self, case):
        rng = np.random.default_rng(17)
        count = 900
        if case == "overdamped":  # gamma/kappa = 1e-6: real eigenvalues far apart
            A, C = (random_stable_blocks(rng, count)[::3] for _ in range(2))
        elif case == "near-boundary":  # tr A + tr B and det B - det A near 0
            A = random_stable_blocks(rng, count)
            C = -A.transpose(0, 2, 1) * (1.0 + 1e-13 * rng.standard_normal((count, 1, 1)))
        else:
            A, C = rng.standard_normal((2, count, 2, 2))
        D = rng.standard_normal((len(A), len(oracle._PAIRS), 2, 2))
        if case.endswith("1e300"):  # A and C near the top of the float range, D near 1
            sign = float(case[:-5] + "1")
            A, C, D = sign * 1e300 * A, 1e300 * C, sign * 1e-1 * D
        # A and C as the drift blocks (A, C, C, A) of each system, so that the six
        # pairs hold them in every order, and D as each pair's own rows; the rows
        # of entries 00, 01, 10, 11 are strided, as a transposed stack is
        drift = np.stack([A, C, C, A], axis=1).reshape(len(A), 4, 4).T
        D = D.reshape(len(A), len(oracle._PAIRS), 4).T
        given = [x.copy() for x in (drift, D)]
        with np.errstate(all="ignore"):  # a singular item is left to the caller alike
            # the expression form on the gathered pair rows, with its own exponents
            want = expression_sylvester_2x2(*(drift[:, blocks].reshape(4, -1)
                                              for blocks in (oracle._P, oracle._Q)),
                                            D.reshape(4, -1))
            got = oracle._sylvester_2x2(drift, pair_exponents(drift), D)
        assert got.shape == D.shape and got.reshape(4, -1).tobytes() == want.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip((drift, D), given))  # intact

    def test_one_chunk_peaks_below_1_72_kb_per_system(self):
        # the kernel's rows are worked in place, in one 20-row array at a time, and
        # no copy of the pairs' drift rows outlives its use: a chunk peaks at about
        # 1.65 KB per system (the expression form peaked at about 3.1 KB, at 256
        # systems a chunk, and the kernel with gathered A_p and A_q at 2.2 KB)
        args = model_arrays(SPECTRAL_CASES, CHUNK)
        next(oracle.covariance_chunks(*args))  # imports and first-call caches
        chunks = oracle.covariance_chunks(*args)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            V = next(chunks)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert V.shape == (4, 6, CHUNK)
        assert peak <= 1720 * CHUNK

    def test_scalar_and_full_size_inputs_reach_the_rows_uncopied(self, monkeypatch):
        seen, starts = [], []
        model_rows = oracle._model_rows
        def spy(unit1, unit2, N, M, start):
            seen.append((*unit1, *unit2, N, M))
            starts.append(start)
            return model_rows(unit1, unit2, N, M, start)

        monkeypatch.setattr(oracle, "_model_rows", spy)
        monkeypatch.setattr(oracle, "STACK_CHUNK", 4)
        unit1, unit2, N, M = model_arrays(SPECTRAL_CASES, 10)
        strided = np.stack([unit1[2], unit1[2]], axis=1)[:, 0]  # full-size, not contiguous
        scalars = [np.array(x[0]) for x in (unit2[1], N)] + [np.array([float(M[0])])]
        inputs = [unit1[0], unit1[1], strided, unit1[3], unit2[0], scalars[0], *unit2[2:],
                  scalars[1], scalars[2]]
        chunks = list(oracle.covariance_chunks(inputs[:4], inputs[4:8], *inputs[8:]))
        assert [V.shape[-1] for V in chunks] == [len(args[0]) for args in seen] == [4, 4, 2]
        assert starts == [0, 4, 8]
        for start, args in zip((0, 4, 8), seen):
            for given, got in zip(inputs, args):
                assert np.shares_memory(given, got)
                if given.size == 1:
                    assert got.shape == ()
                else:
                    assert got.tobytes() == given[start:start + 4].tobytes()
