"""Chunked, stacked Lyapunov solves in the selfcheck grids."""

import inspect
import json
import math
import random
import re

import numpy as np
import pytest

import cli_corpus
from squeezelink import closedform, model, oracle, selfcheck
from units import DRIFT_BLOCKS, matrix_of, rows_of, unit_with_cooperativity


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
    assert [V.shape[-1] for V in chunks] == [7] * (count // 7) + [count % 7] * (count % 7 > 0)
    singles = np.stack([oracle.solve_lyapunov(dd) for dd in dds], axis=-1)
    assert np.array_equal(np.concatenate(chunks, axis=-1), singles)


def test_bad_item_aborts_the_check(monkeypatch):
    monkeypatch.setattr(oracle, "STACK_CHUNK", 4)
    (gamma, kappa, G, n_th), N, M, _ = random_systems(6)
    kappa[5] = -kappa[5]  # a growing cavity mode, which the unit gate rejects
    unit = (gamma, kappa, G, n_th)
    chunks = oracle.covariance_chunks(unit, unit, N, M)
    assert next(chunks).shape[-1] == 4  # the first chunk is solved on its own
    with pytest.raises(ValueError, match=f"^unit 1: kappa must be > 0 and finite, got "
                                         f"{float(kappa[5])!r}$"):
        next(chunks)


def dense_lyapunov(dd):
    """The unsplit 64-unknown Kronecker solve of the rows' 8x8 matrices, as a reference;
    returns V's pair rows."""
    A, D = matrix_of(dd.A, DRIFT_BLOCKS), matrix_of(dd.D)
    K = np.kron(np.eye(8), A) + np.kron(A, np.eye(8))
    V = np.linalg.solve(K, -D.reshape(64)).reshape(8, 8)
    return rows_of(0.5 * (V + V.T))


def scalar_separability_totals(samples, seed):
    """(closed-form, oracle) totals, one dense solve per sample, in draw order."""
    rng = selfcheck.SeededUniform(seed)
    bath = model.SqueezedBath(r=0.0)
    totals = []
    for _ in range(samples):
        C = 10.0 ** float(rng.uniform(-2, 3))
        n_th = float(rng.uniform(0.0, 50.0))
        ratio = 10.0 ** float(rng.uniform(-6, 0))
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


LYAPUNOV_BOUNDS = tuple(np.repeat(bounds, [16, 4, 1, 32]).tolist()
                        for bounds in ([-1.0, -4.0, -60.5, -1.0], [1.0, 0.0, 60.5, 1.0]))


@pytest.mark.parametrize("seed, low, high, size", [
    # the selfcheck's two draws, then one scalar
    (selfcheck.SEPARABILITY_SEED, [-2.0, 0.0, -6.0], [3.0, 50.0, 0.0],
     (selfcheck.SEPARABILITY_SAMPLES, 3)),
    (selfcheck.LYAPUNOV_SEED, *LYAPUNOV_BOUNDS, (selfcheck.LYAPUNOV_TRIALS, 53)),
    (3, -1.0, 1.0, None),
])
def test_seeded_draws_are_those_of_the_standard_library_stream(seed, low, high, size):
    # value k is low + (high - low) u_k, u_k the k-th random() of Random(seed), in
    # row-major order, bit for bit, and each lies in [low, high)
    draws = selfcheck.SeededUniform(seed).uniform(low, high, size)
    assert draws.shape == (() if size is None else np.empty(size).shape)
    low, high = (np.broadcast_to(x, draws.shape).ravel().tolist() for x in (low, high))
    stream = random.Random(seed).random
    want = [lo + (hi - lo) * stream() for lo, hi in zip(low, high)]
    assert list(map(float.hex, draws.ravel().tolist())) == list(map(float.hex, want))
    assert all(lo <= x < hi for lo, x, hi in zip(low, draws.ravel().tolist(), high))


def test_separability_powers_equal_float_powers_bit_for_bit():
    # the draws' 10 ** x by math.pow over the array, against Python's float power
    rng = selfcheck.SeededUniform(selfcheck.SEPARABILITY_SEED)
    log_C, _, log_ratio = rng.uniform([-2, 0, -6], [3, 50, 0],
                                      size=(selfcheck.SEPARABILITY_SAMPLES, 3)).T
    for u in (log_C, log_ratio):
        mapped = model.map_math(math.pow, 10.0, u).tolist()
        assert len(mapped) == 10_000
        assert list(map(float.hex, mapped)) == [float.hex(10.0 ** x) for x in u.tolist()]


def test_separability_bits_do_not_depend_on_the_oracle_chunk(monkeypatch):
    # the selfcheck hands all its draws to the oracle at once; only the oracle chunks
    assert oracle.STACK_CHUNK == 1024
    closed, lyap = selfcheck._separability_totals()
    monkeypatch.setattr(oracle, "STACK_CHUNK", 7)
    small_closed, small_lyap = selfcheck._separability_totals()
    assert len(lyap) == selfcheck.SEPARABILITY_SAMPLES
    assert np.array_equal(small_closed, closed)
    assert np.array_equal(small_lyap, lyap)


def test_array_route_equals_per_point_solves(monkeypatch):
    # the grid's oracle totals, built over arrays and solved in chunks, equal
    # one _model_rows + solve_lyapunov per point on the same (gamma, kappa, G,
    # n_th) floats
    monkeypatch.setattr(oracle, "STACK_CHUNK", 50)
    grid = selfcheck._grid()
    totals = np.add(*selfcheck._mirror_variances(*grid))
    assert totals.shape == (192,)
    kappa = selfcheck.KAPPA_REF
    for (C, r, n_th, ratio), total in zip(grid.T.tolist(), totals.tolist()):
        gamma = ratio * kappa
        unit = (gamma, kappa, math.sqrt(C * gamma * kappa) / 2.0, n_th)
        bath = model.SqueezedBath(r=r)
        A, D = oracle._model_rows(unit, unit, bath.N, bath.M_corr)
        V = oracle.solve_lyapunov(oracle.DriftDiffusion(A=A, D=D))
        assert total == oracle.duan_from_covariance(V, "mirror").total


def test_symmetric_units_take_the_grids_n_th_and_c_as_given():
    # the first separability draws: n_th reaches the oracle bit for bit, and
    # the coupling G gives back C = 4 G^2 / (gamma kappa) to rounding
    rng = selfcheck.SeededUniform(selfcheck.SEPARABILITY_SEED)
    log_C, n_th, log_ratio = rng.uniform([-2, 0, -6], [3, 50, 0], size=(256, 3)).T
    C, ratio = 10.0 ** log_C, 10.0 ** log_ratio
    (gamma, kappa, G, unit_n_th), _, N, M = selfcheck._symmetric_units(C, 0.0, n_th, ratio)
    assert np.array_equal(unit_n_th, n_th)
    assert np.all(np.abs(4.0 * G * G / (gamma * kappa) - C) <= 4 * np.spacing(C))
    assert not N.any() and not M.any()


@pytest.mark.parametrize("C, n_th, ratio, field", [
    (-1.0, 1.0, 1e-3, "G"), (math.nan, 1.0, 1e-3, "G"), (math.inf, 1.0, 1e-3, "G"),
    (1.0, -1.0, 1e-3, "n_th"), (1.0, math.inf, 1e-3, "n_th"),
    (1.0, 1.0, -1e-3, "gamma"), (1.0, 1.0, math.nan, "gamma"),
])
def test_symmetric_units_reject_what_a_unit_rejects(C, n_th, ratio, field):
    # a negative or NaN C gives a NaN G: the routes' unit gate rejects the record
    kappa = selfcheck.KAPPA_REF
    finite = all(map(math.isfinite, (C, n_th, ratio)))
    with pytest.raises(ValueError if finite else FloatingPointError):
        unit_with_cooperativity(C, kappa, ratio * kappa, n_th)
    good = (1.0, 1.0, 1e-3)
    C, n_th, ratio = (np.array([g, x]) for g, x in zip(good, (C, n_th, ratio)))
    args = selfcheck._symmetric_units(C, 0.0, n_th, ratio)
    with pytest.raises((ValueError, FloatingPointError),
                       match=f"^unit 1: {field} must be") as per_point:
        model._require_unit(1, *(float(np.broadcast_to(x, (2,))[1]) for x in args[0]))
    for route in (oracle.duan_variance_arrays, closedform.duan_sum_nonadiabatic_general_arrays):
        with pytest.raises(type(per_point.value),
                           match=f"^{re.escape(str(per_point.value))}$"):
            route(*args)


def test_array_route_rejects_what_the_per_point_route_rejects():
    with pytest.raises(FloatingPointError, match="^unit 1: G must be >= 0 and finite, got nan$"):
        selfcheck._mirror_variances(np.array([1.0, -1.0]), 0.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="^unit 1: n_th must be >= 0 and finite, got -1.0$"):
        selfcheck._mirror_variances(1.0, 0.0, np.array([1.0, -1.0]), 0.01)
    with pytest.raises(FloatingPointError, match="^squeeze parameter r must be >= 0 and finite, "
                                                 "got nan$"):
        selfcheck._mirror_variances(1.0, np.array([0.5, np.nan]), 1.0, 0.01)


def test_constructed_systems_equal_one_trial_at_a_time():
    # the reference builds one trial at a time from its row of the draw: each
    # block shifted by its largest eigenvalue's real part, and the 8x8 matrices
    # filled block by block, then read as rows; the system's largest real part is
    # its least margin
    rng = selfcheck.SeededUniform(selfcheck.LYAPUNOV_SEED)
    low, high = LYAPUNOV_BOUNDS
    systems = []
    for _ in range(selfcheck.LYAPUNOV_TRIALS):
        row = rng.uniform(low, high)
        k = int(np.rint(row[20]))
        A, V0, margins = np.zeros((8, 8)), np.zeros((8, 8)), []
        for block, log_margin, at in zip(row[:16].reshape(4, 2, 2), row[16:20],
                                         oracle._BLOCKS):
            (a, b), (c, d) = block.tolist()
            h, disc = (a + d) / 2.0, ((a - d) / 2.0) ** 2 + b * c
            margin = math.pow(10.0, log_margin) * np.abs(block).max()
            margins.append(margin)
            shift = h + math.sqrt(max(disc, 0.0)) + margin
            assert max(np.linalg.eigvals(block - shift * np.eye(2)).real) < 0.0
            A[np.ix_(at, at)] = np.ldexp(block - shift * np.eye(2), k)
        for sector, L in zip((slice(0, None, 2), slice(1, None, 2)), row[21:].reshape(2, 4, 4)):
            V0[sector, sector] = L @ L.T
        S = A @ V0
        systems.append((rows_of(V0), rows_of(A, DRIFT_BLOCKS), rows_of(-(S + S.T)),
                        -math.ldexp(min(margins), k)))
    stacks = selfcheck._constructed_systems(selfcheck.SeededUniform(selfcheck.LYAPUNOV_SEED))
    for stack, reference in zip(stacks, zip(*systems), strict=True):
        assert np.array_equal(stack, np.moveaxis(np.array(reference), 0, -1))


def test_no_check_or_oracle_route_calls_lapack(monkeypatch):
    # numpy.linalg's LAPACK-backed functions raise: the selfcheck still passes,
    # and the one-point oracle prints what the CLI corpus pins
    def lapack(*args, **kwargs):
        raise AssertionError("a numpy.linalg LAPACK routine was called")

    for name in ("eig", "eigvals", "solve", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, lapack)
    assert all(result.passed for result in selfcheck.run_checks())
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    oracle_entries = [want for want in corpus["entries"]
                      if want["argv"][0] == "duan" and "oracle" in want["argv"]]
    assert oracle_entries
    with cli_corpus.config_files(corpus["configs"]) as configs:
        for want in oracle_entries:
            assert cli_corpus.run(want["argv"], configs) == (want["exit"], want["stdout"],
                                                             want["stderr"])


def test_every_check_takes_only_its_tolerance():
    for name, check in selfcheck.ALL_CHECKS.items():
        assert list(inspect.signature(check).parameters) == ["tolerance"], name
