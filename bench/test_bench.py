"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest bench``. The smoke runs
start the benchmark as a subprocess at ``--seconds 1`` and take about
two minutes in all.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

run.load_program()

from squeezelink import cli, config, model, oracle, selfcheck, sweep  # noqa: E402


def bindings() -> dict:
    """Every callable bound in a squeezelink module, and every ALL_CHECKS entry."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "squeezelink" or name.startswith("squeezelink."):
            for attr, value in vars(module).items():
                if callable(value):
                    snap[(name, attr)] = value
    for check, fn in selfcheck.ALL_CHECKS.items():
        snap[("ALL_CHECKS", check)] = fn
    return snap


def outputs():
    """Results of every layer the benchmark traces."""
    figures = {fig: hashlib.sha256(cli.render_figure_csv(fig).encode()).hexdigest()
               for fig in run.FIGURES}
    system = config.resolve_system(r_override=1.3, temperature_override=2e-4)
    duan = [sweep.evaluate_quantity(system, q)[0] for q in sweep.QUANTITIES]
    steady = tuple(model.mean_fields_from_effective_detuning(u, -u.mirror.omega_M)
                   for u in (system.unit1, system.unit2))
    spectral = oracle.spectral_duan_sum(system, steady, "field")
    rows = sweep.run_sweep(sweep.SweepSpec(base=system, axis="unit2.power", start=1e-4,
                                           stop=2e-2, count=25, scale="log"))
    checks = [result.summary() for result in selfcheck.run_checks(
        only=["threshold", "lyapunov", "symmetric-drive", "determinism"])]
    return figures, duan, spectral, rows, checks


def test_tracing_is_transparent():
    plain = outputs()
    tracer = Tracer()
    with tracer.installed():
        traced = outputs()
    assert traced == plain
    assert plain[0] == run.figure_digests()
    calls = tracer.counters()["calls"]
    for layer in ("cli.render_figure_csv", "config.resolve_system", "sweep.run_sweep",
                  "oracle.solve_lyapunov", "oracle.spectral_duan_sum",
                  "model.stability_check", "selfcheck.lyapunov"):
        assert calls.get(layer, 0) > 0, layer


def test_every_binding_is_restored():
    before = bindings()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            during = bindings()
            1 / 0
    after = bindings()
    # the by-name imports in sweep, oracle and closedform are wrapped too
    for key in [("squeezelink.sweep", "mean_fields_from_effective_detuning"),
                ("squeezelink.oracle", "stability_check"),
                ("squeezelink.closedform", "mean_fields_from_effective_detuning"),
                ("squeezelink", "run_sweep"),
                ("ALL_CHECKS", "separability")]:
        assert during[key] is not before[key], key
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    counters = tracer.counters()
    assert counters["total_s"]["outer"] >= counters["total_s"]["inner"] >= 0.02
    assert counters["self_s"]["outer"] < 0.01
    assert list(tracer.span_parent) == [-1, 0]


def test_importtime_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.integrate._quadpack",
        "import time:       200 |        300 |   scipy.integrate._quadrature",
        "import time:        50 |         50 |   scipy.integrate._ode",
        "import time:      1000 |       2000 | squeezelink",
    ])
    assert run.parse_importtime(stderr) == pytest.approx(
        {"import.total_s": 2000e-6, "import.scipy_integrate_s": 350e-6})


def test_tail_has_ten_calls_beyond_it():
    median, tail, pct = run.median_and_tail(list(range(40)))
    assert tail == 29 and pct == 75.0 and median == 19.5
    assert run.median_and_tail([4.0, 1.0, 2.0, 3.0, 5.0])[1:] == (4.0, 75.0)
    assert run.median_and_tail([2.5]) == (2.5, 2.5, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
