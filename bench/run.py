"""squeezelink benchmark: one workload per run, every output checked.

Run from the repository root:

    python3 bench/run.py --workload {cli,figures,selfcheck} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from a run with every public squeezelink function wrapped (see
``tracer.py``). The lines before it give each metric with its sample
count, the failures, if any, and the machine facts. A copy of the result,
and with ``--trace 1`` every span, goes to ``.bench_out/``.

Each run does a fixed amount of work, sized from ``--seconds`` at the
speed of the commit the benchmark was defined on, rather than looping
until a deadline: a time-limited loop would let a faster commit take
more samples and so move the tail percentile it is compared at. All
calls are closed-loop: one client, one call at a time.

See METRICS.md for what each metric means and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

WORKLOADS = ("cli", "figures", "selfcheck")
FIGURES = ("fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig8", "fig9")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile
TRACE_SHRINK = 3

SETUP_CODE = "import squeezelink; from squeezelink import config; config.resolve_system()"
# what the installed `squeezelink` console script runs
CLI_CODE = "import sys; from squeezelink.cli import main; sys.exit(main())"

# Physical ranges of the seeded inputs, from the paper's parameter space:
# the squeeze parameter spans the fig9 axis (0-3), temperatures run from the
# microkelvin operating points to the 1 K end of fig2, powers and mirror
# frequencies stay within the spans of fig3/fig5 and fig6. r starts at 0.01
# because r = 0 makes the threshold diverge by design (exit 3). Inputs
# outside these ranges (r >~ 355 overflows, NaN is accepted silently) are
# known defects that belong in the test suite, not in this benchmark.
R_RANGE = (0.01, 3.0)
TEMPERATURE_RANGE_K = (1e-6, 1.0)
POWER_RANGE_W = (1e-8, 3e-2)
OMEGA_M_FACTOR_RANGE = (0.2, 2.0)  # times the preset's mirror frequency

# Work per run at --seconds 30, scaled linearly with --seconds.
# cli_calls / figure_passes / sweep_passes / selfcheck_passes, and the
# grid points per sweep.
PLANS = {
    "cli": dict(cli_calls=22, figure_passes=3, sweep_passes=3, sweep_points=200,
                selfcheck_passes=2),
    "figures": dict(cli_calls=8, figure_passes=14, sweep_passes=12, sweep_points=300,
                    selfcheck_passes=2),
    "selfcheck": dict(cli_calls=8, figure_passes=4, sweep_passes=3, sweep_points=200,
                      selfcheck_passes=5),
}

# the two checks that dominate a selfcheck pass; the selfcheck workload's
# CLI calls run checks from the other twelve, one per call
HEAVY_CHECKS = ("triple", "separability")


def fmt(value: float) -> str:
    """The CLI's number format: 12 significant digits."""
    return format(value, ".12g")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def median_and_tail(values):
    """Median, the tail, and the tail's percentile.

    The tail is the highest percentile with TAIL_BEYOND calls beyond it.
    With fewer than 2 * TAIL_BEYOND calls that percentile would fall below
    the median; the upper quartile stands in for it then, since the
    maximum of a handful of calls is one sample and swings with it.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        k = n - 1 - TAIL_BEYOND
        return statistics.median(xs), xs[k], 100.0 * (k + 1) / n
    if n == 1:
        return xs[0], xs[0], 100.0
    return statistics.median(xs), statistics.quantiles(xs, n=4, method="inclusive")[2], 75.0


class Run:
    """Inputs, samples and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        # a traced run does a third of the repeats: tracing slows the
        # program, and further identical passes only add spans
        scale = seconds / 30 / (TRACE_SHRINK if trace else 1)
        self.plan = {key: value if key == "sweep_points" else max(1, round(value * scale))
                     for key, value in PLANS[workload].items()}
        self.tracer = Tracer() if trace else None
        self.samples = defaultdict(list)
        self.pass_seconds = defaultdict(lambda: defaultdict(float))
        self.pass_points = defaultdict(int)
        self.attempted = 0
        self.failures: list[str] = []
        self.env = child_env()
        self._child_files = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextlib.contextmanager
    def traced(self, unit: str):
        """Tracing on around one in-process unit, under a root span naming it."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.installed(), self.tracer.span(f"bench.{unit}"):
                yield

    def run_cli(self, argv):
        """One CLI subprocess; returns (exit code, stdout, stderr, seconds)."""
        trace_file = None
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        else:
            self._child_files += 1
            trace_file = OUT / f"child-{os.getpid()}-{self._child_files}.npz"
            cmd = [sys.executable, str(BENCH / "tracecli.py"), str(trace_file), *argv]
        span = self.tracer.span("bench.cli_call") if self.tracer else contextlib.nullcontext()
        with span as idx:
            start = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            seconds = perf_counter() - start
        if trace_file is not None and trace_file.exists():
            self.tracer.absorb(trace_file, idx)
            trace_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr, seconds


# ---------------------------------------------------------------------------
# seeded inputs


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def ordered_pair(draw):
    while True:
        a, b = sorted((draw(), draw()))
        if a < b:
            return a, b


def axis_range(rng, axis: str, omega_ref: float):
    """Seeded (start, stop, scale) for a sweep over one axis."""
    if axis == "bath.r":
        return (*ordered_pair(lambda: rng.uniform(0.0, R_RANGE[1])), "linear")
    if axis == "temperature":
        return (*ordered_pair(lambda: log_uniform(rng, *TEMPERATURE_RANGE_K)), "log")
    if axis.endswith("power"):
        return (*ordered_pair(lambda: log_uniform(rng, *POWER_RANGE_W)), "log")
    return (*ordered_pair(lambda: omega_ref * rng.uniform(*OMEGA_M_FACTOR_RANGE)), "linear")


def sweep_specs(rng, points: int):
    """One seeded closed-form sweep over each of the five axes."""
    from squeezelink import config, sweep

    base = config.resolve_system(
        r_override=rng.uniform(*R_RANGE),
        temperature_override=log_uniform(rng, *TEMPERATURE_RANGE_K),
    )
    symmetric = ("mirror-duan-adiabatic", "mirror-duan-nonadiabatic", "field-duan")
    # sweeping one unit's drive or frequency makes the units differ, so
    # only the asymmetric closed form applies there
    axes = [("bath.r", rng.choice(symmetric)), ("temperature", rng.choice(symmetric)),
            ("unit1.power", "mirror-duan-adiabatic"), ("unit2.power", "mirror-duan-adiabatic"),
            ("unit2.mirror.omega_M", "mirror-duan-adiabatic")]
    specs = []
    for axis, quantity in axes:
        lo, hi, scale = axis_range(rng, axis, base.unit2.mirror.omega_M)
        specs.append(sweep.SweepSpec(base=base, axis=axis, start=lo, stop=hi, count=points,
                                     scale=scale, quantity=quantity))
    return specs


def cli_overrides(rng):
    return ["--r", repr(rng.uniform(*R_RANGE)),
            "--temperature-uk", repr(log_uniform(rng, *TEMPERATURE_RANGE_K) * 1e6)]


def resolved(argv):
    """The system the CLI resolves from --r / --temperature-uk."""
    from squeezelink import config

    r = float(argv[argv.index("--r") + 1])
    t_uk = float(argv[argv.index("--temperature-uk") + 1])
    return config.resolve_system(r_override=r, temperature_override=t_uk * 1e-6)


def key_values(stdout: str) -> dict:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def expect_duan(argv):
    """Reference for `duan`: the same library call on the same resolved system."""
    from squeezelink import model, oracle, sweep

    system = resolved(argv)
    regime = argv[argv.index("--regime") + 1] if "--regime" in argv else "adiabatic"
    pair = argv[argv.index("--pair") + 1] if "--pair" in argv else "mirror"
    if pair == "mirror":
        quantity = {"adiabatic": "mirror-duan-adiabatic",
                    "nonadiabatic": "mirror-duan-nonadiabatic",
                    "oracle": "oracle-duan"}[regime]
        result, _, _ = sweep.evaluate_quantity(system, quantity)
    elif regime == "oracle":
        steady = tuple(model.mean_fields_from_effective_detuning(u, -u.mirror.omega_M)
                       for u in (system.unit1, system.unit2))
        dd = oracle.build_rwa_drift_diffusion(system, steady)
        result = oracle.duan_from_covariance(oracle.solve_lyapunov(dd), "field")
    else:
        result, _, _ = sweep.evaluate_quantity(system, "field-duan")
    want = fmt(result.total)
    return lambda out: key_values(out).get("total") == want


def expect_threshold(argv):
    from squeezelink import closedform, model

    system = resolved(argv)
    unit, r = system.unit1, system.bath.r
    temperature = unit.mirror.temperature
    n_th = model.thermal_occupation(unit.mirror.omega_M, temperature)
    want = {"C_min": fmt(closedform.threshold_cooperativity(r, n_th)),
            "P_min_W": fmt(closedform.minimum_power(unit, r, temperature))}
    return lambda out: all(key_values(out).get(k) == v for k, v in want.items())


def expect_sweep(spec):
    from squeezelink import sweep

    want = [f"{fmt(row.axis_value)},{fmt(row.total)}" for row in sweep.run_sweep(spec)]

    def verify(out):
        rows = [line for line in out.splitlines() if line and not line.startswith("#")][1:]
        return [",".join(row.split(",")[:2]) for row in rows] == want

    return verify


def sweep_command(rng, axis, quantity):
    """A short `sweep --axis` call and its in-process reference."""
    from squeezelink import sweep

    argv = cli_overrides(rng)
    base = resolved(argv)
    lo, hi, scale = axis_range(rng, axis, base.unit2.mirror.omega_M)
    count = 10
    spec = sweep.SweepSpec(base=base, axis=axis, start=lo, stop=hi, count=count,
                           scale=scale, quantity=quantity)
    argv = ["sweep", "--axis", axis, "--range", f"{lo!r}:{hi!r}:{count}:{scale}",
            "--quantity", quantity, *argv]
    return argv, expect_sweep(spec)


def cli_commands(run: Run):
    """Seeded CLI calls of the workload, each with a check of its output."""
    rng, n = run.rng, run.plan["cli_calls"]
    if run.workload == "cli":
        # a fixed mix, so that every seed pays the same share of oracle calls
        kinds = [
            ["duan"], ["duan", "--regime", "nonadiabatic"], ["duan", "--pair", "field"],
            ["duan", "--regime", "oracle"], ["duan", "--regime", "oracle", "--pair", "field"],
            ["threshold"], ["sweep"],
        ]
        picks = [kinds[i % len(kinds)] for i in range(n)]
        rng.shuffle(picks)
        commands = []
        for kind in picks:
            if kind == ["sweep"]:
                commands.append(sweep_command(
                    rng, rng.choice(("bath.r", "temperature")),
                    rng.choice(("mirror-duan-adiabatic", "mirror-duan-nonadiabatic",
                                "field-duan"))))
                continue
            argv = kind + cli_overrides(rng)
            expect = expect_threshold if kind == ["threshold"] else expect_duan
            commands.append((argv, expect(argv)))
        return commands

    if run.workload == "figures":
        digests = figure_digests()
        # the two optimizer figures and both axis kinds come first, so a
        # short plan still has them
        jobs = [("figure", "fig5b"), ("figure", "fig6b"), ("axis", "unit2.power"),
                ("figure", "fig2"), ("figure", "fig3"), ("axis", "unit2.mirror.omega_M"),
                ("figure", "fig5a"), ("figure", "fig6a"), ("figure", "fig4"),
                ("figure", "fig8"), ("figure", "fig9")]
        jobs = [jobs[i % len(jobs)] for i in range(n)]
        rng.shuffle(jobs)
        commands = []
        for kind, name in jobs:
            if kind == "figure":
                want = digests[name]
                commands.append((["sweep", "--figure", name],
                                 lambda out, want=want: sha256(out) == want))
            else:
                commands.append(sweep_command(rng, name, "mirror-duan-adiabatic"))
        return commands

    from squeezelink import selfcheck

    light = [name for name in selfcheck.ALL_CHECKS if name not in HEAVY_CHECKS]
    names = [light[i % len(light)] for i in range(n)]
    rng.shuffle(names)
    return [(["selfcheck", "--only", name],
             lambda out, name=name: f"PASS {name} " in out and "1/1 checks passed" in out)
            for name in names]


# ---------------------------------------------------------------------------
# measured parts


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def figure_digests() -> dict:
    with open(BENCH / "figure_sha256.json") as fh:
        return json.load(fh)["sha256"]


def guarded(run: Run, what: str, fn, *args):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # a crash is a failed operation, not a lost run
        run.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


def setup_unit(run: Run):
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          env=run.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    run.samples["setup_s"].append(perf_counter() - start)
    run.check(proc.returncode == 0, f"setup exit {proc.returncode}")


def cli_unit(run: Run, argv, verify):
    code, out, err, seconds = run.run_cli(argv)
    run.samples["cli_call_s"].append(seconds)
    run.check(code == 0 and verify(out),
              f"cli {' '.join(argv)}: exit {code} or output differs from the library "
              f"({err.strip()[-200:]})")


def figure_unit(run: Run, index: int, fig: str, digests: dict):
    from squeezelink import cli

    with run.traced("figure"):
        start = perf_counter()
        text = cli.render_figure_csv(fig)
        seconds = perf_counter() - start
    if index >= 0:
        run.pass_seconds["figures_s"][index] += seconds
    run.check(sha256(text) == digests[fig], f"figure {fig}: CSV hash differs from the seed's")


def check_unit(run: Run, index: int, name: str):
    from squeezelink import selfcheck

    with run.traced("check"):
        start = perf_counter()
        results = selfcheck.run_checks(only=[name])
        seconds = perf_counter() - start
    if index >= 0:
        run.pass_seconds["selfcheck_s"][index] += seconds
    run.check(len(results) == 1 and results[0].passed,
              f"selfcheck {name}: {[r.summary() for r in results]}")


def sweep_unit(run: Run, index: int, spec):
    from squeezelink import sweep

    with run.traced("sweep"):
        start = perf_counter()
        rows = sweep.run_sweep(spec)
        seconds = perf_counter() - start
    run.pass_seconds["sweep_s"][index] += seconds
    run.pass_points[index] += len(rows)
    bad = [row for row in rows
           if row.error is not None or not (math.isfinite(row.total) and row.total > 0)]
    run.check(not bad and len(rows) == spec.count,
              f"sweep {spec.axis} {spec.quantity}: {len(bad)} bad rows"
              + (f", first: {bad[0].error}" if bad else ""))


def schedule(run: Run, commands, digests):
    """Every measured unit of the run, in the order to run them.

    The machine's speed drifts over a few seconds, so a pass run in one
    block samples one moment of it. Instead each pass is split into units
    (one figure, one check, one sweep) and item c of pass j out of P
    passes of C items runs at (c + (j + 0.5) / P) / C of the way through
    the run: every pass, and every kind of call, is spread over the whole
    run. A pass's time is the sum of its units.
    """
    from squeezelink import selfcheck

    units = []

    def place(order, items, passes, make):
        for j in range(passes):
            for c, item in enumerate(items):
                units.append(((c + (j + 0.5) / passes) / len(items), order, make(j, item)))

    if run.tracer is None:
        place(0, [None], SETUP_SAMPLES, lambda j, _: (setup_unit, run))
    place(1, [None], len(commands), lambda j, _: (cli_unit, run, *commands[j]))
    place(2, FIGURES, run.plan["figure_passes"],
          lambda j, fig: (figure_unit, run, j, fig, digests))
    place(3, list(selfcheck.ALL_CHECKS), run.plan["selfcheck_passes"],
          lambda j, name: (check_unit, run, j, name))
    specs = [sweep_specs(run.rng, run.plan["sweep_points"])
             for _ in range(run.plan["sweep_passes"])]
    place(4, range(len(specs[0])), len(specs),
          lambda j, c: (sweep_unit, run, j, specs[j][c]))
    units.sort(key=lambda unit: unit[:2])
    return [unit[2] for unit in units]


def run_workload(run: Run):
    digests = figure_digests()
    commands = cli_commands(run)
    # untimed warm-up through both in-process entry points, for any lazy
    # import or first-call set-up; the cheapest figure and check suffice
    guarded(run, "figure fig4", figure_unit, run, -1, "fig4", digests)
    guarded(run, "selfcheck threshold", check_unit, run, -1, "threshold")
    for fn, *args in schedule(run, commands, digests):
        guarded(run, fn.__name__, fn, *args)
    for key in ("figures_s", "selfcheck_s"):
        run.samples[key] = [run.pass_seconds[key][j] for j in sorted(run.pass_seconds[key])]
    run.samples["sweep_points_per_s"] = [
        run.pass_points[j] / run.pass_seconds["sweep_s"][j] for j in sorted(run.pass_points)]


# ---------------------------------------------------------------------------
# traced-run extras


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of squeezelink and of scipy.integrate.

    When scipy loads ``scipy.integrate`` through its lazy ``__getattr__``,
    ``-X importtime`` prints the submodules but no line for the package
    itself, so its time is the sum of its outermost ``scipy.integrate.*``
    lines (its own ``__init__`` body, well under a millisecond, is lost).
    """
    total, integrate = 0.0, []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not (line.startswith("import time:") and len(parts) == 3
                and parts[1].strip().isdigit()):
            continue
        seconds = int(parts[1]) * 1e-6
        name = parts[2].rstrip()[1:]
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "squeezelink":
            total = seconds
        elif name == "scipy.integrate" or name.startswith("scipy.integrate."):
            integrate.append((depth, seconds))
    top = min((depth for depth, _ in integrate), default=0)
    return {"import.total_s": total,
            "import.scipy_integrate_s": sum(s for depth, s in integrate if depth == top)}


def import_times(run: Run, samples: int = 3) -> dict:
    """Median of the `-X importtime` figures over fresh interpreters."""
    found = defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import squeezelink"],
                              capture_output=True, text=True, env=run.env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        run.check(proc.returncode == 0, f"importtime exit {proc.returncode}")
        for key, value in parse_importtime(proc.stderr).items():
            found[key].append(value)
    return {key: statistics.median(values) for key, values in found.items()}


def tracing_overhead(run: Run, rounds: int = 2) -> dict:
    """Traced minus untraced wall time of the workload's main operation."""
    from squeezelink import cli, selfcheck

    if run.workload == "cli":
        argv = ["duan", "--regime", "oracle"]
        plain_run, traced_run = (Run(run.workload, run.seed, 30, trace) for trace in (False, True))
        untraced = lambda: plain_run.run_cli(argv)[3]  # noqa: E731
        traced = lambda: traced_run.run_cli(argv)[3]  # noqa: E731
    else:
        def untraced():
            start = perf_counter()
            if run.workload == "figures":
                for fig in FIGURES:
                    cli.render_figure_csv(fig)
            else:
                selfcheck.run_checks()
            return perf_counter() - start

        def traced():
            with Tracer().installed():
                return untraced()

    plain, wrapped = [], []
    for _ in range(rounds):
        plain.append(untraced())
        wrapped.append(traced())
    base = statistics.median(plain)
    extra = statistics.median(wrapped) - base
    return {"trace.overhead_s": extra, "trace.overhead_ratio": extra / base}


# ---------------------------------------------------------------------------
# facts and output


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy version
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # else git would look in the directories above
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, cwd=ROOT, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    s = run.samples
    cli_p50, cli_tail, tail_pct = median_and_tail(s["cli_call_s"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "cli_call_p50_s": (cli_p50, "s"),
        "cli_call_tail_s": (cli_tail, "s"),
        "figures_s": (statistics.median(s["figures_s"]), "s"),
        "sweep_points_per_s": (statistics.median(s["sweep_points_per_s"]), "1/s"),
        "selfcheck_s": (statistics.median(s["selfcheck_s"]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(s['setup_s'])} fresh interpreters",
        "cli_call_p50_s": f"median of {len(s['cli_call_s'])} CLI calls",
        "cli_call_tail_s": f"p{tail_pct:.0f} of {len(s['cli_call_s'])} CLI calls",
        "figures_s": f"median of {len(s['figures_s'])} warm passes over the 9 figures, "
                     f"max {max(s['figures_s']):.4f} s",
        "sweep_points_per_s": f"median of {len(s['sweep_points_per_s'])} passes "
                              f"of 5 sweeps x {run.plan['sweep_points']} points",
        "selfcheck_s": f"median of {len(s['selfcheck_s'])} warm passes over every check, "
                       f"max {max(s['selfcheck_s']):.4f} s",
        "peak_rss_mb": "benchmark process, ru_maxrss",
    }
    lines = [f"{name} = {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def per_layer(run: Run, extras: dict) -> tuple[dict, list[str]]:
    from squeezelink import selfcheck

    values = run.tracer.layer_metrics(list(selfcheck.ALL_CHECKS)) | extras
    units = {"_s": "s", "ratio": "1", "lu_flops": "flop"}
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program():
    """Import squeezelink from this checkout's src/, or exit without a result."""
    if not (SRC / "squeezelink" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'squeezelink'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import squeezelink
    import squeezelink.cli  # noqa: F401  # loads every module the tracer wraps

    if Path(squeezelink.__file__).resolve().parent != SRC / "squeezelink":
        sys.exit(f"bench: imported squeezelink from {squeezelink.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    started = time.time()

    run_workload(run)

    if args.trace:
        extras = import_times(run) | tracing_overhead(run)
        metrics, lines = per_layer(run, extras)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        run.tracer.save(spans)
        lines.append(f"spans: {len(run.tracer.span_name)} written to {spans.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(run)

    failed = len(run.failures)
    facts = machine_facts()
    lines.append(f"error_rate = {failed / max(run.attempted, 1):.6g} "
                 f"({failed} failed of {run.attempted} operations)")
    lines += [f"failure: {what}" for what in run.failures[:20]]
    lines.append(f"plan: {run.plan}")
    lines.append("machine: " + json.dumps(facts))
    for line in lines:
        print(line)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": started, "wall_s": time.time() - started,
              "plan": run.plan, "samples": run.samples, "failures": run.failures,
              "machine": facts, "result": result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
