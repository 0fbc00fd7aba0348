"""Command-line front end: duan, sweep, threshold and selfcheck subcommands.

Exit codes: 0 success, 1 failed selfcheck, 2 config parse failure, an
unwritable ``--out`` path or ``threshold`` on units that differ, 3
unstable/degenerate operating point, float overflow or an optimized
figure whose optimum lies at the edge of its search bracket, 4 too many
failed sweep points.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, closedform, config, model, selfcheck, sweep
from .closedform import DegenerateSqueeze
from .config import ConfigError
from .model import UnstableDrift

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_SWEEP_ERRORS = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_lines(rows) -> list[str]:
    """Each row as a CSV line, every cell as :func:`_fmt` writes it.

    The rows share the cell types of the first, so one '%'-template writes them all:
    '%.12g' per float cell, which is format(x, '.12g') for every double, '%s' per other.
    """
    first = rows[0] if rows else ()
    template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in first)
    flags = [isinstance(v, bool) for v in first]
    if any(flags):  # a bool cell goes in as its true/false text
        rows = [tuple([_fmt(v) if flag else v for v, flag in zip(row, flags)]) for row in rows]
    return [template % row for row in rows]


def _metadata_lines(meta: dict) -> list[str]:
    lines = [f"# squeezelink {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key} = {_fmt(meta[key])}")
    return lines


def render_rows_csv(header: Sequence[str], rows, meta: dict) -> str:
    """Deterministic CSV: '#' metadata, one header row, 12 significant digits."""
    out = _metadata_lines(meta)
    out.append(",".join(header))
    out += _csv_lines(rows)
    return "\n".join(out) + "\n"


def render_figure_csv(fig_id: str, base=None, preset: str = "fig2-text") -> str:
    ds = sweep.figure_dataset(fig_id, base=base)
    meta = dict(ds.metadata)
    meta["figure"] = fig_id
    meta["preset"] = preset
    header = [f"{ds.axis_name}_{ds.axis_unit}"] + list(ds.columns)
    return render_rows_csv(header, ds.rows, meta)


def _resolve(args) -> model.SystemParams:
    return config.resolve_system(
        config_path=args.config,
        preset=args.preset,
        r_override=args.r,
        temperature_override=(
            args.temperature_uk * 1e-6 if args.temperature_uk is not None else None
        ),
    )


def _add_config_args(parser):
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="INI config file with unit-suffixed keys")
    parser.add_argument("--preset", default="fig2-text",
                        help="named preset for defaults (fig2-text, fig2-caption, fig3)")
    parser.add_argument("--r", type=float, default=None,
                        help="override the squeeze parameter")
    parser.add_argument("--temperature-uk", type=float, default=None,
                        help="override both mirror bath temperatures (microkelvin)")


def cmd_duan(args, out) -> int:
    system = _resolve(args)
    try:
        result, c1, c2 = sweep.evaluate(system, args.pair, args.regime)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for key, value in (
        ("pair", args.pair),
        ("regime", args.regime),
        ("r", system.bath.r),
        ("C1", c1),
        ("C2", c2),
        ("var_X", result.var_X),
        ("var_Y", result.var_Y),
        ("total", result.total),
        ("entangled", result.entangled),
    ):
        print(f"{key} = {_fmt(value)}", file=out)
    return EXIT_OK


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"--range must be MIN:MAX:COUNT[:linear|:log], got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --range {text!r}: {exc}") from exc
    scale = "linear"
    if len(parts) == 4:
        if parts[3] not in ("linear", "log"):
            raise ConfigError(f"bad --range scale {parts[3]!r}: use linear or log")
        scale = parts[3]
    return lo, hi, count, scale


def cmd_sweep(args, out) -> int:
    if (args.figure is None) == (args.axis is None):
        raise ConfigError("sweep needs exactly one of --figure or --axis")
    if args.max_errors < 0:
        raise ConfigError(f"--max-errors must be >= 0, got {args.max_errors}")

    if args.figure is not None:
        for flag, value in (("--range", args.range), ("--quantity", args.quantity)):
            if value is not None:
                raise ConfigError(f"{flag} applies to --axis sweeps, not to --figure")
        try:
            text = render_figure_csv(args.figure, base=_resolve(args), preset=args.preset)
        except sweep.UnknownFigure as exc:
            raise ConfigError(f"unknown figure {exc.args[0]!r}") from exc
        _emit(text, args.out, out)
        return EXIT_OK

    if args.range is None:
        raise ConfigError("--axis sweeps need --range MIN:MAX:COUNT[:linear|:log]")
    lo, hi, count, scale = _parse_range(args.range)
    quantity = args.quantity or "mirror-duan-adiabatic"
    base = _resolve(args)
    try:
        spec = sweep.SweepSpec(
            base=base, axis=args.axis,
            start=lo, stop=hi, count=count, scale=scale, quantity=quantity,
        )
        rows = sweep.run_sweep(spec)  # raises only for a bad grid; points fail as rows
    except model.UnknownPath as exc:
        raise ConfigError(f"bad --axis {args.axis!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad --range {args.range!r}: {exc}") from exc
    failures = [row for row in rows if row.error is not None]
    meta = {
        "preset": args.preset, "axis": args.axis, "quantity": quantity,
        "range": args.range,
    }
    lines = _metadata_lines(meta)
    lines.append(f"{args.axis},total,var_X,var_Y,entangled,C1,C2")
    lines += [line if row.error is None
              else f"# error at {args.axis}={_fmt(row.axis_value)}: {row.error}"
              for row, line in zip(rows, _csv_lines([row[:-1] for row in rows]))]
    _emit("\n".join(lines) + "\n", args.out, out)
    if len(failures) > args.max_errors:
        print(
            f"sweep: {len(failures)} grid points failed (max allowed {args.max_errors})",
            file=sys.stderr,
        )
        return EXIT_SWEEP_ERRORS
    return EXIT_OK


def _emit(text: str, path: Optional[str], out):
    if path is None:
        out.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def cmd_threshold(args, out) -> int:
    system = _resolve(args)
    inputs = [(*vars(u.resonator).values(), *vars(u.mirror).values())
              for u in (system.unit1, system.unit2)]
    if not sweep._identical(*inputs, max):
        raise ConfigError("the thresholds assume identical units; unit 2 differs from unit 1")
    unit = system.unit1
    r = system.bath.r
    temperature = unit.mirror.temperature
    n_th = model.thermal_occupation(unit.mirror.omega_M, temperature)
    # exits 3 at r = 0, in a cold bath too: without squeezing the total is 2 at every C
    c_min = closedform.threshold_cooperativity(r, n_th)
    lines = {"r": r, "n_th": n_th, "temperature_K": temperature}
    if args.quantity in ("cooperativity", "both"):
        lines["C_min"] = c_min
    if args.quantity in ("power", "both"):
        if n_th == 0:  # so r > 0, and C_min = 0 needs no drive
            lines["P_min_W"] = 0.0
        else:
            p_min = closedform.minimum_power(unit, r, temperature)
            p_diag = closedform.diagnostic_minimum_power(unit, r, temperature)
            lines["P_min_W"] = p_min
            lines["P_min_diagnostic_W"] = p_diag
            lines["diagnostic_ratio"] = p_diag / p_min
    for key, value in lines.items():
        print(f"{key} = {_fmt(value)}", file=out)
    return EXIT_OK


def cmd_selfcheck(args, out) -> int:
    only = args.only if args.only else None
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise ConfigError(f"--tolerance must be >= 0 and finite, got {args.tolerance!r}")
    try:
        results = selfcheck.run_checks(only=only, tolerance=args.tolerance)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    for result in results:
        print(result.summary(), file=out)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed", file=out)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelink",
        description="Entanglement transfer from squeezed light to mechanical motion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_duan = subs.add_parser("duan", help="single-point entanglement verdict")
    _add_config_args(p_duan)
    p_duan.add_argument("--regime", choices=("adiabatic", "nonadiabatic", "oracle"),
                        default="adiabatic")
    p_duan.add_argument("--pair", choices=("mirror", "field"), default="mirror")
    p_duan.set_defaults(func=cmd_duan)

    p_sweep = subs.add_parser("sweep", help="parameter sweep or figure dataset as CSV")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--figure", default=None,
                         help="figure dataset id (fig2, fig3, fig4, fig5a, fig5b, "
                              "fig6a, fig6b, fig8, fig9)")
    p_sweep.add_argument("--axis", default=None,
                         help="parameter path, e.g. unit2.power or bath.r")
    p_sweep.add_argument("--range", default=None, help="MIN:MAX:COUNT[:linear|:log]")
    p_sweep.add_argument("--quantity", choices=sweep.QUANTITIES, default=None,
                         help="--axis sweeps only (default mirror-duan-adiabatic)")
    p_sweep.add_argument("--out", default=None, help="write CSV to file instead of stdout")
    p_sweep.add_argument("--max-errors", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    p_thr = subs.add_parser("threshold", help="entanglement thresholds")
    _add_config_args(p_thr)
    p_thr.add_argument("--quantity", choices=("cooperativity", "power", "both"),
                       default="both")
    p_thr.set_defaults(func=cmd_threshold)

    p_check = subs.add_parser("selfcheck", help="run the cross-validation suite")
    p_check.add_argument("--only", action="append", default=[],
                         metavar="CHECK", help="run only the named check (repeatable)")
    p_check.add_argument("--tolerance", type=float, default=None,
                         help="override each check's tolerance")
    p_check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableDrift, DegenerateSqueeze, sweep.BracketFailure, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
