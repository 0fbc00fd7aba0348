"""The CLI corpus: argv lists and the exit code, stdout and stderr that each gives.

``cli_corpus.json`` pins these outputs, and ``test_cli_corpus.py`` replays
every entry in process. Regenerate the file only when an output is meant to
change, and list each entry that moved (old -> new):

    PYTHONPATH=src python tests/cli_corpus.py

A ``duan`` or ``threshold`` entry holds its stdout as text; a ``sweep`` or
``selfcheck`` entry holds the SHA-256 of its stdout. An argv token
``{name}`` stands for the path of the config file ``name`` of ``CONFIGS``,
written to a fresh directory on each run. Every call runs with warnings as
errors, so that the corpus runs clean under ``python -X dev -W error``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")

#: config files the argv refer to by ``{name}``
CONFIGS = {
    # unit 2 differs in every rate that the routes read: G through the drive,
    # kappa, gamma and n_th through the bath temperature
    "mismatched.ini": ("[unit2]\ntemperature_uk = 500\npower_mw = 4\nkappa_hz = 300e3\n"
                       "gamma_hz = 200\n"),
    # both couplings G overflow to inf, which every route rejects at the unit gate
    "huge.ini": "[unit1]\npower_w = 1e300\n[unit2]\npower_w = 1e300\n",
}

PRESETS = ("fig2-text", "fig2-caption", "fig3")
R_VALUES = ("0.5", "1", "2", "3", "6.5", "8", "355")
ROUTES = [[*regime, *pair] for regime in ([], ["--regime", "nonadiabatic"],
                                          ["--regime", "oracle"])
          for pair in ([], ["--pair", "field"])]
#: the axes of the benchmark's sweeps, each with a range over which every
#: quantity has a value at every point
AXES = {
    "bath.r": "0:3:7",
    "temperature": "1e-6:1:7:log",
    "unit1.power": "1e-4:3e-2:7:log",
    "unit2.power": "1e-4:3e-2:7:log",
    "unit2.mirror.omega_M": "3e6:1.2e7:7",
}
QUANTITIES = ("mirror-duan-adiabatic", "mirror-duan-nonadiabatic", "field-duan",
              "oracle-duan")
FIGURES = ("fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig8", "fig9")


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in its order."""
    calls = []
    for preset in PRESETS:
        for r in R_VALUES:
            calls += [["duan", "--preset", preset, "--r", r, *route] for route in ROUTES]
        calls += [["threshold", "--preset", preset],
                  ["threshold", "--preset", preset, "--r", "2", "--temperature-uk", "250"]]
    for r in ("1", "2.5"):
        calls += [["duan", "--config", "{mismatched.ini}", "--r", r, *route] for route in ROUTES]
    calls += [["duan", "--config", "{huge.ini}", *route] for route in ROUTES]
    calls += [["duan", "--r", "0", *route] for route in ROUTES]
    calls += [["threshold", "--quantity", "cooperativity", "--temperature-uk", "0"],
              ["threshold", "--quantity", "power", "--r", "0.25"]]
    for axis, span in AXES.items():
        calls += [["sweep", "--axis", axis, "--range", span, "--quantity", quantity]
                  for quantity in QUANTITIES]
    calls += [["sweep", "--figure", fig, "--config", "{mismatched.ini}"] for fig in FIGURES]
    # the two searched figures at the default preset, and an oracle sweep over three
    # chunks of the stacked Lyapunov solve
    calls += [["sweep", "--figure", "fig5b"], ["sweep", "--figure", "fig6b"],
              ["sweep", "--axis", "bath.r", "--range=0:2:2100", "--quantity", "oracle-duan"]]
    calls += [
        ["sweep", "--axis", "unit2.power", "--range", "1e-4:3e-2:5:log",
         "--config", "{mismatched.ini}", "--quantity", "oracle-duan"],
        # error rows: allowed (exit 0), then too many (exit 4)
        ["sweep", "--axis", "bath.r", "--range=-1:1000:9", "--quantity", "oracle-duan",
         "--max-errors", "9"],
        ["sweep", "--axis", "bath.r", "--range=-1:1000:9"],
        ["sweep", "--axis", "bath.r", "--range", "0:20:5", "--max-errors", "3"],
        ["sweep", "--axis", "bath.r", "--range", "300:400:5", "--quantity",
         "mirror-duan-nonadiabatic", "--max-errors", "5"],
        ["selfcheck"],
        ["selfcheck", "--only", "lyapunov"],
        # one invalid input for each documented exit code but 0
        ["selfcheck", "--only", "thermal-occupation", "--tolerance", "0.05"],  # 1
        ["threshold", "--config", "{mismatched.ini}"],  # 2
        ["sweep", "--figure", "fig4", "--quantity", "oracle-duan"],  # 2
        ["sweep", "--axis", "unit3.power", "--range", "1:2:3"],  # 2
        ["duan", "--r", "30"],  # 3
        ["threshold", "--r", "0"],  # 3
        ["sweep", "--axis", "bath.r", "--range=-2:-1:3", "--max-errors", "2"],  # 4
        # a --range whose MIN is negative, as its own argument, and after an abbreviation
        ["sweep", "--axis", "bath.r", "--range", "-2:-1:3", "--max-errors", "2"],  # 4
        ["sweep", "--axis", "bath.r", "--rang", "-2:-1:3", "--max-errors", "2"],  # 4
    ]
    return calls


def pins_text(argv: list[str]) -> bool:
    """Whether an entry holds its stdout as text rather than as its SHA-256."""
    return argv[0] in ("duan", "threshold")


def run(argv: list[str], configs: dict[str, str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in process, warnings as errors;
    ``configs`` maps each ``{name}`` token to its path."""
    from squeezelink import cli

    argv = [configs.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str], configs: dict[str, str]) -> dict:
    """The corpus entry of ``argv``."""
    code, out, err = run(argv, configs)
    item = {"argv": argv, "exit": code}
    if pins_text(argv):
        item["stdout"] = out
    else:
        item["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    item["stderr"] = err
    return item


@contextlib.contextmanager
def config_files(texts: dict[str, str]):
    """``{name}`` token -> path of each config file of ``texts`` (name -> text), written
    to a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            paths[f"{{{name}}}"] = path
        yield paths


def main() -> int:
    with config_files(CONFIGS) as configs:
        entries = [entry(argv, configs) for argv in argvs()]
    CORPUS.write_text(json.dumps({"configs": CONFIGS, "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
