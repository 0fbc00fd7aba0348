"""Every CLI output of the corpus, replayed in process (see ``cli_corpus.py``)."""

import json
import subprocess
import sys

import pytest

import cli_corpus
from squeezelink import oracle


def test_every_cli_output_equals_the_corpus():
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    moved = []
    with cli_corpus.config_files(corpus["configs"]) as configs:
        for want in corpus["entries"]:
            got = cli_corpus.entry(want["argv"], configs)
            if got != want:
                moved.append((want, got))
    assert not moved, (f"{len(moved)} of {len(corpus['entries'])} entries moved; first:\n"
                       f"want {moved[0][0]}\ngot  {moved[0][1]}")


def test_no_cli_route_takes_the_shims(monkeypatch):
    # the one-system shims are a reference alone: with them stubbed out, every
    # oracle `duan` and oracle sweep entry still gives its pinned bytes
    def stub(*args, **kwargs):
        raise AssertionError("shim taken")

    for name in ("build_rwa_drift_diffusion", "solve_lyapunov", "duan_from_covariance"):
        monkeypatch.setattr(oracle, name, stub)
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    entries = [want for want in corpus["entries"]
               if (want["argv"][0] == "duan" and "oracle" in want["argv"])
               or "oracle-duan" in want["argv"]]
    assert {want["argv"][0] for want in entries} == {"duan", "sweep"}
    with cli_corpus.config_files(corpus["configs"]) as configs:
        assert [cli_corpus.entry(want["argv"], configs) for want in entries] == entries


@pytest.mark.parametrize("argv", [
    ["threshold"],
    ["selfcheck", "--only", "separability"],
    ["selfcheck", "--only", "lyapunov"],
], ids=" ".join)
def test_module_entry_point_runs_clean_with_warnings_as_errors(argv):
    # the corpus runs in process, after other tests have imported what they
    # need; this runs the -m entry point in a new interpreter, so each seeded
    # check's first import of its random module runs under warnings as errors
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m",
                           "squeezelink.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    if argv[0] == "threshold":
        corpus = json.loads(cli_corpus.CORPUS.read_text())
        [want] = [want for want in corpus["entries"]
                  if want["argv"] == ["threshold", "--preset", "fig2-text"]]
        assert proc.stdout == want["stdout"]
    else:
        assert proc.stdout.startswith(f"PASS {argv[2]} "), proc.stdout
        assert proc.stdout.endswith("1/1 checks passed\n"), proc.stdout
