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


def test_the_corpus_file_is_the_generators():
    # the replay walks the file alone; a file that the generator no longer
    # writes would go unnoticed there
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    assert [want["argv"] for want in corpus["entries"]] == cli_corpus.argvs()
    assert corpus["configs"] == cli_corpus.CONFIGS


def test_the_tool_lists_each_entry_that_moved():
    old = [{"argv": ["duan"], "exit": 0, "stdout": "r = 1\ntotal = 0.5\n", "stderr": ""},
           {"argv": ["selfcheck"], "exit": 0, "stdout_sha256": "8fb6cd50ab", "stderr": ""},
           {"argv": ["threshold"], "exit": 0, "stdout": "C = 1\n", "stderr": ""}]
    new = [{"argv": ["duan"], "exit": 3, "stdout": "r = 1\n", "stderr": "error: lost\n"},
           {"argv": ["selfcheck"], "exit": 0, "stdout_sha256": "e1bb20fdcd", "stderr": ""},
           {"argv": ["sweep", "--figure", "fig2"], "exit": 0, "stdout_sha256": "00",
            "stderr": ""}]
    assert cli_corpus.moves(old, new) == [
        "threshold: dropped",
        "duan: exit 0 → 3; stdout 'total = 0.5' → ''; stderr '' → 'error: lost\\n'",
        "selfcheck: stdout_sha256 '8fb6cd50' → 'e1bb20fd'",
        "sweep --figure fig2: added",
    ]
    assert cli_corpus.moves(new, new) == []


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
