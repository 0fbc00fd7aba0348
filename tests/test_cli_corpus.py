"""Every CLI output of the corpus, replayed in process (see ``cli_corpus.py``)."""

import hashlib
import json

import cli_corpus


def test_every_cli_output_equals_the_corpus():
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    moved = []
    with cli_corpus.config_files(corpus["configs"]) as configs:
        for want in corpus["entries"]:
            code, out, err = cli_corpus.run(want["argv"], configs)
            got = {"argv": want["argv"], "exit": code, "stderr": err}
            # an entry without its stdout is one whose bytes depend on the BLAS
            # and LAPACK build, such as the lyapunov check's max_err (see
            # cli_corpus.portable)
            if "stdout" in want:
                got["stdout"] = out
            if "stdout_sha256" in want:
                got["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
            if got != want:
                moved.append((want, got))
    assert not moved, (f"{len(moved)} of {len(corpus['entries'])} entries moved; first:\n"
                       f"want {moved[0][0]}\ngot  {moved[0][1]}")
