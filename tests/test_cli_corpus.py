"""Golden CLI corpus: fixed invocations and their exact stdout, stderr and exit code.

Every entry of data/cli_corpus.json was recorded through cli.run. The corpus
covers every subcommand, JSON and --plain output, and the domain-error paths
(non-square input, a modulus given to an integer command, bad moduli, cap
overrides, a composite prime, the identity as witness target), plus --cap as
a usage error where nothing is enumerated. A change that moves any byte of it
changes the CLI's contract. The CLI wraps usage text at a fixed width, so the
usage errors replay the same bytes at any terminal width.
"""

import json
from pathlib import Path

import pytest

from congruence_lab.cli import run

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())
USAGE_ERRORS = [c for c in CORPUS if c["stderr"].startswith("usage:")]


def _replay(case, capsys):
    code = run(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["code"])


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_output_is_byte_identical(case, capsys):
    _replay(case, capsys)


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("case", USAGE_ERRORS, ids=[" ".join(c["argv"]) for c in USAGE_ERRORS])
def test_usage_errors_ignore_the_terminal_width(case, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    _replay(case, capsys)


def test_corpus_covers_every_subcommand():
    from congruence_lab.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {c["argv"][0] for c in CORPUS} == set(sub.choices)
