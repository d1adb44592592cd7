"""Golden CLI corpus: fixed invocations and their exact stdout, stderr and exit code.

Every entry of data/cli_corpus.json was recorded through cli.run. The corpus
covers every subcommand, JSON and --plain output, each subcommand's --help
(the last entries, identical on 3.10 to 3.13), and the domain-error paths
(non-square input, a modulus given to an integer command, bad moduli, cap
overrides, a composite prime, the identity as witness target), plus --cap as
a usage error where nothing is enumerated. enumerate --count-only pins
|SL_2(Z/30)|, a modulus of three prime factors, |SL_3(Z/4)| and |SL_4(Z/2)|.
Matrices after `--` pin, among others, a 4x4 word over Z and the words and
lifts of a 2x2 and a 3x3 matrix over Z/12. Two orders at n = 16 and n = 20
(a sample of infinite order with |tr| <= n, and a conjugated permutation of
order 105) pin answers that need the characteristic polynomial. Four inputs
pin the range of exact factoring and primality: the index mod the prime
10^18 + 3 and a witness-p at it (NotInGamma) answer, while a product of two
primes next to 10^12 (past the rho budget) and the prime 2^89 - 1 (past
psi_13, where 13 Miller-Rabin bases stop proving primality) are BadModulus;
a witness-p at depth one in Gamma(10^18 + 3) answers without factoring again.
At those last two moduli the 2x2 decompose and lift answer, as their word
never factors N.
enumerate and spectrum at n = 2000 are refused at once, the size named as
2^4000000 rather than printed in full, and phi at depth k = 10^9 answers at
once: the identity's image is zero, and any other matrix is refused with the
level named as 2^1000000000.
A change that moves any byte of it changes the CLI's contract. The CLI wraps
usage text at a fixed width and names the subcommands by one placeholder, so
the usage errors replay the same bytes at any terminal width and on every
supported Python version.
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
