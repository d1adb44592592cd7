import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import congruence_lab
from congruence_lab import ElementaryWord, IntMatrix, ModMatrix, selfcheck
from congruence_lab.cli import _COMMANDS, _PLAIN, _dispatch, _json, _read_argv, build_parser, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index(capsys):
    code, out, _ = run_cli(capsys, "index", "--n", "2", "--mod", "2")
    assert code == 0
    assert out.strip() == "6"


def test_member(capsys):
    _, out, _ = run_cli(capsys, "member", "1,4;0,1", "--mod", "4")
    assert json.loads(out) == {"member": True}
    _, out, _ = run_cli(capsys, "member", "1,4;0,1", "--mod", "8")
    assert json.loads(out) == {"member": False}


def test_decompose_word_reevaluates(capsys):
    code, out, _ = run_cli(capsys, "decompose", "0,-1;1,0")
    assert code == 0
    doc = json.loads(out)
    word = ElementaryWord.from_text(doc["word"], n=doc["n"])
    assert word.evaluate() == IntMatrix.from_text("0,-1;1,0")
    assert doc["length"] == len(word)


def test_decompose_mod_word(capsys):
    code, out, _ = run_cli(capsys, "decompose", "0,1;1,1 mod 2")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"].endswith("| Z/2")
    word = ElementaryWord.from_text(doc["word"], n=doc["n"])
    assert word.evaluate() == ModMatrix.from_text("0,1;1,1 mod 2")


def test_lift(capsys):
    _, out, _ = run_cli(capsys, "lift", "0,1;4,0", "--mod", "5")
    doc = json.loads(out)
    lifted = IntMatrix.from_text(doc["matrix"])
    assert lifted.det() == 1
    assert ModMatrix(lifted.rows, 5) == ModMatrix(((0, 1), (4, 0)), 5)


def test_enumerate_count_only(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--mod", "3", "--count-only")
    assert json.loads(out) == {"count": 24}


def test_spectrum(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--mod", "3")
    assert json.loads(out) == {"orders": [1, 2, 3, 4, 6]}


def test_phi(capsys):
    _, out, _ = run_cli(capsys, "phi", "1,2;0,1", "--prime", "2", "--k", "1")
    assert json.loads(out) == {"prime": 2, "k": 1, "image": "0,1;0,0 mod 2"}


def test_domain_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "level", "2,0;0,1")
    assert code == 2 and out == ""
    assert err.startswith("NotUnimodular:")
    code, _, err = run_cli(capsys, "order", "nonsense")
    assert code == 2 and err.startswith("ParseError:")
    code, _, err = run_cli(capsys, "phi", "1,1;0,1", "--prime", "2", "--k", "1")
    assert code == 2 and err.startswith("NotInGamma:")
    code, _, err = run_cli(capsys, "enumerate", "--n", "3", "--mod", "12")
    assert code == 2 and err.startswith("CapExceeded:")
    code, _, err = run_cli(capsys, "witness-rf", "1,0;0,1")
    assert code == 2 and err.startswith("IdentityInput:")


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "enumerate", "--n", "2", "--mod", "2", "--cap", "10")
    assert code == 2 and err.startswith("CapExceeded:")
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--mod", "2", "--cap", "16", "--count-only")
    assert code == 0 and json.loads(out) == {"count": 6}
    # the flag is the only override: the environment is not read
    monkeypatch.setenv("CONGRUENCE_LAB_CAP", "10")
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--mod", "2", "--count-only")
    assert code == 0 and json.loads(out) == {"count": 6}


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_bad_flag_values_exit_2(capsys):
    code, _, err = run_cli(capsys, "phi", "1,2;0,1", "--prime", "2", "--k", "0")
    assert code == 2 and err.startswith("ParseError:")
    code, _, err = run_cli(capsys, "enumerate", "--n", "0", "--mod", "2")
    assert code == 2 and err.startswith("ParseError:")
    code, _, err = run_cli(capsys, "index", "--n", "2", "--mod", "0")
    assert code == 2 and err.startswith("BadModulus:")


def test_missing_required_flag_exits_2(capsys):
    assert run(["member", "1,0;0,1"]) == 2


def test_selfcheck_quick(capsys):
    t0 = time.time()
    code, out, _ = run_cli(capsys, "selfcheck", "--quick")
    elapsed = time.time() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "quick"
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"]) == 13
    assert elapsed < 30.0  # must fit comfortably inside the acceptance budget


def test_selfcheck_failure_is_reported(capsys, monkeypatch):
    checks = list(selfcheck._CHECKS)
    checks[3] = (checks[3][0], lambda quick, seed: (False, "forced failure"))
    monkeypatch.setattr(selfcheck, "_CHECKS", checks)
    report = selfcheck.run_selfcheck(quick=True)
    assert (report["passed"], report["failed"]) == (12, 1)
    code, out, _ = run_cli(capsys, "selfcheck", "--quick", "--plain")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL  {checks[3][0]:<34} forced failure"]
    assert out.splitlines()[-1] == "12 passed, 1 failed (quick mode)"


# Every subcommand but enumerate and spectrum, with arguments that succeed without --cap.
NO_CAP = [
    ["decompose", "0,-1;1,0"],
    ["lift", "0,1;4,0", "--mod", "5"],
    ["level", "1,2;0,1"],
    ["member", "1,4;0,1", "--mod", "4"],
    ["index", "--n", "2", "--mod", "3"],
    ["order", "0,-1;1,0"],
    ["phi", "1,2;0,1", "--prime", "2", "--k", "1"],
    ["witness-rf", "1,2;0,1"],
    ["witness-p", "1,2;0,1", "--prime", "2"],
    ["selfcheck", "--quick"],
]


@pytest.mark.parametrize("argv", NO_CAP, ids=[argv[0] for argv in NO_CAP])
def test_cap_is_a_usage_error_where_nothing_is_enumerated(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--cap", "1000")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --cap 1000" in err


# Every corpus argv (each subcommand's --help among them), and the argvs that name no command.
CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())
PARSES = [*{tuple(c["argv"]): None for c in CORPUS}, (), ("--help",), ("frobnicate",)]
# The corpus argvs that answer; each must take the table reader, not argparse.
ANSWERS = [c for c in CORPUS if c["code"] == 0 and "--help" not in c["argv"]]
# One parser for every parse below: parse_args leaves it as it found it.
PARSER = build_parser()


def parse_with_argparse(argv):
    """PARSER's namespace for argv as a dict, or its exit code; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit as e:
            return e.code


@pytest.mark.parametrize("argv", PARSES, ids=[" ".join(argv) or "no-argv" for argv in PARSES])
def test_narrowed_parser_parses_as_the_full_one(argv):
    # The table reader gives argparse's namespace or leaves the argv to
    # argparse, and every corpus argv that answers takes the reader.
    parsed = parse_with_argparse(list(argv))
    assert isinstance(parsed, int) or parsed["plain"] == ("--plain" in argv)
    read = _read_argv(list(argv))
    assert read is None or vars(read) == parsed
    assert read is not None or list(argv) not in [c["argv"] for c in ANSWERS]


_FLAGS = sorted({arg for _, arguments, _ in _COMMANDS.values() for arg, _ in arguments if arg[0] == "-"})
# Option values argparse reads as int, and what it reads otherwise or not at all.
_NUMBERS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.integers(0, 99).map(str),
    st.sampled_from(["-5", "+5", " 5", "5 ", "-0", "1_000", "0x1f", "\u0663", "\u00b2", "\uff15", "5.0"]),
)
_MATRICES = st.sampled_from(["0,-1;1,0", "1,2;0,1 mod 3", "-1,0;0,-1", "-1,0;0,-1 mod 3", "", "-", "-h"])
_TOKENS = st.one_of(
    st.sampled_from([*_COMMANDS, *_FLAGS, "--plain", "--", "-h", "--help", "--mo", "--pl", "--count", "--mod=5"]),
    _NUMBERS,
    _MATRICES,
    st.text(max_size=4),
)


@st.composite
def _calls(draw):
    """One command's arguments, each perhaps dropped, in any order, perhaps with a stray token."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    parts, last = [], []
    for arg, options in (_PLAIN, *_COMMANDS[command][1]):
        if arg[0] != "-":
            if draw(st.booleans()):
                parts.append([draw(_MATRICES)])
            else:
                last = ["--", draw(_MATRICES)]
        elif draw(st.integers(0, 7)):
            parts.append([arg, draw(_NUMBERS)] if "type" in options else [arg])
    argv = [token for part in draw(st.permutations(parts)) for token in part] + last
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    return [command, *argv]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_calls(), st.lists(_TOKENS, max_size=6)))
def test_table_reader_reads_as_argparse(argv):
    # The reader turns down what it cannot read plainly; what it reads, argparse reads the same.
    read = _read_argv(argv)
    if read is not None:
        assert vars(read) == parse_with_argparse(argv)


@pytest.mark.parametrize("case", [c for c in ANSWERS if "--plain" not in c["argv"]], ids=lambda c: " ".join(c["argv"]))
def test_json_writer_gives_the_corpus_bytes(case):
    _, payload, _ = _dispatch(_read_argv(case["argv"]))
    assert _json(payload) + "\n" == json.dumps(payload) + "\n" == case["stdout"]


# Any unicode; printable ASCII with the quote and backslash json.dumps escapes;
# and the escaped controls, DEL and characters past ASCII, printable or not.
_TEXT = st.one_of(st.text(), st.text('a ~/"\\'), st.text("a\n\t\x00\x1f\x7f\x80\xe9\u2028\U0001f600"))
_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(10**4300, 10**4400),  # past CPython's default limit on int to str
    st.booleans(),
    st.none(),
    st.floats(),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda members: st.one_of(
        st.lists(members, max_size=4),
        st.lists(members, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers(), st.booleans(), st.none()), members, max_size=4),
    ),
    max_leaves=12,
)


@settings(deadline=None)
@given(_VALUES)
def _json_as_json_dumps(value):
    assert _json(value) == json.dumps(value)


def test_json_writer_gives_the_bytes_of_json_dumps():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for the huge ints, and for hypothesis to print them
    try:
        _json_as_json_dumps()
    finally:
        sys.set_int_max_str_digits(limit)


def test_index_past_the_int_text_limit(capsys):
    expected = 1
    for i in range(120):
        expected *= 2**120 - 2**i
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "index", "--n", "120", "--mod", "2")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)  # to read the answer back here
    try:
        assert len(out.strip()) > 4300 and int(out) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_level_of_a_5000_digit_entry(capsys):
    limit = sys.get_int_max_str_digits()
    entry = "9" * 4999 + "7"
    code, out, _ = run_cli(capsys, "level", f"1,{entry};0,1")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert out.strip() == '{"level": ' + entry + "}"


def test_public_api_is_pinned():
    assert congruence_lab.__all__ == [
        "BadModulus", "CapExceeded", "CongruenceLabError", "CongruenceWitness",
        "CounterexampleFound", "DEFAULT_ENUMERATION_CAP", "DimensionMismatch",
        "ElementaryWord", "IdentityInput", "IntMatrix", "ModMatrix",
        "NotInGamma", "NotPrime", "NotUnimodular", "OrderResult", "ParseError",
        "TORSION_ORDER_4", "TORSION_ORDER_6", "TracelessMatrix", "decompose_int",
        "decompose_mod", "enumerate_sl", "gamma_level", "gamma_member", "lift_to_int",
        "matrix_order", "minkowski_probe", "mod_spectrum", "phi_general",
        "phi_general_preimage", "phi_k", "phi_preimage", "sample_gamma", "sample_sl",
        "sl_basis", "sl_elements", "sl_order_formula", "witness_p", "witness_rf",
    ]  # fmt: skip
    assert all(hasattr(congruence_lab, name) for name in congruence_lab.__all__)


def _child_env(unbuffered: bool) -> dict[str, str]:
    """The environment of a `python -m congruence_lab` child: src first on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        # 134,784 bytes, more than a 64 KiB pipe buffer: output lost at exit shows here.
        ["enumerate", "--n", "3", "--mod", "3", "--plain"],
        ["decompose", "1,2;3"],
        ["order", "0,-1;1,0", "--cap", "5"],
    ],
    ids=["enumerate", "domain-error", "usage-error"],
)
def test_module_entry_point(argv, unbuffered, capsysbinary):
    # main() flushes and ends the process without interpreter teardown; the
    # child must print the bytes and exit with the code of in-process run().
    code = run(argv)
    out, err = capsysbinary.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", *argv],
        capture_output=True,
        env=_child_env(unbuffered),
        timeout=60,
    )
    assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code)


# Each kind of call with the exit code it must end with: an answer, a domain
# error, a usage error and --help.
KINDS = [
    ("enumerate", ["enumerate", "--n", "2", "--mod", "5", "--plain"], 0),
    ("domain-error", ["decompose", "1,2;3"], 2),
    ("usage-error", ["order", "0,-1;1,0", "--cap", "5"], 2),
    ("help", ["--help"], 0),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, expected, closed",
    [
        pytest.param(argv, expected, closed, id=name if closed == "stdout" else f"{name}-closed-stderr")
        for name, argv, expected in KINDS
        for closed in ("stdout", "stderr")
    ],
)
def test_closed_stdout_is_not_a_failure(argv, expected, closed, unbuffered, capsysbinary):
    # The reader of stdout, or of stderr, is gone before the child writes, as
    # with `| head -1` once head has exited: that stream's output is dropped,
    # the other stream gets in-process run()'s bytes, and the code stands.
    code = run(argv)
    written = dict(zip(["stdout", "stderr"], capsysbinary.readouterr()))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "congruence_lab", *argv],
            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end},
            env=_child_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    other = "stderr" if closed == "stdout" else "stdout"
    assert proc.returncode == code == expected
    assert getattr(proc, other) == written[other]
