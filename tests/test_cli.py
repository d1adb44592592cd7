import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import congruence_lab
from congruence_lab import ElementaryWord, IntMatrix, ModMatrix, selfcheck
from congruence_lab.cli import run


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", "index", "--n", "2", "--mod", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "24"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["enumerate", "--n", "2", "--mod", "5", "--plain"], ["--help"]], ids=["enumerate", "help"]
)
def test_closed_stdout_is_not_a_failure(argv, unbuffered):
    # The reader is gone before the child writes, as with `| head -1` once
    # head has exited: the output is dropped and the command's code stands.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "congruence_lab", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
