"""Command-line front end. One JSON document per invocation on stdout.

Exit codes: 0 success, 2 domain error (one machine-parsable "Name: reason"
line on stderr), 1 internal failure. A reader that closes stdout early
(`| head -1`) is not a failure: the rest of the output is dropped silently
and the command's own code is returned. Integers have no size limit in
either direction: for the duration of a call, run() lifts CPython's limit
on int<->str conversion (4300 digits by default), so a 5000-digit matrix
entry parses and |SL_120(Z/2)| prints exactly, and then restores the
caller's limit. --plain switches to human-readable output. --cap overrides
the enumeration cap, which bounds both enumerate and spectrum, so only they
accept it; on any other subcommand it is a usage error (exit 2).
Usage and help text wrap at 78 columns whatever the terminal's width, and
the subcommands show in usage as one short "command" placeholder, so that
no Python version splits the line differently: the same argv gives the same
bytes. The one exception is the top-level --help, whose column of
subcommand help is aligned by argparse in a way that follows the Python
version (3.13 sets it two columns wider than 3.10-3.12). Each subcommand is
one entry of the _COMMANDS table. Start-up is part of every call's cost, so
this module imports just errors, and each handler imports what it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import CongruenceLabError, CounterexampleFound, ParseError

__all__ = ["run", "main"]

_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


# Each argument is (name, add_argument options), stated once for every subcommand that takes it.
_MATRIX = ("matrix", {})
_ANY_MATRIX = ("matrix", {"help": 'matrix text, e.g. "0,-1;1,0" or "0,1;1,1 mod 2"'})
_MOD = ("--mod", {"type": int, "required": True, "metavar": "N"})
_N = ("--n", {"type": int, "required": True})
_K = ("--k", {"type": int, "required": True})
_PRIME = ("--prime", {"type": int, "required": True})
_CAP = ("--cap", {"type": int, "default": None, "help": "enumeration cap override"})
_COUNT_ONLY = ("--count-only", {"action": "store_true"})
_QUICK = ("--quick", {"action": "store_true"})
_SEED = ("--seed", {"type": int, "default": 0})


def _int_matrix(text: str):
    from .intmat import IntMatrix
    return IntMatrix.from_text(text)


# Each handler imports what it runs and returns (exit_code, json_payload, plain_text).
def _decompose(args):
    from .modular import ModMatrix
    from .words import decompose_int, decompose_mod
    m = args.matrix
    word = decompose_mod(ModMatrix.from_text(m)) if "mod" in m else decompose_int(_int_matrix(m))
    text = word.to_text()
    return 0, {"word": text, "n": word.n, "length": len(word)}, text


def _lift(args):
    from .modular import ModMatrix
    from .words import lift_to_int
    lifted = lift_to_int(ModMatrix(_int_matrix(args.matrix).rows, args.mod))
    return 0, {"matrix": lifted.to_text(), "mod": args.mod}, lifted.to_text()


def _level(args):
    from .gamma import gamma_level
    lvl = gamma_level(_int_matrix(args.matrix))
    return 0, {"level": "infinite" if lvl == 0 else lvl}, "infinite" if lvl == 0 else str(lvl)


def _member(args):
    from .gamma import gamma_member
    ok = gamma_member(_int_matrix(args.matrix), args.mod)
    return 0, {"member": ok}, "yes" if ok else "no"


def _index(args):
    from .modular import sl_order_formula
    value = sl_order_formula(args.n, args.mod)
    return 0, value, str(value)


def _enumerate(args):
    from .modular import enumerate_sl
    matrices = enumerate_sl(args.n, args.mod, cap=args.cap)
    if args.count_only:
        return 0, {"count": len(matrices)}, str(len(matrices))
    texts = [m.to_text() for m in matrices]
    return 0, {"count": len(texts), "matrices": texts}, "\n".join(texts)


def _order(args):
    from .torsion import matrix_order
    result = matrix_order(_int_matrix(args.matrix))
    if result.is_finite:
        return 0, {"kind": "finite", "value": result.value}, f"finite {result.value}"
    return 0, {"kind": "infinite"}, "infinite"


def _spectrum(args):
    from .torsion import mod_spectrum
    orders = sorted(mod_spectrum(args.n, args.mod, cap=args.cap))
    return 0, {"orders": orders}, " ".join(map(str, orders))


def _phi(args):
    from .witnesses import phi_k
    image = phi_k(_int_matrix(args.matrix), args.prime, args.k)
    return 0, {"prime": args.prime, "k": args.k, "image": image.to_text()}, image.to_text()


def _witness(args):
    from .witnesses import witness_p, witness_rf
    m = _int_matrix(args.matrix)
    payload = (witness_p(m, args.prime) if args.command == "witness-p" else witness_rf(m)).to_json()
    return 0, payload, "\n".join(f"{key}: {value}" for key, value in payload.items())


def _selfcheck(args):
    from .selfcheck import run_selfcheck
    report = run_selfcheck(quick=args.quick, seed=args.seed)
    lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']:<34} {c['detail']}" for c in report["checks"]]
    lines.append(f"{report['passed']} passed, {report['failed']} failed ({report['mode']} mode)")
    return (0 if report["failed"] == 0 else 1), report, "\n".join(lines)


# name -> (help, arguments in usage order, handler); --help lists them in this order.
_COMMANDS = {
    "decompose": ("elementary word for a matrix over Z or Z/N", [_ANY_MATRIX], _decompose),
    "lift": ("integer matrix of det 1 reducing to the input mod N", [_MATRIX, _MOD], _lift),
    "level": ("exact congruence level of a matrix", [_MATRIX], _level),
    "member": ("membership in Gamma(N)", [_MATRIX, _MOD], _member),
    "index": ("index of Gamma(N), i.e. |SL_n(Z/N)|", [_N, _MOD], _index),
    "enumerate": ("all of SL_n(Z/N), sorted by entries", [_CAP, _N, _MOD, _COUNT_ONLY], _enumerate),
    "order": ("exact multiplicative order in SL_n(Z)", [_MATRIX], _order),
    "spectrum": ("element orders of SL_n(Z/N)", [_CAP, _N, _MOD], _spectrum),
    "phi": ("depth-map image of a Gamma(p^k) element in sl_n(Z/p)", [_MATRIX, _PRIME, _K], _phi),
    "witness-rf": ("finite quotient separating a matrix from 1", [_MATRIX], _witness),
    "witness-p": ("p-group quotient separating a Gamma(p) element from 1", [_MATRIX, _PRIME], _witness),
    "selfcheck": ("run the built-in invariant suite", [_QUICK, _SEED], _selfcheck),
}


def build_parser() -> argparse.ArgumentParser:
    # Fixed width, or add_argument's formatter imports shutil to read the terminal size.
    common = argparse.ArgumentParser(add_help=False, formatter_class=_FORMATTER)
    common.add_argument("--plain", action="store_true", help="human-readable output instead of JSON")

    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact computations in SL_n(Z) and its congruence quotients.",
        formatter_class=_FORMATTER,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (summary, arguments, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary, parents=[common], formatter_class=_FORMATTER)
        for arg, options in arguments:
            sub.add_argument(arg, **options)
    return parser


def _dispatch(args) -> tuple[int, object, str]:
    """Returns (exit_code, json_payload, plain_text)."""
    if getattr(args, "n", None) is not None and args.n < 1:
        raise ParseError("--n must be >= 1")
    if getattr(args, "k", None) is not None and args.k < 1:
        raise ParseError("--k must be >= 1")
    return _COMMANDS[args.command][2](args)


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help, or a usage error
        return _emit(None, e.code if isinstance(e.code, int) else 2)
    try:
        code, payload, plain = _dispatch(args)
    except CongruenceLabError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except CounterexampleFound as e:
        print(f"CounterexampleFound: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - internal failure guard
        print(f"InternalError: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return _emit(plain if args.plain else json.dumps(payload), code)


def _emit(text: str | None, code: int) -> int:
    """Print text, if any, and flush; a reader that has gone away is not an error."""
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # fail again (the pattern of the `signal` module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())
