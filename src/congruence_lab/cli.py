"""Command-line front end. One JSON document per invocation on stdout.

Exit codes: 0 success, 2 domain error (one machine-parsable "Name: reason"
line on stderr), 1 internal failure. A reader that closes stdout early
(`| head -1`) is not a failure: the rest of the output is dropped silently
and the command's own code is returned. Integers have no size limit in
either direction: for the duration of a call, run() lifts CPython's limit
on int<->str conversion (4300 digits by default), so a 5000-digit matrix
entry parses and |SL_120(Z/2)| prints exactly, and then restores the
caller's limit. --plain switches to human-readable output. --cap overrides
the enumeration cap; only enumerate and spectrum enumerate, so only they
accept it, and on any other subcommand it is a usage error (exit 2).
Usage and help text wrap at 78 columns whatever the terminal's width, so
the same argv always gives the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import CongruenceLabError, CounterexampleFound, ParseError
from .gamma import gamma_level, gamma_member
from .intmat import IntMatrix
from .modular import ModMatrix, enumerate_sl, sl_order_formula
from .selfcheck import run_selfcheck
from .torsion import matrix_order, mod_spectrum
from .witnesses import phi_k, witness_p, witness_rf
from .words import decompose_int, decompose_mod, lift_to_int

__all__ = ["run", "main"]

def _any_matrix(text: str) -> IntMatrix | ModMatrix:
    return ModMatrix.from_text(text) if "mod" in text else IntMatrix.from_text(text)


_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plain", action="store_true", help="human-readable output instead of JSON")

    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact computations in SL_n(Z) and its congruence quotients.",
        formatter_class=_FORMATTER,
    )
    add = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser,
        parents=[common],
        formatter_class=_FORMATTER,
    )

    p = add("decompose", help="elementary word for a matrix over Z or Z/N")
    p.add_argument("matrix", help='matrix text, e.g. "0,-1;1,0" or "0,1;1,1 mod 2"')

    p = add("lift", help="integer matrix of det 1 reducing to the input mod N")
    p.add_argument("matrix")
    p.add_argument("--mod", type=int, required=True, metavar="N")

    p = add("level", help="exact congruence level of a matrix")
    p.add_argument("matrix")

    p = add("member", help="membership in Gamma(N)")
    p.add_argument("matrix")
    p.add_argument("--mod", type=int, required=True, metavar="N")

    p = add("index", help="index of Gamma(N), i.e. |SL_n(Z/N)|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=int, required=True, metavar="N")

    p = add("enumerate", help="all of SL_n(Z/N), sorted by entries")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=int, required=True, metavar="N")
    p.add_argument("--count-only", action="store_true")

    p = add("order", help="exact multiplicative order in SL_n(Z)")
    p.add_argument("matrix")

    p = add("spectrum", help="element orders of SL_n(Z/N)")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=int, required=True, metavar="N")

    p = add("phi", help="depth-map image of a Gamma(p^k) element in sl_n(Z/p)")
    p.add_argument("matrix")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("witness-rf", help="finite quotient separating a matrix from 1")
    p.add_argument("matrix")

    p = add("witness-p", help="p-group quotient separating a Gamma(p) element from 1")
    p.add_argument("matrix")
    p.add_argument("--prime", type=int, required=True)

    p = add("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _dispatch(args) -> tuple[int, object, str]:
    """Returns (exit_code, json_payload, plain_text)."""
    cmd = args.command
    if getattr(args, "n", None) is not None and args.n < 1:
        raise ParseError("--n must be >= 1")
    if getattr(args, "k", None) is not None and args.k < 1:
        raise ParseError("--k must be >= 1")

    if cmd == "decompose":
        m = _any_matrix(args.matrix)
        word = decompose_mod(m) if isinstance(m, ModMatrix) else decompose_int(m)
        text = word.to_text()
        return 0, {"word": text, "n": word.n, "length": len(word)}, text

    if cmd == "lift":
        y = ModMatrix(IntMatrix.from_text(args.matrix).rows, args.mod)
        lifted = lift_to_int(y)
        return 0, {"matrix": lifted.to_text(), "mod": args.mod}, lifted.to_text()

    if cmd == "level":
        lvl = gamma_level(IntMatrix.from_text(args.matrix))
        payload = {"level": "infinite" if lvl == 0 else lvl}
        return 0, payload, "infinite" if lvl == 0 else str(lvl)

    if cmd == "member":
        ok = gamma_member(IntMatrix.from_text(args.matrix), args.mod)
        return 0, {"member": ok}, "yes" if ok else "no"

    if cmd == "index":
        value = sl_order_formula(args.n, args.mod)
        return 0, value, str(value)

    if cmd == "enumerate":
        matrices = enumerate_sl(args.n, args.mod, cap=args.cap)
        if args.count_only:
            return 0, {"count": len(matrices)}, str(len(matrices))
        texts = [m.to_text() for m in matrices]
        return 0, {"count": len(texts), "matrices": texts}, "\n".join(texts)

    if cmd == "order":
        result = matrix_order(IntMatrix.from_text(args.matrix))
        if result.is_finite:
            return 0, {"kind": "finite", "value": result.value}, f"finite {result.value}"
        return 0, {"kind": "infinite"}, "infinite"

    if cmd == "spectrum":
        orders = sorted(mod_spectrum(args.n, args.mod, cap=args.cap))
        return 0, {"orders": orders}, " ".join(map(str, orders))

    if cmd == "phi":
        image = phi_k(IntMatrix.from_text(args.matrix), args.prime, args.k)
        payload = {"prime": args.prime, "k": args.k, "image": image.to_text()}
        return 0, payload, image.to_text()

    if cmd == "witness-rf":
        w = witness_rf(IntMatrix.from_text(args.matrix))
        return 0, w.to_json(), _plain_witness(w)

    if cmd == "witness-p":
        w = witness_p(IntMatrix.from_text(args.matrix), args.prime)
        return 0, w.to_json(), _plain_witness(w)

    if cmd == "selfcheck":
        report = run_selfcheck(quick=args.quick, seed=args.seed)
        lines = [
            f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']:<34} {c['detail']}"
            for c in report["checks"]
        ]
        lines.append(f"{report['passed']} passed, {report['failed']} failed ({report['mode']} mode)")
        return (0 if report["failed"] == 0 else 1), report, "\n".join(lines)

    raise AssertionError(f"unhandled command {cmd}")


def _plain_witness(w) -> str:
    return "\n".join(f"{key}: {value}" for key, value in w.to_json().items())


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
