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
Usage and help text wrap at 78 columns whatever the terminal's width, and
the subcommands show in usage as one short "command" placeholder, so that
no Python version splits the line differently: the same argv gives the same
bytes. The one exception is the top-level --help, whose column of
subcommand help is aligned by argparse in a way that follows the Python
version (3.13 sets it two columns wider than 3.10-3.12). Start-up is part of
every call's cost, so a subcommand imports only the modules it runs: this
module imports just errors, and each branch of _dispatch imports the rest.
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


def build_parser() -> argparse.ArgumentParser:
    # Fixed width, or add_argument's formatter imports shutil to read the terminal size.
    common = argparse.ArgumentParser(add_help=False, formatter_class=_FORMATTER)
    common.add_argument("--plain", action="store_true", help="human-readable output instead of JSON")

    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact computations in SL_n(Z) and its congruence quotients.",
        formatter_class=_FORMATTER,
    )
    add = functools.partial(
        parser.add_subparsers(dest="command", metavar="command", required=True).add_parser,
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
        from .modular import ModMatrix
        from .words import decompose_int, decompose_mod
        m = args.matrix
        word = decompose_mod(ModMatrix.from_text(m)) if "mod" in m else decompose_int(_int_matrix(m))
        text = word.to_text()
        return 0, {"word": text, "n": word.n, "length": len(word)}, text

    if cmd == "lift":
        from .modular import ModMatrix
        from .words import lift_to_int
        lifted = lift_to_int(ModMatrix(_int_matrix(args.matrix).rows, args.mod))
        return 0, {"matrix": lifted.to_text(), "mod": args.mod}, lifted.to_text()

    if cmd == "level":
        from .gamma import gamma_level
        lvl = gamma_level(_int_matrix(args.matrix))
        payload = {"level": "infinite" if lvl == 0 else lvl}
        return 0, payload, "infinite" if lvl == 0 else str(lvl)

    if cmd == "member":
        from .gamma import gamma_member
        ok = gamma_member(_int_matrix(args.matrix), args.mod)
        return 0, {"member": ok}, "yes" if ok else "no"

    if cmd == "index":
        from .modular import sl_order_formula
        value = sl_order_formula(args.n, args.mod)
        return 0, value, str(value)

    if cmd == "enumerate":
        from .modular import enumerate_sl
        matrices = enumerate_sl(args.n, args.mod, cap=args.cap)
        if args.count_only:
            return 0, {"count": len(matrices)}, str(len(matrices))
        texts = [m.to_text() for m in matrices]
        return 0, {"count": len(texts), "matrices": texts}, "\n".join(texts)

    if cmd == "order":
        from .torsion import matrix_order
        result = matrix_order(_int_matrix(args.matrix))
        if result.is_finite:
            return 0, {"kind": "finite", "value": result.value}, f"finite {result.value}"
        return 0, {"kind": "infinite"}, "infinite"

    if cmd == "spectrum":
        from .torsion import mod_spectrum
        orders = sorted(mod_spectrum(args.n, args.mod, cap=args.cap))
        return 0, {"orders": orders}, " ".join(map(str, orders))

    if cmd == "phi":
        from .witnesses import phi_k
        image = phi_k(_int_matrix(args.matrix), args.prime, args.k)
        payload = {"prime": args.prime, "k": args.k, "image": image.to_text()}
        return 0, payload, image.to_text()

    if cmd == "witness-rf":
        from .witnesses import witness_rf
        w = witness_rf(_int_matrix(args.matrix))
        return 0, w.to_json(), _plain_witness(w)

    if cmd == "witness-p":
        from .witnesses import witness_p
        w = witness_p(_int_matrix(args.matrix), args.prime)
        return 0, w.to_json(), _plain_witness(w)

    if cmd == "selfcheck":
        from .selfcheck import run_selfcheck
        report = run_selfcheck(quick=args.quick, seed=args.seed)
        lines = [
            f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']:<34} {c['detail']}"
            for c in report["checks"]
        ]
        lines.append(f"{report['passed']} passed, {report['failed']} failed ({report['mode']} mode)")
        return (0 if report["failed"] == 0 else 1), report, "\n".join(lines)

    raise AssertionError(f"unhandled command {cmd}")


def _int_matrix(text: str):
    from .intmat import IntMatrix
    return IntMatrix.from_text(text)


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
