"""Command-line front end. One JSON document per invocation on stdout.

Exit codes: 0 success, 2 domain error (one machine-parsable "Name: reason"
line on stderr), 1 internal failure. A reader that closes stdout early
(`| head -1`), or stderr, is not a failure: the rest of that stream's
output is dropped silently and the command's own code is returned.
Integers have no size limit in either direction: for the duration of a
call, run() lifts CPython's limit on int<->str conversion (4300 digits by
default), so a 5000-digit matrix entry parses and |SL_120(Z/2)| prints
exactly, and then restores the caller's limit. --plain switches to
human-readable output. --cap overrides the enumeration cap, which bounds
both enumerate and spectrum, so only they accept it; on any other
subcommand it is a usage error (exit 2).
Usage and help text wrap at 78 columns whatever the terminal's width, and
the subcommands show in usage as one short "command" placeholder, so that
no Python version splits the line differently: the same argv gives the same
bytes. The one exception is the top-level --help, whose column of
subcommand help is aligned by argparse in a way that follows the Python
version (3.13 sets it two columns wider than 3.10-3.12). Each subcommand is
one entry of the _COMMANDS table. Start-up is part of every call's cost, so
this module imports just errors and each handler imports what it runs. A
plainly well-formed argv (a command, then its options named in full with
unsigned decimal values, its positionals, and at most one "--" before them)
is read straight from the _COMMANDS table, and a JSON payload of str, int,
bool, list and dict is written by _json, which gives json.dumps's bytes.
argparse loads only for what that reader turns down (help, usage errors,
abbreviated or "--opt=value" options, signed numbers); json loads only for a
payload _json does not write itself. What argparse prints is held back and
written by _emit, so a closed stdout or stderr cannot change the exit code.

main(), the process entry of `python -m congruence_lab` and of the
congruence-lab script, flushes stdout and stderr and then ends the process
with os._exit: no module teardown, no freeing of objects, no atexit
handlers. A process about to exit needs none of it, and it took about 9 ms
of every cold call (60-140 ms on Python 3.11, 2-CPU Linux); 7 of them are
spent by a bare `python -c pass` too, mostly on what `site` loaded. So
`coverage run -m congruence_lab` records nothing for a CLI child.
In-process callers use run(), which returns the exit code.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import CongruenceLabError, CounterexampleFound, ParseError

__all__ = ["run", "main"]

# Each argument is (name, add_argument options), stated once for every subcommand that takes it.
_PLAIN = ("--plain", {"action": "store_true", "help": "human-readable output instead of JSON"})
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
    from .intmat import ModMatrix
    from .words import decompose_int, decompose_mod
    m = args.matrix
    word = decompose_mod(ModMatrix.from_text(m)) if "mod" in m else decompose_int(_int_matrix(m))
    text = word.to_text()
    return 0, {"word": text, "n": word.n, "length": len(word)}, text


def _lift(args):
    from .intmat import ModMatrix
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
    from .primes import sl_order_formula
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


def build_parser():
    """The argparse parser of the _COMMANDS table, for what _read_argv turns down."""
    import argparse
    import functools

    # Fixed width, or add_argument's formatter imports shutil to read the terminal size.
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact computations in SL_n(Z) and its congruence quotients.",
        formatter_class=formatter,
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (summary, arguments, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary, formatter_class=formatter)
        for arg, options in (_PLAIN, *arguments):
            sub.add_argument(arg, **options)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """parse_args's namespace for a plainly well-formed call, else None.

    Plainly well-formed: argv[0] names a command; every option is one of its
    own, named in full, and an int option's value is ASCII digits, so int()
    reads it as argparse does; no other token starts with "-" except one
    "--", which a positional must follow; and the positionals are exactly
    as many as the command takes. Anything else (-h, --mo, --mod=5, --k -1,
    a stray token, a missing required option) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    options, names = {}, []
    for arg, spec in (_PLAIN, *_COMMANDS[argv[0]][1]):
        if arg[0] != "-":
            names.append(arg)
            continue
        dest = arg[2:].replace("-", "_")
        options[arg] = dest, "type" in spec
        if not spec.get("required"):
            values[dest] = spec.get("default", False)  # store_true's default is False
    tokens, given = iter(argv[1:]), []
    for token in tokens:
        if token == "--":
            rest = list(tokens)  # every token after "--" is positional
            if not rest or "--" in rest:
                return None
            given += rest
        elif token[:1] != "-":
            given.append(token)
        elif token not in options:
            return None
        elif options[token][1]:
            value = next(tokens, "")
            if not (value.isascii() and value.isdigit()):
                return None
            values[options[token][0]] = int(value)
        else:
            values[options[token][0]] = True
    if len(given) != len(names) or len(values) != len(options) + 1:
        return None  # a positional too many or too few, or a required option missing
    values.update(zip(names, given))
    return SimpleNamespace(**values)


def _parse(argv: list[str]):
    """build_parser().parse_args(argv), or the exit code once --help or a usage error is written."""
    import io

    # argparse writes to sys.stdout and sys.stderr: hold the text back for _emit,
    # which alone can tell a closed stdout from a closed stderr.
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = held = io.StringIO(), io.StringIO()
    try:
        return build_parser().parse_args(argv)
    except SystemExit as e:  # --help, or a usage error
        code = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout, sys.stderr = streams
    return _emit(code, held[0].getvalue(), held[1].getvalue())


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
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _parse(argv)
    if isinstance(args, int):
        return args
    try:
        code, payload, plain = _dispatch(args)
    except CongruenceLabError as e:
        return _emit(2, err=f"{type(e).__name__}: {e}\n")
    except CounterexampleFound as e:
        return _emit(1, err=f"CounterexampleFound: {e}\n")
    except Exception as e:  # pragma: no cover - internal failure guard
        return _emit(1, err=f"InternalError: {type(e).__name__}: {e}\n")
    return _emit(code, (plain if args.plain else _json(payload)) + "\n")


def _json(value) -> str:
    """json.dumps(value), written here for the types the handlers return.

    The default encoder joins a container's members' texts with ", " and
    ": ", so writing members here and handing any other value to json.dumps
    gives its bytes. A str is written as is only if json.dumps would leave
    every character alone: printable ASCII with no quote or backslash.
    """
    kind = type(value)
    if kind is str and value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return f'"{value}"'
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        return f"[{', '.join(map(_json, value))}]"
    if kind is dict and all(type(key) is str for key in value):
        return "{" + ", ".join(f"{_json(key)}: {_json(member)}" for key, member in value.items()) + "}"
    import json

    return json.dumps(value)


def _emit(code: int, out: str = "", err: str = "") -> int:
    """Write out to stdout and err to stderr, flushing each; a reader that has gone away is not an error."""
    for stream, text in (sys.stdout, out), (sys.stderr, err):
        try:
            stream.write(text)
            stream.flush()
        except BrokenPipeError:
            # Point the stream at devnull so that no later flush, main's or at exit, can
            # fail again (the pattern of the `signal` module's documentation).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    return code


def main() -> None:
    """Process entry: run(), flush, then end without interpreter teardown."""
    code = run()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
