"""Cold start: what a fresh interpreter loads for the package and each subcommand.

Each test runs a child `python -B -I -S` (no site-packages, no environment,
and no bytecode written into src: -I ignores PYTHONDONTWRITEBYTECODE) with
src on sys.path, the way the CLI starts. For one corpus entry of each
subcommand that answers, the child must replay the entry byte for byte
while loading only that subcommand's modules, and never dataclasses,
inspect, typing or shutil, nor argparse, gettext, locale or json: cli reads
a well-formed argv from its own table and writes the JSON itself. Only the
subcommands that sample load random. A usage error and a --help still
replay their entries through argparse, which they load. A cold,
per-subcommand load order can expose an import cycle that the in-process
corpus, which runs after everything is imported, never meets. The package
itself loads no submodule until a public name is used, and then binds all
of them at once: bench/tracer.py swaps hooks by identity over
vars(package), so a name bound later would keep a tracer's wrapper. A
submodule imported by name, `from congruence_lab import cli`, binds nothing
and loads only what that submodule imports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import congruence_lab
from congruence_lab.cli import build_parser

SRC = str(Path(__file__).resolve().parent.parent / "src")
CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())

# Stated here rather than derived from the imports, so that a new import shows up as a diff.
_PRIMES = {"cli", "errors", "primes"}
_MOD = _PRIMES | {"intmat", "modular"}
_GAMMA = {"cli", "errors", "gamma", "intmat"}
LOADS = {
    "decompose": _PRIMES | {"intmat", "words"},
    "lift": _PRIMES | {"intmat", "words"},
    "level": _GAMMA,
    "member": _GAMMA,
    "index": _PRIMES,
    "enumerate": _MOD,
    "order": _MOD | {"torsion"},
    "spectrum": _MOD | {"torsion"},
    "phi": _GAMMA | {"primes", "witnesses"},
    "witness-rf": _GAMMA | {"primes", "witnesses"},
    "witness-p": _GAMMA | {"primes", "witnesses"},
    "selfcheck": _MOD | {"gamma", "selfcheck", "torsion", "witnesses", "words"},
}
# dataclasses imports inspect and ast; shutil (with bz2 and lzma) is what argparse
# imports to measure a terminal when a parser has no fixed width.
HEAVY = ("dataclasses", "inspect", "typing", "shutil")
# What parsing with argparse and writing with json would load; a call that answers needs none.
PARSING = ("argparse", "gettext", "locale", "json")
# random (with bisect and _sha512) is imported inside the samplers, which only selfcheck runs.
SAMPLES = {"selfcheck"}

# The child runs BODY, which sets `code`, then writes the names of the
# modules it had loaded, as JSON, to the file named by its second argument.
_CHILD = """import sys
sys.path.insert(0, sys.argv[1])
{body}
loaded = sorted(sys.modules)
import json
with open(sys.argv[2], "w") as f:
    json.dump(loaded, f)
raise SystemExit(code)
"""


def _child(tmp_path, body: str, *args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    report = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _CHILD.format(body=body), SRC, str(report), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, set(json.loads(report.read_text()))


def _ours(modules: set[str]) -> set[str]:
    return {m.rpartition(".")[2] for m in modules if m.startswith("congruence_lab.")}


# The first entry of each subcommand that exits 0, so that it runs the subcommand's branch.
FIRST_OK = {c["argv"][0]: c for c in reversed(CORPUS) if c["code"] == 0}


def test_every_subcommand_has_a_load_table_entry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(LOADS) == set(FIRST_OK) == set(sub.choices)


@pytest.mark.parametrize("command", sorted(LOADS))
def test_cold_subcommand_loads_only_its_modules(command, tmp_path):
    case = FIRST_OK[command]
    body = "from congruence_lab.cli import run\ncode = run(sys.argv[3:])"
    proc, modules = _child(tmp_path, body, *case["argv"])
    assert (proc.stdout, proc.stderr, proc.returncode) == (case["stdout"], case["stderr"], case["code"])
    assert _ours(modules) == LOADS[command]
    assert not modules & {*HEAVY, *PARSING}
    assert ("random" in modules) == (command in SAMPLES)


# The first usage error and the first --help of the corpus.
ARGPARSE = [
    next(c for c in CORPUS if c["stderr"].startswith("usage:")),
    next(c for c in CORPUS if "--help" in c["argv"]),
]


@pytest.mark.parametrize("case", ARGPARSE, ids=[" ".join(c["argv"]) for c in ARGPARSE])
def test_cold_usage_error_and_help_load_argparse(case, tmp_path):
    body = "from congruence_lab.cli import run\ncode = run(sys.argv[3:])"
    proc, modules = _child(tmp_path, body, *case["argv"])
    assert (proc.stdout, proc.stderr, proc.returncode) == (case["stdout"], case["stderr"], case["code"])
    assert "argparse" in modules and "json" not in modules


def test_bare_import_loads_no_submodule(tmp_path):
    body = "import congruence_lab\nprint(congruence_lab.__version__)\ncode = 0"
    proc, modules = _child(tmp_path, body)
    assert proc.stdout == congruence_lab.__version__ + "\n", proc.stderr
    assert "congruence_lab" in modules and not _ours(modules)
    assert not modules & {*HEAVY, *PARSING, "random"}


def test_submodule_from_import_loads_only_that_submodule(tmp_path):
    body = """from congruence_lab import cli
print(cli.__name__, "IntMatrix" in vars(sys.modules["congruence_lab"]))
code = 0"""
    proc, modules = _child(tmp_path, body)
    assert proc.stdout == "congruence_lab.cli False\n", proc.stderr
    assert _ours(modules) == {"cli", "errors"}


def test_star_import_gives_the_public_names_as_defined(tmp_path):
    body = """ns = {}
exec("from congruence_lab import *", ns)
owner = {n: m for m, mod in sys.modules.items() if m.startswith("congruence_lab.")
         for n in getattr(mod, "__all__", ())}
print(sorted(n for n in ns if n != "__builtins__"))
print(all(ns[n] is getattr(sys.modules[owner[n]], n) for n in ns if n != "__builtins__"))
code = 0"""
    proc, _ = _child(tmp_path, body)
    assert proc.stdout == f"{congruence_lab.__all__}\nTrue\n", proc.stderr


def test_first_use_binds_every_public_name(tmp_path):
    body = """import congruence_lab as pkg
pkg.IntMatrix
bound = set(vars(pkg))
print(sorted(set(pkg.__all__) - bound), sorted(set(pkg.__all__) - set(dir(pkg))), len(pkg.__all__))
code = 0"""
    proc, _ = _child(tmp_path, body)
    assert proc.stdout == "[] [] 39\n", proc.stderr


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        congruence_lab.no_such_name
    with pytest.raises(AttributeError):
        congruence_lab.__no_such_dunder__
    assert not hasattr(congruence_lab, "ModMatrixx")
