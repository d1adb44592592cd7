"""Per-layer tracing done from outside the program.

Tracer.install() wraps the public functions and methods of every
congruence_lab module, plus the arithmetic dunders and __post_init__ of its
classes and the private helpers in PRIVATE, and rebinds every module-level
name that pointed at an original, so calls between modules go through the
wrappers too. uninstall() puts the originals back. src/ is never edited
and the CLI's stdout is unchanged.

Every wrapped call adds to a per-name counter and self time (its duration
minus the time of wrapped calls inside it), and to a count keyed by the
nearest enclosing span; the pairs in WITHIN also count calls made at any
depth inside a span. Only the names in SPANS, and the benchmark's ops,
also keep a full span (name, start, end, parent, op id); the hot leaves
(multiply, construct, det, ...) are counters only, so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import oracle

PACKAGE = "congruence_lab"

# Public name -> layer name used in metrics; anything else keeps module.qualname.
ALIASES = {
    "intmat.IntMatrix.__mul__": "intmat.mul",
    "intmat.IntMatrix.__pow__": "intmat.pow",
    "intmat.IntMatrix.__post_init__": "intmat.construct",
    "intmat.det_of_rows": "intmat.det",
    "intmat.parse_entries": "intmat.parse",
    "intmat.IntMatrix.to_text": "intmat.format",
    "modular.ModMatrix.__mul__": "modular.mul",
    "modular.ModMatrix.__pow__": "modular.pow",
    "modular.ModMatrix.__post_init__": "modular.construct",
    "modular.crt_combine": "modular.crt",
    "modular.crt_split": "modular.crt",
    "words.ElementaryWord.evaluate": "words.evaluate",
    "gamma.gamma_level": "gamma.level",
    "gamma.gamma_member": "gamma.member",
    "selfcheck.run_selfcheck": "selfcheck.quick",
    "torsion._element_order": "torsion.element_order",
}

# Private helpers wrapped as well, because a per-layer metric counts their calls.
PRIVATE = frozenset({"torsion._element_order"})

# Layer -> enclosing span: calls of the layer made anywhere inside that span
# (at any depth) are counted as "<layer>@<span>".
WITHIN = {
    "intmat.det": "modular.enumerate_sl",
    "modular.pow": "torsion.mod_spectrum",
}

# Op- and algorithm-level calls that keep full spans.
SPANS = frozenset(
    {
        "cli.run",
        "selfcheck.quick",
        "intmat.pow",
        "modular.enumerate_sl",
        "modular.sl_order_formula",
        "torsion.matrix_order",
        "torsion.mod_spectrum",
        "torsion.candidate_orders",
        "torsion.minkowski_probe",
        "words.decompose_int",
        "words.decompose_local",
        "words.decompose_mod",
        "words.lift_to_int",
        "gamma.level",
        "witnesses.phi_k",
        "witnesses.witness_rf",
        "witnesses.witness_p",
    }
)

_DUNDERS = ("__mul__", "__rmul__", "__add__", "__sub__", "__pow__", "__post_init__")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.by_parent: dict[tuple[str, str | None], int] = {}
        self.counters: dict[str, int] = {
            "modular.enumerate_sl.kept": 0,
            "torsion.mod_spectrum.group_elements": 0,
            "intmat.pow.max_entry_bits": 0,
            "words.gens": 0,
        }
        self.spans: list = []
        self.op_id = -1
        self._child: list[float] = []  # child seconds of each open wrapped call
        self._open: list[tuple[int, str]] = []  # open spans: (index, name)
        self._restore: list = []
        self.t0 = time.perf_counter()

    # ---------------------------------------------------------- install

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        return mods

    def install(self) -> None:
        mods = self._modules()
        wrapped: dict[int, object] = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and f"{short}.{attr}" not in PRIVATE:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(obj, short)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- calls

    def _wrap(self, fn, qualified: str):
        name = ALIASES.get(qualified, qualified)
        stat = self.stats.setdefault(name, [0, 0.0])
        span = name in SPANS
        post = _POST.get(name)
        scope = WITHIN.get(name)
        within_key = f"{name}@{scope}"
        counters = self.counters
        if scope is not None:
            counters.setdefault(within_key, 0)
        child, opened, spans, by_parent = self._child, self._open, self.spans, self.by_parent
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = opened[-1] if opened else (-1, None)
            key = (name, parent[1])
            by_parent[key] = by_parent.get(key, 0) + 1
            if scope is not None and any(n == scope for _, n in opened):
                counters[within_key] += 1
            if span:
                idx = len(spans)
                spans.append(None)
                opened.append((idx, name))
            child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                dt = end - start
                stat[0] += 1
                stat[1] += dt - child.pop()
                if child:
                    child[-1] += dt
                if span:
                    opened.pop()
                    spans[idx] = (name, start - tracer.t0, end - tracer.t0, parent[0], tracer.op_id)
            if post is not None:
                post(tracer, args, result, parent[1])
            return result

        return wrapper

    def op(self, op_id: int, name: str, call):
        """Run one benchmark op as a top-level span."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append((idx, name))
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start - self.t0, end - self.t0, -1, op_id)

    # ----------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def under(self, name: str, parent: str) -> int:
        """Calls of `name` whose nearest enclosing span is `parent`."""
        return self.by_parent.get((name, parent), 0)

    def within(self, name: str, span: str) -> int:
        """Calls of `name` made anywhere inside `span` (a pair in WITHIN)."""
        return self.counters.get(f"{name}@{span}", 0)

    def dump(self) -> dict:
        return {
            "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.stats.items()) if c},
            "by_parent": sorted([k[0], k[1], v] for k, v in self.by_parent.items()),
            "counters": dict(self.counters),
            "spans": self.spans,
        }


def _post_enumerate(tracer, args, result, parent):
    tracer.counters["modular.enumerate_sl.kept"] += len(result)


def _post_spectrum(tracer, args, result, parent):
    # The fixed base of pows_per_element: |SL_n(Z/N)| of the call, whatever
    # way the program finds the orders.
    tracer.counters["torsion.mod_spectrum.group_elements"] += oracle.sl_count(args[0], args[1])


def _post_pow(tracer, args, result, parent):
    bits = max(abs(e).bit_length() for r in result.rows for e in r)
    if bits > tracer.counters["intmat.pow.max_entry_bits"]:
        tracer.counters["intmat.pow.max_entry_bits"] = bits


def _post_word(tracer, args, result, parent):
    tracer.counters["words.gens"] += len(result.gens)


_POST = {
    "modular.enumerate_sl": _post_enumerate,
    "torsion.mod_spectrum": _post_spectrum,
    "intmat.pow": _post_pow,
    "words.decompose_int": _post_word,
    "words.decompose_mod": _post_word,
}
