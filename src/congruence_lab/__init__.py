"""congruence-lab: exact computations in SL_n(Z) and its congruence quotients.

Everything is computed over plain Python integers (no floating point, no
fixed-width overflow). The toolkit covers elementary-matrix decomposition
over Z and Z/N, lifting mod-N matrices to integer matrices of determinant 1,
principal congruence subgroup levels and indices, exact torsion orders and
spectra, and explicit finite-quotient witnesses that separate matrices from
the identity.

Importing the package is free until a name is used: it imports no submodule
(PEP 562). The first use of a public name, or of __all__, imports the modules
below and binds every public name at once, each the same object as in its
module; from then on they are plain module attributes. A submodule name, as
in `from congruence_lab import cli`, imports that submodule alone.
"""

__version__ = "0.1.0"

# The public names are exactly the __all__ lists of these modules.
_MODULES = ("errors", "gamma", "intmat", "modular", "torsion", "witnesses", "words")


def __getattr__(name: str):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module, util
    # `from congruence_lab import cli` asks here first and imports the submodule
    # only on AttributeError, so a submodule name must not bind everything.
    if "." not in name and util.find_spec(f"{__name__}.{name}"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    public = {}
    for short in _MODULES:
        module = import_module(f"{__name__}.{short}")
        public.update((n, getattr(module, n)) for n in module.__all__)
    if name not in public and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(public, __all__=sorted(public))
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
