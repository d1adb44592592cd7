"""The benchmark's three workloads: op lists built from a seed, and their checks.

An op is one call into the program (in-process) or one CLI invocation
(cli-mix). Each op carries a check that verifies its output with oracle.py
and returns a fingerprint; later passes of the same run only compare
fingerprints. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import select
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from oracle import expect

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import congruence_lab as lib  # noqa: E402
from congruence_lab import cli as lib_cli  # noqa: E402

# Every CLI invocation, known-defect probes included, is killed after this long.
DEADLINE_S = 4.0
CLI_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CONGRUENCE_LAB_CAP")}
CLI_ENV["PYTHONPATH"] = str(SRC)

TORSION_4 = ((0, -1), (1, 0))
TORSION_6 = ((0, -1), (1, 1))
TORSION_BLOCKS = (
    TORSION_4,
    oracle.power(TORSION_4, 2),
    TORSION_6,
    oracle.power(TORSION_6, 2),
    oracle.power(TORSION_6, 3),
)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # check(result, full) verifies the output when full is true and returns
    # a fingerprint that later passes must reproduce.
    check: Callable[[object, bool], object]


@dataclass
class Invocation:
    code: int | None  # None on a deadline hit
    out: bytes
    err: bytes
    maxrss_kb: int


class Workload:
    name = ""
    # Seconds one pass took at the commit that added the benchmark. Only the
    # number of timed passes per run derives from it (harness.pass_count).
    nominal_pass_s = 1.0

    def __init__(self, seed: int, scale: str = "full"):
        self.tiny = scale == "tiny"
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []
        self.build()
        first: dict[str, Op] = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        self.warm_ops = list(first.values())
        # Ops of one kind are spread over the pass, so every kind sees the
        # machine speed of the whole pass.
        self.rng.shuffle(self.ops)

    def seed_int(self) -> int:
        return self.rng.randrange(2**31)

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the first-built op of each kind once, untimed and unchecked."""
        for op in self.warm_ops:
            op.call()

    def inputs(self) -> dict:
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {"ops": len(self.ops), "by_kind": kinds}


# ------------------------------------------------------------ op checks


def _fp_matrix(m) -> tuple:
    return (m.rows, getattr(m, "modulus", None))


def check_decompose(x, N: int | None):
    def check(word, full):
        text = word.to_text()
        if full:
            length = oracle.check_word_text(text, len(x), x, N)
            expect(length == len(word), "word length disagrees with its text")
        return text

    return check


def check_lift(y, N: int):
    def check(m, full):
        if full:
            expect(oracle.det(m.rows) == 1, "lift does not have determinant 1")
            expect(oracle.reduce(m.rows, N) == oracle.reduce(y, N), "lift does not reduce to its input")
        return _fp_matrix(m)

    return check


def check_enumerate(n: int, N: int):
    def check(ms, full):
        rows = tuple(m.rows for m in ms)
        if full:
            expect(len(rows) == oracle.sl_count(n, N), f"|SL_{n}(Z/{N})| wrong")
            expect(all(m.modulus == N for m in ms), "element with a foreign modulus")
            expect(all(a < b for a, b in zip(rows, rows[1:])), "enumeration not sorted and distinct")
            expect(all(0 <= e < N for r in rows for row in r for e in row), "entry not reduced")
            expect(all(oracle.det(r) % N == 1 for r in rows), "element without determinant 1")
        return hash(rows)

    return check


def check_spectrum(n: int, N: int):
    def check(orders, full):
        if full:
            expect(frozenset(orders) == oracle.spectrum(n, N), f"spectrum of SL_{n}(Z/{N}) wrong")
        return tuple(sorted(orders))

    return check


def check_order(x):
    def check(result, full):
        if full:
            oracle.check_order(x, result.value)
        return result.value

    return check


def check_level(x):
    def check(value, full):
        if full:
            expect(value == oracle.level(x), "level disagrees with the gcd")
        return value

    return check


def check_member(x, N: int):
    def check(value, full):
        if full:
            expect(value == oracle.member(x, N), f"membership in Gamma({N}) wrong")
        return value

    return check


def check_phi(x, p: int, k: int):
    def check(t, full):
        if full:
            expect(t.modulus == p and t.rows == oracle.depth_image(x, p**k, p), "depth map image wrong")
        return _fp_matrix(t)

    return check


def _check_witness_json(x, j: dict) -> None:
    n = len(x)
    lvl = oracle.level(x)
    image, modulus = oracle.parse(j["image"])
    p = j["prime"]
    if j["kind"] == "residual-finite":
        q = 2
        while lvl % q == 0:
            q += 1
            while not oracle.is_prime(q):
                q += 1
        expect(p == q and j["level"] == q, "witness prime is not the least prime off the level")
        expect(int(j["quotient_order"]) == oracle.sl_count(n, q), "witness quotient order wrong")
        expect(modulus == q and image == oracle.reduce(x, q), "witness image is not the reduction")
        expect(image != oracle.reduce(oracle.identity(n), q), "witness image is trivial")
    else:
        expect(j["kind"] == "residual-p-finite", f"unknown witness kind {j['kind']!r}")
        s, rest = 0, lvl
        while rest % p == 0:
            rest //= p
            s += 1
        expect(s >= 1 and j["level"] == p ** (s + 1), "witness depth wrong")
        expect(int(j["quotient_order"]) == p ** (s * (n * n - 1)), "p-quotient order wrong")
        expect(modulus == p and image == oracle.depth_image(x, p**s, p), "depth image wrong")
        expect(any(any(r) for r in image), "depth image is zero")


def check_witness(x):
    def check(w, full):
        j = w.to_json()
        if full:
            _check_witness_json(x, j)
        return tuple(sorted(j.items()))

    return check


def check_probe(N: int, trials: int):
    def check(report, full):
        if full:
            expect(report["trials"] == trials and report["failures"] == 0, "probe report wrong")
            for ex in report["examples"]:
                rows, _ = oracle.parse(ex["matrix"])
                expect(oracle.det(rows) == 1, "probe example not in SL_2(Z)")
                expect(not oracle.member(rows, N), f"probe example lies in Gamma({N})")
                oracle.check_order(rows, ex["order"])
                expect(ex["level"] == oracle.level(rows), "probe example level wrong")
        return json.dumps(report, sort_keys=True)

    return check


# ---------------------------------------------------------- generators


def random_sl(n: int, length: int, seed: int) -> tuple:
    return lib.sample_sl(n, length, seed).rows


def random_gamma(n: int, N: int, length: int, seed: int) -> tuple:
    return lib.sample_gamma(n, N, length, seed).rows


def nontrivial(make: Callable[[int], tuple], rng: random.Random) -> tuple:
    while True:
        x = make(rng.randrange(2**31))
        if x != oracle.identity(len(x)):
            return x


def finite_conjugate(n: int, rng: random.Random) -> tuple:
    """g * diag(torsion blocks, 1) * g^-1 for a random g: finite order, dense entries."""
    blocks = [rng.choice(TORSION_BLOCKS) for _ in range(max(1, min(n // 2, 2)))]
    g = lib.sample_sl(n, 2 * n, rng.randrange(2**31))
    return (g * lib.IntMatrix(oracle.block_diag(blocks, n)) * g.inverse()).rows


# ------------------------------------------------------ in-process work


class FiniteQuotients(Workload):
    """Enumeration, spectra, decomposition and lifting in SL_n(Z/N)."""

    name = "finite-quotients"
    nominal_pass_s = 2.3

    def build(self) -> None:
        if self.tiny:
            enum2, spec2, enum3, spec3, sweep = range(2, 5), (2, 3, 6), (2,), (), 4
        else:
            enum2 = range(2, 13)
            spec2 = (2, 3, 4, 5, 7, 8, 9, 6, 10)
            enum3, spec3, sweep = (2, 3, 4), (2,), 12
        for n, Ns in ((2, enum2), (3, enum3)):
            for N in Ns:
                self.ops.append(Op("enumerate_sl", lambda n=n, N=N: lib.enumerate_sl(n, N), check_enumerate(n, N)))
        for n, Ns in ((2, spec2), (3, spec3)):
            for N in Ns:
                self.ops.append(Op("mod_spectrum", lambda n=n, N=N: lib.mod_spectrum(n, N), check_spectrum(n, N)))
        # Every element of SL_2(Z/sweep), relabelled as g*h for a seeded g.
        g = oracle.reduce(random_sl(2, 8, self.seed_int()), sweep)
        group = [
            oracle.mul(g, ((a, b), (c, d)), sweep)
            for a in range(sweep)
            for b in range(sweep)
            for c in range(sweep)
            for d in range(sweep)
            if (a * d - b * c) % sweep == 1
        ]
        self.sweep = (sweep, len(group))
        for y in group:
            m = lib.ModMatrix(y, sweep)
            self.ops.append(Op("decompose_mod", lambda m=m: lib.decompose_mod(m), check_decompose(y, sweep)))
            self.ops.append(Op("lift_to_int", lambda m=m: lib.lift_to_int(m), check_lift(y, sweep)))

    def inputs(self) -> dict:
        return {**super().inputs(), "sweep_modulus": self.sweep[0], "sweep_elements": self.sweep[1]}


class IntegerExact(Workload):
    """Few multiplies of large entries: orders, words, levels, witnesses over Z."""

    name = "integer-exact"
    nominal_pass_s = 1.2

    def build(self) -> None:
        rng = self.rng
        # Infinite-order samples per n: more where one call is cheap, so no
        # single dimension dominates the pass and seed-to-seed cost stays even.
        # n stops at 11: at n=12 the cost of one call varies by about 20%
        # between random matrices.
        # The block of same-sized decompositions is large enough that the
        # median op lies inside it: op costs there are even, so op_p50_ms does
        # not jump between ops whose costs differ by a factor of two.
        if self.tiny:
            per_n, dec_ns, block, small, trials = {2: 1, 3: 1, 4: 1}, range(2, 4), 4, 3, 20
        else:
            per_n = {2: 4, 3: 4, 4: 4, 5: 4, 6: 8, 7: 8, 8: 8, 9: 6, 10: 5, 11: 4}
            dec_ns, block, small, trials = range(2, 9), 80, 10, 300
        self.inputs_bits = 0
        for n, k in per_n.items():
            xs = [random_sl(n, 6 * n, self.seed_int()) for _ in range(k)]
            xs.append(finite_conjugate(n, rng))
            for x in xs:
                self._add("matrix_order", lambda m=lib.IntMatrix(x): lib.matrix_order(m), check_order(x), x)
        for n in [n for n in dec_ns for _ in range(4)] + [4] * block:
            x = random_sl(n, 10 * n, self.seed_int())
            self._add("decompose_int", lambda m=lib.IntMatrix(x): lib.decompose_int(m), check_decompose(x, None), x)
        for _ in range(small):
            n, N = rng.randint(2, 6), rng.randint(2, 30)
            x = random_gamma(n, N, 4 * n, self.seed_int())
            self._add("gamma_level", lambda m=lib.IntMatrix(x): lib.gamma_level(m), check_level(x), x)
            M = rng.choice((N, 2 * N, rng.randint(2, 60)))
            self._add("gamma_member", lambda m=lib.IntMatrix(x), M=M: lib.gamma_member(m, M), check_member(x, M), x)
        for _ in range(small):
            n, p, k = rng.randint(2, 5), rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            x = random_gamma(n, p**k, 4 * n, self.seed_int())
            self._add("phi_k", lambda m=lib.IntMatrix(x), p=p, k=k: lib.phi_k(m, p, k), check_phi(x, p, k), x)
        for _ in range(small):
            n = rng.randint(2, 6)
            x = nontrivial(lambda s: random_sl(n, 3 * n, s), rng)
            self._add("witness_rf", lambda m=lib.IntMatrix(x): lib.witness_rf(m), check_witness(x), x)
        for _ in range(small):
            n, p = rng.randint(2, 5), rng.choice((2, 3, 5))
            x = nontrivial(lambda s: random_gamma(n, p ** rng.randint(1, 3), 3 * n, s), rng)
            self._add("witness_p", lambda m=lib.IntMatrix(x), p=p: lib.witness_p(m, p), check_witness(x), x)
        for _ in range(2):
            N, s = rng.randint(3, 6), self.seed_int()
            self.ops.append(
                Op("minkowski_probe", lambda N=N, s=s: lib.minkowski_probe(N, trials, s), check_probe(N, trials))
            )

    def _add(self, kind, call, check, x) -> None:
        self.ops.append(Op(kind, call, check))
        self.inputs_bits = max(self.inputs_bits, max(abs(e).bit_length() for r in x for e in r))

    def inputs(self) -> dict:
        return {**super().inputs(), "max_entry_bits": self.inputs_bits}


# ------------------------------------------------------------- cli-mix


def invoke(args: list[str]) -> Invocation:
    """Run `python -m congruence_lab ARGS` from the checkout, killed at the deadline."""
    return spawn([sys.executable, "-m", "congruence_lab", *args])


def spawn(argv: list[str]) -> Invocation:
    """Run argv from the checkout, killed at the deadline. The wait blocks on a
    pidfd, so the time to exit is not rounded up to a polling interval."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=CLI_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], DEADLINE_S)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        out, err = proc.stdout.read(), proc.stderr.read()
    return Invocation(proc.returncode if ready else None, out, err, usage.ru_maxrss)


def replay(args: list[str]) -> Invocation:
    """The same invocation in-process through cli.run, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib_cli.run(list(args))
    return Invocation(code, out.getvalue().encode(), err.getvalue().encode(), 0)


def _cli_check(verify: Callable[[object], None]):
    def check(inv: Invocation, full):
        expect(inv.code == 0, f"exit {inv.code}: {inv.err.decode(errors='replace').strip()[:200]}")
        if full:
            verify(json.loads(inv.out))
        return inv.out

    return check


def _verify_word(x, N):
    def verify(j):
        expect(j["n"] == len(x), "word dimension wrong")
        expect(oracle.check_word_text(j["word"], len(x), x, N) == j["length"], "word length wrong")

    return verify


def _verify_order(x):
    def verify(j):
        oracle.check_order(x, j["value"] if j["kind"] == "finite" else None)

    return verify


class CliMix(Workload):
    """One client, closed loop: python -m congruence_lab over every subcommand."""

    name = "cli-mix"
    nominal_pass_s = 3.6

    def build(self) -> None:
        rng = self.rng
        self.corpus: list[tuple[list[str], Callable]] = []
        k = 1 if self.tiny else None
        T = oracle.text

        def add(count, make):
            for _ in range(k or count):
                args, verify = make()
                self.corpus.append((args, _cli_check(verify)))

        def decompose_z():
            n = rng.randint(2, 4)
            x = random_sl(n, 4 * n, self.seed_int())
            return ["decompose", "--", T(x)], _verify_word(x, None)

        def decompose_mod():
            n, N = rng.randint(2, 3), rng.randint(2, 60)
            y = oracle.reduce(random_sl(n, 4 * n, self.seed_int()), N)
            return ["decompose", "--", f"{T(y)} mod {N}"], _verify_word(y, N)

        def lift():
            n, N = rng.randint(2, 3), rng.randint(2, 60)
            y = oracle.reduce(random_sl(n, 4 * n, self.seed_int()), N)

            def verify(j):
                rows, _ = oracle.parse(j["matrix"])
                expect(j["mod"] == N and oracle.det(rows) == 1, "lift det wrong")
                expect(oracle.reduce(rows, N) == y, "lift does not reduce to its input")

            return ["lift", "--mod", str(N), "--", T(y)], verify

        def level():
            n, N = rng.randint(2, 3), rng.randint(2, 50)
            x = random_gamma(n, N, 3 * n, self.seed_int())

            def verify(j):
                expect(j == {"level": oracle.level(x) or "infinite"}, "level wrong")

            return ["level", "--", T(x)], verify

        def member():
            n, N = rng.randint(2, 3), rng.randint(2, 50)
            x = random_gamma(n, N, 3 * n, self.seed_int())
            M = rng.choice((N, rng.randint(2, 50)))

            def verify(j):
                expect(j == {"member": oracle.member(x, M)}, "member wrong")

            return ["member", "--mod", str(M), "--", T(x)], verify

        def index_small():
            n, N = rng.randint(2, 6), rng.randint(2, 10**6)
            return ["index", "--n", str(n), "--mod", str(N)], lambda j: expect(j == oracle.sl_count(n, N), "index wrong")

        def index_big_prime():
            # Trial division up to a prime in [9.9e12, 1e13] dominates this
            # invocation, so every one of them costs about the same.
            N = rng.randint(1, 30) * oracle.prime_in(99 * 10**11, 10**13, rng)
            return ["index", "--n", "2", "--mod", str(N)], lambda j: expect(j == oracle.sl_count(2, N), "index wrong")

        def order():
            n = rng.randint(2, 5)
            x = finite_conjugate(n, rng) if rng.random() < 0.4 else random_sl(n, 5 * n, self.seed_int())
            return ["order", "--", T(x)], _verify_order(x)

        def enumerate_count():
            n, N = rng.choice([(2, N) for N in range(2, 9)] + [(3, 2)])
            args = ["enumerate", "--n", str(n), "--mod", str(N), "--count-only"]
            return args, lambda j: expect(j == {"count": oracle.sl_count(n, N)}, "count wrong")

        def spectrum():
            n, N = rng.choice([(2, N) for N in range(2, 7)] + [(3, 2)])

            def verify(j):
                expect(j == {"orders": sorted(oracle.spectrum(n, N))}, "spectrum wrong")

            return ["spectrum", "--n", str(n), "--mod", str(N)], verify

        def phi():
            n, p, kk = rng.randint(2, 3), rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            x = random_gamma(n, p**kk, 3 * n, self.seed_int())

            def verify(j):
                want = {"prime": p, "k": kk, "image": f"{T(oracle.depth_image(x, p**kk, p))} mod {p}"}
                expect(j == want, "phi wrong")

            return ["phi", "--prime", str(p), "--k", str(kk), "--", T(x)], verify

        def witness_rf():
            n = rng.randint(2, 4)
            x = nontrivial(lambda s: random_sl(n, 3 * n, s), rng)
            return ["witness-rf", "--", T(x)], lambda j: _check_witness_json(x, j)

        def witness_p():
            n, p = rng.randint(2, 3), rng.choice((2, 3, 5))
            x = nontrivial(lambda s: random_gamma(n, p ** rng.randint(1, 3), 3 * n, s), rng)
            return ["witness-p", "--prime", str(p), "--", T(x)], lambda j: _check_witness_json(x, j)

        def selfcheck():
            def verify(j):
                expect(j["mode"] == "quick" and j["failed"] == 0, "selfcheck reports a failure")
                expect(j["passed"] == len(j["checks"]) and all(c["ok"] for c in j["checks"]), "selfcheck table wrong")

            return ["selfcheck", "--quick", "--seed", str(rng.randrange(1000))], verify

        add(2, decompose_z)
        add(2, decompose_mod)
        add(2, lift)
        add(2, level)
        add(2, member)
        add(1, index_small)
        # With selfcheck these make the slowest quarter of the corpus, of even
        # cost, so op_p90_ms falls inside it.
        add(5, index_big_prime)
        add(2, order)
        add(1, enumerate_count)
        add(1, spectrum)
        add(2, phi)
        add(2, witness_rf)
        add(1, witness_p)
        add(1, selfcheck)
        self.ops = [Op(args[0], lambda a=args: invoke(a), check) for args, check in self.corpus]
        self.replay_ops = [Op(args[0], lambda a=args: replay(a), check) for args, check in self.corpus]
        self.defects = known_defects(rng)

    def warm_up(self) -> None:
        invoke(["index", "--n", "2", "--mod", "2"])

    def inputs(self) -> dict:
        argv_bytes = sum(len(" ".join(a)) for a, _ in self.corpus)
        return {**super().inputs(), "argv_bytes": argv_bytes, "known_defects": len(self.defects)}


# ------------------------------------------------------ known defects


@dataclass
class Defect:
    """A robustness input that fails today; `expected` is the correct outcome."""

    args: list[str]
    expected: str
    verify: Callable[[Invocation], str]  # -> "fixed" | "failing"; raises if wrong


def _exact_or_domain_error(want: Callable[[dict | int], bool]):
    def verify(inv: Invocation) -> str:
        if inv.code == 0:
            with oracle.unlimited_int_text():
                expect(want(json.loads(inv.out)), "known-defect input answered wrongly")
            return "fixed"
        name = inv.err.decode(errors="replace").split(":", 1)[0]
        if inv.code == 2 and name.isidentifier() and name != "InternalError":
            return "fixed"
        return "failing"

    return verify


def _named_error(error: Callable[[], str]):
    def verify(inv: Invocation) -> str:
        name = error()
        expect(inv.code != 0, f"expected {name}, got an answer")
        return "fixed" if inv.code == 2 and inv.err.startswith(name.encode() + b":") else "failing"

    return verify


def known_defects(rng: random.Random) -> list[Defect]:
    """The four robustness inputs; expected values are computed when checked."""
    big = 10**18 + 3
    with oracle.unlimited_int_text():
        entry = rng.randrange(10**4999, 10**5000)
        entry_text = str(entry)
    return [
        Defect(
            ["index", "--n", "2", "--mod", str(big)],
            "exact integer |SL_2(Z/(10^18+3))| or exit 2 with a named domain error",
            _exact_or_domain_error(lambda j: j == oracle.sl_count(2, big)),
        ),
        Defect(
            ["witness-p", "1,2;0,1", "--prime", str(big)],
            "exit 2 with NotInGamma (10^18+3 is prime; the level 2 is not divisible by it)",
            _named_error(lambda: "NotInGamma" if oracle.is_prime(big) else "NotPrime"),
        ),
        Defect(
            ["index", "--n", "120", "--mod", "2"],
            "exact integer |SL_120(Z/2)| or exit 2 with a named domain error",
            _exact_or_domain_error(lambda j: j == oracle.sl_count(120, 2)),
        ),
        Defect(
            ["level", f"1,{entry_text};0,1"],
            "exact integer level (the 5000-digit entry) or exit 2 with a named domain error",
            _exact_or_domain_error(lambda j: j == {"level": entry}),
        ),
    ]


def run_defects(defects: list[Defect]) -> list[dict]:
    rows = []
    for d in defects:
        inv = invoke(d.args)
        try:
            status = d.verify(inv) if inv.code is not None else "failing"
        except (oracle.OracleError, ValueError, KeyError) as e:
            print(f"bench: known-defect input {d.args[0]} answered wrongly: {e}", file=sys.stderr)
            status = "wrong"
        outcome = "deadline" if inv.code is None else f"exit {inv.code}"
        err = inv.err.decode(errors="replace").strip().splitlines()
        rows.append(
            {
                "args": " ".join(a if len(a) < 40 else f"<{len(a)} chars>" for a in d.args),
                "outcome": outcome,
                "stderr": err[-1][:120] if err else "",
                "status": status,
                "expected": d.expected,
            }
        )
    return rows


WORKLOADS = {w.name: w for w in (CliMix, FiniteQuotients, IntegerExact)}

