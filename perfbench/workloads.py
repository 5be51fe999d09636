"""The three workloads: their seeded inputs, one operation each, and the
checks of every output against the oracles.

A workload object has ``ops`` (the inputs of one pass, in order), ``run(op)``
(the timed call into linid, returning its raw output) and ``check(op,
output)`` (a list of error strings, empty when the output is right).  The
calls go through linid's public functions, looked up on their modules at
call time so that a traced run sees the wrapped versions.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import oracles as o
from linid import classify, cli

# The three minimal TwoTernary systems as the paper publishes them.
PUBLISHED = (
    "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)",
    "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)",
    "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)",
)

MANIFEST_ENTRIES = 143
FAMILY_SWEEP_KINDS = ("minimal-candidates", "zero-candidates")
MODULI = range(2, 8)
PRIMES_TO_7 = (2, 3, 5, 7)


class OracleCache:
    """Oracle verdicts per system text, computed once per run."""

    def __init__(self):
        self.b = o.semilattice_b()
        self.a = {m: o.majority_a(m) for m in (2, 3, 4)}
        self._moduli: dict[str, list[int]] = {}
        self._sat: dict[tuple[str, str], bool] = {}

    def moduli(self, text: str) -> list[int]:
        """Moduli in 2..7 with an affine solution."""
        if text not in self._moduli:
            self._moduli[text] = o.moduli_with_affine_solution(o.parse(text), MODULI)
        return self._moduli[text]

    def holds(self, text: str, algebra: o.Algebra) -> bool:
        key = (text, algebra.name)
        if key not in self._sat:
            self._sat[key] = algebra.solution(o.parse(text)) is not None
        return self._sat[key]


def _captured(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def minimality_errors(oracle: OracleCache, text: str) -> list[str]:
    """A minimal TwoTernary candidate: no affine solution mod 2..7, holds in
    B and in A, and every strict refinement of its closure partition has an
    affine solution mod 2, 3, 4 or 5."""
    errors = []
    if oracle.moduli(text):
        errors.append(f"{text}: affine solution mod {oracle.moduli(text)}")
    if not (oracle.holds(text, oracle.b) and oracle.holds(text, oracle.a[3])):
        errors.append(f"{text}: fails in B or A")
    for weaker in o.strict_refinements(o.parse(text), o.universe("pq", 2)):
        if not o.moduli_with_affine_solution(weaker, (2, 3, 4, 5)):
            errors.append(f"{text}: a strict refinement has no solution mod 2..5")
    return errors


def manifest_lines() -> list[str]:
    text = classify.default_manifest_text()
    return [line for line in text.splitlines() if line.split("#", 1)[0].strip()]


# ---------------------------------------------------------------------------
# paper: the whole reproduction, as users run it
# ---------------------------------------------------------------------------


class Paper:
    name = "paper"

    def __init__(self, seed: int, workdir: Path, oracle: OracleCache):
        self.out = workdir / "paper"
        self.oracle = oracle
        self.ops = ["verify-paper"]
        self.classes = {"verify-paper": "verify-paper"}
        self.description = "one `linid verify-paper` on the bundled manifest"

    def run(self, op):
        return _captured(["verify-paper", "-o", str(self.out)])

    def check(self, op, output) -> list[str]:
        code, _stdout = output
        errors = []
        if code != 0:
            errors.append(f"verify-paper exited with {code}")
        report = json.loads((self.out / "verify_report.json").read_text(encoding="utf-8"))
        if report["total"] != MANIFEST_ENTRIES or report["failed"] != 0 or not report["ok"]:
            errors.append(f"report: {report['total']} entries, {report['failed']} failed")
        errors += [f"finding not ok: {f['entry']}" for f in report["findings"] if not f["ok"]]
        markdown = (self.out / "verify_report.md").read_text(encoding="utf-8")
        for line in (f"- entries checked: {MANIFEST_ENTRIES}", "- failures: 0"):
            if line not in markdown.splitlines():
                errors.append(f"markdown report lacks {line!r}")
        return errors

    def check_run(self) -> list[str]:
        """The paper's claims about its three systems, by the oracles alone."""
        return [e for text in PUBLISHED for e in minimality_errors(self.oracle, text)]


# ---------------------------------------------------------------------------
# check-stream: `linid check --recheck` over seeded systems
# ---------------------------------------------------------------------------

# Chain lengths of the systems in a class, used in turn: slot i of a cell gets
# shape i mod len.  Every seed thus draws the same multiset of shapes, so the
# number of identities (the rows the ring decision works on) and the closure
# block sizes (what canonicalisation sorts) are the same from seed to seed;
# only the terms differ.
SAT_SHAPES = ((2,), (3,), (2, 2), (3, 2), (4,), (2, 2, 2))
UNSAT_SHAPES = ((3, 3), (4, 2), (4, 3), (3, 3, 2))

# (symbols, variables, class, systems per pass); each system is also checked
# as a renamed copy, so a pass makes twice this many operations.  The 204
# 2-variable systems follow the class shares of the canonical systems that
# `linid enumerate` gives for the two families on these universes: TwoTernary
# ({p,q}) 298 ring-satisfiable, 25 ring-unsatisfiable, 5 candidates;
# BinaryPlusTernary ({p,t}) 42 and 2 (see stream_shares.py).  No family has 3
# variables: the 36 3-variable systems are a choice, sized so that the 95th
# percentile lies inside the slowest class.
STREAM_QUOTAS = (
    ("pq", 2, "sat", 163),
    ("pq", 2, "unsat", 14),
    ("pq", 2, "candidate", 3),
    ("pt", 2, "sat", 23),
    ("pt", 2, "unsat", 1),
    ("pq", 3, "sat", 12),
    ("pq", 3, "unsat", 24),
)


def format_term(term) -> str:
    if isinstance(term, int):
        return o.VARS[term]
    sym, pattern = term
    return f"{sym}({','.join(o.VARS[v] for v in pattern)})"


def format_chains(chains) -> str:
    return "; ".join("=".join(format_term(t) for t in chain) for chain in chains)


def random_chains(rng: random.Random, terms, num_vars: int, shape):
    """Chains of distinct terms with the given lengths, using every variable
    and at least one application."""
    while True:
        picked = rng.sample(terms, sum(shape))
        chains, start = [], 0
        for length in shape:
            chains.append(picked[start:start + length])
            start += length
        used = {v for t in picked for v in ([t] if isinstance(t, int) else t[1])}
        if len(used) == num_vars and any(not isinstance(t, int) for t in picked):
            return chains


def candidate_chains(slot: int):
    """Slot i: published system i, as published."""
    _num_vars, _symbols, identities = o.parse(PUBLISHED[slot])
    return [list(pair) for pair in identities]


def renamed(rng: random.Random, chains, num_vars: int, symbols):
    """The same system with its variables and each symbol's argument
    positions permuted, its chains and their terms reordered."""
    var_perm = rng.sample(range(num_vars), num_vars)
    arg_perm = {sym: rng.sample(range(o.ARITY[sym]), o.ARITY[sym]) for sym in symbols}

    def move(term):
        if isinstance(term, int):
            return var_perm[term]
        sym, pattern = term
        return sym, tuple(var_perm[pattern[j]] for j in arg_perm[sym])

    out = [[move(t) for t in chain] for chain in chains]
    for chain in out:
        rng.shuffle(chain)
    rng.shuffle(out)
    return out


def stream_class(oracle: OracleCache, text: str) -> str:
    system = o.parse(text)
    if o.moduli_with_affine_solution(system, PRIMES_TO_7):
        return "sat"
    if oracle.holds(text, oracle.b) and oracle.holds(text, oracle.a[3]):
        return "candidate"
    return "unsat"


def generate_stream(seed: int, oracle: OracleCache):
    """Base systems filling every quota cell slot by slot, each with a
    renamed copy; the whole list is shuffled.  Only ordered sequences are
    sampled, so the stream depends on the seed alone."""
    rng = random.Random(seed)
    base: list[tuple[str, str, list]] = []
    seen: set[str] = set()
    for syms, nv, cls, count in STREAM_QUOTAS:
        terms = o.universe(syms, nv)
        shapes = SAT_SHAPES if cls == "sat" else UNSAT_SHAPES
        for slot in range(count):
            while True:
                if cls == "candidate":
                    chains = candidate_chains(slot)
                else:
                    chains = random_chains(rng, terms, nv, shapes[slot % len(shapes)])
                text = format_chains(chains)
                if text not in seen and stream_class(oracle, text) == cls:
                    break
            seen.add(text)
            base.append((text, f"{syms}{nv}-{cls}", chains))
    ops = []
    for text, cls, chains in base:
        num_vars, symbols, _ = o.parse(text)
        copy = format_chains(renamed(rng, chains, num_vars, symbols))
        ops.append((text, text, cls))
        ops.append((copy, text, cls))
    rng.shuffle(ops)
    return ops


_VERDICT_KEYS = ("status", "prime", "is_candidate", "holds_in_majority_sizes", "modulus_sweep")


def verdicts(cert: dict) -> tuple:
    return (
        cert["canonical_system"],
        cert["holds_in_b"]["satisfiable"],
        cert["holds_in_a"]["satisfiable"],
    ) + tuple(json.dumps(cert.get(k), sort_keys=True) for k in _VERDICT_KEYS)


class CheckStream:
    name = "check-stream"

    def __init__(self, seed: int, workdir: Path, oracle: OracleCache):
        self.out = workdir / "certificates"
        self.oracle = oracle
        stream = generate_stream(seed, oracle)
        # op = (system text, text of the base system it was renamed from)
        self.ops = [(text, origin) for text, origin, _cls in stream]
        self.classes = {(text, origin): cls for text, origin, cls in stream}
        self.first_verdicts: dict[str, tuple] = {}
        self.description = f"{len(self.ops)} `linid check --recheck` calls"

    def run(self, op):
        return _captured(["check", op[0], "-o", str(self.out), "--recheck"])

    def check(self, op, output) -> list[str]:
        text, origin = op
        code, stdout = output
        if code != 0:
            return [f"check {text!r} exited with {code}"]
        cert = json.loads(stdout)
        errors = [f"{text}: {e}" for e in self.check_certificate(text, cert)]
        mine = verdicts(cert)
        theirs = self.first_verdicts.setdefault(origin, mine)
        if mine != theirs:
            errors.append(f"{text}: verdicts differ from those of {origin}")
        return errors

    def check_certificate(self, text: str, cert: dict) -> list[str]:
        system = o.parse(text)
        oracle = self.oracle
        moduli = oracle.moduli(text)
        errors = []
        if cert["status"] == "satisfiable":
            prime = cert["prime"]
            coeffs = {sym: tuple(c) for sym, c in cert["witness"].items()}
            if not o.affine_witness_holds(system, coeffs, prime):
                errors.append(f"ring witness mod {prime} fails pointwise")
            if [p for p in PRIMES_TO_7 if p < prime and p in moduli]:
                errors.append(f"a prime below {prime} admits a solution")
        else:
            if moduli:
                errors.append(f"claimed ring-unsatisfiable, solvable mod {moduli}")
            if cert["modulus_sweep"] != {"bound": 64, "all_unsatisfiable": True}:
                errors.append("modulus sweep does not confirm unsatisfiability")
        for key, algebra in (("holds_in_b", oracle.b), ("holds_in_a", oracle.a[3])):
            verdict = cert[key]
            if verdict["satisfiable"]:
                tables = {sym: w["table"] for sym, w in verdict["witness"].items()}
                if not algebra.witness_holds(system, tables):
                    errors.append(f"{key} witness fails")
            elif oracle.holds(text, algebra):
                errors.append(f"{key}: unsatisfiable claimed, {algebra.name} has a witness")
        for size, claimed in cert["holds_in_majority_sizes"].items():
            if claimed != oracle.holds(text, oracle.a[int(size)]):
                errors.append(f"majority algebra of size {size}: verdict {claimed} is wrong")
        expected = (
            cert["status"] != "satisfiable"
            and cert["holds_in_b"]["satisfiable"]
            and cert["holds_in_a"]["satisfiable"]
        )
        if cert["is_candidate"] != expected:
            errors.append("is_candidate disagrees with the three verdicts")
        return errors

    def check_run(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# ledger: one manifest entry per operation
# ---------------------------------------------------------------------------


def parse_affine_text(text: str, arity: int) -> tuple[int, ...]:
    """``3x+3z`` -> (3, 0, 3)."""
    coeffs = [0] * arity
    for part in text.replace(" ", "").split("+"):
        coeffs[o.VARS.index(part[-1])] += int(part[:-1] or 1)
    return tuple(coeffs)


def projections_exist(system) -> bool:
    num_vars, symbols, _ = system
    for choice in itertools.product(*(range(o.ARITY[s]) for s in symbols)):
        ops = {s: (lambda args, i=i: args[i]) for s, i in zip(symbols, choice)}
        if o.holds_pointwise(system, ops, num_vars):
            return True
    return False


class Ledger:
    name = "ledger"

    def __init__(self, seed: int, workdir: Path, oracle: OracleCache):
        self.oracle = oracle
        lines = [l for l in manifest_lines() if l.split("|")[0].strip() not in FAMILY_SWEEP_KINDS]
        random.Random(seed).shuffle(lines)
        self.ops = lines
        self.classes = {line: line.split("|")[0].strip() for line in lines}
        self.description = f"{len(lines)} manifest entries through classify.verify_paper"

    def run(self, op):
        return classify.verify_paper(op)

    def check(self, op, report) -> list[str]:
        if len(report.findings) != 1 or not report.ok:
            return [f"entry not verified: {op}"]
        return []

    def check_run(self) -> list[str]:
        """Every entry's claim, by the oracles alone."""
        errors = []
        for line in self.ops:
            fields = [f.strip() for f in line.split("#", 1)[0].split("|")]
            kind = fields[0]
            if kind == "affine-table":
                continue
            text = fields[2]
            system = o.parse(text)
            if kind == "holds-mod":
                n = int(fields[3])
                coeffs = {}
                for field in fields[4:]:
                    sym, term = field.split("=", 1)
                    coeffs[sym.strip()] = parse_affine_text(term, o.ARITY[sym.strip()])
                ok = o.affine_witness_holds(system, coeffs, n)
            elif kind == "ring-unsat":
                ok = not self.oracle.moduli(text)
            elif kind == "fails-in-b":
                ok = not self.oracle.holds(text, self.oracle.b)
            elif kind == "projections-exist":
                ok = projections_exist(system)
            elif kind == "minimal":
                ok = not minimality_errors(self.oracle, text)
            else:
                ok = True
            if not ok:
                errors.append(f"oracle disagrees with ledger entry: {line}")
        return errors


WORKLOADS = {w.name: w for w in (Paper, CheckStream, Ledger)}
