"""Symmetry-reduced enumeration and classification of identity systems.

Closures are Systems.  A two-variable system holds in the majority algebra
A exactly when its closure refines the kernel of some witness: a tuple of
A's term operations, one per symbol, grouping the universe's terms by value
vector (the height-1 view of Barto, Opršal and Pinsker, "The wonderland of
reflections", 2018).  The distinct kernels over A's clone slices are the
master closures.  Enumeration therefore walks the set partitions of the
block containing x in each master closure, mirrors being implied by
renaming x and y.

Two symmetry reductions make the walk canonicalise each orbit once, and
neither loses a class:

- One x-block per orbit.  Master x-blocks that are images of one another
  under the symmetry group are walked once.  g permutes the set partitions
  of a block B onto those of g(B), so both blocks reach the same orbits.
- Orbit marking.  Canonicalising a raw partition marks all its images under
  the group; a marked partition is skipped.  Its images lie in its orbit, so
  they share its canonical form.  An image's mark is one integer that also
  ranks it (terms.canonical_blocks), the sum of one value per block; each
  distinct block's values under the whole group are computed once per call.

Each run decides each ring system once.  A memo made per verify_paper call
(or per minimal_candidates call on its own) holds the ring verdict of every
system decided so far, keyed on the system with its signature and variable
count; classification, the weakening sweep and the manifest's `minimal`
entries all read it, and it does not outlive the call.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import algebra as alg
from . import reducts
from .terms import (
    Symbol,
    SymmetryTables,
    System,
    TermUniverse,
    Var,
    block_mark,
    canonical_blocks,
    canonicalize,
    format_system,
    parse_system,
    set_partitions,
    symmetry_tables,
    system_from_blocks,
    term_universe,
    weakenings,
)


class Family(Enum):
    TWO_TERNARY = "TwoTernary"
    SINGLE_TERNARY = "SingleTernary"
    BINARY_PLUS_TERNARY = "BinaryPlusTernary"
    SINGLE_BINARY = "SingleBinary"
    TWO_BINARY = "TwoBinary"

    @property
    def signature(self) -> frozenset[Symbol]:
        return _FAMILY_SIGNATURES[self]

    @property
    def universe(self) -> TermUniverse:
        return term_universe(self.signature, 2)

    @staticmethod
    def parse(name: str) -> "Family":
        for fam in Family:
            if fam.value.lower() == name.lower():
                return fam
        raise ValueError(f"unknown family {name!r}")


_FAMILY_SIGNATURES = {
    Family.TWO_TERNARY: frozenset((Symbol.P, Symbol.Q)),
    Family.SINGLE_TERNARY: frozenset((Symbol.P,)),
    Family.BINARY_PLUS_TERNARY: frozenset((Symbol.P, Symbol.T)),
    Family.SINGLE_BINARY: frozenset((Symbol.T,)),
    Family.TWO_BINARY: frozenset((Symbol.T, Symbol.S)),
}


_WITNESS_ALGEBRA = alg.majority_a(3)


def master_partitions(family: Family) -> list[System]:
    """The distinct kernels of A's term operations on the family universe,
    in first-seen order: for every tuple of clone-slice operations, one per
    symbol in symbol order, the closure grouping terms by value vector."""
    universe = family.universe
    symbols = sorted(family.signature, key=lambda s: s.order)
    slices = [alg.clone_slice(_WITNESS_ALGEBRA, s.arity).ops for s in symbols]
    masters: dict[System, None] = {}
    for ops in itertools.product(*slices):
        witness = dict(zip(symbols, ops))
        masters.setdefault(alg.induced_partition(witness, universe, _WITNESS_ALGEBRA))
    return list(masters)


def _xblock_orbit_representatives(
    family: Family, tables: SymmetryTables
) -> list[tuple[int, ...]]:
    """The first-seen master x-block (as indices) of each symmetry orbit.

    An orbit is identified by the least sorted image of its blocks.
    """
    universe, perms = tables.universe, tables.perms
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for master in master_partitions(family):
        xterms = next(b for b in master.blocks if Var(0) in b)
        xblock = tuple(map(universe.index, xterms))
        orbit = min(tuple(sorted(perm[i] for i in xblock)) for perm in perms)
        reps.setdefault(orbit, xblock)
    return list(reps.values())


def enumerate_family(family: Family) -> tuple[System, ...]:
    """All canonical systems in the family, deduplicated and ordered.

    Every partition of the x-containing block of every master partition is
    converted to a system (identities chain each block; the y side is implied
    by the x/y renaming) and reduced to its canonical form.  Only one x-block
    per symmetry orbit is walked, since the partitions of g(B) are the images
    under g of those of B; and the kernel marks the whole orbit of each
    partition it canonicalises, so it runs once per class.  Neither
    reduction drops a class: a skipped partition lies in an orbit already
    reached.
    """
    tables = symmetry_tables(family.signature, 2)
    universe = tables.universe
    size = len(universe)
    marked: set[int] = set()
    rows: dict[tuple[int, ...], list[int]] = {}
    canon: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    for xblock in _xblock_orbit_representatives(family, tables):
        for parts in set_partitions(xblock):
            raw = [p for p in parts if len(p) > 1]
            if block_mark(raw, size) in marked:
                continue
            key, _k, blocks = canonical_blocks(raw, tables, marked, rows)
            canon[key] = blocks
    terms = universe.terms
    return tuple(
        system_from_blocks(
            [[terms[i] for i in b] for b in canon[key]], universe.num_vars, universe.signature
        )
        for key in sorted(canon)
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    system: System
    ring_verdict: reducts.RingVerdict
    holds_in_b: alg.SatVerdict
    holds_in_a: alg.SatVerdict

    @property
    def is_candidate(self) -> bool:
        return (
            not self.ring_verdict.satisfiable
            and self.holds_in_b.satisfiable
            and self.holds_in_a.satisfiable
        )

    def to_json(self) -> dict:
        return {
            "system": format_system(self.system),
            "ring": self.ring_verdict.to_json(),
            "holds_in_b": self.holds_in_b.to_json(),
            "holds_in_a": self.holds_in_a.to_json(),
            "is_candidate": self.is_candidate,
        }


RingMemo = dict[tuple[System, frozenset[Symbol], int], reducts.RingVerdict]


def ring_verdict(s: System, memo: RingMemo) -> reducts.RingVerdict:
    """The some-finite-ring verdict of s, decided once per memo.

    The key holds the signature and the variable count because System
    equality ignores both while the coefficient system does not.  Verdicts
    are not moved along symmetry: the witness and the transformed right-hand
    side depend on the representative.
    """
    key = (s, s.signature, s.num_vars)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = reducts.solve_some_finite_ring(
            reducts.coefficient_system(s)
        )
    return verdict


def classify_system(s: System, memo: Optional[RingMemo] = None) -> Classification:
    ring = ring_verdict(s, {} if memo is None else memo)
    in_b = alg.holds_in(s, alg.semilattice_b())
    in_a = alg.holds_in(s, _WITNESS_ALGEBRA)
    return Classification(s, ring, in_b, in_a)


@dataclass(frozen=True)
class WeakeningRecord:
    system: System
    ring_verdict: reducts.RingVerdict


@dataclass(frozen=True)
class MinimalityRecord:
    """For a candidate: ring evidence for every strict weakening.

    Weakenings of a candidate still hold in both test algebras (refinements of
    its closure keep its witnesses), so a weakening fails to be a candidate
    exactly when some reduct satisfies it.
    """

    candidate: System
    weakenings: tuple[WeakeningRecord, ...]
    weaker_candidates: tuple[System, ...]

    @property
    def is_minimal(self) -> bool:
        return not self.weaker_candidates

    def minimal_below(self, minimal: Sequence[System]) -> tuple[System, ...]:
        """The family's minimal candidates among this one's weakenings.

        The weakening sweep covers every strict refinement, so a non-minimal
        candidate always contains at least one minimal candidate here.
        """
        return tuple(w for w in self.weaker_candidates if w in set(minimal))


@dataclass(frozen=True)
class CandidateReport:
    family: Family
    total_enumerated: int
    num_ring_satisfiable: int
    num_fails_b: int
    num_fails_a: int
    candidates: tuple[Classification, ...]
    minimality: tuple[MinimalityRecord, ...]

    @property
    def minimal_candidates(self) -> tuple[System, ...]:
        return tuple(r.candidate for r in self.minimality if r.is_minimal)

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "total_enumerated": self.total_enumerated,
            "counts": {
                "ring_satisfiable": self.num_ring_satisfiable,
                "fails_in_b": self.num_fails_b,
                "fails_in_a": self.num_fails_a,
                "candidates": len(self.candidates),
                "minimal_candidates": len(self.minimal_candidates),
            },
            "candidates": [c.to_json() for c in self.candidates],
            "minimal_candidates": [
                format_system(s) for s in self.minimal_candidates
            ],
            "minimality": [
                {
                    "candidate": format_system(r.candidate),
                    "is_minimal": r.is_minimal,
                    "weaker_candidates": [
                        format_system(w) for w in r.weaker_candidates
                    ],
                    "contains_minimal": [
                        format_system(w)
                        for w in r.minimal_below(self.minimal_candidates)
                    ],
                    "weakenings": [
                        {
                            "system": format_system(w.system),
                            "ring": w.ring_verdict.to_json(),
                        }
                        for w in r.weakenings
                    ],
                }
                for r in self.minimality
            ],
        }


def candidate_weakenings(s: System, universe: TermUniverse) -> tuple[System, ...]:
    """terms.weakenings of s over the universe's variables and signature,
    which fixes the coefficient columns; ValueError for a foreign term."""
    for block in s.blocks:
        for t in block:
            universe.index(t)
    return tuple(
        weakenings(system_from_blocks(s.blocks, universe.num_vars, universe.signature))
    )


def minimality_record(candidate: System, family: Family, memo: RingMemo) -> MinimalityRecord:
    """The weakening sweep of a candidate: the ring verdict of every strict
    weakening, and the distinct canonical forms of the ring-unsatisfiable
    ones in first-seen order."""
    records = tuple(
        WeakeningRecord(weak, ring_verdict(weak, memo))
        for weak in candidate_weakenings(candidate, family.universe)
    )
    weaker = dict.fromkeys(
        canonicalize(r.system, family.signature)
        for r in records
        if not r.ring_verdict.satisfiable
    )
    return MinimalityRecord(candidate, records, tuple(weaker))


def minimal_candidates(
    family: Family, memo: Optional[RingMemo] = None
) -> CandidateReport:
    """Classify the whole family and compute its minimal candidates.

    Ring verdicts go through memo, a fresh one unless the caller shares its
    own: weakenings of different candidates often coincide.
    """
    if memo is None:
        memo = {}
    systems = enumerate_family(family)
    classifications = [classify_system(s, memo) for s in systems]
    num_ring = sum(1 for c in classifications if c.ring_verdict.satisfiable)
    num_fails_b = sum(1 for c in classifications if not c.holds_in_b.satisfiable)
    num_fails_a = sum(1 for c in classifications if not c.holds_in_a.satisfiable)
    candidates = tuple(c for c in classifications if c.is_candidate)
    return CandidateReport(
        family,
        len(systems),
        num_ring,
        num_fails_b,
        num_fails_a,
        candidates,
        tuple(minimality_record(c.system, family, memo) for c in candidates),
    )


# ---------------------------------------------------------------------------
# Expected-results manifest and its verifier
# ---------------------------------------------------------------------------


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    line_no: int
    kind: str
    family: Optional[Family]
    system: Optional[System]
    modulus: Optional[int] = None
    witness: tuple[tuple[Symbol, reducts.AffineTerm], ...] = ()
    expected_systems: tuple[System, ...] = ()
    table_terms: tuple[str, ...] = ()

    def describe(self) -> str:
        bits = [self.kind]
        if self.family is not None:
            bits.append(self.family.value)
        if self.system is not None:
            bits.append(format_system(self.system))
        if self.modulus is not None:
            bits.append(f"mod {self.modulus}")
        if self.witness:
            bits.append(", ".join(f"{s.value}={t}" for s, t in self.witness))
        return " | ".join(bits)


# each entry kind with the fields it cannot do without, after the kind
_ENTRY_FIELDS = {
    "holds-mod": ("family", "system", "modulus"),
    "projections": ("family", "system"),
    "projections-exist": ("family", "system"),
    "fails-in-b": ("family", "system"),
    "ring-unsat": ("family", "system"),
    "minimal": ("family", "system"),
    "minimal-candidates": ("family",),
    "zero-candidates": ("family",),
    "affine-table": ("modulus", "terms"),
}

# the default --modulus-bound of `check`; entry work grows with the modulus
# (an affine-table entry lists modulus**2 terms)
MAX_MANIFEST_MODULUS = 64


def _parse_witness_fields(
    fields: Sequence[str], modulus: int, s: System
) -> tuple[tuple[Symbol, reducts.AffineTerm], ...]:
    """sym=term fields, each naming a symbol of s."""
    out = []
    for field in fields:
        if "=" not in field:
            raise ValueError(f"expected sym=term, got {field!r}")
        name, term = (part.strip() for part in field.split("=", 1))
        try:
            sym = Symbol(name)
        except ValueError:
            raise ValueError(f"unknown symbol {name!r} in witness {field!r}") from None
        if sym not in s.signature:
            raise ValueError(
                f"witness symbol {sym.value} not in system {format_system(s)!r}"
            )
        out.append((sym, reducts.parse_affine(term, modulus, sym.arity)))
    return tuple(out)


def _parse_modulus(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"modulus {text!r} is not an integer") from None
    if not 2 <= n <= MAX_MANIFEST_MODULUS:
        raise ValueError(f"modulus {n} outside 2..{MAX_MANIFEST_MODULUS}")
    return n


def _parse_family_system(text: str, family: Family) -> System:
    """A system in the family's universe: its symbols over x and y."""
    s = parse_system(text)
    if not s.signature <= family.signature or s.num_vars != 2:
        raise ValueError(
            f"system {format_system(s)!r} outside the {family.value} universe"
        )
    return s


def parse_manifest(text: str) -> tuple[ManifestEntry, ...]:
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split("|")]
        kind = fields[0]
        if kind not in _ENTRY_FIELDS:
            raise ManifestError(f"line {line_no}: unknown entry kind {kind!r}")
        required = _ENTRY_FIELDS[kind]
        if len(fields) <= len(required):
            raise ManifestError(
                f"line {line_no}: {kind} entry lacks its {required[len(fields) - 1]} field"
            )
        try:
            if kind == "affine-table":
                entries.append(
                    ManifestEntry(
                        line_no,
                        kind,
                        None,
                        None,
                        modulus=_parse_modulus(fields[1]),
                        table_terms=tuple(
                            t.strip() for t in fields[2].split(",") if t.strip()
                        ),
                    )
                )
                continue
            fam = Family.parse(fields[1])
            if kind == "zero-candidates":
                entries.append(ManifestEntry(line_no, kind, fam, None))
            elif kind == "minimal-candidates":
                expected = tuple(
                    _parse_family_system(part, fam)
                    for part in fields[2].split("&&")
                    if part.strip()
                ) if len(fields) > 2 else ()
                entries.append(
                    ManifestEntry(line_no, kind, fam, None, expected_systems=expected)
                )
            elif kind == "holds-mod":
                s = _parse_family_system(fields[2], fam)
                n = _parse_modulus(fields[3])
                entries.append(
                    ManifestEntry(
                        line_no, kind, fam, s, modulus=n,
                        witness=_parse_witness_fields(fields[4:], n, s),
                    )
                )
            elif kind == "projections":
                s = _parse_family_system(fields[2], fam)
                entries.append(
                    ManifestEntry(
                        line_no, kind, fam, s, witness=_parse_witness_fields(fields[3:], 5, s)
                    )
                )
            else:
                entries.append(
                    ManifestEntry(line_no, kind, fam, _parse_family_system(fields[2], fam))
                )
        except Exception as exc:
            raise ManifestError(f"line {line_no}: {exc}") from exc
    return tuple(entries)


def default_manifest_text() -> str:
    import importlib.resources

    return (
        importlib.resources.files("linid")
        .joinpath("data/expected_results.txt")
        .read_text(encoding="utf-8")
    )


@dataclass(frozen=True)
class Finding:
    entry: ManifestEntry
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "line": self.entry.line_no,
            "entry": self.entry.describe(),
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    @property
    def num_failed(self) -> int:
        return sum(1 for f in self.findings if not f.ok)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "total": len(self.findings),
            "failed": self.num_failed,
            "findings": [f.to_json() for f in self.findings],
        }


def _projection_witness_exists(s: System) -> bool:
    units = {2: ("x", "y"), 3: ("x", "y", "z")}
    symbols = sorted(s.signature, key=lambda sy: sy.order)
    for combo in itertools.product(*[units[sym.arity] for sym in symbols]):
        wit = {
            sym: reducts.parse_affine(term, 5, sym.arity)
            for sym, term in zip(symbols, combo)
        }
        if reducts.verify_witness(s, 5, wit):
            return True
    return False


def _check_entry(
    entry: ManifestEntry, reports: dict[Family, CandidateReport], memo: RingMemo
) -> Finding:
    s = entry.system
    if entry.kind == "holds-mod":
        n = entry.modulus
        ok = reducts.verify_witness(s, n, dict(entry.witness))
        solved = reducts.solve_mod(reducts.coefficient_system(s), n)
        detail = "witness verified by substitution" if ok else "witness fails substitution"
        if solved is None:
            ok = False
            detail += "; solver finds the system unsatisfiable at this modulus"
        return Finding(entry, ok, detail)
    if entry.kind == "projections":
        ok = reducts.verify_witness(s, 5, dict(entry.witness))
        return Finding(entry, ok, "projection pair verified" if ok else "projection pair fails")
    if entry.kind == "projections-exist":
        ok = _projection_witness_exists(s)
        return Finding(entry, ok, "some projection assignment works" if ok else "no projection assignment works")
    if entry.kind == "fails-in-b":
        verdict = alg.holds_in(s, alg.semilattice_b())
        ok = not verdict.satisfiable
        return Finding(entry, ok, "unsatisfiable in the two-element semilattice" if ok else "unexpectedly satisfiable in the semilattice")
    if entry.kind == "ring-unsat":
        rv = ring_verdict(s, memo)
        ok = not rv.satisfiable
        detail = "no finite ring admits the system" if ok else f"satisfiable mod {rv.prime}"
        if ok:
            spot = [n for n in range(2, 17) if rv.solvable_mod(n)]
            if spot:
                ok = False
                detail = f"per-modulus solver finds solutions mod {spot}"
        return Finding(entry, ok, detail)
    if entry.kind == "minimal":
        cls = classify_system(s, memo)
        if not cls.is_candidate:
            return Finding(entry, False, "system is not a candidate")
        record = minimality_record(s, entry.family, memo)
        bad = [
            format_system(w.system)
            for w in record.weakenings
            if not w.ring_verdict.satisfiable
        ]
        detail = (
            "candidate; every strict weakening is ring-satisfiable"
            if record.is_minimal
            else f"weaker candidates exist: {bad}"
        )
        return Finding(entry, record.is_minimal, detail)
    if entry.kind == "minimal-candidates":
        report = reports[entry.family]
        got = {s for s in report.minimal_candidates}
        want = {canonicalize(s, entry.family.signature) for s in entry.expected_systems}
        ok = got == want
        if ok:
            detail = f"{len(got)} minimal candidates, exact match"
        else:
            extra = [format_system(s) for s in sorted(got - want, key=lambda s: str(s))]
            missing = [format_system(s) for s in sorted(want - got, key=lambda s: str(s))]
            detail = f"mismatch; unexpected={extra} missing={missing}"
        return Finding(entry, ok, detail)
    if entry.kind == "zero-candidates":
        report = reports[entry.family]
        ok = not report.candidates
        detail = (
            "no candidates in family"
            if ok
            else f"unexpected candidates: {[format_system(c.system) for c in report.candidates]}"
        )
        return Finding(entry, ok, detail)
    if entry.kind == "affine-table":
        n = entry.modulus
        generated = [str(t) for t in reducts.affine_terms(n, 3)]
        printed = list(entry.table_terms)
        missing = [t for t in generated if t not in printed]
        dupes = sorted({t for t in printed if printed.count(t) > 1})
        unknown = [t for t in printed if t not in generated]
        ok = len(generated) == n * n and not unknown
        detail = (
            f"{len(generated)} terms generated; printed list has duplicates {dupes}, "
            f"misses {missing}"
        )
        if unknown:
            detail += f"; printed terms not in inventory: {unknown}"
        return Finding(entry, ok, detail)
    raise AssertionError(f"unhandled kind {entry.kind}")


def verify_paper(manifest_text: Optional[str] = None) -> VerifyReport:
    """Machine-check every manifest entry; mismatches become findings."""
    if manifest_text is None:
        manifest_text = default_manifest_text()
    entries = parse_manifest(manifest_text)
    needed = {
        e.family
        for e in entries
        if e.kind in ("minimal-candidates", "zero-candidates")
    }
    # one memo per run: the sweeps and the `minimal` entries share verdicts
    memo: RingMemo = {}
    reports = {
        fam: minimal_candidates(fam, memo)
        for fam in sorted(needed, key=lambda f: f.value)
    }
    findings = tuple(_check_entry(e, reports, memo) for e in entries)
    return VerifyReport(findings)
