"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""
import itertools
import random

from conftest import orbit_images, random_system
from contextlib import contextmanager
from reference import bell_number, check_wnu_bridge, substitution_lemma_check

import pytest

from linid.algebra import (
    clone_slice,
    holds_in,
    majority_a,
    projection,
    reduct_algebra,
)
from linid.classify import (
    Family,
    classify_system,
    minimal_candidates,
    verify_paper,
)
from linid.reducts import (
    affine_terms,
    coefficient_system,
    solve_mod,
    solve_some_finite_ring,
    verify_witness,
)
from linid.terms import (
    Symbol,
    canonicalize,
    format_system,
    parse_system,
    symmetry_tables,
    weakenings,
)

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
S5 = "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)"
S7 = "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"
PQ = frozenset((Symbol.P, Symbol.Q))


@contextmanager
def verdict(name: str, summary: str):
    try:
        yield
    except Exception:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}: {summary}")


@pytest.fixture(scope="module")
def two_ternary_report():
    return minimal_candidates(Family.TWO_TERNARY)


@pytest.fixture(scope="module")
def paper_report():
    return verify_paper()


def test_criterion_1_two_ternary_minimal_candidates(two_ternary_report):
    with verdict(
        "criterion 1 (two-ternary classification)",
        "minimal TwoTernary = exactly the three published systems",
    ):
        expected = {
            canonicalize(parse_system(text), PQ) for text in (S4, S5, S7)
        }
        got = set(two_ternary_report.minimal_candidates)
        assert got == expected, {
            "unexpected": [format_system(s) for s in got - expected],
            "missing": [format_system(s) for s in expected - got],
        }
        assert len(two_ternary_report.minimal_candidates) == 3


def test_criterion_2_impossibility_families():
    with verdict(
        "criterion 2 (impossibility families)",
        "SingleBinary, TwoBinary, SingleTernary, BinaryPlusTernary have no candidates",
    ):
        for family in (
            Family.SINGLE_BINARY,
            Family.TWO_BINARY,
            Family.SINGLE_TERNARY,
            Family.BINARY_PLUS_TERNARY,
        ):
            report = minimal_candidates(family)
            assert report.candidates == (), family.value
            assert report.minimal_candidates == ()


def test_criterion_3_candidate_soundness():
    with verdict(
        "criterion 3 (candidate soundness)",
        "the three systems fail in every finite-ring reduct by both routes, n up to 64",
    ):
        for text in (S4, S5, S7):
            linsys = coefficient_system(parse_system(text))
            verdict_ring = solve_some_finite_ring(linsys)
            assert not verdict_ring.satisfiable, text
            for n in range(2, 65):
                assert solve_mod(linsys, n) is None, (text, n)


def test_criterion_4_minimality(two_ternary_report):
    with verdict(
        "criterion 4 (minimality)",
        "all strict weakenings of the two proved-minimal systems are ring-satisfiable "
        "with least prime in {2,3,5}",
    ):
        universe = Family.TWO_TERNARY.universe
        by_candidate = {r.candidate: r for r in two_ternary_report.minimality}
        for text, expected_count in ((S4, 2 * 15 - 1), (S7, 2 * 52 - 1)):
            record = by_candidate[canonicalize(parse_system(text), PQ)]
            assert record.is_minimal
            assert len(record.weakenings) == expected_count
            assert expected_count <= bell_number(7) - 1 == 876
            for weak in record.weakenings:
                assert weak.ring_verdict.satisfiable, format_system(weak.system)
                assert weak.ring_verdict.prime in (2, 3, 5)
                wit = dict(weak.ring_verdict.witness)
                assert verify_witness(weak.system, weak.ring_verdict.prime, wit)


def test_criterion_5_witness_ledger(paper_report):
    with verdict(
        "criterion 5 (witness ledger)",
        "every harvested ledger entry re-verifies by substitution (>= 60 entries)",
    ):
        substitution_kinds = {"holds-mod", "projections", "projections-exist"}
        entries = [
            f for f in paper_report.findings if f.entry.kind in substitution_kinds
        ]
        assert len(entries) >= 60, len(entries)
        failed = [f for f in entries if not f.ok]
        assert not failed, [f.entry.describe() for f in failed]
        # the whole manifest must agree, not only the witness entries
        assert paper_report.ok, [
            f.entry.describe() for f in paper_report.findings if not f.ok
        ]


def test_criterion_6_majority_algebra_structure():
    with verdict(
        "criterion 6 (structure of the majority algebra)",
        "binary slice is the two projections; ternary members are projections or "
        "majority operations; the 4-ary bridge term is a WNU",
    ):
        binary = clone_slice(majority_a(3), 2)
        assert {op.table for op in binary.ops} == {
            projection(3, 2, 0).table,
            projection(3, 2, 1).table,
        }
        for m in (2, 3, 4):
            ternary = clone_slice(majority_a(m), 3)
            projections = {projection(m, 3, i).table for i in range(3)}
            for op in ternary.ops:
                if op.table in projections:
                    continue
                for x, y in itertools.product(range(m), repeat=2):
                    assert op.apply((x, x, y)) == x
                    assert op.apply((x, y, x)) == x
                    assert op.apply((y, x, x)) == x
            assert check_wnu_bridge(majority_a(m))


def test_criterion_7_z5_inventory(paper_report):
    with verdict(
        "criterion 7 (ternary inventory over Z5)",
        "25 terms generated; the printed table is contained, with its duplicate "
        "and missing entries reported",
    ):
        terms = affine_terms(5, 3)
        assert len(terms) == 25
        names = [str(t) for t in terms]
        assert len(set(names)) == 25
        entry = next(f for f in paper_report.findings if f.entry.kind == "affine-table")
        assert entry.ok
        printed = list(entry.entry.table_terms)
        assert all(t in names for t in printed)
        duplicates = sorted({t for t in printed if printed.count(t) > 1})
        missing = [t for t in names if t not in printed]
        assert duplicates == ["2x+4z"]
        assert sorted(missing) == ["2y+4z", "3x+4y+4z", "4x+3y+4z", "4x+4y+3z"]
        assert str(duplicates) in entry.detail or "2x+4z" in entry.detail


def test_criterion_8_three_variable_reduction():
    with verdict(
        "criterion 8 (three-variable reduction)",
        "no counterexamples over primes 2, 3, 5, 7 across all 41 shapes",
    ):
        report = substitution_lemma_check((2, 3, 5, 7))
        assert report.shapes_checked == 41
        assert report.counterexamples == ()




def test_criterion_9_property_suites():
    with verdict(
        "criterion 9 (property suites)",
        "classification symmetry-invariance (1000 samples), table/coefficient "
        "cross-oracle, refinement monotonicity, canonical idempotence",
    ):
        rng = random.Random(20240817)
        group_order = len(symmetry_tables(PQ, 2).perms)

        # symmetry invariance of the full classification on 1000 random pairs
        for _ in range(1000):
            s = random_system(rng)
            g = rng.randrange(group_order)
            base = classify_system(s)
            moved = classify_system(next(orbit_images(s, PQ, [g])))
            assert moved.ring_verdict.satisfiable == base.ring_verdict.satisfiable
            assert moved.holds_in_b.satisfiable == base.holds_in_b.satisfiable
            assert moved.holds_in_a.satisfiable == base.holds_in_a.satisfiable
            assert moved.is_candidate == base.is_candidate

        # modular/table cross-oracle over a sampled corpus for n <= 13
        corpus = [parse_system(S4), parse_system(S5), parse_system(S7)]
        corpus += [random_system(rng) for _ in range(5)]
        for n in range(2, 14):
            algebra = reduct_algebra(n)
            for s in corpus:
                assert holds_in(s, algebra).satisfiable == (
                    solve_mod(coefficient_system(s), n) is not None
                ), (format_system(s), n)

        # refinement monotonicity: a witness for a system satisfies each of
        # its weakenings
        for _ in range(40):
            s = random_system(rng)
            refinements = list(weakenings(s))
            if not refinements:
                continue
            weaker = rng.choice(refinements)
            for n in (2, 3, 5):
                sol = solve_mod(coefficient_system(s), n)
                if sol is not None:
                    assert verify_witness(weaker, n, sol)

        # canonical forms are idempotent and orbit-constant
        for _ in range(60):
            s = random_system(rng)
            canon = canonicalize(s, PQ)
            assert canonicalize(canon, PQ) == canon
            g = rng.randrange(group_order)
            assert canonicalize(next(orbit_images(s, PQ, [g])), PQ) == canon
