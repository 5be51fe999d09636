import json
import random

from conftest import PQ, block_of, orbit_images, random_system
from reference import (
    brute_force_candidates, partition_weakenings, system_key, witness_type_masters,
)

import pytest
from hypothesis import example, given, settings, strategies as st

from linid import classify, reducts, terms
from linid.classify import (
    Family,
    MAX_MANIFEST_MODULUS,
    ManifestError,
    VerifyReport,
    candidate_weakenings,
    classify_system,
    enumerate_family,
    master_partitions,
    minimal_candidates,
    parse_manifest,
    verify_paper,
)
from linid.algebra import clone_slice, holds_in, induced_partition, majority_a
from linid.terms import (
    Symbol,
    Var,
    canonicalize,
    format_system,
    parse_system,
    set_partitions,
    symmetry_tables,
    system,
    system_from_blocks,
)

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
S5 = "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)"
S7 = "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"
MASTER2 = "x=p(x,x,y)=p(x,y,y)=p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
MASTER6 = "x=p(x,x,y)=p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"


def canon(text, family=Family.TWO_TERNARY):
    return canonicalize(parse_system(text), family.signature)


def test_family_parsing():
    assert Family.parse("twoternary") is Family.TWO_TERNARY
    assert Family.parse("SingleBinary") is Family.SINGLE_BINARY
    with pytest.raises(ValueError):
        Family.parse("nope")


def test_master_partitions_two_ternary():
    masters = master_partitions(Family.TWO_TERNARY)
    assert len(masters) == 16
    u = Family.TWO_TERNARY.universe
    xblocks = {frozenset(map(str, block_of(part, Var(0)))) for part in masters}

    # p read as the first projection, q as the majority operation
    assert {
        "x", "p(x,x,y)", "p(x,y,y)", "p(x,y,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    } in xblocks
    # every master splits the universe into the x side and the mirrored y side
    for part in masters:
        assert len(part.blocks) == 2
        assert all(len(b) == 7 for b in part.blocks)
        assert (part.num_vars, part.signature) == (2, u.signature)

    # both read as the majority operation
    assert {
        "x", "p(x,x,y)", "p(x,y,x)", "p(y,x,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    } in xblocks


def test_master_partition_counts_other_families():
    assert len(master_partitions(Family.SINGLE_BINARY)) == 2
    assert len(master_partitions(Family.TWO_BINARY)) == 4
    assert len(master_partitions(Family.SINGLE_TERNARY)) == 4
    assert len(master_partitions(Family.BINARY_PLUS_TERNARY)) == 8


@pytest.mark.parametrize(
    "family, count",
    [
        (Family.TWO_TERNARY, 16),
        (Family.SINGLE_TERNARY, 4),
        (Family.BINARY_PLUS_TERNARY, 8),
        (Family.SINGLE_BINARY, 2),
        (Family.TWO_BINARY, 4),
    ],
)
def test_master_partitions_match_witness_types(family, count):
    # the kernels of A's clone-slice witnesses are the closures of the
    # witness types, without the lemma that majority operations agree on
    # two-variable argument patterns
    masters = master_partitions(family)
    assert len(masters) == len(set(masters)) == count
    assert set(masters) == set(witness_type_masters(family))


def test_enumerate_contains_the_three_candidates():
    stream = enumerate_family(Family.TWO_TERNARY)
    assert len(stream) == len(set(stream))
    for text in (S4, S5, S7):
        assert canon(text) in stream
    # the empty system appears exactly once
    empties = [s for s in stream if not s.identities]
    assert len(empties) == 1


def unreduced_enumeration(family):
    """Reference: canonicalise every raw partition of every master x-block."""
    raw = set()
    for master in master_partitions(family):
        for parts in set_partitions(block_of(master, Var(0))):
            raw.add(system_from_blocks(parts, 2, family.signature))
    canonical = {canonicalize(s, family.signature) for s in raw}
    return tuple(sorted(canonical, key=system_key))


@pytest.mark.parametrize(
    "family, classes",
    [
        (Family.TWO_TERNARY, 329),
        (Family.SINGLE_TERNARY, 14),
        (Family.BINARY_PLUS_TERNARY, 45),
        (Family.SINGLE_BINARY, 2),
        (Family.TWO_BINARY, 4),
    ],
)
def test_orbit_reductions_lose_no_class(family, classes):
    stream = enumerate_family(family)
    assert stream == unreduced_enumeration(family)
    assert len(stream) == classes


def test_two_ternary_enumeration_canonicalises_each_class_once(monkeypatch):
    calls = []
    kernel = classify.canonical_blocks

    def counting(blocks, tables, marks=None, rows=None):
        calls.append(blocks)
        return kernel(blocks, tables, marks, rows)

    built = []
    row_builder = terms._block_row

    def counting_rows(block, tables):
        built.append(block)
        return row_builder(block, tables)

    monkeypatch.setattr(classify, "canonical_blocks", counting)
    monkeypatch.setattr(terms, "_block_row", counting_rows)
    assert len(enumerate_family(Family.TWO_TERNARY)) == len(calls) == 329
    # one row per distinct block in the call, and a fresh call builds them again
    distinct = {tuple(b) for blocks in calls for b in blocks}
    assert sorted(built) == sorted(distinct)
    enumerate_family(Family.TWO_TERNARY)
    assert len(built) == 2 * len(distinct)


def test_ring_decision_diagonalises_each_column_suffix_once(monkeypatch):
    systems = enumerate_family(Family.TWO_TERNARY)
    calls = []
    kernel = reducts.smith_diagonalize

    def counting(matrix):
        calls.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(reducts, "smith_diagonalize", counting)
    assert len(systems) == 329
    for s in systems:
        before = len(calls)
        classify_system(s)
        # one per column suffix: all symbols, the last symbol, none
        assert len(calls) - before <= len(s.signature) + 1, format_system(s)


def test_ternary_term_operations_of_a_induce_master_partitions():
    # each ternary term operation of A groups the terms as some witness type
    # does: 6 operations, 4 kernels
    a = majority_a(3)
    family = Family.SINGLE_TERNARY
    masters = set(master_partitions(family))
    ops = clone_slice(a, 3).ops
    induced = {induced_partition({Symbol.P: op}, family.universe, a) for op in ops}
    assert len(ops) == 6
    assert len(induced) == 4
    assert induced == masters == set(witness_type_masters(family))


def test_enumerate_single_binary_contents():
    stream = enumerate_family(Family.SINGLE_BINARY)
    rendered = sorted(format_system(s) for s in stream)
    assert rendered == ["", "x=t(x,y)"]


def test_enumerated_systems_hold_in_majority_by_construction():
    a = majority_a(3)
    for family in Family:
        for s in enumerate_family(family):
            assert holds_in(s, a).satisfiable, format_system(s)


def test_classify_examples():
    cls = classify_system(parse_system(S4))
    assert cls.is_candidate
    assert not cls.ring_verdict.satisfiable
    assert cls.holds_in_b.satisfiable and cls.holds_in_a.satisfiable

    cls = classify_system(parse_system(MASTER2))
    assert not cls.holds_in_b.satisfiable
    assert not cls.is_candidate

    weakened = parse_system("p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)")
    cls = classify_system(weakened)
    assert cls.ring_verdict.satisfiable
    assert not cls.is_candidate
    # the published witness works mod 5 even though the least prime is smaller
    from linid.reducts import AffineTerm, verify_witness

    both = {s: AffineTerm(5, (2, 2, 2)) for s in (Symbol.P, Symbol.Q)}
    assert verify_witness(weakened, 5, both)


def test_classification_symmetry_invariance_sample():
    rng = random.Random(41)
    signature = Family.TWO_TERNARY.signature
    group_order = len(symmetry_tables(signature, 2).perms)
    for text in (S4, S5, S7, MASTER2, MASTER6):
        s = parse_system(text)
        base = classify_system(s)
        for image in orbit_images(s, signature, rng.sample(range(group_order), 5)):
            moved = classify_system(image)
            assert moved.is_candidate == base.is_candidate
            assert moved.ring_verdict.satisfiable == base.ring_verdict.satisfiable
            assert moved.holds_in_b.satisfiable == base.holds_in_b.satisfiable
            assert moved.holds_in_a.satisfiable == base.holds_in_a.satisfiable


def test_verify_paper_decides_each_ring_system_once(monkeypatch):
    calls = []
    solve = reducts.solve_some_finite_ring

    def counting(linsys):
        calls.append(linsys)
        return solve(linsys)

    monkeypatch.setattr(reducts, "solve_some_finite_ring", counting)
    first = verify_paper()
    per_run = len(calls)
    # 991 without the memo: the weakening sweeps and the `minimal` entries
    # repeat systems that classification already decided
    assert per_run <= 720
    second = verify_paper()
    # a second run decides everything again: the memo lives for one run
    assert len(calls) == 2 * per_run
    assert first == second


def test_ring_unsat_entries_share_the_run_memo(monkeypatch):
    calls = []
    solve = reducts.solve_some_finite_ring

    def counting(linsys):
        calls.append(linsys)
        return solve(linsys)

    monkeypatch.setattr(reducts, "solve_some_finite_ring", counting)
    line = f"ring-unsat | TwoTernary | {S4}\n"
    report = verify_paper(line + line)
    assert report.ok and len(report.findings) == 2
    assert len(calls) == 1


# the failure details of a failing `minimal` and `ring-unsat` entry, as the
# bundled manifest's verifier has always printed them
@pytest.mark.parametrize("line, detail", [
    ("minimal | TwoTernary | x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(x,x,y)=q(x,y,x)=q(x,y,y)",
     "weaker candidates exist: ['x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(x,x,y); q(x,y,x)=q(x,y,y)', "
     "'x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(x,y,x); q(x,x,y)=q(x,y,y)']"),
    ("ring-unsat | TwoTernary | p(x,x,y)=q(x,x,y)", "satisfiable mod 2"),
], ids=["minimal", "ring-unsat"])
def test_failing_entry_details_are_pinned(line, detail):
    (finding,) = verify_paper(line).findings
    assert (finding.ok, finding.detail) == (False, detail)


def test_ring_memo_keeps_signature_and_variable_count_apart():
    base = parse_system("p(x,x,y)=x; p(x,y,x)=y")
    variants = [
        base,
        system(base.identities, signature=Family.TWO_TERNARY.signature),
        system(base.identities, num_vars=3),
    ]
    # System equality ignores both, the coefficient system does not
    assert variants[0] == variants[1] == variants[2]
    memo = {}
    verdicts = [classify.ring_verdict(s, memo) for s in variants]
    for s, verdict in zip(variants, verdicts):
        assert verdict == reducts.solve_some_finite_ring(reducts.coefficient_system(s))
        assert classify.ring_verdict(s, memo) is verdict
    assert len({json.dumps(v.to_json(), sort_keys=True) for v in verdicts}) == 3


@pytest.fixture(scope="module")
def two_ternary_report():
    return minimal_candidates(Family.TWO_TERNARY)


def test_shared_memo_keeps_each_family_its_own_verdicts(two_ternary_report):
    # as in verify_paper, SingleTernary first decides p-only systems over
    # {p}; the TwoTernary weakenings equal to them are decided over {p, q}
    memo = {}
    minimal_candidates(Family.SINGLE_TERNARY, memo)
    shared = minimal_candidates(Family.TWO_TERNARY, memo)
    assert shared.to_json() == two_ternary_report.to_json()


def test_minimal_two_ternary(two_ternary_report):
    report = two_ternary_report
    assert set(report.minimal_candidates) == {canon(S4), canon(S5), canon(S7)}
    assert set(report.minimal_candidates) <= {c.system for c in report.candidates}


def test_weakenings_of_candidates_counted(two_ternary_report):
    by_system = {r.candidate: r for r in two_ternary_report.minimality}
    s4 = by_system[canon(S4)]
    s7 = by_system[canon(S7)]
    # product of Bell numbers of block sizes, minus the partition itself
    assert len(s4.weakenings) == 2 * 15 - 1
    assert len(s7.weakenings) == 2 * 52 - 1
    for record in (s4, s7):
        assert record.is_minimal
        for weak in record.weakenings:
            assert weak.ring_verdict.satisfiable
            assert weak.ring_verdict.prime in (2, 3, 5)


def test_non_minimal_candidates_point_to_weaker_ones(two_ternary_report):
    minimal = two_ternary_report.minimal_candidates
    for record in two_ternary_report.minimality:
        if record.is_minimal:
            continue
        assert record.weaker_candidates
        for weaker in record.weaker_candidates:
            # a weaker candidate is itself a candidate of the family
            assert weaker in {c.system for c in two_ternary_report.candidates}
        # and some minimal candidate lies strictly below it
        assert record.minimal_below(minimal)


def test_candidate_weakenings_hold_in_both_algebras(two_ternary_report):
    from linid.algebra import semilattice_b

    b, a = semilattice_b(), majority_a(3)
    record = next(r for r in two_ternary_report.minimality if r.candidate == canon(S4))
    for weak in record.weakenings:
        assert holds_in(weak.system, b).satisfiable
        assert holds_in(weak.system, a).satisfiable


def test_candidate_weakenings_match_partition_walk(two_ternary_report):
    # the sweep read from a system's closure blocks lists the same systems,
    # in the same order and over the universe's variables and signature, as
    # the walk over index partitions of the universe
    P, T = Symbol.P, Symbol.T
    # every candidate of the five families: the other four have none
    # (test_zero_candidate_families)
    cases = [(c.system, Family.TWO_TERNARY) for c in two_ternary_report.candidates]
    assert len(cases) > 3
    cases += [(parse_system(text), Family.TWO_TERNARY) for text in (S4, S5, S7)]
    rng = random.Random("weakenings")
    shapes = [
        (PQ, Family.TWO_TERNARY),
        ({P}, Family.TWO_TERNARY),
        ({P}, Family.SINGLE_TERNARY),
        ({P}, Family.BINARY_PLUS_TERNARY),
        ({P, T}, Family.BINARY_PLUS_TERNARY),
    ]
    for _ in range(200):
        sig, family = rng.choice(shapes)
        s = random_system(rng, frozenset(sig))
        if rng.random() < 0.25:
            # declared over three variables, using two
            s = system(s.identities, num_vars=3, signature=s.signature)
        cases.append((s, family))
    for s, family in cases:
        got = candidate_weakenings(s, family.universe)
        want = partition_weakenings(s, family.universe)
        assert [(w, w.signature, w.num_vars) for w in got] == [
            (w, w.signature, w.num_vars) for w in want
        ], format_system(s)


def test_candidate_weakenings_rejects_foreign_terms():
    with pytest.raises(ValueError, match=r"^term q\(x,x,y\) outside universe$"):
        candidate_weakenings(parse_system(S4), Family.SINGLE_TERNARY.universe)
    with pytest.raises(ValueError, match="outside universe"):
        candidate_weakenings(parse_system("x=p(x,y,z)"), Family.SINGLE_TERNARY.universe)


@pytest.mark.parametrize("family", list(Family))
def test_minimal_candidates_runs_no_union_find(family, monkeypatch):
    # enumeration, canonical forms and weakenings are all built from closure
    # blocks; the union-find runs only on identity input
    calls = []
    kernel = terms._merge_terms

    def counting(identities):
        calls.append(identities)
        return kernel(identities)

    monkeypatch.setattr(terms, "_merge_terms", counting)
    minimal_candidates(family)
    assert calls == []


@pytest.mark.parametrize(
    "family",
    [Family.SINGLE_BINARY, Family.TWO_BINARY, Family.SINGLE_TERNARY, Family.BINARY_PLUS_TERNARY],
)
def test_zero_candidate_families(family):
    report = minimal_candidates(family)
    assert report.candidates == ()
    assert report.minimal_candidates == ()


@pytest.mark.parametrize(
    "family", [Family.SINGLE_BINARY, Family.TWO_BINARY, Family.SINGLE_TERNARY]
)
def test_brute_force_oracle_matches_pruned_enumeration(family):
    # classify every partition of the full universe, no master-closure pruning
    brute = set(brute_force_candidates(family))
    pruned = {
        c.system for c in minimal_candidates(family).candidates
    }
    assert brute == pruned == set()


def test_report_determinism():
    a = minimal_candidates(Family.SINGLE_TERNARY).to_json()
    b = minimal_candidates(Family.SINGLE_TERNARY).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_enumeration_determinism():
    first = [format_system(s) for s in enumerate_family(Family.BINARY_PLUS_TERNARY)]
    second = [format_system(s) for s in enumerate_family(Family.BINARY_PLUS_TERNARY)]
    assert first == second


def test_manifest_parser_errors():
    with pytest.raises(ManifestError):
        parse_manifest("bogus-kind | TwoTernary | x=t(x,y)")
    with pytest.raises(ManifestError):
        parse_manifest("holds-mod | TwoTernary | p(x | 5 | p=x | q=x")
    entries = parse_manifest(
        "# comment\n\nholds-mod | TwoTernary | p(x,x,y)=q(x,x,y) | 2 | p=x | q=x\n"
    )
    assert len(entries) == 1
    assert entries[0].modulus == 2
    # a system over some of its family's symbols lies in the family universe
    assert parse_manifest("fails-in-b | TwoTernary | x=p(x,y,y)")[0].system.signature == {Symbol.P}


# one complete line per entry kind; dropping its last field leaves a line
# that lacks the named field
_FULL_ENTRIES = [
    ("holds-mod | TwoTernary | p(x,x,y)=q(x,x,y) | 2", "modulus"),
    ("projections | TwoTernary | p(x,x,y)=q(x,x,y)", "system"),
    ("projections-exist | TwoTernary | p(x,x,y)=q(x,x,y)", "system"),
    ("fails-in-b | TwoTernary | p(x,x,y)=q(x,x,y)", "system"),
    ("ring-unsat | TwoTernary | p(x,x,y)=q(x,x,y)", "system"),
    ("minimal | TwoTernary | p(x,x,y)=q(x,x,y)", "system"),
    ("minimal-candidates | TwoTernary", "family"),
    ("zero-candidates | TwoTernary", "family"),
    ("affine-table | 3 | x, y", "terms"),
]


@pytest.mark.parametrize("line, field", _FULL_ENTRIES, ids=lambda v: v.split(" ")[0])
def test_manifest_line_without_a_field_names_it(line, field):
    assert len(parse_manifest(line)) == 1
    short = line.rsplit("|", 1)[0]
    kind = line.split(" ")[0]
    with pytest.raises(ManifestError) as info:
        parse_manifest("# header\n" + short)
    assert str(info.value) == f"line 2: {kind} entry lacks its {field} field"


def test_manifest_moduli_are_bounded():
    for n in (2, MAX_MANIFEST_MODULUS):
        assert parse_manifest(f"affine-table | {n} | x")[0].modulus == n
        assert parse_manifest(f"holds-mod | TwoTernary | x=p(x,x,y) | {n} | p=x")[0].modulus == n
    for n in (-5, 0, 1, MAX_MANIFEST_MODULUS + 1, 99999999):
        for line in (f"affine-table | {n} | x", f"holds-mod | TwoTernary | x=p(x,x,y) | {n} | p=x"):
            with pytest.raises(ManifestError) as info:
                parse_manifest(line)
            assert str(info.value) == f"line 1: modulus {n} outside 2..{MAX_MANIFEST_MODULUS}"


def test_verify_paper_reports_mismatch_instead_of_raising():
    bad = "ring-unsat | TwoTernary | p(x,x,y)=q(x,x,y)\n"
    report = verify_paper(bad)
    assert not report.ok
    assert report.num_failed == 1
    assert "mod" in report.findings[0].detail


def test_verify_paper_witness_mismatch_detected():
    bad = "holds-mod | TwoTernary | p(x,x,y)=p(x,y,y) | 5 | p=2x+2y+2z\n"
    report = verify_paper(bad)
    assert not report.ok


def test_manifest_witness_terms_are_parsed_once_and_print_as_written():
    # every bundled witness text is the str of the term parsed from it
    text = classify.default_manifest_text()
    lines = [line for line in text.splitlines() if line.split("#", 1)[0].strip()]
    printed = 0
    for line, entry in zip(lines, parse_manifest(text), strict=True):
        fields = [f.strip() for f in line.split("#", 1)[0].split("|")]
        first = {"holds-mod": 4, "projections": 3}.get(entry.kind, len(fields))
        assert [f"{sym.value}={term}" for sym, term in entry.witness] == fields[first:]
        for sym, term in entry.witness:
            assert isinstance(term, reducts.AffineTerm)
            assert (term.arity, term.modulus) == (sym.arity, entry.modulus or 5)
            printed += 1
    assert printed == 108


@pytest.mark.parametrize("line, message", [
    ("holds-mod | TwoTernary | x=p(x,y,y) | 5 | p=0x | q=x",
     "coefficients (0, 0, 0) do not sum to 1 mod 5"),
    ("projections | BinaryPlusTernary | t(x,y)=x | t=z", "bad variable in affine term 'z'"),
    ("projections | TwoTernary | x=p(x,y,y) | r=x", "unknown symbol 'r' in witness 'r=x'"),
    ("holds-mod | TwoTernary | x=p(x,y,y) | five | p=x", "modulus 'five' is not an integer"),
], ids=["zero-sum", "bad-variable", "unknown-symbol", "modulus"])
def test_manifest_bad_witness_term_names_its_line(line, message):
    with pytest.raises(ManifestError) as info:
        parse_manifest("holds-mod | TwoTernary | x=p(x,y,y) | 5 | p=x\n" + line)
    assert str(info.value) == f"line 2: {message}"


# the ledger's entry kinds, which check one system or table each
_LEDGER_KINDS = ("holds-mod", "projections", "projections-exist", "fails-in-b", "ring-unsat", "affine-table")
_ARITY = {"p": 3, "q": 3, "t": 2, "s": 2}
_junk = st.text(alphabet="xyzpqtsr(),=;+-0123456789 |&#", max_size=12)


@st.composite
def _ledger_lines(draw):
    """A one-line manifest: mostly well formed over its family, with moduli
    up to 7, some foreign terms, witnesses that may not sum to 1, and each
    field now and then junk."""
    kind = draw(st.sampled_from(_LEDGER_KINDS))
    n = draw(st.integers(-1, 7))

    def junk_or(text):
        return draw(_junk) if draw(st.integers(0, 5)) == 0 else text

    def affine(arity, modulus):
        coeffs = draw(st.lists(st.integers(0, 9), min_size=arity, max_size=arity))
        if modulus >= 2 and draw(st.booleans()):
            coeffs[-1] = (1 - sum(coeffs[:-1])) % modulus
        return "+".join(v if c == 1 else f"{c}{v}" for c, v in zip(coeffs, "xyz") if c) or "0x"

    if kind == "affine-table":
        terms = ", ".join(affine(3, n) for _ in range(draw(st.integers(0, 4))))
        fields = [junk_or(str(n)), junk_or(terms)]
    else:
        family = draw(st.sampled_from(Family))
        letters = sorted(sym.value for sym in family.signature)
        pool = ["x", "y"] + 3 * letters + ["z", "q", "t"]

        def term():
            name = draw(st.sampled_from(pool))
            if name in "xyz":
                return name
            args = draw(st.lists(st.sampled_from("xy"), min_size=_ARITY[name], max_size=_ARITY[name]))
            return f"{name}({','.join(args)})"

        chains = ["=".join(term() for _ in range(draw(st.integers(2, 3))))
                  for _ in range(draw(st.integers(1, 3)))]
        fields = [junk_or(family.value), junk_or("; ".join(chains))]
        if kind == "holds-mod":
            fields.append(junk_or(str(n)))
        if kind in ("holds-mod", "projections"):
            modulus = n if kind == "holds-mod" else 5
            fields += [junk_or(f"{l}={affine(_ARITY[l], modulus)}") for l in letters]
    if draw(st.integers(0, 9)) == 0:
        fields.pop()
    if draw(st.integers(0, 9)) == 0:
        fields.append(draw(_junk))
    return " | ".join([kind, *fields])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@example("holds-mod | TwoTernary | x=p(x,y,y) | 5 | p=0x | q=x")
@given(_ledger_lines())
def test_fuzzed_ledger_line_gives_a_report_or_a_manifest_error(line):
    try:
        report = verify_paper(line)
    except ManifestError as exc:
        assert str(exc).startswith("line 1: ") and "\n" not in str(exc)
    else:
        assert isinstance(report, VerifyReport) and len(report.findings) <= 1
