"""Checks and oracles that only the tests use.

The library keeps what the reproduction runs; the lemma checks, the
unpruned enumeration oracle and the reference walks that tests compare the
library against live here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from linid.algebra import FiniteAlgebra, induced_partition, majority_a, projection
from linid.classify import Family, classify_system
from linid.reducts import affine_coefficients
from linid.terms import (
    App,
    Identity,
    Symbol,
    System,
    SymmetryTables,
    Term,
    TermUniverse,
    VAR_NAMES,
    Var,
    block_mark,
    canonicalize,
    rename_term,
    set_partitions,
    symmetry_tables,
    system,
    system_from_blocks,
)


# ---------------------------------------------------------------------------
# Terms: a sort key, variable substitution and Bell numbers
# ---------------------------------------------------------------------------


def system_key(s: System) -> tuple:
    """Deterministic sort key: the sorted tuple of identity keys."""
    return tuple(sorted(i.key() for i in s.identities))


def substitute_variable(s: System, src: int, dst: int) -> System:
    """Replace variable src by dst everywhere; drop identities that trivialise."""
    if src >= s.num_vars:
        raise ValueError(f"variable {VAR_NAMES[src]} not declared in system")
    mapping = [dst if v == src else v for v in range(len(VAR_NAMES))]
    idents = []
    for ident in s.identities:
        left = rename_term(ident.left, mapping)
        right = rename_term(ident.right, mapping)
        if left != right:
            idents.append(Identity(left, right))
    return system(idents, signature=s.signature)


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# The weakening walk on index partitions, as the library did it before
# closures were held only as Systems
# ---------------------------------------------------------------------------


def partition_weakenings(s: System, universe: TermUniverse) -> list[System]:
    """Systems of all partitions of universe strictly refining the closure of
    s: the nontrivial index blocks by least index, each block's set
    partitions in order, over the universe's variables and signature."""
    blocks = [tuple(sorted(universe.index(t) for t in b)) for b in s.blocks]
    blocks.sort(key=lambda b: b[0])
    out = []
    for combo in itertools.product(*[list(set_partitions(b)) for b in blocks]):
        if all(len(parts) == 1 for parts in combo):
            continue
        idents = [
            Identity(universe.terms[a], universe.terms[b])
            for parts in combo
            for part in parts
            for a, b in zip(part, part[1:])
        ]
        out.append(system(idents, universe.num_vars, universe.signature))
    return out


# ---------------------------------------------------------------------------
# The canonical form by ranking every group element, as the library did
# before it ranked only the elements that can win
# ---------------------------------------------------------------------------


def first_largest_mark(blocks: Sequence[Sequence[int]], tables: SymmetryTables) -> int:
    """The first element whose image of the index blocks has the largest
    block_mark, every element ranked."""
    size = len(tables.universe)
    rows = [
        [block_mark([image], size) for image in zip(*[tables.columns[i] for i in b])]
        for b in blocks
    ]
    values = list(map(sum, zip(*rows))) or [0] * len(tables.perms)
    return values.index(max(values))


def canonicalize_every_element(s: System, signature=None) -> System:
    """canonicalize, with the image chosen by first_largest_mark."""
    sig = frozenset(signature) if signature is not None else s.signature
    tables = symmetry_tables(sig, s.num_vars)
    u = tables.universe
    blocks = [[u.index(t) for t in block] for block in s.blocks]
    k = first_largest_mark(blocks, tables)
    perm, symbol_map = tables.perms[k], tables.symbol_maps[k]
    return system_from_blocks(
        [[u.terms[perm[i]] for i in b] for b in blocks],
        s.num_vars,
        [symbol_map[sym] for sym in s.signature],
    )


# ---------------------------------------------------------------------------
# The master closures from witness types, as the library built them before
# it took the kernels of A's clone slices
# ---------------------------------------------------------------------------


def witness_type_masters(family: Family) -> list[System]:
    """Per assignment of a witness type to each symbol (a projection or, for
    a ternary symbol, A's majority operation), the closure it induces on the
    family universe.  That these are all of A's kernels rests on a lemma:
    every majority operation agrees on two-variable argument patterns."""
    a = majority_a(3)
    symbols = sorted(family.signature, key=lambda s: s.order)

    def types(sym: Symbol) -> list:
        pis = [projection(a.size, sym.arity, i) for i in range(sym.arity)]
        return pis + [a.ops[0]] if sym.arity == 3 else pis

    return [
        induced_partition(dict(zip(symbols, ops)), family.universe, a)
        for ops in itertools.product(*map(types, symbols))
    ]


# ---------------------------------------------------------------------------
# The unpruned enumeration oracle
# ---------------------------------------------------------------------------


def brute_force_candidates(family: Family) -> tuple[System, ...]:
    """Oracle: classify every partition of the whole universe, no pruning.

    Feasible for the binary families and SingleTernary (Bell(4), Bell(6)
    and Bell(8) partitions); validates that master-closure pruning loses no
    candidates.
    """
    universe = family.universe
    out = []
    seen = set()
    for parts in set_partitions(range(len(universe))):
        blocks = [b for b in parts if len(b) > 1]
        s = system_from_blocks(
            [[universe.terms[i] for i in b] for b in blocks],
            universe.num_vars,
            universe.signature,
        )
        canon = canonicalize(s, family.signature)
        if canon in seen:
            continue
        seen.add(canon)
        if classify_system(canon).is_candidate:
            out.append(canon)
    return tuple(sorted(out, key=system_key))


# ---------------------------------------------------------------------------
# The majority algebra's weak near-unanimity bridge
# ---------------------------------------------------------------------------


def check_wnu_bridge(algebra: FiniteAlgebra) -> bool:
    """For the majority algebra: g(x,y,w,z) = f(x,y,f(x,w,z)) is a 4-ary weak
    near-unanimity operation with g(y,x,x,x) = f(y,x,x)."""
    f = algebra.ops[0]
    m = algebra.size

    def g(x: int, y: int, w: int, z: int) -> int:
        return f.apply((x, y, f.apply((x, w, z))))

    if any(g(a, a, a, a) != a for a in range(m)):
        return False
    for a, b in itertools.product(range(m), repeat=2):
        one_off = (g(b, a, a, a), g(a, b, a, a), g(a, a, b, a), g(a, a, a, b))
        if len(set(one_off)) != 1:
            return False
        if one_off[0] != f.apply((b, a, a)):
            return False
    return True


# ---------------------------------------------------------------------------
# The three-variable reduction check
#
# For one ternary symbol, identities with three variables on both sides
# (permutation identities) or with {x,y} on the left and {x,z} on the right
# reduce to the two-variable case: any affine operation satisfying both
# substitution instances (z -> x and z -> y) satisfies the original identity.
# ---------------------------------------------------------------------------


def _coeff_identity_holds(left: Term, right: Term, w: Sequence[int], p: int) -> bool:
    """Whether an identity on one ternary symbol holds for coefficients w mod p."""
    if left == right:
        return True
    for var in range(3):
        lhs = rhs = 0
        for side, sign in ((left, 1), (right, -1)):
            if isinstance(side, Var):
                val = 1 if side.index == var else 0
            else:
                val = sum(w[i] for i, v in enumerate(side.pattern) if v == var)
            if sign > 0:
                lhs = val
            else:
                rhs = val
        if (lhs - rhs) % p != 0:
            return False
    return True


@dataclass(frozen=True)
class LemmaCounterexample:
    prime: int
    left: Term
    right: Term
    witness: tuple[int, ...]


@dataclass(frozen=True)
class LemmaReport:
    primes: tuple[int, ...]
    shapes_checked: int
    counterexamples: tuple[LemmaCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def three_variable_shapes() -> list[tuple[Term, Term]]:
    """Single-symbol shapes covered by the two-variable reduction.

    (a) permutation identities p(x,y,z) = p(sigma(x,y,z)), sigma nontrivial;
    (b) two variables on each side, {x,y} left and {x,z} right.
    """
    shapes: list[tuple[Term, Term]] = []
    base = App(Symbol.P, (0, 1, 2))
    for perm in itertools.permutations(range(3)):
        if perm != (0, 1, 2):
            shapes.append((base, App(Symbol.P, perm)))
    xy = [p for p in itertools.product((0, 1), repeat=3) if len(set(p)) == 2]
    xz = [p for p in itertools.product((0, 2), repeat=3) if len(set(p)) == 2]
    for pl in xy:
        for pr in xz:
            shapes.append((App(Symbol.P, pl), App(Symbol.P, pr)))
    return shapes


def substitution_lemma_check(primes: Sequence[int]) -> LemmaReport:
    """Verify the reduction on every shape: a witness of both substitution
    instances is a witness of the original identity."""
    shapes = three_variable_shapes()
    counterexamples = []
    for p in primes:
        if p < 2:
            raise ValueError("primes must be at least 2")
        candidates = affine_coefficients(p, 3)
        for left, right in shapes:
            # the instances z -> x and z -> y
            insts = [
                (rename_term(left, (0, 1, dst)), rename_term(right, (0, 1, dst)))
                for dst in (0, 1)
            ]
            for w in candidates:
                if all(_coeff_identity_holds(l, r, w, p) for l, r in insts):
                    if not _coeff_identity_holds(left, right, w, p):
                        counterexamples.append(
                            LemmaCounterexample(p, left, right, w)
                        )
    return LemmaReport(tuple(primes), len(shapes), tuple(counterexamples))
