"""Reference computations for the benchmark's output checks.

Nothing here imports linid.  Systems are re-read from their DSL text by a
parser of this module's own, affine solutions are found by exhaustive search
over coefficient tuples, witnesses are evaluated point by point, and the
clones of the test algebras are built by a naive composition closure.

A system is ``(num_vars, symbols, identities)``: ``symbols`` is the sorted
tuple of symbol letters mentioned in the text, an identity is a pair of
terms, and a term is a variable index or a ``(letter, pattern)`` pair.
"""
from __future__ import annotations

import itertools
import re

VARS = "xyz"
ARITY = {"p": 3, "q": 3, "t": 2, "s": 2}
SYMBOL_ORDER = "pqts"

_TERM = re.compile(r"([pqts])\(([xyz](?:,[xyz])*)\)|([xyz])")


def parse(text: str):
    """Parse ``a=b=c; d=e`` into a system; constant patterns collapse to
    their variable, and identities that become trivial are dropped."""
    text = "".join(text.split()).replace("≈", "=")
    used_vars: set[int] = set()
    used_syms: set[str] = set()
    identities = []
    for chain in filter(None, text.split(";")):
        terms = []
        for raw in chain.split("="):
            m = _TERM.fullmatch(raw)
            if m is None:
                raise ValueError(f"cannot parse term {raw!r}")
            if m.group(3):
                term = VARS.index(m.group(3))
                used_vars.add(term)
            else:
                sym = m.group(1)
                pattern = tuple(VARS.index(v) for v in m.group(2).split(","))
                if len(pattern) != ARITY[sym]:
                    raise ValueError(f"wrong arity in {raw!r}")
                used_syms.add(sym)
                used_vars.update(pattern)
                term = pattern[0] if len(set(pattern)) == 1 else (sym, pattern)
            terms.append(term)
        identities.extend((a, b) for a, b in zip(terms, terms[1:]) if a != b)
    num_vars = max(max(used_vars, default=1) + 1, 2)
    symbols = tuple(sorted(used_syms, key=SYMBOL_ORDER.index))
    return num_vars, symbols, identities


def term_symbols(term) -> tuple[str, ...]:
    return () if isinstance(term, int) else (term[0],)


def _identity_symbols(ident) -> frozenset[str]:
    return frozenset(term_symbols(ident[0]) + term_symbols(ident[1]))


def _staged_search(symbols, identities, candidates, holds):
    """First assignment of candidates to symbols satisfying every identity.

    Candidates of each symbol are filtered by the identities naming that
    symbol alone; the survivors are then tried in full product order.
    """
    ok_empty = all(holds(ident, {}) for ident in identities if not _identity_symbols(ident))
    if not ok_empty:
        return None
    survivors = []
    for sym in symbols:
        own = [i for i in identities if _identity_symbols(i) == {sym}]
        survivors.append([c for c in candidates[sym] if all(holds(i, {sym: c}) for i in own)])
    cross = [i for i in identities if len(_identity_symbols(i)) > 1]
    for combo in itertools.product(*survivors):
        assignment = dict(zip(symbols, combo))
        if all(holds(i, assignment) for i in cross):
            return assignment
    return None


# ---------------------------------------------------------------------------
# Idempotent affine operations over Z_n
# ---------------------------------------------------------------------------


def affine_tuples(n: int, arity: int) -> list[tuple[int, ...]]:
    """Every coefficient tuple over Z_n whose entries sum to 1 mod n."""
    return [c for c in itertools.product(range(n), repeat=arity) if sum(c) % n == 1 % n]


def _coefficient_sums(term, coeffs, var: int) -> int:
    if isinstance(term, int):
        return 1 if term == var else 0
    sym, pattern = term
    return sum(c for c, v in zip(coeffs[sym], pattern) if v == var)


def affine_solution(system, n: int):
    """Exhaustive search for idempotent affine operations mod n.

    Two affine operations agree on every module over Z_n exactly when their
    per-variable coefficient sums agree mod n, so each identity is checked
    variable by variable.  Returns ``{letter: coeffs}`` or None.
    """
    num_vars, symbols, identities = system

    def holds(ident, coeffs):
        left, right = ident
        return all(
            (_coefficient_sums(left, coeffs, v) - _coefficient_sums(right, coeffs, v)) % n == 0
            for v in range(num_vars)
        )

    candidates = {sym: affine_tuples(n, ARITY[sym]) for sym in symbols}
    return _staged_search(symbols, identities, candidates, holds)


def moduli_with_affine_solution(system, moduli) -> list[int]:
    return [n for n in moduli if affine_solution(system, n) is not None]


# ---------------------------------------------------------------------------
# Point-by-point evaluation of a claimed witness
# ---------------------------------------------------------------------------


def _evaluate(term, args, ops) -> int:
    if isinstance(term, int):
        return args[term]
    sym, pattern = term
    return ops[sym](tuple(args[v] for v in pattern))


def holds_pointwise(system, ops, size: int) -> bool:
    """Whether every identity holds for every assignment of the variables
    over ``range(size)``; ``ops`` maps each letter to a callable."""
    num_vars, _symbols, identities = system
    for args in itertools.product(range(size), repeat=num_vars):
        for left, right in identities:
            if _evaluate(left, args, ops) != _evaluate(right, args, ops):
                return False
    return True


def affine_op(coeffs, n: int):
    return lambda args: sum(c * a for c, a in zip(coeffs, args)) % n


def table_op(table, size: int):
    def apply(args):
        index = 0
        for a in args:
            index = index * size + a
        return table[index]

    return apply


def affine_witness_holds(system, coeffs_by_sym, n: int) -> bool:
    _num_vars, symbols, _identities = system
    if any(sym not in coeffs_by_sym for sym in symbols):
        return False
    for sym in symbols:
        coeffs = coeffs_by_sym[sym]
        if len(coeffs) != ARITY[sym] or sum(coeffs) % n != 1 % n:
            return False
    ops = {sym: affine_op(coeffs_by_sym[sym], n) for sym in symbols}
    return holds_pointwise(system, ops, n)


# ---------------------------------------------------------------------------
# Clones of the two test algebras, by composition closure
# ---------------------------------------------------------------------------


def meet(a: int, b: int) -> int:
    return min(a, b)


def majority(a: int, b: int, c: int) -> int:
    """The value that occurs at least twice, else the first argument."""
    if a in (b, c):
        return a
    return b if b == c else a


def clone(size: int, basic, arity: int) -> frozenset[tuple[int, ...]]:
    """All ``arity``-ary term operations of the algebra ``(range(size), basic)``
    as flat tables (last argument fastest): projections closed under
    composition with each basic operation, recomputed until nothing is new."""
    points = list(itertools.product(range(size), repeat=arity))
    ops = {tuple(pt[i] for pt in points) for i in range(arity)}
    while True:
        grown = set(ops)
        for f, f_arity in basic:
            for inner in itertools.product(sorted(ops), repeat=f_arity):
                grown.add(tuple(f(*(h[k] for h in inner)) for k in range(len(points))))
        if grown == ops:
            return frozenset(ops)
        ops = grown


class Algebra:
    """One test algebra with its binary and ternary clone tables."""

    def __init__(self, name: str, size: int, basic):
        self.name = name
        self.size = size
        self.tables = {arity: clone(size, basic, arity) for arity in (2, 3)}

    def solution(self, system):
        """First table assignment found by exhaustive search, or None."""
        _num_vars, symbols, identities = system
        candidates = {sym: sorted(self.tables[ARITY[sym]]) for sym in symbols}

        def holds(ident, tables):
            ops = {sym: table_op(t, self.size) for sym, t in tables.items()}
            return holds_pointwise((system[0], (), [ident]), ops, self.size)

        return _staged_search(symbols, identities, candidates, holds)

    def witness_holds(self, system, tables_by_sym) -> bool:
        """A claimed witness must consist of clone members and satisfy the
        system point by point."""
        _num_vars, symbols, _identities = system
        for sym in symbols:
            table = tables_by_sym.get(sym)
            if table is None or tuple(table) not in self.tables[ARITY[sym]]:
                return False
        ops = {sym: table_op(tuple(tables_by_sym[sym]), self.size) for sym in symbols}
        return holds_pointwise(system, ops, self.size)


def semilattice_b() -> Algebra:
    return Algebra("B", 2, [(meet, 2)])


def majority_a(size: int) -> Algebra:
    return Algebra(f"A{size}", size, [(majority, 3)])


# ---------------------------------------------------------------------------
# Closure partitions and their strict refinements
# ---------------------------------------------------------------------------


def universe(symbols, num_vars: int) -> list:
    """Every variable and every non-constant application, in a fixed order."""
    terms: list = list(range(num_vars))
    for sym in symbols:
        for pattern in itertools.product(range(num_vars), repeat=ARITY[sym]):
            if len(set(pattern)) > 1:
                terms.append((sym, pattern))
    return terms


def closure_blocks(system, terms) -> list[list]:
    """Blocks of the equivalence that the identities generate on ``terms``."""
    _num_vars, _symbols, identities = system
    block_of = {t: {t} for t in terms}
    for left, right in identities:
        merged = block_of[left] | block_of[right]
        for t in merged:
            block_of[t] = merged
    seen, blocks = set(), []
    for t in terms:
        block = block_of[t]
        if id(block) not in seen:
            seen.add(id(block))
            blocks.append([u for u in terms if u in block])
    return blocks


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def strict_refinements(system, terms):
    """Systems of every partition strictly finer than the closure of
    ``system`` on ``terms``; each block becomes a chain of identities."""
    num_vars, symbols, _identities = system
    blocks = [b for b in closure_blocks(system, terms) if len(b) > 1]
    for split in itertools.product(*(list(set_partitions(b)) for b in blocks)):
        if all(len(parts) == 1 for parts in split):
            continue
        identities = [
            (a, b) for parts in split for part in parts for a, b in zip(part, part[1:])
        ]
        yield num_vars, symbols, identities
