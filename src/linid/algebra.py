"""Finite idempotent algebras as operation tables, clone slices, and
satisfiability of identity systems by witness search.

Tables are flat tuples in row-major order with the last argument varying
fastest.  Everything is immutable; witness search is deterministic (first
witness in slice order, projections before composite operations).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from . import reducts
from .terms import App, Symbol, System, Term, TermUniverse, Var, system_from_blocks


@dataclass(frozen=True)
class OperationTable:
    name: str
    size: int
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.size**self.arity:
            raise ValueError(f"table for {self.name} has wrong length")
        if any(v < 0 or v >= self.size for v in self.table):
            raise ValueError(f"table for {self.name} has out-of-range values")

    def apply(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.table[idx]

    def is_idempotent(self) -> bool:
        return all(self.apply((a,) * self.arity) == a for a in range(self.size))


def projection(size: int, arity: int, position: int) -> OperationTable:
    table = tuple(
        args[position] for args in itertools.product(range(size), repeat=arity)
    )
    return OperationTable(f"pi{position + 1}", size, arity, table)


def table_from_function(name: str, size: int, arity: int, fn) -> OperationTable:
    table = tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))
    return OperationTable(name, size, arity, table)


@dataclass(frozen=True)
class FiniteAlgebra:
    """Finite universe with idempotent basic operations.

    affine_reduct_modulus marks the module-reduct algebras, whose clone slices
    are written down directly instead of recomputed by fixed-point iteration
    (affine operations compose to affine operations, so the full inventory of
    idempotent affine operations is already closed; the closure property is
    exercised by randomised tests).
    """

    size: int
    ops: tuple[OperationTable, ...]
    affine_reduct_modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("algebras need at least two elements")
        for op in self.ops:
            if op.size != self.size:
                raise ValueError(f"operation {op.name} over wrong universe")
            if not op.is_idempotent():
                raise ValueError(f"basic operation {op.name} is not idempotent")

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }


@functools.lru_cache(maxsize=None)
def semilattice_b() -> FiniteAlgebra:
    """The two-element meet semilattice, with 0 as the absorbing bottom.

    Built once per process, like majority_a(m): both are immutable."""
    return FiniteAlgebra(2, (table_from_function("meet", 2, 2, min),))


@functools.lru_cache(maxsize=None)
def majority_a(m: int = 3) -> FiniteAlgebra:
    """Majority algebra: f returns the repeated argument, else the first one."""
    if m < 2:
        raise ValueError("majority algebra needs at least two elements")

    def f(a: int, b: int, c: int) -> int:
        return b if b == c else a

    return FiniteAlgebra(m, (table_from_function("f", m, 3, f),))


def reduct_algebra(n: int) -> FiniteAlgebra:
    """Full idempotent reduct of a module over Z_n: every ternary idempotent
    affine operation is a basic operation (n**2 of them)."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    ops = []
    for term in reducts.affine_terms(n, 3):
        ops.append(
            table_from_function(str(term), n, 3, lambda a, b, c, t=term: t.evaluate((a, b, c)))
        )
    return FiniteAlgebra(n, tuple(ops), affine_reduct_modulus=n)


# ---------------------------------------------------------------------------
# Clone slices
# ---------------------------------------------------------------------------


class CloneCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CloneSlice:
    arity: int
    ops: tuple[OperationTable, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "count": len(self.ops),
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }


def _compose(g: OperationTable, hs: Sequence[OperationTable], size: int, arity: int) -> tuple[int, ...]:
    """Table of g(h_1, ..., h_r) as an arity-ary operation."""
    values = []
    for idx in range(size**arity):
        inner = tuple(h.table[idx] for h in hs)
        values.append(g.apply(inner))
    return tuple(values)


def _affine_slice(n: int, arity: int, cap: int) -> CloneSlice:
    """Term operations of a module reduct: all idempotent affine operations."""
    if n**(arity - 1) > cap:
        raise CloneCapExceeded(f"clone slice exceeds cap {cap} for arity {arity}")
    named = []
    for term in reducts.affine_terms(n, arity):
        table = tuple(
            term.evaluate(args) for args in itertools.product(range(n), repeat=arity)
        )
        named.append((table, str(term)))
    projections = [projection(n, arity, i) for i in range(arity)]
    proj_tables = {op.table for op in projections}
    rest = sorted((t, name) for t, name in named if t not in proj_tables)
    ordered = projections + [OperationTable(name, n, arity, t) for t, name in rest]
    return CloneSlice(arity, tuple(ordered))


@functools.lru_cache(maxsize=None)
def clone_slice(algebra: FiniteAlgebra, arity: int, cap: int = 4096) -> CloneSlice:
    """All arity-ary term operations: close the projections under composition
    with basic operations, to a fixed point.

    Every term operation is rooted in a basic operation, so composing basic
    operations over the current slice reaches the full closure.  Raises
    CloneCapExceeded past cap.
    """
    if arity not in (1, 2, 3):
        raise ValueError("clone slices supported for arities 1..3")
    if algebra.affine_reduct_modulus is not None:
        return _affine_slice(algebra.affine_reduct_modulus, arity, cap)
    size = algebra.size
    tables: dict[tuple[int, ...], None] = {}
    frontier: list[OperationTable] = []
    members: list[OperationTable] = []
    for i in range(arity):
        op = projection(size, arity, i)
        tables[op.table] = None
        members.append(op)
        frontier.append(op)
    while frontier:
        new_frontier: list[OperationTable] = []
        for g in algebra.ops:
            for hs in itertools.product(members, repeat=g.arity):
                if not any(h in frontier for h in hs):
                    continue
                table = _compose(g, hs, size, arity)
                if table not in tables:
                    if len(tables) >= cap:
                        raise CloneCapExceeded(
                            f"clone slice exceeds cap {cap} for arity {arity}"
                        )
                    tables[table] = None
                    op = OperationTable(f"t{len(tables)}", size, arity, table)
                    new_frontier.append(op)
        members.extend(new_frontier)
        frontier = new_frontier
    # canonical order: projections first, then by table; name composites
    # after a basic operation when the tables coincide
    basic_names = {op.table: op.name for op in algebra.ops if op.arity == arity}
    projections = members[:arity]
    rest = sorted((op.table for op in members[arity:]), key=lambda t: t)
    ordered = list(projections)
    for i, table in enumerate(rest):
        name = basic_names.get(table, f"op{i + 1}")
        ordered.append(OperationTable(name, size, arity, table))
    return CloneSlice(arity, tuple(ordered))


# ---------------------------------------------------------------------------
# Satisfiability in a finite algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    witness: Optional[tuple[tuple[Symbol, OperationTable], ...]]

    def to_json(self) -> dict:
        data: dict = {"satisfiable": self.satisfiable}
        if self.witness is not None:
            data["witness"] = {
                sym.value: {"name": op.name, "table": list(op.table)}
                for sym, op in self.witness
            }
        return data


def eval_vector(
    t: Term,
    assignments: Sequence[tuple[int, ...]],
    op: Optional[OperationTable] = None,
) -> tuple[int, ...]:
    """Values of t at each assignment, its symbol read as op."""
    if isinstance(t, Var):
        return tuple(a[t.index] for a in assignments)
    assert op is not None
    return tuple(op.apply(tuple(a[v] for v in t.pattern)) for a in assignments)


class MinorTable(NamedTuple):
    """Every minor of every operation of one clone slice, as value codes.

    A linear identity is height 1: reading t(x,x,y) in an operation f gives
    the minor of f along the pattern (x,x,y), so an identity holds in the
    algebra exactly when two minors (or a minor and a variable) have equal
    value vectors.  rows[k][i] codes the value vector of ops[k] under the
    i-th pattern of itertools.product(range(num_vars), repeat=arity), and
    variables[v] codes the projection column of variable v.  A code is the
    vector read as a base-size number, so equal codes mean equal vectors in
    every table of the same algebra and number of variables.
    """

    ops: tuple[OperationTable, ...]
    rows: tuple[tuple[int, ...], ...]
    variables: tuple[int, ...]


def _code(digits, base: int) -> int:
    """digits read as a base-base number: a value vector's code, the table
    index of an argument tuple, or a pattern's position in
    itertools.product(range(base), repeat=len(pattern))."""
    code = 0
    for d in digits:
        code = code * base + d
    return code


@functools.lru_cache(maxsize=None)
def minor_table(algebra: FiniteAlgebra, arity: int, num_vars: int, cap: int) -> MinorTable:
    """The minor table of clone_slice(algebra, arity, cap) over num_vars
    variables; raises CloneCapExceeded through clone_slice."""
    ops = clone_slice(algebra, arity, cap).ops
    size = algebra.size
    assignments = list(itertools.product(range(size), repeat=num_vars))
    # per pattern, the table index each assignment reads
    minors = [
        [_code([a[v] for v in pattern], size) for a in assignments]
        for pattern in itertools.product(range(num_vars), repeat=arity)
    ]
    rows = tuple(
        tuple(_code(map(op.table.__getitem__, minor), size) for minor in minors)
        for op in ops
    )
    variables = tuple(_code((a[v] for a in assignments), size) for v in range(num_vars))
    return MinorTable(ops, rows, variables)


def holds_in(s: System, algebra: FiniteAlgebra, cap: int = 4096) -> SatVerdict:
    """Search the clone slices for term operations satisfying every identity.

    Deterministic: one backtracking search, over the symbols in canonical
    order whatever their number, reports the lexicographically first witness
    in slice order (projections first, then table order).  Every comparison
    reads the minor tables of the slices; no operation is evaluated here.
    """
    symbols = tuple(sorted(s.signature, key=lambda sy: sy.order))
    num_vars = s.num_vars
    tables = {sym: minor_table(algebra, sym.arity, num_vars, cap) for sym in symbols}

    var_only: list[tuple[Var, Var]] = []
    unary: dict[Symbol, list[tuple[App, Term]]] = {sym: [] for sym in symbols}
    cross: dict[tuple[Symbol, Symbol], list[tuple[App, App]]] = {}
    for ident in s.sorted_identities():
        left, right = ident.left, ident.right
        lsym = left.sym if isinstance(left, App) else None
        rsym = right.sym if isinstance(right, App) else None
        if lsym is None and rsym is None:
            var_only.append((left, right))
        elif lsym == rsym or rsym is None:
            unary[lsym].append((left, right))
        elif lsym is None:
            unary[rsym].append((right, left))
        else:
            a, b = sorted((lsym, rsym), key=lambda sy: sy.order)
            pair = (left, right) if lsym is a else (right, left)
            cross.setdefault((a, b), []).append(pair)

    # distinct variables are distinct projections in any nontrivial algebra
    if any(left.index != right.index for left, right in var_only):
        return SatVerdict(False, None)

    def index(t: App) -> int:
        return _code(t.pattern, num_vars)

    candidates: dict[Symbol, list[int]] = {}
    for sym in symbols:
        table = tables[sym]
        same = [(index(l), index(r)) for l, r in unary[sym] if isinstance(r, App)]
        fixed = [(index(l), table.variables[r.index]) for l, r in unary[sym] if isinstance(r, Var)]
        ok = [
            k for k, row in enumerate(table.rows)
            if all(row[i] == row[j] for i, j in same) and all(row[i] == c for i, c in fixed)
        ]
        if not ok:
            return SatVerdict(False, None)
        candidates[sym] = ok

    # per pair of symbols, the minor positions each identity compares
    links = {
        pair: [(index(left), index(right)) for left, right in idents]
        for pair, idents in cross.items()
    }
    witness: dict[Symbol, int] = {}

    def rec(k: int) -> bool:
        if k == len(symbols):
            return True
        sym = symbols[k]
        rows = tables[sym].rows
        # each identity with an earlier symbol fixes one minor of sym
        checks = []
        for other in symbols[:k]:
            other_row = tables[other].rows[witness[other]]
            checks += [(j, other_row[i]) for i, j in links.get((other, sym), ())]
        for c in candidates[sym]:
            row = rows[c]
            if all(row[j] == v for j, v in checks):
                witness[sym] = c
                if rec(k + 1):
                    return True
        return False

    if not rec(0):
        return SatVerdict(False, None)
    return SatVerdict(True, tuple((sym, tables[sym].ops[witness[sym]]) for sym in symbols))


def induced_partition(
    witness: Mapping[Symbol, OperationTable],
    universe: TermUniverse,
    algebra: FiniteAlgebra,
) -> System:
    """The closure grouping universe terms by value vector under the witness."""
    assignments = list(
        itertools.product(range(algebra.size), repeat=universe.num_vars)
    )
    groups: dict[tuple[int, ...], list[Term]] = {}
    for t in universe.terms:
        op = witness[t.sym] if isinstance(t, App) else None
        groups.setdefault(eval_vector(t, assignments, op), []).append(t)
    return system_from_blocks(groups.values(), universe.num_vars, universe.signature)
