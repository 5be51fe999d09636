"""Syntax of linear identities: terms, identities, systems, symmetries.

A term is either a bare variable or a single operation symbol applied to
variables (no nesting).  Systems are sets of unordered identities; their
semantics is the equivalence ("closure") partition they generate on a finite
term universe.  All values here are immutable and hashable.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union


class Symbol(Enum):
    P = "p"
    Q = "q"
    T = "t"
    S = "s"

    # members are singletons, so identity hashing is sound; Enum's own
    # __hash__ is a Python-level call on every set and dict lookup
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return 2 if self in (Symbol.T, Symbol.S) else 3

    @property
    def order(self) -> int:
        return _SYMBOL_ORDER[self]


_SYMBOL_ORDER = {Symbol.P: 0, Symbol.Q: 1, Symbol.T: 2, Symbol.S: 3}

VAR_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Var:
    index: int

    def __str__(self) -> str:
        return VAR_NAMES[self.index]


@dataclass(frozen=True)
class App:
    sym: Symbol
    pattern: tuple[int, ...]

    def __str__(self) -> str:
        args = ",".join(VAR_NAMES[v] for v in self.pattern)
        return f"{self.sym.value}({args})"


Term = Union[Var, App]


def app(sym: Symbol, pattern: Sequence[int]) -> Term:
    """Build an applied term, collapsing constant patterns by idempotence.

    t(v,...,v) denotes the same operation as the bare variable v for
    idempotent t, so constant patterns are never stored.
    """
    pattern = tuple(pattern)
    if len(pattern) != sym.arity:
        raise ValueError(f"{sym.value} takes {sym.arity} arguments, got {len(pattern)}")
    if any(v < 0 or v >= len(VAR_NAMES) for v in pattern):
        raise ValueError(f"variable index out of range in {pattern}")
    if len(set(pattern)) == 1:
        return Var(pattern[0])
    return App(sym, pattern)


def term_key(t: Term) -> tuple:
    """Total order on terms: variables first, then by symbol and pattern."""
    if isinstance(t, Var):
        return (0, t.index, ())
    return (1, t.sym.order, t.pattern)


def term_vars(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.index,))
    return frozenset(t.pattern)


def rename_term(t: Term, mapping: Sequence[int]) -> Term:
    if isinstance(t, Var):
        return Var(mapping[t.index])
    return app(t.sym, tuple(mapping[v] for v in t.pattern))


@dataclass(frozen=True)
class Identity:
    """Unordered pair of distinct terms; stored with the smaller term first."""

    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError(f"trivial identity {self.left} = {self.right}")
        if term_key(self.left) > term_key(self.right):
            lo, hi = self.right, self.left
            object.__setattr__(self, "left", lo)
            object.__setattr__(self, "right", hi)

    def terms(self) -> tuple[Term, Term]:
        return (self.left, self.right)

    def key(self) -> tuple:
        return (term_key(self.left), term_key(self.right))

    def __str__(self) -> str:
        return f"{self.left}={self.right}"


@dataclass(frozen=True)
class System:
    """A set of linear identities over declared symbols and variables.

    The identity set is normalised at construction: identities are regrouped
    into chains (consecutive pairs of each closure block, ordered by term
    order), so two systems generating the same equivalence compare equal.
    num_vars, signature, warnings and blocks are construction metadata and
    do not take part in equality; build instances through
    :func:`system_from_blocks`, which keeps the closure blocks: each sorted,
    of two or more terms, ordered by first term.
    """

    identities: frozenset[Identity]
    num_vars: int = field(compare=False, default=2)
    signature: frozenset[Symbol] = field(compare=False, default=frozenset())
    warnings: tuple[str, ...] = field(compare=False, default=())
    blocks: tuple[tuple[Term, ...], ...] = field(compare=False, default=(), repr=False)

    def sorted_identities(self) -> tuple[Identity, ...]:
        return tuple(sorted(self.identities, key=Identity.key))

    def __str__(self) -> str:
        return format_system(self)

    def __len__(self) -> int:
        return len(self.identities)


def _merge_terms(identities: Iterable[Identity]) -> list[list[Term]]:
    """The connected components of the identity graph, unsorted."""
    parent: dict[Term, Term] = {}

    def find(t: Term) -> Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for ident in identities:
        for t in ident.terms():
            parent.setdefault(t, t)
        a, b = find(ident.left), find(ident.right)
        if a != b:
            parent[a] = b
    groups: dict[Term, list[Term]] = {}
    for t in parent:
        groups.setdefault(find(t), []).append(t)
    return list(groups.values())


def system(
    identities: Iterable[Identity],
    num_vars: Optional[int] = None,
    signature: Optional[Iterable[Symbol]] = None,
    warnings: Sequence[str] = (),
) -> System:
    """Normalise an identity set into a System: a union-find merges the
    identities' terms into closure blocks, and system_from_blocks builds the
    system from them."""
    return system_from_blocks(_merge_terms(identities), num_vars, signature, warnings)


def system_from_blocks(
    term_blocks: Iterable[Sequence[Term]],
    num_vars: Optional[int],
    signature: Optional[Iterable[Symbol]],
    warnings: Sequence[str] = (),
) -> System:
    """The system whose closure has the given blocks of terms, in any order.

    The blocks must be disjoint (ValueError if two share a term); a block of
    one term adds nothing.  num_vars defaults to the variables actually used
    (at least 2); signature defaults to the symbols actually used.
    """
    blocks = [tuple(sorted(b, key=term_key)) for b in term_blocks]
    terms = [t for b in blocks for t in b]
    if len(set(terms)) != len(terms):
        raise ValueError("closure blocks must be disjoint")
    blocks = sorted((b for b in blocks if len(b) > 1), key=lambda b: term_key(b[0]))
    used_vars = {v for b in blocks for t in b for v in term_vars(t)}
    used_syms = {t.sym for b in blocks for t in b if isinstance(t, App)}
    if num_vars is None:
        num_vars = max(used_vars, default=1) + 1
    num_vars = max(num_vars, 2)
    if num_vars not in (2, 3):
        raise ValueError(f"systems use 2 or 3 variables, got {num_vars}")
    if any(v >= num_vars for v in used_vars):
        raise ValueError("identity uses an undeclared variable")
    sig = frozenset(signature) if signature is not None else frozenset(used_syms)
    if not used_syms <= sig:
        raise ValueError("identity uses an undeclared symbol")
    idents = frozenset(
        Identity(a, b) for block in blocks for a, b in zip(block, block[1:])
    )
    return System(idents, num_vars, sig, tuple(warnings), tuple(blocks))


# ---------------------------------------------------------------------------
# DSL parsing and printing
#
# system   := identity (";" identity)* ";"?
# identity := term ("=" term)+          ("≈" is a synonym of "=")
# term     := var | sym "(" var "," var ["," var] ")"
# sym      := "p" | "q" | "t"     var := "x" | "y" | "z"
# ---------------------------------------------------------------------------

_SYM_BY_NAME = {s.value: s for s in Symbol}
_VAR_BY_NAME = {n: i for i, n in enumerate(VAR_NAMES)}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str) -> ParseError:
        """The error at pos, by 1-based line and column."""
        line = self.text.count("\n", 0, self.pos) + 1
        return ParseError(message, line, self.pos - self.text.rfind("\n", 0, self.pos))


def _parse_term(sc: _Scanner, used_vars: set[int], used_syms: set[Symbol]) -> Term:
    sc.skip_ws()
    ch = sc.peek()
    if ch in _VAR_BY_NAME:
        sc.take()
        used_vars.add(_VAR_BY_NAME[ch])
        return Var(_VAR_BY_NAME[ch])
    if ch in _SYM_BY_NAME:
        sym = _SYM_BY_NAME[sc.take()]
        used_syms.add(sym)
        sc.skip_ws()
        if sc.peek() != "(":
            raise sc.error(f"expected '(' after symbol '{sym.value}'")
        sc.take()
        args = []
        while True:
            sc.skip_ws()
            v = sc.peek()
            if v not in _VAR_BY_NAME:
                raise sc.error(f"expected a variable, found {v!r}")
            sc.take()
            args.append(_VAR_BY_NAME[v])
            used_vars.add(_VAR_BY_NAME[v])
            sc.skip_ws()
            nxt = sc.peek()
            if nxt == ",":
                sc.take()
                continue
            if nxt == ")":
                sc.take()
                break
            raise sc.error(f"expected ',' or ')', found {nxt!r}")
        if len(args) != sym.arity:
            raise sc.error(
                f"symbol '{sym.value}' takes {sym.arity} arguments, got {len(args)}"
            )
        return app(sym, args)
    if ch.isalpha():
        raise sc.error(f"unknown symbol {ch!r}")
    raise sc.error(f"expected a term, found {ch!r}")


def parse_system(text: str) -> System:
    """Parse the identity DSL.  Chains a=b=c expand to consecutive pairs.

    Identities whose sides coincide after idempotent collapse are dropped and
    recorded on ``System.warnings``.  Variables and symbols mentioned in the
    text (even in dropped identities) determine num_vars and signature.
    """
    sc = _Scanner(text)
    idents: list[Identity] = []
    warnings: list[str] = []
    used_vars: set[int] = set()
    used_syms: set[Symbol] = set()

    sc.skip_ws()
    while sc.pos < len(sc.text):
        chain = [_parse_term(sc, used_vars, used_syms)]
        sc.skip_ws()
        while sc.peek() in ("=", "≈"):
            sc.take()
            chain.append(_parse_term(sc, used_vars, used_syms))
            sc.skip_ws()
        if len(chain) < 2:
            raise sc.error("expected '=' in identity")
        for a, b in zip(chain, chain[1:]):
            if a == b:
                warnings.append(f"dropped trivial identity {a}={b}")
            else:
                idents.append(Identity(a, b))
        sc.skip_ws()
        if sc.peek() == ";":
            sc.take()
            sc.skip_ws()
        elif sc.pos < len(sc.text):
            raise sc.error(f"expected ';' between identities, found {sc.peek()!r}")
    num_vars = max(max(used_vars, default=1) + 1, 2)
    return system(idents, num_vars=num_vars, signature=used_syms, warnings=warnings)


def format_system(s: System) -> str:
    """Canonical text form: one chain per closure block, blocks in term order.

    parse_system(format_system(s)) == s for every System.
    """
    return "; ".join("=".join(str(t) for t in block) for block in s.blocks)


# ---------------------------------------------------------------------------
# Term universes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermUniverse:
    """All legal terms for a signature and variable count, in term order."""

    signature: frozenset[Symbol]
    num_vars: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terms)})

    def index(self, t: Term) -> int:
        try:
            return self._index[t]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"term {t} outside universe") from None

    def __len__(self) -> int:
        return len(self.terms)


def term_universe(signature: Iterable[Symbol], num_vars: int) -> TermUniverse:
    if num_vars not in (2, 3):
        raise ValueError("universes use 2 or 3 variables")
    sig = frozenset(signature)
    terms: list[Term] = [Var(i) for i in range(num_vars)]
    for sym in sorted(sig, key=lambda s: s.order):
        for pattern in itertools.product(range(num_vars), repeat=sym.arity):
            if len(set(pattern)) > 1:
                terms.append(App(sym, pattern))
    return TermUniverse(sig, num_vars, tuple(terms))


# ---------------------------------------------------------------------------
# The symmetry group: variable renamings, per-symbol argument permutations,
# and the p<->q and t<->s swaps.  Substituting s(x_perm) for s everywhere is
# invertible and preserves satisfiability, so orbits share all
# classification verdicts.  An element exists only as the index permutation
# it induces on a term universe, with the symbol map that names its images'
# signature.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryTables:
    """A symmetry group as index permutations of a universe.

    perms[k][i] is the universe index of the image of term i under element
    k, columns[i][k] the same index read by term, and symbol_maps[k] sends
    each symbol to its image under element k.
    """

    universe: TermUniverse
    perms: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    symbol_maps: tuple[dict[Symbol, Symbol], ...]


def _term_image(
    t: Term,
    var_perm: Sequence[int],
    arg_perms: dict[Symbol, Sequence[int]],
    symbol_map: dict[Symbol, Symbol],
) -> Term:
    """Permute the argument positions of t's symbol (pattern[j] becomes
    pattern[perm[j]]), map the symbol, then rename the variables."""
    if isinstance(t, Var):
        return Var(var_perm[t.index])
    return app(symbol_map[t.sym], [var_perm[t.pattern[j]] for j in arg_perms[t.sym]])


@functools.lru_cache(maxsize=None)
def symmetry_tables(signature: frozenset[Symbol], num_vars: int) -> SymmetryTables:
    """The symmetry group of signature over num_vars variables, built on
    first use.

    Elements run, in this nesting order, over the variable permutations,
    the argument permutations of each symbol in signature, and the p<->q
    and t<->s swaps of pairs inside signature; the identity comes first.
    Order 2*6*6*2 = 144 for two ternary symbols over two variables.

    Each factor is one index table, and an element is the composite
    var[swap[args[i]]]: its argument permutations act first, on the
    original symbols, then the swaps, then the variable renaming.
    """
    universe = term_universe(signature, num_vars)
    no_args = {sym: tuple(range(sym.arity)) for sym in Symbol}
    no_swap = {sym: sym for sym in Symbol}

    def table(var_perm=tuple(range(num_vars)), arg_perms=no_args, symbol_map=no_swap):
        return tuple(
            universe.index(_term_image(t, var_perm, arg_perms, symbol_map))
            for t in universe.terms
        )

    def arg_tables(sym: Symbol) -> list[tuple[int, ...]]:
        return [
            table(arg_perms={**no_args, sym: perm})
            for perm in itertools.permutations(range(sym.arity))
        ]

    def swaps(a: Symbol, b: Symbol) -> list[dict[Symbol, Symbol]]:
        return [{}, {a: b, b: a}] if {a, b} <= signature else [{}]

    symbols = sorted(signature, key=lambda sym: sym.order)
    var_tables = [table(var_perm=p) for p in itertools.permutations(range(num_vars))]
    # each symbol's tables move only its own terms, so they compose in any order
    args_tables = [
        tuple(functools.reduce(lambda acc, t: [t[i] for i in acc], parts, range(len(universe))))
        for parts in itertools.product(*map(arg_tables, symbols))
    ]
    swap_maps = [
        {sym: pq.get(sym, ts.get(sym, sym)) for sym in Symbol}
        for pq, ts in itertools.product(swaps(Symbol.P, Symbol.Q), swaps(Symbol.T, Symbol.S))
    ]
    swap_tables = [(table(symbol_map=m), m) for m in swap_maps]

    perms, symbol_maps = [], []
    for var, args, (swap, symbol_map) in itertools.product(
        var_tables, args_tables, swap_tables
    ):
        perms.append(tuple([var[swap[i]] for i in args]))
        symbol_maps.append(symbol_map)
    perms = tuple(perms)
    return SymmetryTables(universe, perms, tuple(zip(*perms)), tuple(symbol_maps))


@functools.lru_cache(maxsize=None)
def _pair_weights(size: int) -> tuple[tuple[int, ...], ...]:
    """weights[a][b] = (size - b) << (width * (size - 1 - a)) for a < b."""
    width = size.bit_length()
    return tuple(
        tuple((size - b) << (width * (size - 1 - a)) for b in range(size))
        for a in range(size)
    )


def block_mark(blocks: Iterable[Sequence[int]], size: int) -> int:
    """One integer naming a set of disjoint blocks of indices below size.

    Index a holds, in its own digit of size.bit_length() bits with index 0
    the most significant, size - b when b is the next index after a in a's
    sorted block, and 0 when a is the last of its block or in no block.  The
    digits give each index's successor, so they determine every block of
    two or more indices; a block of one index adds nothing.  This is also the
    value canonical_blocks ranks images by.
    """
    weights = _pair_weights(size)
    return sum([
        weights[a][b] for block in blocks for a, b in itertools.pairwise(sorted(block))
    ])


def _image_marks(columns: Sequence[Sequence[int]], size: int) -> list[int]:
    """block_mark of the images of one block under a run of elements, from
    the block's columns: each of its indices' images, element by element."""
    weights = _pair_weights(size)
    images = zip(*columns)
    if len(columns) == 2:
        return [weights[a][b] if a < b else weights[b][a] for a, b in images]
    return [
        sum([weights[a][b] for a, b in itertools.pairwise(sorted(image))])
        for image in images
    ]


def _block_row(block: Sequence[int], tables: SymmetryTables) -> list[int]:
    """block_mark of the image of one block under every element, in order."""
    return _image_marks([tables.columns[i] for i in block], len(tables.columns))


def _reaching_least_head(
    blocks: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]
) -> list[int]:
    """The elements, in order, that send some index of a block of two or
    more to the least index any element sends one to; only the identity
    when there is no such block."""
    heads = [columns[i] for b in blocks if len(b) > 1 for i in b]
    if not heads:
        return [0]
    head = min(map(min, heads))
    # an element sends at most one index to the head
    return sorted(itertools.chain.from_iterable(
        itertools.compress(itertools.count(), map(head.__eq__, column)) for column in heads
    ))


def canonical_blocks(
    blocks: Sequence[Sequence[int]],
    tables: SymmetryTables,
    marks: Optional[set[int]] = None,
    rows: Optional[dict[tuple[int, ...], list[int]]] = None,
) -> tuple[tuple[tuple[int, int], ...], int, tuple[tuple[int, ...], ...]]:
    """Least image of index blocks under the elements of tables.

    An image is ranked by its chain-pair key: the sorted consecutive pairs of
    its sorted blocks.  Bijections carry closure blocks to closure blocks, so
    the key needs no re-normalising, and universes list terms in term order,
    so on indices it orders images as the sorted identity keys of their
    systems do.  Returns the least key, the position of the first element
    reaching it, and the moved blocks, sorted.  If marks is given, the
    block_mark of every image is added to it.

    Images are compared by their block_mark instead.  A key lists its pairs
    (a, b) by a, which is distinct across pairs; the mark holds size - b in
    a's digit, most significant first.  At the first pair where two keys of
    the same length differ, the smaller key has the smaller a (a digit where
    the other has 0) or, at the same a, the smaller b (the larger digit), so
    its mark is larger.  All images of the blocks have the same number of
    pairs, so the first largest mark belongs to the first least key.  A mark
    is the sum of one value per block; rows maps each block to its values
    under every element (filled here when marks is given, and reusable
    across calls with the same tables).

    Without marks, only the elements that can win are ranked.  A mark's most
    significant nonzero digit is at the least index of its image, the head
    of a block of two or more, so every largest mark sends some index to the
    least head that any element reaches; those elements are ranked in order,
    and the first largest among them is the first largest of all.
    """
    columns = tables.columns
    if marks is None:
        ranked = _reaching_least_head(blocks, columns)
        block_rows = []
        if len(ranked) > 1:  # a lone element wins unranked
            pick = operator.itemgetter(*ranked)
            block_rows = [
                _image_marks([pick(columns[i]) for i in b], len(columns))
                for b in blocks
                if len(b) > 1
            ]
    else:
        ranked = range(len(tables.perms))
        if rows is None:
            rows = {}
        block_rows = []
        for b in blocks:
            b = tuple(b)
            row = rows.get(b)
            if row is None:
                row = rows[b] = _block_row(b, tables)
            block_rows.append(row)
    values = list(map(sum, zip(*block_rows))) or [0] * len(ranked)
    if marks is not None:
        marks.update(values)
    k = ranked[values.index(max(values))]
    perm = tables.perms[k]
    moved_blocks = tuple(sorted(tuple(sorted(perm[i] for i in b)) for b in blocks))
    key = tuple(sorted(pair for b in moved_blocks for pair in itertools.pairwise(b)))
    return key, k, moved_blocks


def canonicalize(s: System, signature: Optional[Iterable[Symbol]] = None) -> System:
    """Lexicographic minimum of the orbit of s under the full symmetry group.

    The ambient signature defaults to the system's own; pass the family
    signature to canonicalise within a larger group.  The canonical form
    keeps s's num_vars, and its signature is the image of s's under the
    first group element reaching it.  ValueError if the ambient signature
    lacks a symbol of s's.
    """
    sig = frozenset(signature) if signature is not None else s.signature
    missing = sorted(sym.value for sym in s.signature - sig)
    if missing:
        raise ValueError(f"ambient signature lacks {', '.join(missing)}")
    tables = symmetry_tables(sig, s.num_vars)
    terms, index = tables.universe.terms, tables.universe.index
    blocks = [[index(t) for t in block] for block in s.blocks]
    _key, k, moved = canonical_blocks(blocks, tables)
    symbol_map = tables.symbol_maps[k]
    return system_from_blocks(
        [[terms[i] for i in b] for b in moved],
        s.num_vars,
        [symbol_map[sym] for sym in s.signature],
    )


# ---------------------------------------------------------------------------
# Set-partition enumeration (restricted growth strings) and weakenings
# ---------------------------------------------------------------------------


def set_partitions(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """All partitions of items, in restricted-growth-string order.

    The first partition is the single block (all items together); the last is
    all singletons.  Bell(len(items)) partitions in total.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield ()
        return

    def rec(i: int, assignment: list[int], nblocks: int) -> Iterator[tuple[tuple, ...]]:
        if i == n:
            blocks: list[list] = [[] for _ in range(nblocks)]
            for j, b in enumerate(assignment):
                blocks[b].append(items[j])
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(nblocks + 1):
            assignment.append(b)
            yield from rec(i + 1, assignment, max(nblocks, b + 1))
            assignment.pop()

    yield from rec(0, [], 0)


def weakenings(s: System) -> Iterator[System]:
    """Systems strictly refining the closure of s, over s's variables and
    signature: the product of each block's set_partitions, blocks in term
    order, without the unsplit one.  Bell(k_1)...Bell(k_r) - 1 of them.
    """
    options = [list(set_partitions(block)) for block in s.blocks]
    for combo in itertools.product(*options):
        if all(len(parts) == 1 for parts in combo):
            continue  # the closure of s itself
        yield system_from_blocks(
            [part for parts in combo for part in parts], s.num_vars, s.signature
        )
