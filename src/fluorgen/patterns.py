"""Restricted substructure query language for reaction role patterns.

The grammar is a small, documented subset of the usual substructure
notation (see docs/formats.md for the EBNF): bare element symbols
(uppercase aliphatic, lowercase aromatic), bracket expressions combining
primitives with ';' (AND) where an element list 'A,B,c' is an OR over
alternatives, degree D<n>, hydrogen count H<n>, ring membership R / R0,
and formal charge. Bonds: - = # : plus '~' for any order; a bare
juxtaposition means single-or-aromatic. Branches and single-digit ring
closures mirror SMILES structure.

Matching enumerates injective subgraph monomorphisms: query edges must
exist in the target with a satisfying order, extra target bonds are fine.
Each query's search plan (visit order, node tests, bonds back to earlier
nodes) is built once, when the query is made, and every match reuses it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from fluorgen.molgraph import (
    AROMATIC_SYMBOLS,
    SUPPORTED_ELEMENTS,
    SYMBOL,
    TWO_LETTER_ELEMENTS,
    BondOrder,
    MolecularGraph,
    is_digits,
)

_BOND_KINDS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic", "~": "any"}
# bond kind -> the BondOrder values of the target bonds it accepts
_KIND_ORDERS = {
    "single": (BondOrder.SINGLE.value,),
    "double": (BondOrder.DOUBLE.value,),
    "triple": (BondOrder.TRIPLE.value,),
    "aromatic": (BondOrder.AROMATIC.value,),
    "default": (BondOrder.SINGLE.value, BondOrder.AROMATIC.value),
    "any": tuple(order.value for order in BondOrder),
}


class PatternError(ValueError):
    """Malformed pattern text; ``offset`` is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class AtomPattern:
    """Conjunction of primitives for one query node.

    ``elements`` holds (element, aromatic) alternatives, or None when the
    pattern does not constrain the element.
    """

    elements: tuple[tuple[str, bool], ...] | None = None
    degree: int | None = None
    h_count: int | None = None
    in_ring: bool | None = None
    charge: int | None = None

    def matches(self, graph: MolecularGraph, index: int) -> bool:
        if self.elements is not None and (
            SYMBOL[graph.atomic_numbers[index]], graph.aromatic[index]
        ) not in self.elements:
            return False
        if self.degree is not None and graph.degree(index) != self.degree:
            return False
        if self.h_count is not None and graph.total_hs[index] != self.h_count:
            return False
        if self.in_ring is not None and graph.in_ring(index) != self.in_ring:
            return False
        if self.charge is not None and graph.charges[index] != self.charge:
            return False
        return True


@dataclass(frozen=True)
class BondPattern:
    a1: int
    a2: int
    kind: str  # single | double | triple | aromatic | any | default

    def matches(self, order: BondOrder) -> bool:
        return order.value in _KIND_ORDERS[self.kind]


PlanStep = tuple[int, AtomPattern, tuple[tuple[int, BondPattern], ...]]


@dataclass(frozen=True)
class PatternQuery:
    """Connected query graph; node count >= 1.

    ``plan`` is the search order, a BFS from node 0 that takes neighbours
    in bond order, so every node after the first touches an earlier one.
    Step k holds the query node, its AtomPattern and its (earlier
    neighbour, BondPattern) pairs in bond order.

    ``needs`` holds ((element, aromatic), count) pairs: how many nodes
    allow that kind alone. An injective match maps them to as many
    distinct target atoms of the kind, so a graph with fewer has none.
    """

    text: str
    atoms: tuple[AtomPattern, ...]
    bonds: tuple[BondPattern, ...]
    plan: tuple[PlanStep, ...] = field(init=False, repr=False, compare=False)
    needs: tuple[tuple[tuple[str, bool], int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise PatternError("pattern has no atoms", 0)
        adj: list[list[tuple[int, BondPattern]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a1].append((bond.a2, bond))
            adj[bond.a2].append((bond.a1, bond))
        order = [0]
        position = {0: 0}
        for node in order:  # the list grows as the BFS reaches new nodes
            for nbr, _ in adj[node]:
                if nbr not in position:
                    position[nbr] = len(order)
                    order.append(nbr)
        if len(order) != len(self.atoms):
            raise PatternError("pattern must be connected", 0)
        plan = tuple(
            (q, self.atoms[q], tuple((nbr, bond) for nbr, bond in adj[q] if position[nbr] < pos))
            for pos, q in enumerate(order)
        )
        object.__setattr__(self, "plan", plan)
        needs = Counter(
            atom.elements[0]
            for atom in self.atoms
            if atom.elements is not None and len(atom.elements) == 1
        )
        object.__setattr__(self, "needs", tuple(needs.items()))


def parse_pattern(text: str) -> PatternQuery:
    """Parse query text into a PatternQuery.

    Raises:
        PatternError: on syntax errors or unsupported primitives, with the
            offending primitive named in the message.
    """
    if not text or not text.strip():
        raise PatternError("empty pattern", 0)
    atoms: list[AtomPattern] = []
    bonds: list[tuple[int, int, str]] = []
    prev: int | None = None
    pending: str | None = None
    pending_offset = 0
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None, int]] = {}
    i = 0
    n = len(text)

    def attach(idx: int) -> None:
        nonlocal prev, pending
        if prev is not None:
            bonds.append((prev, idx, pending if pending is not None else "default"))
        elif pending is not None:
            raise PatternError("bond with no preceding atom", pending_offset)
        pending = None
        prev = idx

    while i < n:
        ch = text[i]
        if ch in _BOND_KINDS:
            if pending is not None:
                raise PatternError("two bond symbols in a row", i)
            pending = _BOND_KINDS[ch]
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev is None:
                raise PatternError("branch before any atom", i)
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise PatternError("unbalanced parenthesis", i)
            prev = branch_stack.pop()
            i += 1
        elif "0" <= ch <= "9":
            if prev is None:
                raise PatternError("ring closure before any atom", i)
            num = int(ch)
            if num in ring_open:
                other, other_kind, _ = ring_open.pop(num)
                kind = pending or other_kind or "default"
                if pending and other_kind and pending != other_kind:
                    raise PatternError("ring closure bond symbols disagree", i)
                if other == prev:
                    raise PatternError("ring closure to the same atom", i)
                bonds.append((other, prev, kind))
            else:
                ring_open[num] = (prev, pending, i)
            pending = None
            i += 1
        elif ch == "[":
            pattern, consumed = _parse_bracket_pattern(text, i)
            atoms.append(pattern)
            attach(len(atoms) - 1)
            i += consumed
        elif ch.isupper():
            two = text[i: i + 2]
            if two in TWO_LETTER_ELEMENTS:
                atoms.append(AtomPattern(elements=((two, False),)))
                attach(len(atoms) - 1)
                i += 2
            elif ch in SUPPORTED_ELEMENTS:
                atoms.append(AtomPattern(elements=((ch, False),)))
                attach(len(atoms) - 1)
                i += 1
            else:
                raise PatternError(f"unsupported primitive {ch!r}", i)
        elif ch in AROMATIC_SYMBOLS:
            atoms.append(AtomPattern(elements=((AROMATIC_SYMBOLS[ch], True),)))
            attach(len(atoms) - 1)
            i += 1
        else:
            raise PatternError(f"unsupported primitive {ch!r}", i)

    if pending is not None:
        raise PatternError("dangling bond at end of pattern", pending_offset)
    if branch_stack:
        raise PatternError("unbalanced parenthesis", n - 1)
    if ring_open:
        num, (_, _, off) = min(ring_open.items(), key=lambda kv: kv[1][2])
        raise PatternError(f"unmatched ring closure {num}", off)
    return PatternQuery(
        text=text,
        atoms=tuple(atoms),
        bonds=tuple(BondPattern(a, b, kind) for a, b, kind in bonds),
    )


def _parse_bracket_pattern(text: str, start: int) -> tuple[AtomPattern, int]:
    end = text.find("]", start)
    if end == -1:
        raise PatternError("unterminated bracket", start)
    body = text[start + 1: end]
    if not body:
        raise PatternError("empty bracket", start)
    elements: list[tuple[str, bool]] = []
    degree = h_count = charge = None
    in_ring = None
    offset = start + 1
    for part in body.split(";"):
        if not part:
            raise PatternError("empty primitive", offset)
        # an element list: one symbol, or alternatives joined by ','; H, D
        # and R are no element symbol, so they fall through to primitives
        if "," in part or part in SUPPORTED_ELEMENTS or part in AROMATIC_SYMBOLS:
            for sym in part.split(","):
                if sym in SUPPORTED_ELEMENTS:
                    elements.append((sym, False))
                elif sym in AROMATIC_SYMBOLS:
                    elements.append((AROMATIC_SYMBOLS[sym], True))
                else:
                    raise PatternError(f"unsupported primitive {sym!r}", offset)
        elif part[0] == "D":
            if not is_digits(part[1:]):
                raise PatternError(f"unsupported primitive {part!r}", offset)
            degree = int(part[1:])
        elif part[0] == "H":
            if len(part) == 1:
                h_count = 1
            elif is_digits(part[1:]):
                h_count = int(part[1:])
            else:
                raise PatternError(f"unsupported primitive {part!r}", offset)
        elif part == "R":
            in_ring = True
        elif part == "R0":
            in_ring = False
        elif part[0] in "+-":
            sign = 1 if part[0] == "+" else -1
            if len(part) == 1:
                charge = sign
            elif is_digits(part[1:]):
                charge = sign * int(part[1:])
            elif all(c == part[0] for c in part):
                charge = sign * len(part)
            else:
                raise PatternError(f"unsupported primitive {part!r}", offset)
        else:
            raise PatternError(f"unsupported primitive {part!r}", offset)
        offset += len(part) + 1
    return (
        AtomPattern(
            elements=tuple(elements) if elements else None,
            degree=degree,
            h_count=h_count,
            in_ring=in_ring,
            charge=charge,
        ),
        end - start + 1,
    )


def match_pattern(
    query: PatternQuery, graph: MolecularGraph, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All injective mappings of query nodes onto graph atoms.

    Entry k of a result tuple is the target atom matched to query node k.
    Results are sorted; passing ``limit`` stops the search early once that
    many mappings exist (used for cheap any-match checks). A graph short
    of an atom kind the query needs is rejected before any search, and the
    first query node tries only the atoms of the kinds it allows, in
    ascending order.
    """
    by_kind = graph.atoms_by_kind()
    for kind, need in query.needs:
        if len(by_kind.get(kind, ())) < need:
            return []
    plan = query.plan
    kinds = plan[0][1].elements
    if kinds is None:
        seeds = range(len(graph))
    else:
        seeds = sorted({j for kind in kinds for j in by_kind.get(kind, ())})
    n_query = len(plan)
    results: list[tuple[int, ...]] = []
    mapping = [0] * n_query  # target atom of each query node mapped so far
    used: set[int] = set()

    links = graph.adjacency()
    orders = graph.bond_orders

    def backtrack(pos: int) -> bool:
        if pos == n_query:
            results.append(tuple(mapping))
            return limit is not None and len(results) >= limit
        q, atom, mapped_nbrs = plan[pos]
        if mapped_nbrs:
            candidates = sorted(j for j, _ in links[mapping[mapped_nbrs[0][0]]])
        else:
            candidates = seeds
        for j in candidates:
            if j in used or not atom.matches(graph, j):
                continue
            for nbr, bond in mapped_nbrs:
                edge = graph.bond_index(j, mapping[nbr])
                if edge is None or orders[edge] not in _KIND_ORDERS[bond.kind]:
                    break
            else:
                mapping[q] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                used.remove(j)
        return False

    backtrack(0)
    return sorted(results)


def has_match(query: PatternQuery, graph: MolecularGraph) -> bool:
    return bool(match_pattern(query, graph, limit=1))
