"""SMILES reading and canonical writing for the supported organic subset.

Covers the organic subset plus bracket atoms (charge, hydrogen count,
isotopes), aromatic lowercase notation, single/double/triple/aromatic
bonds, branches, ring closures (including %nn), and dot-separated
fragments. Stereo markers (/, \\, @, @@) and isotope labels are accepted
and discarded; the graph model carries no stereochemistry.

Parse errors report a 0-based character offset into the input string.
"""

from __future__ import annotations

import functools
import heapq

from fluorgen.molgraph import (
    AROMATIC_SYMBOLS,
    ATOMIC_NUMBER,
    SUPPORTED_ELEMENTS,
    TWO_LETTER_ELEMENTS,
    Atom,
    Bond,
    BondOrder,
    MolecularGraph,
    MoleculeError,
)

_ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
_BOND_CHARS = {"-": BondOrder.SINGLE, "=": BondOrder.DOUBLE,
               "#": BondOrder.TRIPLE, ":": BondOrder.AROMATIC}


class SmilesError(ValueError):
    """Malformed SMILES input; ``offset`` is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a molecular graph.

    Args:
        text: SMILES within the supported subset.

    Returns:
        The parsed graph, hydrogens implicit where the notation allows.

    Raises:
        SmilesError: on syntax problems, unknown elements, unbalanced
            parentheses, unmatched ring closures, or valence violations.
    """
    if not text or not text.strip():
        raise SmilesError("empty SMILES", 0)
    atoms: list[Atom] = []
    atom_offsets: list[int] = []
    bonds: list[Bond] = []
    bond_pairs: set[tuple[int, int]] = set()
    prev_atom: int | None = None
    pending: BondOrder | None = None
    pending_offset = 0
    branch_stack: list[tuple[int, int]] = []
    ring_open: dict[int, tuple[int, BondOrder | None, int]] = {}
    fragment_has_atom = False
    i = 0
    n = len(text)

    def add_bond(a: int, b: int, order: BondOrder, offset: int) -> None:
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", offset)
        pair = (a, b) if a < b else (b, a)
        if pair in bond_pairs:
            raise SmilesError("duplicate bond between the same atoms", offset)
        bond_pairs.add(pair)
        bonds.append(Bond(a, b, order))

    def add_atom(atom: Atom, offset: int) -> None:
        nonlocal prev_atom, pending, fragment_has_atom
        atoms.append(atom)
        atom_offsets.append(offset)
        idx = atom.index
        if prev_atom is not None:
            order = pending
            if order is None:
                both_aromatic = atoms[prev_atom].aromatic and atom.aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            add_bond(prev_atom, idx, order, offset)
        elif pending is not None:
            raise SmilesError("bond symbol with no preceding atom", pending_offset)
        pending = None
        prev_atom = idx
        fragment_has_atom = True

    while i < n:
        ch = text[i]
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending = _BOND_CHARS[ch]
            pending_offset = i
            i += 1
        elif ch in "/\\":
            # Directional single bond; geometry is discarded.
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending = BondOrder.SINGLE
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev_atom is None:
                raise SmilesError("branch before any atom", i)
            if pending is not None:
                raise SmilesError("bond symbol before branch open", pending_offset)
            branch_stack.append((prev_atom, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unbalanced parenthesis", i)
            if pending is not None:
                raise SmilesError("dangling bond before branch close", pending_offset)
            prev_atom, _ = branch_stack.pop()
            i += 1
        elif ch == ".":
            if branch_stack:
                raise SmilesError("dot inside a branch", i)
            if pending is not None:
                raise SmilesError("bond symbol before dot", pending_offset)
            if not fragment_has_atom:
                raise SmilesError("empty fragment", i)
            prev_atom = None
            fragment_has_atom = False
            i += 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                digits = text[i + 1: i + 3]
                if len(digits) != 2 or not digits.isdigit():
                    raise SmilesError("% ring closure needs two digits", i)
                num = int(digits)
                width = 3
            else:
                num = int(ch)
                width = 1
            if prev_atom is None:
                raise SmilesError("ring closure before any atom", i)
            if num in ring_open:
                other, other_order, other_off = ring_open.pop(num)
                order = pending
                if order is not None and other_order is not None and order is not other_order:
                    raise SmilesError("ring closure bond symbols disagree", i)
                if order is None:
                    order = other_order
                if order is None:
                    both = atoms[other].aromatic and atoms[prev_atom].aromatic
                    order = BondOrder.AROMATIC if both else BondOrder.SINGLE
                add_bond(other, prev_atom, order, i)
            else:
                ring_open[num] = (prev_atom, pending, i)
            pending = None
            i += width
        elif ch == "[":
            atom, consumed = _parse_bracket(text, i, len(atoms))
            add_atom(atom, i)
            i += consumed
        elif ch.isupper():
            sym = text[i: i + 2]
            if sym in TWO_LETTER_ELEMENTS and sym in _ORGANIC_SUBSET:
                add_atom(_organic_atom(len(atoms), sym, False), i)
                i += 2
            elif ch in _ORGANIC_SUBSET:
                add_atom(_organic_atom(len(atoms), ch, False), i)
                i += 1
            else:
                raise SmilesError(f"unknown element {ch!r}", i)
        elif ch in AROMATIC_SYMBOLS:
            add_atom(_organic_atom(len(atoms), AROMATIC_SYMBOLS[ch], True), i)
            i += 1
        elif ch.isspace():
            raise SmilesError("whitespace inside SMILES", i)
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond at end of input", pending_offset)
    if branch_stack:
        raise SmilesError("unbalanced parenthesis", branch_stack[-1][1])
    if ring_open:
        num, (_, _, off) = min(ring_open.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {num}", off)
    if not fragment_has_atom:
        raise SmilesError("empty fragment", n - 1)
    try:
        return MolecularGraph(tuple(atoms), tuple(bonds))
    except MoleculeError as exc:
        offset = atom_offsets[exc.atom_index] if exc.atom_index is not None else 0
        raise SmilesError(str(exc), offset) from exc


@functools.lru_cache(maxsize=4096)
def _organic_atom(index: int, element: str, aromatic: bool) -> Atom:
    # Atoms are immutable, so parsed graphs share one per (index, element,
    # aromatic): a cache hit costs a tenth of a dataclass construction.
    return Atom(index, element, aromatic)


def _parse_bracket(text: str, start: int, index: int) -> tuple[Atom, int]:
    """Parse one bracket atom beginning at ``text[start] == '['``.

    Returns the atom and the number of characters consumed. Isotope labels
    and chirality marks are skipped.
    """
    i = start + 1
    n = len(text)
    while i < n and text[i].isdigit():
        i += 1  # isotope, discarded
    if i >= n:
        raise SmilesError("unterminated bracket atom", start)
    element = None
    aromatic = False
    two = text[i: i + 2]
    if two in TWO_LETTER_ELEMENTS:
        element = two
        i += 2
    elif text[i].isupper() and text[i] in SUPPORTED_ELEMENTS:
        element = text[i]
        i += 1
    elif text[i] in AROMATIC_SYMBOLS:
        element = AROMATIC_SYMBOLS[text[i]]
        aromatic = True
        i += 1
    else:
        raise SmilesError(f"unknown element in bracket: {text[i]!r}", i)
    while i < n and text[i] == "@":
        i += 1  # chirality, discarded
    h_count = 0
    if i < n and text[i] == "H":
        i += 1
        digits = ""
        while i < n and text[i].isdigit():
            digits += text[i]
            i += 1
        h_count = int(digits) if digits else 1
    charge = 0
    if i < n and text[i] in "+-":
        sign = 1 if text[i] == "+" else -1
        symbol = text[i]
        i += 1
        digits = ""
        while i < n and text[i].isdigit():
            digits += text[i]
            i += 1
        if digits:
            charge = sign * int(digits)
        else:
            charge = sign
            while i < n and text[i] == symbol:
                charge += sign
                i += 1
    if i < n and text[i] == ":":
        i += 1
        if i >= n or not text[i].isdigit():
            raise SmilesError("atom class expects digits", i if i < n else start)
        while i < n and text[i].isdigit():
            i += 1  # atom map class, discarded
    if i >= n or text[i] != "]":
        raise SmilesError("unterminated bracket atom", start)
    return Atom(index, element, aromatic, charge, h_count), i - start + 1


# --- canonical writing -----------------------------------------------------


def write_canonical_smiles(graph: MolecularGraph) -> str:
    """Serialize a graph to a canonical SMILES string.

    Atom output order comes from iterative neighborhood refinement over
    (element, charge, degree, hydrogen count, aromaticity); remaining ties
    are broken by individualizing each symmetric choice, and the
    lexicographically smallest string over every leaf of that search is
    kept, so isomorphic graphs serialize identically. The search is exact
    and has no leaf budget: branches that graph automorphisms prove
    equivalent are skipped, never cut off. Fragments are sorted and joined
    with dots. The string is kept on the graph, so a graph is searched
    at most once.
    """
    if graph._canonical_smiles is None:
        if len(graph) == 0:
            raise ValueError("cannot write SMILES for an empty graph")
        pieces = [_fragment_canonical(graph, comp) for comp in connected_components(graph)]
        graph._canonical_smiles = ".".join(sorted(pieces))
    return graph._canonical_smiles


def connected_components(graph: MolecularGraph) -> list[list[int]]:
    """Atom index lists of the connected components, in first-atom order."""
    seen = [False] * len(graph)
    comps = []
    for start in range(len(graph)):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nbr, _ in graph.neighbors(node):
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        comps.append(sorted(comp))
    return comps


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(adj: list[list[tuple[int, int]]], ranks: list[int]) -> list[int]:
    """Dense-rank (rank, sorted (bond order, neighbour rank) pairs) until
    the number of classes stops growing. ``adj[i]`` holds (order value
    times atom count, neighbour) pairs, so each pair sorts as one integer
    in the order of the tuple. An atom alone in its class gets the key
    (rank,): no other key shares its rank, so the dense ranks come out as
    with the full key."""
    n_classes = max(ranks) + 1
    while True:
        counts = [0] * n_classes
        for r in ranks:
            counts[r] += 1
        keys = [
            (r, tuple(sorted([code + ranks[j] for code, j in nbrs]))) if counts[r] > 1 else (r,)
            for r, nbrs in zip(ranks, adj)
        ]
        order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        if len(order) == n_classes:
            return ranks
        ranks = [order[key] for key in keys]
        n_classes = len(order)


def _fragment_canonical(graph: MolecularGraph, subset: list[int]) -> str:
    """Exact canonical SMILES of one connected component.

    Individualization-refinement: refine the atom ranks, individualize
    each member of the first tied class in turn, and emit a string at
    every discrete leaf; the smallest wins. There is no leaf budget. Two
    prunings keep the tree small without changing the minimum (McKay &
    Piperno 2014):

    - A leaf whose rank-for-rank map onto an earlier emitted leaf keeps
      every bond and its order is that leaf under an automorphism and
      emits the same string. It is recorded, not emitted, and the search
      returns to the node where the two leaves' paths part, because the
      rest of that branch is the image of one already explored.
    - At a node with individualized path P, a tied-class member in the
      orbit of an explored member, under the recorded automorphisms that
      fix every atom of P, roots an image of an explored subtree and is
      skipped.

    Atoms, bonds and tokens are read once into per-call tables indexed by
    position in ``subset``.
    """
    n = len(subset)
    position = {atom: k for k, atom in enumerate(subset)}
    bonds = [bond for bond in graph.bonds if bond.a1 in position]
    ends = [(position[bond.a1], position[bond.a2]) for bond in bonds]
    orders = [bond.order.value for bond in bonds]
    symbols = [_bond_symbol(graph, bond) for bond in bonds]
    tokens = [_atom_token(graph, atom) for atom in subset]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (order * n, neighbour)
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbour, edge)
    order_at: dict[int, int] = {}  # i * n + j -> order value
    for edge, ((a, b), order) in enumerate(zip(ends, orders)):
        adj[a].append((order * n, b))
        adj[b].append((order * n, a))
        links[a].append((b, edge))
        links[b].append((a, edge))
        order_at[a * n + b] = order_at[b * n + a] = order
    initial = [
        (ATOMIC_NUMBER[graph.atoms[atom].element], graph.atoms[atom].formal_charge,
         graph.degree(atom), graph.total_h(atom), graph.atoms[atom].aromatic)
        for atom in subset
    ]

    best: str | None = None
    emitted: list[tuple[list[int], list[int]]] = []  # (atom at each rank, path)
    automorphisms: list[list[int]] = []

    def leaf(ranks: list[int], path: list[int]) -> int | None:
        """Emit a discrete leaf, or return the depth to resume at when it
        is the image of an emitted leaf."""
        nonlocal best
        at_rank = [0] * n
        for i, r in enumerate(ranks):
            at_rank[r] = i
        # equal ranks lie in the same initial class, so the map keeps atom
        # kinds; it is an automorphism when it also keeps every bond order
        for earlier, earlier_path in emitted:
            image = [0] * n
            for r in range(n):
                image[earlier[r]] = at_rank[r]
            if all(
                order_at.get(image[a] * n + image[b]) == order
                for (a, b), order in zip(ends, orders)
            ):
                automorphisms.append(image)
                depth = 0
                while path[depth] == earlier_path[depth]:
                    depth += 1
                return depth
        text = _emit(ranks, links, ends, tokens, symbols)
        if best is None or text < best:
            best = text
        emitted.append((at_rank, path))
        return None

    def explore(ranks: list[int], path: list[int]) -> int | None:
        counts = [0] * n
        for r in ranks:
            counts[r] += 1
        target = next((r for r, c in enumerate(counts) if c > 1), None)
        if target is None:
            return leaf(ranks, path)
        depth = len(path)
        members = [i for i, r in enumerate(ranks) if r == target]
        explored: list[int] = []
        for chosen in members:
            if explored and chosen in _orbit(explored, automorphisms, path):
                continue
            explored.append(chosen)
            individualized = [
                r if r < target or i == chosen else r + 1 for i, r in enumerate(ranks)
            ]
            resume = explore(_refine(adj, individualized), path + [chosen])
            if resume is not None and resume < depth:
                return resume
        return None

    explore(_refine(adj, _dense_ranks(initial)), [])
    assert best is not None
    return best


def _orbit(seeds: list[int], automorphisms: list[list[int]], path: list[int]) -> set[int]:
    """Atoms that the recorded automorphisms fixing every atom of ``path``
    reach from ``seeds``."""
    group = [image for image in automorphisms if all(image[v] == v for v in path)]
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        i = stack.pop()
        for image in group:
            if image[i] not in orbit:
                orbit.add(image[i])
                stack.append(image[i])
    return orbit


def _emit(ranks: list[int], links, ends, tokens: list[str], symbols: list[str]) -> str:
    """SMILES of a discrete leaf: depth-first from rank 0, neighbours in
    rank order, ring-closure digits reused lowest first."""
    n = len(ranks)
    start = ranks.index(0)
    parent = [-1] * n
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    visit_order = [0] * n
    back_edges: set[int] = set()
    counter = 0
    stack = [start]
    claimed = [False] * n
    claimed[start] = True
    while stack:
        node = stack.pop()
        visit_order[node] = counter
        counter += 1
        fresh = []
        for j, edge in sorted(links[node], key=lambda t: ranks[t[0]]):
            if j == parent[node]:
                continue
            if claimed[j]:
                back_edges.add(edge)
            else:
                claimed[j] = True
                parent[j] = node
                children[node].append((j, edge))
                fresh.append(j)
        stack.extend(reversed(fresh))

    ring_at: list[list[int]] = [[] for _ in range(n)]
    for edge in back_edges:
        a, b = ends[edge]
        ring_at[a].append(edge)
        ring_at[b].append(edge)
    for i, edges in enumerate(ring_at):
        # in the visit order of each ring bond's other end
        edges.sort(key=lambda e: visit_order[ends[e][0] + ends[e][1] - i])

    free_digits = list(range(1, 100))
    open_digit: dict[int, int] = {}
    # pre-order over the tree, iterative so long chains cannot overflow the
    # interpreter stack; the stack holds atoms and the text around branches
    parts: list[str] = []
    todo: list[int | str] = [start]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        parts.append(tokens[node])
        for edge in ring_at[node]:
            if edge in open_digit:
                digit = open_digit.pop(edge)
                parts.append(_digit_token(digit))
                heapq.heappush(free_digits, digit)
            else:
                digit = heapq.heappop(free_digits)
                open_digit[edge] = digit
                parts.append(symbols[edge] + _digit_token(digit))
        kids = children[node]
        if kids:
            child, edge = kids[-1]
            todo += [child, symbols[edge]]
            for child, edge in reversed(kids[:-1]):
                todo += [")", child, "(" + symbols[edge]]
    return "".join(parts)


def _digit_token(digit: int) -> str:
    return str(digit) if digit <= 9 else f"%{digit:02d}"


def _bond_symbol(graph: MolecularGraph, bond: Bond) -> str:
    a = graph.atoms[bond.a1]
    b = graph.atoms[bond.a2]
    if bond.order is BondOrder.SINGLE:
        return "-" if (a.aromatic and b.aromatic) else ""
    if bond.order is BondOrder.DOUBLE:
        return "="
    if bond.order is BondOrder.TRIPLE:
        return "#"
    return "" if (a.aromatic and b.aromatic) else ":"


def _atom_token(graph: MolecularGraph, index: int) -> str:
    atom = graph.atoms[index]
    total_h = graph.total_h(index)
    bare_allowed = (
        atom.formal_charge == 0
        and atom.element in _ORGANIC_SUBSET
        and graph.bare_implicit_h(index) == total_h
    )
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if bare_allowed:
        return symbol
    if total_h == 0:
        h_part = ""
    elif total_h == 1:
        h_part = "H"
    else:
        h_part = f"H{total_h}"
    q = atom.formal_charge
    if q == 0:
        q_part = ""
    elif q == 1:
        q_part = "+"
    elif q == -1:
        q_part = "-"
    elif q > 1:
        q_part = f"+{q}"
    else:
        q_part = f"-{-q}"
    return f"[{symbol}{h_part}{q_part}]"
