"""SMILES reading and canonical writing for the supported organic subset.

Covers the organic subset plus bracket atoms (charge, hydrogen count,
isotopes), aromatic lowercase notation, single/double/triple/aromatic
bonds, branches, ring closures (including %nn), and dot-separated
fragments. Stereo markers (/, \\, @, @@) and isotope labels are accepted
and discarded; the graph model carries no stereochemistry.

Parse errors report a 0-based character offset into the input string.
"""

from __future__ import annotations

import heapq

from fluorgen.molgraph import (
    AROMATIC_SYMBOLS,
    ATOMIC_NUMBER,
    SUPPORTED_ELEMENTS,
    SYMBOL,
    TWO_LETTER_ELEMENTS,
    MolecularGraph,
    MoleculeError,
    is_digits,
)

_ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
# an organic-subset character -> (atomic number, aromatic); the two-letter
# symbols, tried first, -> atomic number
_ORGANIC_ATOMS = {
    **{symbol: (ATOMIC_NUMBER[symbol], False) for symbol in _ORGANIC_SUBSET if len(symbol) == 1},
    **{char: (ATOMIC_NUMBER[symbol], True) for char, symbol in AROMATIC_SYMBOLS.items()},
}
_TWO_LETTER_ORGANIC = {
    symbol: ATOMIC_NUMBER[symbol] for symbol in TWO_LETTER_ELEMENTS if symbol in _ORGANIC_SUBSET
}
_TWO_LETTER_STARTS = frozenset(symbol[0] for symbol in _TWO_LETTER_ORGANIC)
# bond symbol -> bond order value; the directional single bonds / and \
# keep no geometry
_BOND_CHARS = {"-": 1, "=": 2, "#": 3, ":": 4, "/": 1, "\\": 1}


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

    The graph's columns are filled as the text is read, with no Atom or
    Bond. Only a ring closure can repeat a bond (any other bond joins the
    atom just read), so the duplicate check reads each atom's chain
    parent and the ring-closure pairs.
    """
    if not text or not text.strip():
        raise SmilesError("empty SMILES", 0)
    numbers: list[int] = []
    aromatic: list[bool] = []
    charges: list[int] = []
    hydrogens: list[int] = []
    atom_offsets: list[int] = []
    parent: list[int] = []  # the atom each atom was bonded to when read, or -1
    bond_a1: list[int] = []
    bond_a2: list[int] = []
    orders: list[int] = []
    closures: set[tuple[int, int]] = set()
    prev_atom = -1
    pending = 0  # order of a bond symbol not yet used, 0 for none
    pending_offset = 0
    branch_stack: list[tuple[int, int]] = []
    ring_open: dict[int, tuple[int, int, int]] = {}
    fragment_has_atom = False
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]
        if ch in _ORGANIC_ATOMS or ch == "[":
            if ch == "[":
                (number, is_aromatic, charge, h_count), width = _parse_bracket(text, i)
            elif ch in _TWO_LETTER_STARTS and text[i: i + 2] in _TWO_LETTER_ORGANIC:
                number, is_aromatic, width = _TWO_LETTER_ORGANIC[text[i: i + 2]], False, 2
                charge = h_count = 0
            else:
                (number, is_aromatic), width = _ORGANIC_ATOMS[ch], 1
                charge = h_count = 0
            index = len(numbers)
            numbers.append(number)
            aromatic.append(is_aromatic)
            charges.append(charge)
            hydrogens.append(h_count)
            atom_offsets.append(i)
            if prev_atom >= 0:
                if not pending:  # aromatic between aromatic atoms, else single
                    pending = 4 if is_aromatic and aromatic[prev_atom] else 1
                bond_a1.append(prev_atom)
                bond_a2.append(index)
                orders.append(pending)
            elif pending:
                raise SmilesError("bond symbol with no preceding atom", pending_offset)
            parent.append(prev_atom)
            pending = 0
            prev_atom = index
            fragment_has_atom = True
            i += width
        elif ch in _BOND_CHARS:
            if pending:
                raise SmilesError("two bond symbols in a row", i)
            pending = _BOND_CHARS[ch]
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev_atom < 0:
                raise SmilesError("branch before any atom", i)
            if pending:
                raise SmilesError("bond symbol before branch open", pending_offset)
            branch_stack.append((prev_atom, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unbalanced parenthesis", i)
            if pending:
                raise SmilesError("dangling bond before branch close", pending_offset)
            prev_atom, _ = branch_stack.pop()
            i += 1
        elif ch == ".":
            if branch_stack:
                raise SmilesError("dot inside a branch", i)
            if pending:
                raise SmilesError("bond symbol before dot", pending_offset)
            if not fragment_has_atom:
                raise SmilesError("empty fragment", i)
            prev_atom = -1
            fragment_has_atom = False
            i += 1
        elif "0" <= ch <= "9" or ch == "%":
            if ch == "%":
                digits = text[i + 1: i + 3]
                if len(digits) != 2 or not is_digits(digits):
                    raise SmilesError("% ring closure needs two digits", i)
                num = int(digits)
                width = 3
            else:
                num = int(ch)
                width = 1
            if prev_atom < 0:
                raise SmilesError("ring closure before any atom", i)
            if num in ring_open:
                other, other_order, _ = ring_open.pop(num)
                order = pending
                if order and other_order and order != other_order:
                    raise SmilesError("ring closure bond symbols disagree", i)
                order = order or other_order
                if not order:
                    order = 4 if aromatic[other] and aromatic[prev_atom] else 1
                if other == prev_atom:
                    raise SmilesError("ring closure bonds an atom to itself", i)
                pair = (other, prev_atom) if other < prev_atom else (prev_atom, other)
                if parent[pair[1]] == pair[0] or pair in closures:
                    raise SmilesError("duplicate bond between the same atoms", i)
                closures.add(pair)
                bond_a1.append(other)
                bond_a2.append(prev_atom)
                orders.append(order)
            else:
                ring_open[num] = (prev_atom, pending, i)
            pending = 0
            i += width
        elif ch.isupper():
            raise SmilesError(f"unknown element {ch!r}", i)
        elif ch.isspace():
            raise SmilesError("whitespace inside SMILES", i)
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

    if pending:
        raise SmilesError("dangling bond at end of input", pending_offset)
    if branch_stack:
        raise SmilesError("unbalanced parenthesis", branch_stack[-1][1])
    if ring_open:
        num, (_, _, off) = min(ring_open.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {num}", off)
    if not fragment_has_atom:
        raise SmilesError("empty fragment", n - 1)
    try:
        return MolecularGraph.from_columns(
            numbers, aromatic, charges, hydrogens, bond_a1, bond_a2, orders
        )
    except MoleculeError as exc:
        offset = atom_offsets[exc.atom_index] if exc.atom_index is not None else 0
        raise SmilesError(str(exc), offset) from exc


def _parse_bracket(text: str, start: int) -> tuple[tuple[int, bool, int, int], int]:
    """Parse one bracket atom beginning at ``text[start] == '['``.

    Returns the atom's (atomic number, aromatic, charge, hydrogen count)
    and the number of characters consumed. Isotope labels and chirality
    marks are skipped.
    """
    i = start + 1
    n = len(text)
    while i < n and "0" <= text[i] <= "9":
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
        while i < n and "0" <= text[i] <= "9":
            digits += text[i]
            i += 1
        h_count = int(digits) if digits else 1
    charge = 0
    if i < n and text[i] in "+-":
        sign = 1 if text[i] == "+" else -1
        symbol = text[i]
        i += 1
        digits = ""
        while i < n and "0" <= text[i] <= "9":
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
        if i >= n or not "0" <= text[i] <= "9":
            raise SmilesError("atom class expects digits", i if i < n else start)
        while i < n and "0" <= text[i] <= "9":
            i += 1  # atom map class, discarded
    if i >= n or text[i] != "]":
        raise SmilesError("unterminated bracket atom", start)
    return (ATOMIC_NUMBER[element], aromatic, charge, h_count), i - start + 1


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
    links = graph.adjacency()
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
            for nbr, _ in links[node]:
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

    The graph's columns, and the tokens, are read once into per-call
    tables indexed by position in ``subset``.
    """
    n = len(subset)
    position = {atom: k for k, atom in enumerate(subset)}
    aromatic = graph.aromatic
    ends = []
    orders = []
    symbols = []
    for a1, a2, order in zip(graph.bond_a1, graph.bond_a2, graph.bond_orders):
        if a1 in position:
            ends.append((position[a1], position[a2]))
            orders.append(order)
            symbols.append(_bond_symbol(order, aromatic[a1] and aromatic[a2]))
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
    degree = list(map(len, graph.adjacency()))
    initial = [
        (graph.atomic_numbers[atom], graph.charges[atom], degree[atom],
         graph.total_hs[atom], aromatic[atom])
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


def _bond_symbol(order: int, aromatic_ends: bool) -> str:
    """The written symbol of a bond of that order value; aromatic_ends
    says whether both its atoms are aromatic."""
    if order == 1:
        return "-" if aromatic_ends else ""
    if order == 2:
        return "="
    if order == 3:
        return "#"
    return "" if aromatic_ends else ":"


def _atom_token(graph: MolecularGraph, index: int) -> str:
    element = SYMBOL[graph.atomic_numbers[index]]
    q = graph.charges[index]
    total_h = graph.total_hs[index]
    bare_allowed = (
        q == 0
        and element in _ORGANIC_SUBSET
        and graph.bare_implicit_h(index) == total_h
    )
    symbol = element.lower() if graph.aromatic[index] else element
    if bare_allowed:
        return symbol
    if total_h == 0:
        h_part = ""
    elif total_h == 1:
        h_part = "H"
    else:
        h_part = f"H{total_h}"
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
