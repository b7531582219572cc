"""Seeded input builder for the benchmark workloads.

Everything the program reads in a benchmark run, apart from the shipped
building blocks and reaction templates, is made here:

- proxy checkpoints: the three property scorers of the acceptance test
  (tests/test_acceptance.py::proxy_scorers), trained on a synthetic
  sp2-size labelling of the shipped library and saved with save_model.
  They do not depend on the seed, so one training serves every run;
- filter inputs: a few thousand distinct aryl-rich molecules plus a
  novelty reference list, drawn from a small aryl-chain grammar;
- train inputs: a ChemFluor-format CSV with duplicate molecules written
  in other atom orders, a slice of highly symmetric dyes and a few
  malformed rows, plus a manifest of what was planted.

Run as a script it builds one workload's inputs into a directory; the
benchmark runs it in a child process so that input building never
counts toward the measured process's time or peak memory.

    python3 perfbench/inputs.py --workload filter --seed 3 --cache perfbench/.cache
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import sys
import time

# Bump when the inputs made for a seed change, so stale caches are not reused.
INPUT_VERSION = "2"

# Catalan solvent descriptors (SP, SdP, SA, SB).
WATER = (0.681, 0.997, 1.062, 0.025)
SOLVENTS = (
    WATER,
    (0.857, 0.808, 0.044, 0.329),  # ethanol-like
    (0.758, 0.919, 0.605, 0.545),
    (0.827, 0.809, 0.0, 0.286),  # acetonitrile-like
    (0.839, 0.769, 0.04, 0.178),  # dichloromethane-like
    (0.785, 0.27, 0.0, 0.128),  # toluene-like
    (0.683, 0.0, 0.0, 0.053),  # hexane-like
    (0.842, 0.977, 0.0, 0.647),  # dmso-like
)

FILTER_MOLECULES = 1500
NOVELTY_REFERENCES = 200

# ---------------------------------------------------------------------------
# aryl-chain grammar
#
# A molecule is a chain of 2-4 aromatic units joined by linkers. Each unit
# is a SMILES fragment attached to its parent through its first atom; {X}
# marks where the rest of the chain hangs, {a} and {b} are ring-closure
# digits chosen by depth so nested rings never share one.

MIDDLE_UNITS = (
    "c{a}ccc({X})cc{a}",
    "c{a}cccc({X})c{a}",
    "c{a}ccc({X})s{a}",
    "c{a}ccc({X})o{a}",
    "c{a}ccc({X})nc{a}",
    "c{a}ccc{b}cc({X})ccc{b}c{a}",
    "c{a}cc(OC)c({X})cc{a}",
    "c{a}ccc({X})c(F)c{a}",
)
TERMINAL_UNITS = (
    "c{a}ccccc{a}",
    "c{a}ccc(F)cc{a}",
    "c{a}ccc(OC)cc{a}",
    "c{a}ccc(N(C)C)cc{a}",
    "c{a}ccc(C#N)cc{a}",
    "c{a}cccs{a}",
    "c{a}ccncc{a}",
    "c{a}ccc{b}ccccc{b}c{a}",
    "c{a}ccc(C)cc{a}",
    "c{a}ccc(Cl)cc{a}",
    "c{a}ccco{a}",
    "c{a}ccc(C(F)(F)F)cc{a}",
)
LINKERS = ("-", "-", "C=C", "C(=O)", "C=N")
PREFIXES = ("", "", "", "C", "CO", "CN(C)", "F", "N#C")
CHAIN_LENGTHS = (2, 2, 3, 3, 3, 4)


def _fill(unit: str, depth: int, rest: str = "") -> str:
    return unit.format(a=depth + 1, b=depth + 5, X=rest)


def aryl_chain(rng: random.Random) -> str:
    """One molecule of the grammar, as SMILES."""
    length = rng.choice(CHAIN_LENGTHS)
    units = [rng.choice(MIDDLE_UNITS) for _ in range(length - 1)]
    units.append(rng.choice(TERMINAL_UNITS))
    linkers = [rng.choice(LINKERS) for _ in range(length - 1)]
    smiles = _fill(units[-1], length - 1)
    for depth in range(length - 2, -1, -1):
        smiles = _fill(units[depth], depth, linkers[depth] + smiles)
    return rng.choice(PREFIXES) + smiles


def distinct_chains(rng: random.Random, count: int) -> list[str]:
    """count molecules with distinct canonical SMILES, in draw order."""
    from fluorgen.smiles import parse_smiles, write_canonical_smiles

    seen = set()
    out = []
    while len(out) < count:
        smiles = aryl_chain(rng)
        key = write_canonical_smiles(parse_smiles(smiles))
        if key in seen:
            continue
        seen.add(key)
        out.append(smiles)
    return out


# ---------------------------------------------------------------------------
# non-canonical writer: the same molecule in another atom order


def random_order_smiles(graph, rng: random.Random) -> str:
    """SMILES of graph from a depth-first walk with a random root and
    random branch order, every bond written explicitly."""
    from fluorgen.molgraph import BondOrder

    symbols = {
        BondOrder.SINGLE: "-",
        BondOrder.DOUBLE: "=",
        BondOrder.TRIPLE: "#",
        BondOrder.AROMATIC: ":",
    }
    n = len(graph)
    root = rng.randrange(n)
    parent = {root: None}
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    order: list[int] = []
    visited: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        order.append(node)
        if parent[node] is not None:
            children[parent[node]].append(node)
        neighbours = [j for j, _ in graph.neighbors(node) if j not in visited]
        rng.shuffle(neighbours)
        for j in neighbours:
            parent[j] = node
            stack.append(j)
    rank = {node: pos for pos, node in enumerate(order)}
    # ring closures open at the atom written first; digits are never reused
    opens: dict[int, list[str]] = {i: [] for i in range(n)}
    closes: dict[int, list[str]] = {i: [] for i in range(n)}
    digit = 0
    for bond in sorted(graph.bonds, key=lambda b: sorted((rank[b.a1], rank[b.a2]))):
        if parent[bond.a1] == bond.a2 or parent[bond.a2] == bond.a1:
            continue  # tree edge, written inline
        first, second = sorted((bond.a1, bond.a2), key=rank.get)
        digit += 1
        opens[first].append(symbols[bond.order] + _ring_digit(digit))
        closes[second].append(_ring_digit(digit))

    def atom_token(index: int) -> str:
        atom = graph.atoms[index]
        symbol = atom.element.lower() if atom.aromatic else atom.element
        if atom.explicit_h == 0 and atom.formal_charge == 0:
            return symbol
        text = "[" + symbol
        if atom.explicit_h:
            text += "H" + (str(atom.explicit_h) if atom.explicit_h > 1 else "")
        if atom.formal_charge:
            text += "+" if atom.formal_charge > 0 else "-"
            if abs(atom.formal_charge) > 1:
                text += str(abs(atom.formal_charge))
        return text + "]"

    out: list[str] = []
    todo: list = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(atom_token(item))
        out.extend(opens[item])
        out.extend(closes[item])
        kids = children[item]
        # push in reverse so the first child is written first
        for pos in range(len(kids) - 1, -1, -1):
            kid = kids[pos]
            bond_symbol = symbols[graph.bond_between(item, kid).order]
            if pos < len(kids) - 1:
                todo.extend((")", kid, "(" + bond_symbol))
            else:
                todo.extend((kid, bond_symbol))
    return "".join(out)


def _ring_digit(digit: int) -> str:
    return str(digit) if digit < 10 else f"%{digit}"


# ---------------------------------------------------------------------------
# proxy checkpoints

CHECKPOINT_TASKS = ("plqy_class", "abs_reg", "em_reg")


def build_checkpoints(out: str) -> None:
    """The acceptance test's proxy scorers, saved as checkpoints."""
    import numpy as np

    from fluorgen.fingerprints import SolventFeatures, feature_matrix, morgan_fingerprint
    from fluorgen.generator import uniform_baseline
    from fluorgen.molgraph import sp2_network_size
    from fluorgen.reactions import ingest_building_blocks, ingest_reaction_templates
    from fluorgen.smiles import parse_smiles
    from fluorgen.scorers import (
        Head,
        MlpModel,
        PropertyScorer,
        ScorerKind,
        TrainConfig,
        mlp_train,
        save_model,
    )

    def constant(value, head):
        return MlpModel(
            w1=np.zeros((4, 2052)),
            b1=np.zeros(4),
            w2=np.zeros(4),
            b2=float(value),
            head=head,
            norm_mean=np.zeros(4),
            norm_std=np.ones(4),
        )

    water = SolventFeatures(*WATER)
    const_scorers = {
        ScorerKind.PLQY_PROB: PropertyScorer(ScorerKind.PLQY_PROB, constant(0.0, Head.SIGMOID)),
        ScorerKind.ABS_NM: PropertyScorer(ScorerKind.ABS_NM, constant(500.0, Head.LINEAR)),
        ScorerKind.EM_NM: PropertyScorer(ScorerKind.EM_NM, constant(520.0, Head.LINEAR)),
        ScorerKind.SP2_SIZE: PropertyScorer(ScorerKind.SP2_SIZE),
    }
    library = ingest_building_blocks("data/building_blocks.tsv")
    templates = ingest_reaction_templates("data/reactions.txt")
    pool = uniform_baseline(library, templates, 800, 99, const_scorers, water)
    smiles = sorted({m.smiles for m in pool} | {b.smiles for b in library.blocks})
    graphs = [parse_smiles(s) for s in smiles]
    sp2 = np.array([sp2_network_size(g) for g in graphs], dtype=float)
    features = feature_matrix([morgan_fingerprint(g) for g in graphs], [water] * len(graphs))
    config = TrainConfig(hidden_dim=32, epochs=40, learning_rate=0.05, seed=11)
    labels = {
        "plqy_class": ((sp2 >= 8).astype(float), Head.SIGMOID),
        "abs_reg": (250.0 + 18.0 * sp2, Head.LINEAR),
        "em_reg": (310.0 + 18.0 * sp2, Head.LINEAR),
    }
    for task in CHECKPOINT_TASKS:
        target, head = labels[task]
        save_model(mlp_train(features, target, head, config).model, os.path.join(out, f"{task}.npz"))


# ---------------------------------------------------------------------------
# filter inputs


def build_filter(seed: int, out: str) -> None:
    rng = random.Random(f"filter-{seed}")
    molecules = distinct_chains(rng, FILTER_MOLECULES)
    references = distinct_chains(random.Random(f"references-{seed}"), NOVELTY_REFERENCES)
    with open(os.path.join(out, "molecules.tsv"), "w", encoding="utf-8") as handle:
        handle.write("smiles\n")
        for smiles in molecules:
            handle.write(smiles + "\n")
    with open(os.path.join(out, "references.smi"), "w", encoding="utf-8") as handle:
        handle.write("# novelty references\n")
        for smiles in references:
            handle.write(smiles + "\n")


# ---------------------------------------------------------------------------
# train inputs

TRAIN_MOLECULES = 150
ARYLS = ("c1ccccc1", "c1ccc(C)cc1", "c1ccc(F)cc1", "c1ccc(OC)cc1", "c1ccc(Cl)cc1")
# Highly symmetric dyes: every aryl the same, so canonical ordering has to
# break large ties. The slice is the same for every seed.
SYMMETRIC_DYES = tuple(
    family.replace("Ar", aryl.replace("1", "9"))
    for family, aryl in (
        ("C(Ar)(Ar)(Ar)Ar", ARYLS[2]),  # tetraarylmethane
        ("c1(-Ar)c(-Ar)c(-Ar)c(-Ar)c(-Ar)c1-Ar", ARYLS[0]),  # hexaarylbenzene
        ("N(Ar)(Ar)Ar", ARYLS[3]),  # triarylamines
        ("N(Ar)(Ar)Ar", ARYLS[4]),
    )
)
# One planted fault of each kind the ingest step rejects.
MALFORMED = (
    ("c1ccccc", None),  # unclosed ring
    ("CC(C", None),  # unbalanced branch
    ("c1ccccc1[Xx]", None),  # unknown element
    (None, "solvent_text"),
    (None, "plqy_range"),
    (None, "partial_solvent"),
    (None, "no_measurement"),
    (None, "negative_wavelength"),
)
CSV_HEADER = ("SMILES", "SP", "SdP", "SA", "SB", "PLQY", "Absorption", "Emission")


def _latent(graph, smiles: str, solvent, rng: random.Random):
    """Synthetic measurements that follow from the structure, so the
    fingerprint models can learn them."""
    from fluorgen.molgraph import sp2_network_size

    donor = "N(C)C" in smiles or "OC" in smiles
    acceptor = "C#N" in smiles or "C(=O)" in smiles
    thio = "s" in smiles
    aromatic = sum(1 for atom in graph.atoms if atom.aromatic)
    logit = -3.0 + 5.0 * donor + 2.5 * (aromatic >= 16) - 2.5 * thio + rng.gauss(0.0, 0.3)
    plqy = 1.0 / (1.0 + math.exp(-logit))
    sp2 = sp2_network_size(graph)
    absorption = 260.0 + 6.0 * sp2 + 40.0 * donor + 20.0 * acceptor + 15.0 * solvent[0]
    absorption += rng.gauss(0.0, 5.0)
    emission = absorption + 30.0 + 25.0 * donor + rng.gauss(0.0, 5.0)
    return plqy, absorption, emission


def build_train(seed: int, out: str) -> None:
    """The CSV has the same shape for every seed: each molecule measured in
    two solvents, a quarter of the pairs written twice (the copy in another
    atom order, its values jittered), a tenth missing PLQY and a tenth
    missing emission, and one malformed row of each kind."""
    from fluorgen.smiles import parse_smiles

    rng = random.Random(f"train-{seed}")
    molecules = distinct_chains(rng, TRAIN_MOLECULES) + list(SYMMETRIC_DYES)
    n_groups = 2 * len(molecules)
    chain_groups = range(2 * TRAIN_MOLECULES)
    # every dye is written twice in one of its solvents
    doubled = set(rng.sample(chain_groups, n_groups // 4 - len(SYMMETRIC_DYES)))
    doubled |= {2 * TRAIN_MOLECULES + 2 * k for k in range(len(SYMMETRIC_DYES))}
    no_plqy = set(rng.sample(chain_groups, n_groups // 10))
    no_emission = set(rng.sample(chain_groups, n_groups // 10))
    rows: list[list[str]] = []
    owners: list[int] = []  # molecule index of each good row
    manifest_molecules = []
    for index, smiles in enumerate(molecules):
        graph = parse_smiles(smiles)
        groups = []
        for slot_index, solvent in enumerate(rng.sample(SOLVENTS, 2)):
            group = 2 * index + slot_index
            measured = _latent(graph, smiles, solvent, rng)
            keep = (group not in no_plqy, True, group not in no_emission)
            sums = [[], [], []]
            for copy in range(2 if group in doubled else 1):
                text = smiles if copy == 0 else random_order_smiles(graph, rng)
                cells = []
                for slot, value in enumerate(measured):
                    if not keep[slot]:
                        cells.append("")
                        continue
                    if copy:
                        value += rng.gauss(0.0, 0.01 if slot == 0 else 2.0)
                    if slot == 0:
                        value = min(max(value, 0.0), 1.0)
                    cells.append(f"{value:.4f}")
                    sums[slot].append(float(cells[-1]))
                rows.append([text, *(repr(v) for v in solvent), *cells])
                owners.append(index)
            means = [sum(v) / len(v) if v else None for v in sums]
            groups.append((list(solvent), means))
        manifest_molecules.append({"groups": groups})
    order = list(range(len(rows)))
    rng.shuffle(order)
    rows = [rows[i] for i in order]
    owners = [owners[i] for i in order]

    total = len(rows) + len(MALFORMED)
    bad_positions = set(rng.sample(range(total), len(MALFORMED)))
    table: list[list[str]] = []
    good = iter(zip(rows, owners))
    faults = iter(MALFORMED)
    for molecule in manifest_molecules:
        molecule["rows"] = []
    for position in range(total):
        if position in bad_positions:
            table.append(_malformed_row(next(faults), rng))
            continue
        row, owner = next(good)
        table.append(row)
        manifest_molecules[owner]["rows"].append(position)
    with open(os.path.join(out, "chemfluor.csv"), "w", encoding="utf-8") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        for row in table:
            handle.write(",".join(row) + "\n")
    manifest = {
        "rows": total,
        "bad_lines": sorted(position + 2 for position in bad_positions),
        "molecules": manifest_molecules,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _malformed_row(fault, rng: random.Random) -> list[str]:
    smiles, kind = fault
    solvent = [repr(v) for v in rng.choice(SOLVENTS)]
    values = ["0.5000", "450.0000", "500.0000"]
    if smiles is not None:
        return [smiles, *solvent, *values]
    smiles = aryl_chain(rng)
    if kind == "solvent_text":
        solvent[1] = "n/a"
    elif kind == "plqy_range":
        values[0] = "1.7000"
    elif kind == "partial_solvent":
        solvent[2] = ""
    elif kind == "no_measurement":
        values = ["", "", ""]
    elif kind == "negative_wavelength":
        values[2] = "-5.0000"
    return [smiles, *solvent, *values]


# ---------------------------------------------------------------------------
# entry point

BUILDERS = {"filter": build_filter, "train": build_train}


def cache_dirs(cache: str, workload: str, seed: int) -> tuple[str, str | None]:
    """(checkpoint dir, per-seed input dir or None) under the cache root."""
    base = os.path.join(cache, f"inputs-v{INPUT_VERSION}")
    seeded = os.path.join(base, f"{workload}-{seed}") if workload in BUILDERS else None
    return os.path.join(base, "checkpoints"), seeded


def _build_atomically(target: str, build) -> None:
    if os.path.isdir(target):
        return
    staging = f"{target}.tmp-{os.getpid()}"
    os.makedirs(staging)
    build(staging)
    try:
        os.rename(staging, target)
    except OSError:
        # another process finished first; its copy is identical
        shutil.rmtree(staging)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    checkpoints, seeded = cache_dirs(args.cache, args.workload, args.seed)
    start = time.perf_counter()
    if args.workload != "train":
        _build_atomically(checkpoints, build_checkpoints)
    if seeded is not None:
        _build_atomically(seeded, lambda out: BUILDERS[args.workload](args.seed, out))
    print(f"inputs ready in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
