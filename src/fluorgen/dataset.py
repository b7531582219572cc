"""Fluorescence dataset ingestion, curation, and cross-validation splits.

The input is delimited text (comma or tab, sniffed from the header) with
one measurement row per molecule-solvent pair: SMILES, the four Catalan
solvent descriptors, and up to three measured properties. Rows that fail
to parse are reported, duplicate pairs are averaged, and each distinct
SMILES is fingerprinted once; task curation turns the surviving records
into training arrays: packed fingerprint rows (shared by the three
tasks), solvents and labels.
"""

from __future__ import annotations

import csv
import enum
import random
from dataclasses import dataclass, field

import numpy as np

from fluorgen.fingerprints import SolventFeatures, morgan_fingerprints
from fluorgen.molgraph import MolecularGraph, read_number
from fluorgen.smiles import SmilesError, parse_smiles, write_canonical_smiles


class DatasetError(ValueError):
    pass


class Task(enum.Enum):
    PLQY_CLASS = "plqy_class"
    ABS_REG = "abs_reg"
    EM_REG = "em_reg"


# logical name -> default header
_COLUMNS = {
    "smiles": "SMILES",
    "sp": "SP",
    "sdp": "SdP",
    "sa": "SA",
    "sb": "SB",
    "plqy": "PLQY",
    "absorption": "Absorption",
    "emission": "Emission",
}


@dataclass(frozen=True)
class ChemFluorRecord:
    smiles: str  # canonical form
    solvent: SolventFeatures | None
    plqy: float | None
    absorption_nm: float | None
    emission_nm: float | None

    def __post_init__(self):
        if self.plqy is None and self.absorption_nm is None and self.emission_nm is None:
            raise DatasetError(f"{self.smiles}: no measurement present")
        if self.plqy is not None and not 0.0 <= self.plqy <= 1.0:
            raise DatasetError(f"{self.smiles}: PLQY {self.plqy} outside [0,1]")
        for value in (self.absorption_nm, self.emission_nm):
            if value is not None and value <= 0:
                raise DatasetError(f"{self.smiles}: wavelength {value} not positive")


# the ChemFluorRecord fields a row measures, averaged over duplicate rows
_MEASUREMENTS = ("plqy", "absorption_nm", "emission_nm")


@dataclass(frozen=True)
class IngestResult:
    records: tuple[ChemFluorRecord, ...]
    rejected: tuple[str, ...]
    # record SMILES -> packed fingerprint row, shared by the three tasks;
    # it follows from the records, so equality reads only those
    fingerprints: dict[str, np.ndarray] = field(compare=False, repr=False)


def ingest_chemfluor(path: str, column_map: dict[str, str] | None = None) -> IngestResult:
    """Read a measurement file and collapse duplicate molecule-solvent pairs.

    Duplicates are keyed by canonical SMILES plus the exact solvent
    four-tuple; each measurement is averaged over the entries where it is
    present. Records come back sorted by that key, so ingestion does not
    depend on row order. ``column_map`` renames logical columns
    (keys from: smiles, sp, sdp, sa, sb, plqy, absorption, emission).
    Each record SMILES is fingerprinted once, from the first graph that
    gave it.
    """
    headers = dict(_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(headers)
        if unknown:
            raise DatasetError(f"unknown column mapping keys: {sorted(unknown)}")
        headers.update(column_map)

    with open(path, encoding="utf-8-sig", newline="") as handle:
        first = handle.readline()
        if not first.strip():
            raise DatasetError(f"{path}: empty file")
        delimiter = "\t" if "\t" in first else ","
        handle.seek(0)
        reader = csv.DictReader(handle, delimiter=delimiter)
        field_lookup = {name.strip().lower(): name for name in reader.fieldnames or []}
        resolved = {}
        missing = []
        for logical, header in headers.items():
            actual = field_lookup.get(header.strip().lower())
            if actual is None:
                missing.append(header)
            else:
                resolved[logical] = actual
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        # each row with its line in the file, blank lines counted
        rows = [(reader.line_num, row) for row in reader]

    rejected: list[str] = []
    groups: dict[tuple, dict[str, list[float]]] = {}
    # raw text -> (canonical SMILES, None), or (None, parse error) when it
    # does not parse: strings only, so no traceback outlives the text's
    # first row
    known: dict[str, tuple[str | None, str | None]] = {}
    # canonical SMILES -> the first graph that gave it
    graphs: dict[str, MolecularGraph] = {}
    for lineno, row in rows:
        def cell(logical):
            value = row.get(resolved[logical])
            return value.strip() if value is not None else ""

        raw_smiles = cell("smiles")
        if raw_smiles not in known:
            try:
                graph = parse_smiles(raw_smiles)
            except SmilesError as exc:
                known[raw_smiles] = (None, str(exc))
            else:
                canonical = write_canonical_smiles(graph)
                known[raw_smiles] = (canonical, None)
                graphs.setdefault(canonical, graph)
        smiles, error = known[raw_smiles]
        if error is not None:
            rejected.append(f"line {lineno}: bad SMILES {raw_smiles!r}: {error}")
            continue

        try:
            solvent_values = [_parse_float(cell(k), k) for k in ("sp", "sdp", "sa", "sb")]
            measurements = [_parse_float(cell(k), k) for k in ("plqy", "absorption", "emission")]
            if all(v is not None for v in solvent_values):
                solvent = SolventFeatures(*solvent_values)
            elif all(v is None for v in solvent_values):
                solvent = None
            else:
                raise DatasetError("partial solvent features")
            # the record's own checks reject a row without a valid measurement
            record = ChemFluorRecord(smiles, solvent, *measurements)
        except DatasetError as exc:
            rejected.append(f"line {lineno}: {exc}")
            continue

        key = (record.smiles, solvent.as_tuple() if solvent is not None else None)
        bucket = groups.setdefault(key, {name: [] for name in _MEASUREMENTS})
        for name, values in bucket.items():
            if getattr(record, name) is not None:
                values.append(getattr(record, name))

    records = []
    for key in sorted(groups, key=lambda k: (k[0], k[1] is not None, k[1] or ())):
        smiles, solvent_tuple = key
        records.append(
            ChemFluorRecord(
                smiles=smiles,
                solvent=SolventFeatures(*solvent_tuple) if solvent_tuple else None,
                **{name: _mean(values) for name, values in groups[key].items()},
            )
        )
    if not records:
        raise DatasetError(f"{path}: zero valid rows")
    distinct = list(dict.fromkeys(record.smiles for record in records))
    return IngestResult(
        records=tuple(records),
        rejected=tuple(rejected),
        fingerprints=dict(zip(distinct, morgan_fingerprints(graphs[s] for s in distinct))),
    )


def _parse_float(text: str, name: str) -> float | None:
    if not text:
        return None
    try:
        value = read_number(text)
    except ValueError:
        raise DatasetError(f"bad {name} value {text!r}") from None
    if not np.isfinite(value):
        raise DatasetError(f"non-finite {name} value {text!r}")
    return value


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class TaskDataset:
    task: Task
    words: np.ndarray  # (n, FP_WORDS) packed fingerprint rows
    labels: np.ndarray  # (n,)
    smiles: tuple[str, ...]
    solvents: tuple[SolventFeatures, ...]

    def __len__(self) -> int:
        return len(self.smiles)


def curate_task(ingested: IngestResult, task: Task) -> TaskDataset:
    """Keep the ingested records complete for the task and build the
    training arrays from them and their fingerprints.

    A record qualifies when the solvent features and the task's
    measurement are present. PLQY classification labels are 1 only for
    PLQY strictly above 0.5; the regression tasks use nm values as-is.
    """
    value_of = {
        Task.PLQY_CLASS: lambda r: r.plqy,
        Task.ABS_REG: lambda r: r.absorption_nm,
        Task.EM_REG: lambda r: r.emission_nm,
    }[task]
    labels = []
    smiles = []
    solvents = []
    for record in ingested.records:
        value = value_of(record)
        if value is None or record.solvent is None:
            continue
        if task is Task.PLQY_CLASS:
            labels.append(1.0 if value > 0.5 else 0.0)
        else:
            labels.append(value)
        smiles.append(record.smiles)
        solvents.append(record.solvent)
    if not smiles:
        raise DatasetError(f"no records usable for task {task.value}")
    return TaskDataset(
        task=task,
        words=np.stack([ingested.fingerprints[s] for s in smiles]),
        labels=np.asarray(labels, dtype=np.float64),
        smiles=tuple(smiles),
        solvents=tuple(solvents),
    )


@dataclass(frozen=True)
class CvSplit:
    fold_id: int
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


def split_cv(n_examples: int, folds: int, seed: int) -> tuple[CvSplit, ...]:
    """Shuffle indices once, then rotate contiguous test blocks.

    Fold i tests on block i and validates on block i+1 (cyclically), so
    every index lands in exactly one test set and the sizes follow the
    80/10/10 pattern as closely as integer block sizes allow.
    """
    if folds < 3:
        raise DatasetError("need at least 3 folds for train/val/test")
    if n_examples < folds:
        raise DatasetError(f"{n_examples} examples cannot fill {folds} folds")
    indices = list(range(n_examples))
    random.Random(seed).shuffle(indices)
    base = n_examples // folds
    extra = n_examples % folds
    blocks = []
    start = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(indices[start : start + size]))
        start += size
    splits = []
    for i in range(folds):
        test = blocks[i]
        val = blocks[(i + 1) % folds]
        train = tuple(
            idx
            for j, block in enumerate(blocks)
            if j != i and j != (i + 1) % folds
            for idx in block
        )
        splits.append(CvSplit(fold_id=i, train=train, val=val, test=test))
    return tuple(splits)


def write_rejection_report(rejected, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for line in rejected:
            handle.write(line + "\n")
        handle.write(f"# {len(rejected)} rows rejected\n")
