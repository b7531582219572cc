import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fluorgen.dataset import (
    ChemFluorRecord,
    DatasetError,
    Task,
    curate_task,
    ingest_chemfluor,
    split_cv,
    write_rejection_report,
)
from fluorgen.fingerprints import (
    FP_WORDS,
    SolventFeatures,
    feature_rows,
    morgan_fingerprint,
    pack,
)
from fluorgen.smiles import parse_smiles, write_canonical_smiles

from oracles import bits_to_array_loop

HEADER = "SMILES,SP,SdP,SA,SB,PLQY,Absorption,Emission"

ROWS = [
    "c1ccccc1,0.681,0.997,1.062,0.025,0.3,254,290",
    "c1ccc2ccccc2c1,0.681,0.997,1.062,0.025,0.7,275,330",
    "CCO,0.633,0.783,0.4,0.658,,210,",
    "c1ccccc1,0.633,0.783,0.4,0.658,0.4,250,",
]


def write_file(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestIngestion:
    def test_basic_comma_file(self, tmp_path):
        result = ingest_chemfluor(write_file(tmp_path, [HEADER] + ROWS))
        assert result.rejected == ()
        assert len(result.records) == 4
        by_key = {(r.smiles, r.solvent.sp): r for r in result.records}
        benzene = by_key[(write_canonical_smiles(parse_smiles("c1ccccc1")), 0.681)]
        assert benzene.plqy == 0.3
        assert benzene.absorption_nm == 254
        assert benzene.emission_nm == 290

    def test_tab_delimited(self, tmp_path):
        lines = [line.replace(",", "\t") for line in [HEADER] + ROWS]
        path = write_file(tmp_path, lines, name="data.tsv")
        result = ingest_chemfluor(path)
        assert len(result.records) == 4

    def test_duplicate_pairs_averaged(self, tmp_path):
        lines = [
            HEADER,
            "CCO,0.6,0.7,0.8,0.9,0.4,250,",
            "OCC,0.6,0.7,0.8,0.9,0.6,270,300",
        ]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 1
        record = result.records[0]
        assert record.plqy == pytest.approx(0.5)
        assert record.absorption_nm == pytest.approx(260)
        assert record.emission_nm == 300  # averaged over the rows where present

    def test_same_molecule_different_solvent_kept_apart(self, tmp_path):
        lines = [
            HEADER,
            "CCO,0.6,0.7,0.8,0.9,0.4,,",
            "CCO,0.1,0.7,0.8,0.9,0.6,,",
        ]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 2

    def test_row_order_does_not_matter(self, tmp_path):
        shuffled = list(ROWS)
        random.Random(3).shuffle(shuffled)
        a = ingest_chemfluor(write_file(tmp_path, [HEADER] + ROWS, name="a.csv"))
        b = ingest_chemfluor(write_file(tmp_path, [HEADER] + shuffled, name="b.csv"))
        assert a.records == b.records

    def test_byte_order_mark_ignored(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join([HEADER] + ROWS).encode() + b"\n")
        marked = ingest_chemfluor(str(path))
        plain = ingest_chemfluor(write_file(tmp_path, [HEADER] + ROWS, name="plain.csv"))
        assert marked == plain
        assert len(marked.records) == 4

    def test_bad_smiles_rejected_and_reported(self, tmp_path):
        lines = [HEADER, "C((,0.6,0.7,0.8,0.9,0.4,,", "CCO,0.6,0.7,0.8,0.9,0.4,,"]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 1
        assert len(result.rejected) == 1
        assert "bad SMILES" in result.rejected[0]
        assert "line 2" in result.rejected[0]

    def test_rejected_rows_numbered_by_file_line(self, tmp_path):
        # csv skips the blank line 3; the bad row is still line 4
        lines = [HEADER, "CCO,0.6,0.7,0.8,0.9,0.4,,", "", "C((,0.6,0.7,0.8,0.9,0.4,,",
                 "CCN,0.6,0.7,0.8,0.9,1.4,,"]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 1
        assert [line.split(":")[0] for line in result.rejected] == ["line 4", "line 5"]

    def test_each_distinct_text_parsed_and_canonicalized_once(self, tmp_path, monkeypatch):
        from fluorgen import dataset

        calls = {"parse": [], "canonical": 0}

        def counting_parse(text):
            calls["parse"].append(text)
            return parse_smiles(text)

        def counting_canonical(graph):
            calls["canonical"] += 1
            return write_canonical_smiles(graph)

        monkeypatch.setattr(dataset, "parse_smiles", counting_parse)
        monkeypatch.setattr(dataset, "write_canonical_smiles", counting_canonical)
        lines = [
            HEADER,
            "CCO,0.6,0.7,0.8,0.9,0.4,,",
            "C((,0.6,0.7,0.8,0.9,0.4,,",
            " CCO ,0.1,0.7,0.8,0.9,0.5,,",
            "OCC,0.6,0.7,0.8,0.9,0.6,,",
            "C((,0.1,0.7,0.8,0.9,0.4,,",
            "CCO,0.2,0.7,0.8,0.9,,,",
            "C((,0.2,0.7,0.8,0.9,0.4,,",
            "c1ccccc1,0.6,0.7,0.8,0.9,0.4,,",
        ]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert sorted(calls["parse"]) == ["C((", "CCO", "OCC", "c1ccccc1"]
        assert calls["canonical"] == 3
        assert len(result.records) == 3  # OCC is CCO in line 2's solvent
        bad = [line for line in result.rejected if "bad SMILES" in line]
        assert [line.split(":")[0] for line in bad] == ["line 3", "line 6", "line 8"]
        assert len({line.split(":", 1)[1] for line in bad}) == 1
        assert len(result.rejected) == 4  # and CCO's row without a measurement

    def test_bad_rows_rejected(self, tmp_path):
        lines = [
            HEADER,
            "CCO,0.6,0.7,0.8,0.9,1.4,,",  # PLQY out of range
            "CCC,0.6,0.7,0.8,0.9,,-5,",  # negative wavelength
            "CCN,0.6,0.7,0.8,0.9,abc,,",  # not a number
            "CCS,0.6,0.7,0.8,0.9,,,",  # no measurement at all
            "CCCl,0.6,,0.8,0.9,0.4,,",  # partial solvent block
            "CCBr,0.6,0.7,0.8,0.9,0.4,,",
        ]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 1
        assert len(result.rejected) == 5

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1_0", "bad absorption value '1_0'"),
            ("\u0661.\u0665", "bad absorption value '\u0661.\u0665'"),  # Arabic-Indic 1.5
            ("\uff12\uff15\uff10", "bad absorption value '\uff12\uff15\uff10'"),  # fullwidth 250
            ("2.5e2_0", "bad absorption value '2.5e2_0'"),
            ("nan", "non-finite absorption value 'nan'"),
            ("-Infinity", "non-finite absorption value '-Infinity'"),
        ],
    )
    def test_number_outside_the_ascii_grammar_rejected(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(
            f"{HEADER}\nCCN,0.6,0.7,0.8,0.9,0.4,,\nCCO,0.6,0.7,0.8,0.9,,{text},\n",
            encoding="utf-8",
        )
        result = ingest_chemfluor(str(path))
        assert [record.smiles for record in result.records] == ["CCN"]
        assert result.rejected == (f"line 3: {message}",)

    @pytest.mark.parametrize("text", ["+250", "2.5E2", "250.", ".25e3"])
    def test_number_grammar_accepted(self, tmp_path, text):
        result = ingest_chemfluor(write_file(tmp_path, [HEADER, f"CCO,0.6,0.7,0.8,0.9,,{text},"]))
        assert result.records[0].absorption_nm == 250.0

    def test_missing_solvent_allowed_at_ingest(self, tmp_path):
        lines = [HEADER, "CCO,,,,,0.4,,"]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert result.records[0].solvent is None

    def test_missing_column_raises(self, tmp_path):
        lines = ["SMILES,SP,SdP,SA,SB,PLQY,Absorption", "CCO,0.6,0.7,0.8,0.9,0.4,250"]
        with pytest.raises(DatasetError, match="missing columns"):
            ingest_chemfluor(write_file(tmp_path, lines))

    def test_column_mapping_override(self, tmp_path):
        lines = [
            "structure,SP,SdP,SA,SB,qy,Absorption,Emission",
            "CCO,0.6,0.7,0.8,0.9,0.4,250,300",
        ]
        result = ingest_chemfluor(
            write_file(tmp_path, lines),
            column_map={"smiles": "structure", "plqy": "qy"},
        )
        assert result.records[0].plqy == 0.4

    def test_header_match_is_case_insensitive(self, tmp_path):
        lines = ["smiles,sp,sdp,sa,sb,plqy,absorption,emission", "CCO,0.6,0.7,0.8,0.9,0.4,,"]
        result = ingest_chemfluor(write_file(tmp_path, lines))
        assert len(result.records) == 1

    def test_unknown_mapping_key_raises(self, tmp_path):
        path = write_file(tmp_path, [HEADER] + ROWS)
        with pytest.raises(DatasetError, match="unknown column mapping"):
            ingest_chemfluor(path, column_map={"wavelength": "Absorption"})

    def test_zero_valid_rows_raises(self, tmp_path):
        lines = [HEADER, "C((,0.6,0.7,0.8,0.9,0.4,,"]
        with pytest.raises(DatasetError, match="zero valid rows"):
            ingest_chemfluor(write_file(tmp_path, lines))

    def test_record_invariants(self):
        with pytest.raises(DatasetError, match="no measurement"):
            ChemFluorRecord("CCO", None, None, None, None)
        with pytest.raises(DatasetError, match="outside"):
            ChemFluorRecord("CCO", None, 1.2, None, None)
        with pytest.raises(DatasetError, match="not positive"):
            ChemFluorRecord("CCO", None, None, -1.0, None)


class TestCuration:
    def ingested(self, tmp_path):
        return ingest_chemfluor(write_file(tmp_path, [HEADER] + ROWS))

    def test_plqy_classification_labels(self, tmp_path):
        dataset = curate_task(self.ingested(tmp_path), Task.PLQY_CLASS)
        assert len(dataset) == 3  # the solvent-less CCO row never had PLQY anyway
        by_smiles = dict(zip(dataset.smiles, dataset.labels))
        naphthalene = write_canonical_smiles(parse_smiles("c1ccc2ccccc2c1"))
        assert by_smiles[naphthalene] == 1.0

    def test_label_boundary_is_strict(self, tmp_path):
        lines = [HEADER, "CCO,0.6,0.7,0.8,0.9,0.5,,"]
        dataset = curate_task(ingest_chemfluor(write_file(tmp_path, lines)), Task.PLQY_CLASS)
        assert dataset.labels.tolist() == [0.0]

    def test_regression_tasks_filter_on_their_measurement(self, tmp_path):
        ingested = self.ingested(tmp_path)
        abs_ds = curate_task(ingested, Task.ABS_REG)
        em_ds = curate_task(ingested, Task.EM_REG)
        assert len(abs_ds) == 4
        assert len(em_ds) == 2
        assert set(em_ds.labels.tolist()) == {290.0, 330.0}

    def test_missing_solvent_dropped(self, tmp_path):
        lines = [HEADER, "CCO,,,,,0.4,,", "CCC,0.6,0.7,0.8,0.9,0.8,,"]
        dataset = curate_task(ingest_chemfluor(write_file(tmp_path, lines)), Task.PLQY_CLASS)
        assert len(dataset) == 1

    def test_feature_layout(self, tmp_path):
        dataset = curate_task(self.ingested(tmp_path), Task.ABS_REG)
        assert dataset.words.shape == (4, FP_WORDS)
        features = feature_rows(dataset.words, [s.as_tuple() for s in dataset.solvents])
        assert features.shape == (4, 2052)
        for i, smiles in enumerate(dataset.smiles):
            fp = morgan_fingerprint(parse_smiles(smiles))
            assert np.array_equal(features[i, :2048], bits_to_array_loop(fp.bits))
            assert features[i, 2048:].tolist() == list(dataset.solvents[i].as_tuple())

    def test_shared_fingerprints_give_the_same_arrays(self, tmp_path):
        """Ingest fingerprints each record SMILES once, from the first row's
        graph, and every task reads those rows: they equal the fingerprint
        of the canonical string's own parse."""
        ingested = self.ingested(tmp_path)
        assert set(ingested.fingerprints) == {r.smiles for r in ingested.records}
        for smiles, row in ingested.fingerprints.items():
            assert np.array_equal(row, pack([morgan_fingerprint(parse_smiles(smiles))])[0])
        for task in (Task.PLQY_CLASS, Task.ABS_REG, Task.EM_REG):
            dataset = curate_task(ingested, task)
            for smiles, row in zip(dataset.smiles, dataset.words):
                assert np.array_equal(row, ingested.fingerprints[smiles])

    def test_empty_curation_raises(self, tmp_path):
        lines = [HEADER, "CCO,0.6,0.7,0.8,0.9,,250,"]
        ingested = ingest_chemfluor(write_file(tmp_path, lines))
        with pytest.raises(DatasetError, match="no records usable"):
            curate_task(ingested, Task.EM_REG)


class TestSplits:
    def test_each_index_tested_exactly_once(self):
        splits = split_cv(37, folds=10, seed=5)
        tested = [i for s in splits for i in s.test]
        assert sorted(tested) == list(range(37))
        assert {len(s.test) for s in splits} == {3, 4}

    def test_partition_per_fold(self):
        for split in split_cv(53, folds=10, seed=1):
            combined = sorted(split.train + split.val + split.test)
            assert combined == list(range(53))
            assert not set(split.train) & set(split.val)
            assert not set(split.val) & set(split.test)
            assert not set(split.train) & set(split.test)

    def test_sizes_follow_eighty_ten_ten(self):
        splits = split_cv(100, folds=10, seed=0)
        for split in splits:
            assert len(split.test) == 10
            assert len(split.val) == 10
            assert len(split.train) == 80

    def test_deterministic_under_seed(self):
        assert split_cv(40, folds=10, seed=9) == split_cv(40, folds=10, seed=9)
        assert split_cv(40, folds=10, seed=9) != split_cv(40, folds=10, seed=10)

    def test_minimum_size(self):
        splits = split_cv(10, folds=10, seed=0)
        assert all(len(s.test) == 1 for s in splits)
        with pytest.raises(DatasetError, match="cannot fill"):
            split_cv(9, folds=10, seed=0)
        with pytest.raises(DatasetError, match="at least 3"):
            split_cv(10, folds=2, seed=0)


class TestRoundTrip:
    def test_rejection_report(self, tmp_path):
        report = tmp_path / "rejected.txt"
        write_rejection_report(("line 2: bad SMILES", "line 9: no measurement"), str(report))
        text = report.read_text()
        assert "line 2" in text
        assert "# 2 rows rejected" in text
