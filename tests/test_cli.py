"""Tests for the config loader and the four CLI subcommands."""

import os
import random
import re
import sys
import warnings
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from fluorgen import generator, reactions
from fluorgen.cli import main
from fluorgen.config import (
    LAYOUT,
    ConfigError,
    RunConfig,
    load_config,
    render_config,
)
from fluorgen.fingerprints import FEATURE_DIM
from fluorgen.scorers import Head, MlpModel, save_model

REPO_DATA = Path(__file__).resolve().parent.parent / "data"


def synthetic_csv(path: Path, seed=0):
    rng = random.Random(seed)
    molecules = [
        "c1ccccc1", "c1ccc2ccccc2c1", "CCO", "c1ccc(-c2ccccc2)cc1", "CC(=O)O",
        "c1ccc2[nH]ccc2c1", "Oc1ccccc1", "Nc1ccccc1", "CCCC", "c1ccsc1",
    ]
    solvents = [
        (0.681, 0.997, 1.062, 0.025),
        (0.687, 0.285, 0.0, 0.044),
        (0.633, 0.732, 0.229, 0.917),
    ]
    lines = ["SMILES,SP,SdP,SA,SB,PLQY,Absorption,Emission"]
    for molecule in molecules:
        for solvent in solvents:
            for _ in range(2):
                plqy = round(rng.random(), 3)
                absorption = round(250 + 300 * rng.random(), 1)
                emission = round(absorption + 30 + 60 * rng.random(), 1)
                lines.append(
                    f"{molecule},{solvent[0]},{solvent[1]},{solvent[2]},{solvent[3]},"
                    f"{plqy},{absorption},{emission}"
                )
    path.write_text("\n".join(lines) + "\n")


def write_config(directory: Path, **overrides) -> Path:
    values = {
        "dataset": directory / "chemfluor.csv",
        "blocks": REPO_DATA / "building_blocks.tsv",
        "reactions": REPO_DATA / "reactions.txt",
        "checkpoint_dir": directory / "ckpt",
        "output_dir": directory / "out",
        "n_rollouts": 25,
        "seed": 5,
        "baseline_samples": 20,
        "clusters": 4,
        "novelty_references": "",
        "folds": 3,
    }
    values.update(overrides)
    text = f"""[paths]
dataset = {values['dataset']}
blocks = {values['blocks']}
reactions = {values['reactions']}
checkpoint_dir = {values['checkpoint_dir']}
output_dir = {values['output_dir']}

[train]
folds = {values['folds']}
epochs = 3
hidden_dim = 8
batch_size = 16

[generate]
n_rollouts = {values['n_rollouts']}
window = 10
train_interval = 5
seed = {values['seed']}
baseline_samples = {values['baseline_samples']}

[filters]
clusters = {values['clusters']}
novelty_references = {values['novelty_references']}
"""
    config_path = directory / "config.ini"
    config_path.write_text(text)
    return config_path


def layout_keys():
    """(section, key, RunConfig field, dataclass field) for every config key."""
    return [
        (section, prefix + field.name, part, field.name)
        for section, parts in LAYOUT.items()
        for part, prefix in parts
        for field in fields(getattr(RunConfig(), part))
    ]


def flatten(config):
    return {
        (part.name, field.name): getattr(getattr(config, part.name), field.name)
        for part in fields(config)
        for field in fields(getattr(config, part.name))
    }


def other_value(default):
    """INI text for a valid value that differs from the default."""
    if isinstance(default, str):
        return f"other/{default}"
    if isinstance(default, int):
        return str(default + 1)
    # a tenth lower keeps every float valid, window_max_nm (750) above
    # window_min_nm (420) included
    return repr(default * 0.9)


# `fluorgen --print-config` without a config file, byte for byte
DEFAULT_RENDER = """[paths]
dataset = data/chemfluor.csv
blocks = data/building_blocks.tsv
reactions = data/reactions.txt
checkpoint_dir = out/checkpoints
output_dir = out

[train]
folds = 10
split_seed = 0
epochs = 60
learning_rate = 0.05
batch_size = 32
hidden_dim = 300
patience = 10
momentum = 0.9
weight_init_scale = 0.01
seed = 0

[generate]
n_rollouts = 10000
tau_init = 0.1
tau_min = 0.005
tau_max = 10.0
target_similarity = 0.6
eta = 0.01
window = 100
train_interval = 10
max_steps = 2
buffer_capacity = 2000
value_hidden = 32
value_epochs = 4
value_lr = 0.05
value_batch = 32
weight_floor = 0.05
seed = 0
baseline_samples = 0
baseline_seed = 1
solvent_sp = 0.681
solvent_sdp = 0.997
solvent_sa = 1.062
solvent_sb = 0.025

[filters]
sp2_min = 12
plqy_min = 0.5
window_min_nm = 420.0
window_max_nm = 750.0
clusters = 100
cluster_seed = 0
""" + "novelty_references = \n"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """train + generate once; downstream command tests reuse the artifacts."""
    directory = tmp_path_factory.mktemp("pipeline")
    synthetic_csv(directory / "chemfluor.csv")
    config_path = write_config(directory)
    assert main(["--config", str(config_path), "train"]) == 0
    assert main(["--config", str(config_path), "generate"]) == 0
    return directory, config_path


class TestConfigLoading:
    def test_defaults_load_without_file(self):
        config = load_config(None)
        assert config.generation.n_rollouts == 10_000
        assert config.thresholds.sp2_min == 12
        assert config.paths.output_dir == "out"
        assert config.solvent.sp == pytest.approx(0.681)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[generate]\nn_rolouts = 10\n")
        with pytest.raises(ConfigError, match=r"unknown config key generate.n_rolouts"):
            load_config(path)

    def test_bad_number_reported_with_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[generate]\nn_rollouts = many\n")
        with pytest.raises(ConfigError, match=r"generate.n_rollouts"):
            load_config(path)

    def test_semantic_validation_becomes_config_error(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[generate]\ntau_init = 0.001\n")  # below tau_min
        with pytest.raises(ConfigError, match=r"tau"):
            load_config(path)

    def test_default_render_is_pinned(self, monkeypatch):
        monkeypatch.delenv("FLUORGEN_OUTPUT_DIR", raising=False)
        assert render_config(load_config(None)) == DEFAULT_RENDER

    def test_render_round_trips(self, tmp_path):
        original = load_config(None)
        path = tmp_path / "c.ini"
        path.write_text(render_config(original))
        assert load_config(path) == original

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLUORGEN_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        config = load_config(None)
        assert config.paths.output_dir == str(tmp_path / "elsewhere")

    def test_layout_declares_every_field_once(self):
        keys = [(section, key) for section, key, _, _ in layout_keys()]
        assert len(set(keys)) == len(keys) == 44
        assert len(keys) == sum(
            len(fields(getattr(RunConfig(), part.name))) for part in fields(RunConfig)
        )

    def test_every_default_key_renders(self, tmp_path, monkeypatch):
        # each key, set away from its default, changes exactly its own field,
        # renders back in its own section and loads again unchanged
        monkeypatch.delenv("FLUORGEN_OUTPUT_DIR", raising=False)
        defaults = flatten(RunConfig())
        path = tmp_path / "c.ini"
        for section, key, part, name in layout_keys():
            text = other_value(defaults[(part, name)])
            path.write_text(f"[{section}]\n{key} = {text}\n")
            config = load_config(path)
            changed = flatten(config)
            assert {k for k in defaults if defaults[k] != changed[k]} == {(part, name)}, key
            rendered = render_config(config)
            block = rendered.split(f"[{section}]\n", 1)[1].split("\n\n", 1)[0]
            assert f"{key} = {text}" in block.splitlines(), key
            path.write_text(rendered)
            assert load_config(path) == config, key

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize(
        "section,key",
        [("train", "learning_rate"), ("generate", "eta"), ("generate", "weight_floor"),
         ("generate", "value_lr"), ("generate", "solvent_sp"), ("filters", "plqy_min")],
    )
    def test_non_finite_number_rejected(self, section, key, value, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected a finite number"):
            load_config(path)

    @pytest.mark.parametrize(
        "section,key,value,expected",
        [
            ("filters", "clusters", "\u0661\u0660", "an integer"),  # Arabic-Indic 10
            ("filters", "cluster_seed", "1_0", "an integer"),
            ("train", "epochs", "\uff13", "an integer"),  # fullwidth 3
            ("filters", "plqy_min", "\u0660.\u0665", "a number"),  # Arabic-Indic 0.5
            ("train", "learning_rate", "1_0e-3", "a number"),
            ("generate", "eta", "0.0\u0665", "a number"),  # 0.0 and Arabic-Indic 5
        ],
    )
    def test_number_outside_the_ascii_grammar_rejected(self, section, key, value, expected,
                                                       tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected {expected}, got"):
            load_config(path)

    @pytest.mark.parametrize(
        "section,key,value,field,read",
        [
            ("filters", "clusters", "+7", "clustering.clusters", 7),
            ("filters", "plqy_min", "+.5", "thresholds.plqy_min", 0.5),
            ("filters", "window_max_nm", "7.5E2", "thresholds.window_max_nm", 750.0),
            ("train", "learning_rate", "1e-3", "train.learning_rate", 0.001),
            ("generate", "solvent_sa", "-0.", "solvent.sa", 0.0),
        ],
    )
    def test_number_grammar_accepted(self, section, key, value, field, read, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert attrgetter(field)(load_config(path)) == read

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nn_rolouts = 3\n",
            "[DEFAULT]\nseed = 5\n\n[generate]\nn_rollouts = 3\n",
            "[generate]\nn_rollouts = 3\n\n[DEFAULT]\n",
        ],
    )
    def test_default_section_rejected(self, text, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            load_config(path)


class TestConfigValidation:
    """Filter and baseline settings that could never work exit 2 with the
    offending key named, --print-config included."""

    @pytest.mark.parametrize(
        "text,key",
        [
            ("[filters]\nsp2_min = -1\n", "filters.sp2_min"),
            ("[filters]\nplqy_min = 1.5\n", "filters.plqy_min"),
            ("[filters]\nwindow_min_nm = 800\nwindow_max_nm = 400\n", "filters.window_min_nm"),
            ("[generate]\nbaseline_samples = -5\n", "generate.baseline_samples"),
        ],
        ids=["sp2_min", "plqy_min", "window_order", "baseline_samples"],
    )
    def test_inconsistent_setting_exits_two_naming_the_key(self, text, key, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            load_config(path)
        assert main(["--config", str(path), "--print-config"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {key}" in captured.err

    def test_negative_weight_floor_exits_two_naming_the_key(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[generate]\nweight_floor = -0.5\n")
        assert main(["--config", str(path), "--print-config"]) == 2
        assert "error: weight_floor must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[filters]\nsp2_min = 0\n",
            "[filters]\nplqy_min = 0\n",
            "[filters]\nplqy_min = 1\n",
            "[filters]\nwindow_min_nm = 500\nwindow_max_nm = 500\n",
            "[generate]\nbaseline_samples = 0\n",
        ],
    )
    def test_boundary_values_accepted(self, text, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(text)
        load_config(path)


class TestTopLevel:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert "[paths]" in out and "[filters]" in out

    def test_no_command_is_an_input_error(self, capsys):
        assert main([]) == 2
        assert "command is required" in capsys.readouterr().err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_worker_count(self):
        # --workers is not an option, so argparse rejects it
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", "0", "stats"])
        assert excinfo.value.code == 2

    def test_bad_config_path(self, capsys):
        assert main(["--config", "/no/such/file.ini", "train"]) == 2
        assert "cannot read config" in capsys.readouterr().err


class TestTrain:
    def test_missing_dataset_is_code_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path)  # no csv written
        assert main(["--config", str(config_path), "train"]) == 2
        assert "missing dataset file" in capsys.readouterr().err

    def test_checkpoints_and_reports_written(self, pipeline):
        directory, _ = pipeline
        for task in ("plqy_class", "abs_reg", "em_reg"):
            assert (directory / "ckpt" / f"{task}.npz").exists()
            report = (directory / "out" / f"cv_{task}.txt").read_text()
            assert report.startswith(f"task\t{task}")

    def test_column_mapping_flag(self, tmp_path):
        synthetic_csv(tmp_path / "chemfluor.csv")
        renamed = (tmp_path / "chemfluor.csv").read_text().replace("SMILES,", "Structure,", 1)
        (tmp_path / "chemfluor.csv").write_text(renamed)
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "train"]) == 2  # header missing
        assert (
            main(["--config", str(config_path), "train", "--column", "smiles=Structure"])
            == 0
        )

    def test_diverging_learning_rate_exits_two_naming_the_job(self, tmp_path, capsys):
        synthetic_csv(tmp_path / "chemfluor.csv")
        config_path = write_config(tmp_path)
        text = config_path.read_text().replace("[train]\n", "[train]\nlearning_rate = 1e9\n")
        config_path.write_text(text)
        # the divergence check reports the overflow; numpy does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(config_path), "train"]) == 2
        # the task, then the fold that diverged and its epoch
        assert re.search(
            r"^error: (plqy_class|abs_reg|em_reg): job [0-2]: loss diverged at epoch [0-2]; "
            r"lower the learning rate$",
            capsys.readouterr().err,
            re.MULTILINE,
        )

    def test_large_learning_rate_warns_nothing(self, tmp_path):
        """A fit that overflows on the way but ends finite exits 0, and
        numpy warns of none of it."""
        synthetic_csv(tmp_path / "chemfluor.csv")
        config_path = write_config(tmp_path)
        text = config_path.read_text().replace("[train]\n", "[train]\nlearning_rate = 1e3\n")
        config_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(config_path), "train"]) == 0

    def test_each_molecule_parsed_once(self, tmp_path, monkeypatch):
        """train parses each distinct SMILES text once, at ingest, and
        fingerprints those graphs: no later step parses again."""
        from fluorgen.smiles import parse_smiles

        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_smiles(text)

        for module in [m for name, m in sys.modules.items() if name.startswith("fluorgen.")]:
            if getattr(module, "parse_smiles", None) is parse_smiles:
                monkeypatch.setattr(module, "parse_smiles", counting)
        synthetic_csv(tmp_path / "chemfluor.csv")
        assert main(["--config", str(write_config(tmp_path)), "train"]) == 0
        assert len(parsed) == len(set(parsed)) == 10

    def test_bad_column_flag(self, tmp_path, capsys):
        synthetic_csv(tmp_path / "chemfluor.csv")
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "train", "--column", "nonsense"]) == 2
        assert "LOGICAL=HEADER" in capsys.readouterr().err


class TestGenerate:
    def test_missing_checkpoints_give_hint(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "generate"]) == 2
        assert "run 'fluorgen train' first" in capsys.readouterr().err

    def test_outputs_written(self, pipeline):
        directory, _ = pipeline
        molecules = (directory / "out" / "molecules.tsv").read_text().splitlines()
        assert molecules[0].startswith("smiles\troute\t")
        assert 0 < len(molecules) - 1 <= 25
        log = (directory / "out" / "run_log.tsv").read_text().splitlines()
        assert log[0] == (
            "rollout\ttau\tw_plqy\tw_abs\tw_em\tw_sp2\t"
            "r_plqy\tr_abs\tr_em\tr_sp2\tsimilarity\tstatus"
        )
        assert len(log) - 1 == 25
        assert (directory / "out" / "baseline.tsv").exists()
        assert (directory / "out" / "reaction_usage.tsv").exists()

    def test_rerun_is_byte_identical(self, pipeline, tmp_path, monkeypatch, capsys):
        directory, config_path = pipeline
        monkeypatch.setenv("FLUORGEN_OUTPUT_DIR", str(tmp_path / "second"))
        assert main(["--config", str(config_path), "generate"]) == 0
        err = capsys.readouterr().err
        assert "rollout" in err  # progress counter on stderr
        for name in ("molecules.tsv", "run_log.tsv", "reaction_usage.tsv", "baseline.tsv"):
            first = (directory / "out" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second

    def test_workers_do_not_change_output(self, pipeline, tmp_path, monkeypatch):
        # generate is serial: two runs write the same bytes
        _, config_path = pipeline
        written = {}
        for run in ("1", "2"):
            monkeypatch.setenv("FLUORGEN_OUTPUT_DIR", str(tmp_path / run))
            assert main(["--config", str(config_path), "generate"]) == 0
            written[run] = {
                name: (tmp_path / run / name).read_bytes()
                for name in ("molecules.tsv", "run_log.tsv", "reaction_usage.tsv", "baseline.tsv")
            }
        assert written["1"] == written["2"]

    def test_baseline_shares_the_compatibility_table(self, tmp_path, monkeypatch):
        """The run and its baseline read one table: every has_match call
        made through fluorgen.reactions is the one table build."""
        constant_checkpoints(tmp_path / "ckpt")
        calls = {"reactions": 0, "generator": 0}

        def counting(module):
            original = getattr(module, "has_match")

            def has_match(query, graph):
                calls[module.__name__.split(".")[-1]] += 1
                return original(query, graph)

            monkeypatch.setattr(module, "has_match", has_match)

        counting(reactions)
        counting(generator)
        library = reactions.ingest_building_blocks(REPO_DATA / "building_blocks.tsv")
        templates = reactions.ingest_reaction_templates(REPO_DATA / "reactions.txt")
        reactions.CompatibilityIndex(library, tuple(templates))
        one_table = calls["reactions"]
        assert one_table > 0
        calls.update(reactions=0, generator=0)
        config_path = write_config(tmp_path, n_rollouts=1, baseline_samples=1)
        assert main(["--config", str(config_path), "generate"]) == 0
        assert (tmp_path / "out" / "baseline.tsv").exists()
        assert calls["reactions"] == one_table
        assert calls["generator"] < one_table

    @pytest.mark.parametrize("block_id", ["a,b", reactions.PREV_MARKER])
    def test_block_id_a_route_cannot_hold_is_code_two(self, block_id, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        blocks = tmp_path / "blocks.tsv"
        blocks.write_text(
            (REPO_DATA / "building_blocks.tsv").read_text() + f"{block_id}\tc1ccccc1N\n"
        )
        line = len(blocks.read_text().splitlines())
        config_path = write_config(tmp_path, blocks=blocks)
        assert main(["--config", str(config_path), "generate"]) == 2
        err = capsys.readouterr().err
        assert f"{blocks}:{line}: block id {block_id!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "molecules.tsv").exists()

    def test_rejected_block_lines_are_warned_about(self, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        shipped = (REPO_DATA / "building_blocks.tsv").read_text()
        blocks = tmp_path / "blocks.tsv"
        blocks.write_text(shipped + "b\tC1CC\nc\n")
        first_bad = len(shipped.splitlines()) + 1
        outputs = {}
        for name, path in (("clean", REPO_DATA / "building_blocks.tsv"), ("bad", blocks)):
            config_path = write_config(
                tmp_path, blocks=path, output_dir=tmp_path / name, n_rollouts=5,
                baseline_samples=5,
            )
            assert main(["--config", str(config_path), "generate"]) == 0
            outputs[name] = [
                (tmp_path / name / file).read_bytes()
                for file in ("molecules.tsv", "run_log.tsv", "reaction_usage.tsv", "baseline.tsv")
            ]
            err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            f"warning: {blocks}: line {first_bad}: b: unmatched ring closure 1 (offset 1)",
            f"warning: {blocks}: line {first_bad + 1}: expected 'id<TAB>smiles'",
        ]
        # the rejected lines are dropped, and nothing else changes
        assert outputs["bad"] == outputs["clean"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda arrays: arrays.update(head=np.str_("foo")), "unknown head 'foo'"),
            (lambda arrays: arrays.pop("w1"), "lacks w1"),
            (lambda arrays: arrays.update(w1=arrays["w1"][:, 0]), "w1, b1, w2 shapes"),
            (lambda arrays: arrays.update(w1=arrays["w1"][..., None]), "w1, b1, w2 shapes"),
            (lambda arrays: arrays.update(b1=arrays["b1"][:, None]), "w1, b1, w2 shapes"),
            (lambda arrays: arrays.update(w2=arrays["w2"][:, None]), "w1, b1, w2 shapes"),
            (lambda arrays: arrays.update(norm_std=np.array(["a", "b", "c", "d"])), "non-numeric"),
            (lambda arrays: arrays.update(b2=np.array([1.0, 2.0])), "must be scalars"),
            (lambda arrays: arrays.update(seed=np.str_("x")), "non-numeric"),
            (lambda arrays: arrays.update(seed=np.array([1, 2])), "must be scalars"),
            (lambda arrays: arrays.update(version=np.array([1, 1])), "unsupported checkpoint"),
            (lambda arrays: arrays.update(version=np.str_("x")), "unsupported checkpoint"),
            (lambda arrays: arrays.update(w1=arrays["w1"].astype(object)), "cannot read"),
            (lambda arrays: arrays.update(head=np.str_("sigmoid")),
             "abs_reg needs a linear head, got sigmoid"),
            (lambda arrays: arrays.update(w1=np.zeros((4, 100))), "2052-wide w1, got 100"),
            (lambda arrays: arrays.update(norm_std=np.array([0.0, 1.0, 1.0, 1.0])),
             "norm_std must be positive"),
        ],
    )
    def test_malformed_checkpoint_is_code_two(self, edit, message, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "abs_reg.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        edit(arrays)
        np.savez(path, **arrays)
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "generate"]) == 2
        err = capsys.readouterr().err
        assert message in err and "abs_reg.npz" in err
        assert "Traceback" not in err


def constant_checkpoints(directory: Path, plqy_logit=0.0, absorption=500.0, emission=520.0):
    directory.mkdir(parents=True, exist_ok=True)

    def model(value, head):
        return MlpModel(
            w1=np.zeros((4, FEATURE_DIM)),
            b1=np.zeros(4),
            w2=np.zeros(4),
            b2=float(value),
            head=head,
            norm_mean=np.zeros(4),
            norm_std=np.ones(4),
        )

    save_model(model(plqy_logit, Head.SIGMOID), directory / "plqy_class.npz")
    save_model(model(absorption, Head.LINEAR), directory / "abs_reg.npz")
    save_model(model(emission, Head.LINEAR), directory / "em_reg.npz")


MOLECULES_HEADER = "smiles\troute\tm_plqy\tm_abs\tm_em\tm_sp2\tp\trollout\n"


def molecules_file(path: Path, smiles_list):
    rows = [
        f"{smiles}\tamide(a,b)->0\t0.5\t1\t1\t1\t0.875\t{i}\n"
        for i, smiles in enumerate(smiles_list)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(MOLECULES_HEADER + "".join(rows))


class TestFilter:
    @pytest.fixture()
    def filter_setup(self, tmp_path):
        constant_checkpoints(tmp_path / "ckpt")
        molecules_file(
            tmp_path / "out" / "molecules.tsv",
            [
                "c1ccc(-c2ccccc2)cc1",      # sp2 12, survives
                "c1ccc2cc3ccccc3cc2c1",     # sp2 14, survives
                "O=Cc1cc2ccccc2[nH]1",      # sp2 11, rejected
                "c1ccc(-c2ccc(-c3ccccc3)cc2)cc1",  # sp2 18, survives
            ],
        )
        (tmp_path / "refs.txt").write_text("c1ccc(-c2ccccc2)cc1\n# comment\n")
        config_path = write_config(
            tmp_path, clusters=2, novelty_references=tmp_path / "refs.txt"
        )
        return tmp_path, config_path

    def test_full_filter_outputs(self, filter_setup, capsys):
        directory, config_path = filter_setup
        assert main(["--config", str(config_path), "filter"]) == 0
        err = capsys.readouterr().err
        assert "3 of 4 molecules survive" in err
        report = (directory / "out" / "filter_report.tsv").read_text().splitlines()
        assert report[0] == "stage\tremaining\trejected"
        assert report[1] == "input\t4\t0"
        assert report[2] == "sp2_network\t3\t1"
        survivors = (directory / "out" / "survivors.tsv").read_text().splitlines()
        assert len(survivors) == 4  # header + 3
        clusters = (directory / "out" / "clusters.tsv").read_text().splitlines()
        assert len(clusters) == 4
        assert (directory / "out" / "similarity_histogram.tsv").exists()
        binned = (directory / "out" / "similarity_histogram_binned.tsv").read_text().splitlines()
        assert binned[0] == "kind\tbin_low\tbin_high\tcount"
        counts = {"intra": 0, "inter": 0}
        for line in binned[1:]:
            kind, _, _, count = line.split("\t")
            counts[kind] += int(count)
        assert counts["intra"] + counts["inter"] == 3  # every pair of 3 survivors
        assert (directory / "out" / "representatives.tsv").exists()
        novelty_lines = (directory / "out" / "novelty.tsv").read_text().splitlines()
        assert novelty_lines[0] == "smiles\tmax_similarity\tnovel"
        # biphenyl is identical to the reference: similarity 1, not novel
        assert novelty_lines[1].endswith("\t1\t0")

    def test_linear_plqy_checkpoint_is_code_two(self, filter_setup, capsys):
        """A linear PLQY "probability" of 500 would pass plqy_min."""
        directory, config_path = filter_setup
        path = directory / "ckpt" / "plqy_class.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(path, **{**arrays, "head": np.str_("linear"), "b2": np.float64(500.0)})
        assert main(["--config", str(config_path), "filter"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: plqy_class needs a sigmoid head, got linear" in err

    def test_cluster_count_clamped_with_warning(self, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        molecules_file(tmp_path / "out" / "molecules.tsv", ["c1ccc(-c2ccccc2)cc1"])
        config_path = write_config(tmp_path, clusters=100)
        assert main(["--config", str(config_path), "filter"]) == 0
        assert "clamping cluster count" in capsys.readouterr().err

    def test_empty_molecules_file_warns_and_succeeds(self, tmp_path, capsys):
        molecules_file(tmp_path / "out" / "molecules.tsv", [])
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "filter"]) == 0
        assert "no molecules to filter" in capsys.readouterr().err
        report = (tmp_path / "out" / "filter_report.tsv").read_text().splitlines()
        assert report[1] == "input\t0\t0"

    @pytest.mark.parametrize(
        "key,value", [("clusters", 0), ("clusters", -1), ("folds", 1), ("folds", 2)]
    )
    def test_bad_section_only_key_exits_before_writing(self, key, value, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        molecules_file(tmp_path / "out" / "molecules.tsv", ["c1ccc(-c2ccccc2)cc1"])
        config_path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(config_path)
        assert main(["--config", str(config_path), "filter"]) == 2
        assert f"{key} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out" / "filter_report.tsv").exists()

    def test_missing_molecules_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "filter"]) == 2
        assert "generated-molecules file" in capsys.readouterr().err

    def test_malformed_molecule_names_its_line(self, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        path = tmp_path / "out" / "molecules.tsv"
        # the bad SMILES first appears on line 3 (line 1 is the header)
        molecules_file(path, ["c1ccc(-c2ccccc2)cc1", "C1CC", "c1ccccc1", "C1CC"])
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "filter"]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 3: 'C1CC': unmatched ring closure 1 (offset 1)" in err
        assert not (tmp_path / "out" / "survivors.tsv").exists()

    def test_non_ascii_digit_names_its_line(self, tmp_path, capsys):
        """A superscript two is no ring-closure digit: the row is named and
        the command exits 2, with no traceback."""
        constant_checkpoints(tmp_path / "ckpt")
        path = tmp_path / "out" / "molecules.tsv"
        molecules_file(path, ["c1ccccc1", "C²"])
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "filter"]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 3: 'C²': unexpected character '²' (offset 1)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("molecules", [["CCCC"], []], ids=["no-survivor", "no-molecule"])
    def test_missing_references_fail_before_the_stages(self, molecules, tmp_path, capsys):
        """A missing references file exits 2 and is named also when no
        molecule reaches clustering."""
        constant_checkpoints(tmp_path / "ckpt")
        molecules_file(tmp_path / "out" / "molecules.tsv", molecules)
        missing = tmp_path / "missing.smi"
        config_path = write_config(tmp_path, novelty_references=missing)
        assert main(["--config", str(config_path), "filter"]) == 2
        assert f"novelty reference file: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "filter_report.tsv").exists()

    def test_malformed_reference_names_its_line(self, filter_setup, capsys):
        directory, config_path = filter_setup
        references = directory / "refs.txt"
        references.write_text("# references\n\nc1ccccc1\nc1ccc(\n")
        assert main(["--config", str(config_path), "filter"]) == 2
        err = capsys.readouterr().err
        assert f"{references}, line 4: 'c1ccc(': unbalanced parenthesis" in err


class TestStats:
    def test_identical_sets_have_zero_shift(self, tmp_path):
        constant_checkpoints(tmp_path / "ckpt")
        smiles = ["c1ccc(-c2ccccc2)cc1", "c1ccccc1", "CCO"]
        molecules_file(tmp_path / "out" / "molecules.tsv", smiles)
        molecules_file(tmp_path / "out" / "baseline.tsv", smiles)
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "stats"]) == 0
        summary = (tmp_path / "out" / "stats_summary.tsv").read_text().splitlines()
        assert summary[0] == "metric\tmean_generated\tmean_baseline\tshift\tp_value"
        assert len(summary) == 5
        for line in summary[1:]:
            assert line.split("\t")[3] == "0"
        histogram = (tmp_path / "out" / "stats_histogram.tsv").read_text().splitlines()
        assert len(histogram) == 1 + 2 * 4 * len(smiles)

    def test_workers_do_not_change_results(self, tmp_path):
        constant_checkpoints(tmp_path / "ckpt")
        smiles = ["c1ccc(-c2ccccc2)cc1", "c1ccccc1", "CCO", "c1ccsc1", "CC(=O)O",
                  "Nc1ccccc1", "Oc1ccccc1", "CCCC"]
        molecules_file(tmp_path / "out" / "molecules.tsv", smiles)
        molecules_file(tmp_path / "out" / "baseline.tsv", list(reversed(smiles)))
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "stats"]) == 0
        first = (tmp_path / "out" / "stats_histogram.tsv").read_bytes()
        assert main(["--config", str(config_path), "stats"]) == 0
        second = (tmp_path / "out" / "stats_histogram.tsv").read_bytes()
        assert first == second

    def test_missing_baseline_is_code_two(self, tmp_path, capsys):
        constant_checkpoints(tmp_path / "ckpt")
        molecules_file(tmp_path / "out" / "molecules.tsv", ["CCO"])
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "stats"]) == 2
        baseline = tmp_path / "out" / "baseline.tsv"
        assert f"error: missing baseline file: {baseline}" in capsys.readouterr().err
