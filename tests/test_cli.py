import csv
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aetlab import matio
from aetlab.cli import (
    _CONFIG_PARSERS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_attack_config,
    build_parser,
    main,
)
from aetlab.core import REGION_ASSIGNMENTS, AttackConfig
from aetlab.harness import (
    DatasetDims,
    GeneratorParams,
    craft_adversarial_pairs,
    default_model_pool,
    load_dataset_descriptor,
    run_transfer_experiment,
    surrogate_projector,
    write_report,
)
from aetlab.theory import random_quadratic, verify_theorem

SMALL_SYNTH = [
    "--pairs", "6", "--height", "8", "--width", "8", "--embed-dim", "16",
    "--vocab-size", "128", "--caption-len", "4", "--held-out", "10",
    "--held-out-len", "12",
]


def exit_code(argv) -> int:
    """main's exit code, also when argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "ds.txt"
    rc = main(["synth", "--seed", "5", *SMALL_SYNTH, "--out", str(path)])
    assert rc == EXIT_OK
    return path


class TestSeedHandling:
    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", *SMALL_SYNTH, "--out", str(tmp_path / "d.txt")])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["synth", *SMALL_SYNTH],
        ["attack", "--dataset", "ds.txt"],
        ["transfer", "--dataset", "ds.txt"],
        ["theory"],
        ["subspace", "--dataset", "ds.txt"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed_args", [[], ["--entropy"], ["--seed", "1", "--entropy"]],
                             ids=["no-seed", "entropy", "seed-and-entropy"])
    def test_seed_required_and_no_random_seed_flag(
        self, dataset_file, tmp_path, monkeypatch, argv, seed_args
    ):
        # a run must name its seed: without --seed, or with --entropy (no
        # such flag), every subcommand is a usage error that writes nothing
        monkeypatch.chdir(tmp_path)
        assert exit_code([*argv, *seed_args]) == EXIT_USAGE
        assert os.listdir(tmp_path) == ["ds.txt"]

    @pytest.mark.parametrize("argv", [
        ["synth", *SMALL_SYNTH],
        ["attack", "--dataset", "ds.txt"],
        ["transfer", "--dataset", "ds.txt"],
        ["theory"],
        ["subspace", "--dataset", "ds.txt"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_rejected_before_any_output(
        self, dataset_file, tmp_path, monkeypatch, capsys, argv
    ):
        # every output goes to its default path in the working directory
        monkeypatch.chdir(tmp_path)
        assert exit_code([*argv, "--seed", "-1"]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ds.txt"]

    @pytest.mark.parametrize("cmd", ["attack", "transfer", "subspace"])
    def test_negative_descriptor_seed_names_key_and_file(
        self, dataset_file, tmp_path, monkeypatch, capsys, cmd
    ):
        # a descriptor's seed is checked as --seed is, before any output
        lines = [ln for ln in dataset_file.read_text().splitlines() if not ln.startswith("seed=")]
        dataset_file.write_text("\n".join(["seed=-1", *lines]) + "\n")
        monkeypatch.chdir(tmp_path)
        assert exit_code([cmd, "--seed", "5", "--dataset", "ds.txt"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'seed'" in err and "ds.txt" in err and "non-negative" in err
        assert os.listdir(tmp_path) == ["ds.txt"]

    @pytest.mark.parametrize("cmd", ["attack", "transfer", "subspace"])
    @pytest.mark.parametrize(
        "key, bad",
        [("n_pairs", "1"), ("height", "0"), ("embed_dim", "64"), ("semantic_rank", "999"),
         ("table_jitter", "nan")],
    )
    def test_descriptor_value_out_of_range_names_the_file(
        self, dataset_file, tmp_path, monkeypatch, capsys, cmd, key, bad
    ):
        # a value that parses but fails a range check is a usage error that
        # names the file, before any output
        lines = [ln for ln in dataset_file.read_text().splitlines() if not ln.startswith(key + "=")]
        dataset_file.write_text("\n".join([*lines, f"{key}={bad}"]) + "\n")
        monkeypatch.chdir(tmp_path)
        assert exit_code([cmd, "--seed", "5", "--dataset", "ds.txt"]) == EXIT_USAGE
        assert f"ds.txt: {key} must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ds.txt"]


class TestSynth:
    def test_writes_descriptor(self, dataset_file, capsys):
        kv = matio.load_keyvalues(dataset_file)
        assert kv["seed"] == "5"
        assert kv["n_pairs"] == "6"

    def test_reports_clean_recall(self, tmp_path, capsys):
        main(["synth", "--seed", "5", *SMALL_SYNTH, "--out", str(tmp_path / "d.txt")])
        out = capsys.readouterr().out
        assert "clean R@1 TR=100.0% IR=100.0%" in out


    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--semantic-rank", "17"], "semantic_rank"),  # above embed_dim 16
            (["--semantic-rank", "40"], "semantic_rank"),
            (["--semantic-rank", "0"], "semantic_rank"),
            (["--semantic-rank", "-1"], "semantic_rank"),
            (["--vocab-size", "12", "--held-out-len", "4", "--semantic-rank", "13"], "semantic_rank"),
            (["--table-jitter", "-1"], "table_jitter"),
            (["--table-jitter", "nan"], "table_jitter"),
            (["--table-jitter", "inf"], "table_jitter"),
            (["--embed-dim", "64"], "embed_dim"),  # not below the 8x8 pixel count
        ],
    )
    def test_invalid_generator_parameter_is_usage_error(self, tmp_path, capsys, flags, field):
        out = tmp_path / "ds.txt"
        rc = main(["synth", "--seed", "0", *SMALL_SYNTH, *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, field",
        [("semantic_rank=40", "semantic_rank"), ("semantic_rank=0", "semantic_rank"),
         ("table_jitter=-1.0", "table_jitter")],
    )
    def test_invalid_descriptor_parameter_is_usage_error(
        self, dataset_file, tmp_path, capsys, line, field
    ):
        key = line.split("=")[0]
        lines = [ln for ln in dataset_file.read_text().splitlines() if not ln.startswith(key + "=")]
        dataset_file.write_text("\n".join([*lines, line]) + "\n")
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--limit", "1", "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert f"{field} must be" in capsys.readouterr().err
        assert not out_dir.exists()


    def test_unparsable_descriptor_value_names_key_and_file(
        self, dataset_file, tmp_path, capsys
    ):
        lines = [ln for ln in dataset_file.read_text().splitlines()
                 if not ln.startswith("semantic_rank=")]
        dataset_file.write_text("\n".join([*lines, "semantic_rank=8.0"]) + "\n")
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--limit", "1", "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'semantic_rank'" in err and str(dataset_file) in err and "'8.0'" in err
        assert not out_dir.exists()


class TestAttack:
    def test_outputs_per_pair(self, dataset_file, tmp_path):
        out_dir = tmp_path / "adv"
        rc = main([
            "attack", "--seed", "5", "--dataset", str(dataset_file),
            "--variant", "saaet", "--limit", "2", "--steps", "3",
            "--samples", "2", "--scales", "1.0", "--out-dir", str(out_dir),
        ])
        assert rc == EXIT_OK
        for p in range(2):
            adv = matio.load_matrix(out_dir / f"adv_{p}.txt")
            assert adv.shape == (8, 8)
            trace = (out_dir / f"trace_{p}.csv").read_text().splitlines()
            assert trace[0] == "step,loss,lambda,beta,gamma,chosen_index"
            assert len(trace) == 1 + 3  # header + one record per step
            caption = (out_dir / f"adv_caption_{p}.txt").read_text().split()
            assert len(caption) == 4

    def test_budget_respected(self, dataset_file, tmp_path):
        out_dir = tmp_path / "adv"
        main([
            "attack", "--seed", "5", "--dataset", str(dataset_file),
            "--limit", "1", "--steps", "3", "--samples", "2",
            "--scales", "1.0", "--out-dir", str(out_dir),
        ])
        ds = load_dataset_descriptor(dataset_file)
        adv = matio.load_matrix(out_dir / "adv_0.txt")
        assert np.max(np.abs(adv - ds.images[0])) <= 8.0 / 255.0 + 1e-12

    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    def test_files_equal_library_pairs(self, dataset_file, tmp_path, variant):
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--variant", variant, "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        ds = load_dataset_descriptor(dataset_file)
        crafted = craft_adversarial_pairs(ds, ds.base, AttackConfig(master_seed=5), variant)
        assert len(crafted) == 6
        for p, (img, cap) in enumerate(crafted):
            assert np.array_equal(matio.load_matrix(out_dir / f"adv_{p}.txt"), img)
            written = (out_dir / f"adv_caption_{p}.txt").read_text().split()
            assert tuple(int(t) for t in written) == cap

    def test_limit_is_a_prefix_of_full_run(self, dataset_file, tmp_path):
        for name, extra in (("full", []), ("head", ["--limit", "2"])):
            assert main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                         *extra, "--out-dir", str(tmp_path / name)]) == EXIT_OK
        assert len(list((tmp_path / "head").iterdir())) == 3 * 2
        for p in range(2):
            for f in (f"adv_{p}.txt", f"adv_caption_{p}.txt", f"trace_{p}.csv"):
                assert (tmp_path / "head" / f).read_text() == (tmp_path / "full" / f).read_text()

    def test_negative_limit_is_usage_error(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--limit", "-1", "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert "--limit" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--region", "AB"], "region"),
            (["--region", "ABCDEF"], "region"),
            (["--variant", "sga", "--region", "AB"], "region"),
            (["--text-budget", "2"], "text_budget"),
            (["--text-budget", "0"], "text_budget"),
            (["--kappa", "nan"], "kappa"),
            (["--eps-image", "nan"], "eps_image"),
            (["--word-list-size", "-1"], "word_list_size"),
            (["--scales", "inf"], "scales"),
            (["--scales", "0.5,inf"], "scales"),
            (["--eps-image", "inf"], "eps_image"),
            (["--step-size", "inf"], "step_size"),
            (["--kappa", "-0.5", "--mu", "1.0", "--nu", "0.5"], "kappa"),
            (["--kappa", "0.7", "--mu", "-0.2", "--nu", "0.5"], "mu"),
            (["--kappa", "0.6", "--mu", "0.6", "--nu", "-0.2"], "nu"),
        ],
    )
    def test_impossible_config_is_usage_error(self, dataset_file, tmp_path, capsys, flags, field):
        # --text-budget is no option at all: argparse names the flag
        out_dir = tmp_path / "adv"
        rc = exit_code(["attack", "--seed", "5", "--dataset", str(dataset_file),
                        *flags, "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert field in capsys.readouterr().err.replace("-", "_")
        assert not out_dir.exists()

    def test_collapsing_scale_creates_no_out_dir(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "0", "--dataset", str(dataset_file),
                   "--scales", "0.01", "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert "scale 0.01 collapses axis of length 8" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_descriptor_key_is_usage_error(self, dataset_file, tmp_path, capsys):
        dataset_file.write_text(dataset_file.read_text() + "latent_scal=0.9\n")
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert "latent_scal" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["dataset", "config"])
    def test_repeated_key_is_usage_error(self, dataset_file, tmp_path, capsys, source):
        # a repeated key is not resolved by keeping its last value
        argv = ["attack", "--seed", "5", "--dataset", str(dataset_file), "--limit", "1"]
        if source == "dataset":
            dataset_file.write_text(dataset_file.read_text() + "seed=6\n")
            key = "seed"
        else:
            cfg_file = tmp_path / "cfg.txt"
            cfg_file.write_text("steps=3\nsamples=2\n steps = 2\n")
            argv += ["--config", str(cfg_file)]
            key = "steps"
        out_dir = tmp_path / "adv"
        rc = main([*argv, "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "repeated key" in err and repr(key) in err
        assert not out_dir.exists()

    def test_missing_dataset_is_io_error(self, tmp_path):
        rc = main([
            "attack", "--seed", "5", "--dataset", str(tmp_path / "nope.txt"),
        ])
        assert rc == EXIT_IO

    def test_unknown_variant_is_usage_error(self, dataset_file):
        rc = main([
            "attack", "--seed", "5", "--dataset", str(dataset_file),
            "--variant", "fgsm",
        ])
        assert rc == EXIT_USAGE


class TestTransfer:
    def test_writes_report_csv(self, dataset_file, tmp_path):
        out = tmp_path / "report.csv"
        rc = main([
            "transfer", "--seed", "5", "--dataset", str(dataset_file),
            "--models", "2", "--steps", "3", "--samples", "2",
            "--scales", "1.0", "--out", str(out),
        ])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["surrogate", "target", "tr_asr", "ir_asr", "alpha_mean", "seed"]
        assert len(rows) == 1 + 4  # 2x2 cells

    def test_report_is_the_library_report(self, dataset_file, tmp_path):
        out, expect = tmp_path / "report.csv", tmp_path / "expect.csv"
        rc = main([
            "transfer", "--seed", "5", "--dataset", str(dataset_file), "--models", "2",
            "--steps", "3", "--samples", "2", "--scales", "1.0", "--out", str(out),
        ])
        assert rc == EXIT_OK
        ds = load_dataset_descriptor(dataset_file)
        cfg = AttackConfig(master_seed=5, steps=3, samples=2, scales=(1.0,))
        pool = default_model_pool(ds, n_models=2)
        write_report(run_transfer_experiment(ds, pool, cfg, "saaet"), expect)
        assert out.read_bytes() == expect.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--noise", "-1", "rel_noise"), ("--noise", "nan", "rel_noise"),
         ("--text-noise", "-0.5", "text_noise"), ("--text-noise", "inf", "text_noise")],
    )
    def test_invalid_pool_noise_is_usage_error(self, dataset_file, tmp_path, capsys, flag, value, field):
        out = tmp_path / "report.csv"
        rc = main([
            "transfer", "--seed", "5", "--dataset", str(dataset_file),
            "--models", "2", flag, value, "--out", str(out),
        ])
        assert rc == EXIT_USAGE
        # the flag is named, not the pool's internal field
        err = capsys.readouterr().err
        assert flag in err and field not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--models", "1"), ("--models", "0"), ("--models", "-2"),
        ("--noise", "nan"), ("--noise", "-1"), ("--text-noise", "inf"), ("--text-noise", "nan"),
    ])
    def test_pool_flags_checked_before_the_dataset_loads(self, tmp_path, capsys, flag, value):
        # the dataset path does not exist: a bad pool flag is named before
        # the dataset is read and the pool is built
        out = tmp_path / "report.csv"
        rc = main([
            "transfer", "--seed", "5", "--dataset", str(tmp_path / "missing.txt"),
            flag, value, "--out", str(out),
        ])
        assert rc == EXIT_USAGE
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTheory:
    def test_verification_passes(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        rc = main([
            "theory", "--seed", "0", "--instances", "3", "--dim", "8",
            "--t-max", "20", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert "pass" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ("instance,a_moment,b_moment,identity_max_rel_err,"
                           "ordering_ok,cubic_proposed,cubic_baseline,passed").split(",")
        assert len(rows) == 4
        assert all(row[-1] == "True" for row in rows[1:])

    @pytest.mark.parametrize("seed", [0, 11])
    def test_rows_are_the_library_reports(self, tmp_path, seed):
        # instances come from theory's draw on default_rng(--seed), in order
        out = tmp_path / "theory.csv"
        rc = main(["theory", "--seed", str(seed), "--instances", "3", "--dim", "8",
                   "--t-max", "20", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rng = np.random.default_rng(seed)
        for k, row in enumerate(rows):
            rep = verify_theorem(random_quadratic(rng, 8), 0.25, 0.25, t_max=20)
            values = [getattr(rep, name) for name in header[1:]]
            cells = [repr(v) if isinstance(v, float) else str(v) for v in values]
            assert row == [str(k), *cells]
        assert len(rows) == 3

    def test_zero_instances_is_usage_error(self, tmp_path, capsys):
        rc = main(["theory", "--seed", "0", "--instances", "0",
                   "--out", str(tmp_path / "theory.csv")])
        assert rc == EXIT_USAGE
        assert "pass" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, bound", [
        ("--dim", "1", 2), ("--dim", "0", 2), ("--dim", "-3", 2),
        ("--t-max", "5", 6), ("--t-max", "4", 6), ("--t-max", "-1", 6),
    ])
    def test_out_of_range_size_is_usage_error(self, tmp_path, capsys, flag, value, bound):
        out = tmp_path / "theory.csv"
        rc = main(["theory", "--seed", "0", "--instances", "1", flag, value, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"{flag} must be >= {bound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "2"), ("--beta", "-0.1"), ("--beta", "nan"),
        ("--gamma", "1.5"), ("--gamma", "-1"), ("--gamma", "nan"),
    ])
    def test_out_of_range_mixing_weight_names_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "theory.csv"
        rc = main(["theory", "--seed", "0", "--instances", "1", flag, value, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"error: {flag} must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_sizes_pass(self, tmp_path):
        out = tmp_path / "theory.csv"
        rc = main(["theory", "--seed", "0", "--instances", "2", "--dim", "2",
                   "--t-max", "6", "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_VERIFY)
        assert len(out.read_text().splitlines()) == 3


# The CSV columns that hold floats, by file: every cell of them must be a
# plain number, also when the row carries a numpy scalar.
FLOAT_COLUMNS = {
    "trace": ("loss", "lambda", "beta", "gamma"),
    "report": ("tr_asr", "ir_asr", "alpha_mean"),
    "theory": ("a_moment", "b_moment", "identity_max_rel_err", "cubic_proposed", "cubic_baseline"),
}


class TestCsvNumbers:
    def test_every_float_cell_parses(self, dataset_file, tmp_path):
        common = ["--seed", "3", "--steps", "3", "--samples", "2", "--scales", "1.0"]
        out_dir, report, theory = tmp_path / "adv", tmp_path / "report.csv", tmp_path / "theory.csv"
        assert main(["attack", *common, "--dataset", str(dataset_file), "--limit", "2",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        assert main(["transfer", *common, "--dataset", str(dataset_file), "--models", "2",
                     "--out", str(report)]) == EXIT_OK
        assert main(["theory", "--seed", "3", "--instances", "2", "--dim", "8",
                     "--t-max", "20", "--out", str(theory)]) == EXIT_OK
        files = [("theory", theory), ("report", report)]
        files += [("trace", path) for path in sorted(out_dir.glob("trace_*.csv"))]
        assert len(files) == 4
        for kind, path in files:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                for col in FLOAT_COLUMNS[kind]:
                    float(row[col])


class TestSubspace:
    def test_writes_projector(self, dataset_file, tmp_path):
        out = tmp_path / "proj.txt"
        rc = main(["subspace", "--seed", "5", "--dataset", str(dataset_file),
                   "--out", str(out)])
        assert rc == EXIT_OK
        p = matio.load_matrix(out)
        assert p.shape == (16, 16)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)

    def test_equals_attack_projector(self, dataset_file, tmp_path):
        out = tmp_path / "proj.txt"
        main(["subspace", "--seed", "5", "--dataset", str(dataset_file), "--out", str(out)])
        ds = load_dataset_descriptor(dataset_file)
        expect = surrogate_projector(ds, ds.base, AttackConfig(master_seed=5))
        assert np.array_equal(matio.load_matrix(out), expect)

    def test_config_corpus_proportion_honoured(self, dataset_file, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("corpus_proportion=1.0\n")
        for name, extra in (("default", []), ("full", ["--config", str(cfg_file)])):
            assert main(["subspace", "--seed", "5", "--dataset", str(dataset_file),
                         *extra, "--out", str(tmp_path / f"{name}.txt")]) == EXIT_OK
        default, full = (matio.load_matrix(tmp_path / f"{n}.txt") for n in ("default", "full"))
        assert not np.array_equal(default, full)
        ds = load_dataset_descriptor(dataset_file)
        cfg = AttackConfig(master_seed=5, corpus_proportion=1.0)
        assert np.array_equal(full, surrogate_projector(ds, ds.base, cfg))


def _cli_text(value) -> str:
    """A config value as the config file and the flags spell it."""
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def attack_configs(draw) -> AttackConfig:
    positive = st.floats(min_value=1e-6, max_value=1.0)
    kappa = draw(st.floats(min_value=0.0, max_value=0.9))
    mu = draw(st.floats(min_value=0.0, max_value=1.0 - kappa))
    return AttackConfig(
        eps_image=draw(positive),
        step_size=draw(positive),
        steps=draw(st.integers(2, 50)),
        samples=draw(st.integers(1, 20)),
        scales=tuple(draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                                   min_size=1, max_size=4))),
        word_list_size=draw(st.integers(0, 30)),
        kappa=kappa,
        mu=mu,
        nu=1.0 - kappa - mu,
        corpus_proportion=draw(st.floats(min_value=1e-3, max_value=1.0)),
        region=draw(st.sampled_from(sorted(REGION_ASSIGNMENTS))),
    )


# settings that are placed together, so any mix of them stays valid
_CONFIG_GROUPS = [("kappa", "mu", "nu")] + [
    (name,) for name in _CONFIG_PARSERS if name not in ("kappa", "mu", "nu")
]


class TestConfigPrecedence:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        winner=attack_configs(),
        loser=attack_configs(),
        places=st.lists(st.sampled_from(["default", "file", "flag", "both"]),
                        min_size=len(_CONFIG_GROUPS), max_size=len(_CONFIG_GROUPS)),
    )
    def test_flags_win_over_the_file_and_defaults_fill_the_rest(
        self, tmp_path_factory, seed, winner, loser, places
    ):
        # a setting in both places takes the flag's value (winner's), the
        # file's (loser's) is dropped
        file_values, flag_values = {}, {}
        for group, place in zip(_CONFIG_GROUPS, places):
            for name in group:
                if place in ("file", "both"):
                    file_values[name] = getattr(loser if place == "both" else winner, name)
                if place in ("flag", "both"):
                    flag_values[name] = getattr(winner, name)
        cfg_file = tmp_path_factory.mktemp("precedence") / "cfg.txt"
        cfg_file.write_text("".join(f"{k}={_cli_text(v)}\n" for k, v in file_values.items()))
        flags = [f"--{k.replace('_', '-')}={_cli_text(v)}" for k, v in flag_values.items()]
        args = build_parser().parse_args(
            ["attack", "--seed", str(seed), "--dataset", "unused", "--config", str(cfg_file),
             *flags]
        )
        want = replace(AttackConfig(master_seed=seed), **{**file_values, **flag_values})
        assert build_attack_config(args) == want

    @pytest.mark.parametrize("argv", [
        ["theory", "--seed", "0", "--instances", "1", "--kappa", "9"],
        ["synth", "--seed", "5", *SMALL_SYNTH, "--config", "cfg.txt"],
    ])
    def test_attack_options_only_on_attack_subcommands(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out.txt")])
        assert exc.value.code == EXIT_USAGE

    def test_config_file_overrides_defaults(self, dataset_file, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("steps=3\nsamples=2\nscales=1.0\n")
        out_dir = tmp_path / "adv"
        rc = main([
            "attack", "--seed", "5", "--dataset", str(dataset_file),
            "--limit", "1", "--config", str(cfg_file), "--out-dir", str(out_dir),
        ])
        assert rc == EXIT_OK
        trace = (out_dir / "trace_0.csv").read_text().splitlines()
        assert len(trace) == 1 + 3  # config file's steps=3 took effect

    def test_flags_override_config_file(self, dataset_file, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("steps=5\nsamples=2\nscales=1.0\n")
        out_dir = tmp_path / "adv"
        rc = main([
            "attack", "--seed", "5", "--dataset", str(dataset_file),
            "--limit", "1", "--config", str(cfg_file), "--steps", "2",
            "--out-dir", str(out_dir),
        ])
        assert rc == EXIT_OK
        trace = (out_dir / "trace_0.csv").read_text().splitlines()
        assert len(trace) == 1 + 2  # the --steps flag won

    @pytest.mark.parametrize("line, key", [
        ("steps=3.5", "steps"), ("kappa=big", "kappa"), ("scales=1.0,x", "scales"),
    ])
    def test_unparsable_config_value_names_key_and_file(
        self, dataset_file, tmp_path, capsys, line, key
    ):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(line + "\n")
        out_dir = tmp_path / "adv"
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file), "--limit", "1",
                   "--config", str(cfg_file), "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(key) in err and str(cfg_file) in err
        assert not out_dir.exists()

    def test_unknown_config_key_is_usage_error(self, dataset_file, tmp_path, capsys):
        # master_seed is not a config key: the seed comes from --seed alone
        cfg_file = tmp_path / "cfg.txt"
        for line in ("warp_factor=9\n", "master_seed=7\n", "text_budget=1\n"):
            cfg_file.write_text(line)
            rc = main([
                "attack", "--seed", "5", "--dataset", str(dataset_file),
                "--config", str(cfg_file),
            ])
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert str(cfg_file) in err and repr(line.split("=")[0]) in err

    def test_unknown_config_key_is_reported_before_a_bad_value(
        self, dataset_file, tmp_path, capsys
    ):
        # as in a descriptor: unknown keys first, then values in file order
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("steps=3.5\nwarp_factor=9\n")
        rc = main(["attack", "--seed", "5", "--dataset", str(dataset_file),
                   "--config", str(cfg_file), "--out-dir", str(tmp_path / "adv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {cfg_file}: unknown config key 'warp_factor'\n"


def output_args(command, tmp_path) -> tuple[list[str], Path]:
    """The output argument of attack, transfer or subspace and the path it names."""
    if command == "attack":
        return ["--limit", "1", "--out-dir", str(tmp_path / "adv")], tmp_path / "adv"
    if command == "subspace":
        return ["--out", str(tmp_path / "projector.txt")], tmp_path / "projector.txt"
    return ["--models", "2", "--out", str(tmp_path / "report.csv")], tmp_path / "report.csv"


class TestConfigRangeErrors:
    # a merged config that AttackConfig rejects names where its values came
    # from, as a variant clash does
    @pytest.mark.parametrize("command", ["attack", "transfer", "subspace"])
    @pytest.mark.parametrize("config, flags, message, named", [
        ("steps=1\n", [], "steps must be >= 2", ["config key 'steps' in {cfg}"]),
        ("", ["--kappa", "0.5"], "kappa + mu + nu must equal 1", ["--kappa"]),
        ("kappa=0.5\n", ["--mu", "0.1"], "kappa + mu + nu must equal 1",
         ["config key 'kappa' in {cfg}", "--mu"]),
    ], ids=["config", "flag", "mixed"])
    def test_range_error_names_the_sources(
        self, dataset_file, tmp_path, capsys, command, config, flags, message, named
    ):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(config)
        out_args, out = output_args(command, tmp_path)
        argv = [command, "--seed", "5", "--dataset", str(dataset_file),
                "--config", str(cfg_file), *flags, *out_args]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert all(name.format(cfg=cfg_file) in err for name in named)
        assert not out.exists()


class TestVariantOverrides:
    # a setting the variant replaces was silently ignored: sga pins
    # samples=1 and (kappa, mu, nu) = (0, 0, 1), subtriangle-X pins region X
    @pytest.mark.parametrize("command", ["attack", "transfer"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("variant, settings", [
        ("sga", {"samples": "3"}),
        ("sga", {"kappa": "0.2", "mu": "0.4", "nu": "0.4"}),
        ("subtriangle-C", {"region": "E"}),
    ])
    def test_replaced_setting_is_usage_error(
        self, dataset_file, tmp_path, capsys, command, source, variant, settings
    ):
        argv = ["--seed", "5", "--dataset", str(dataset_file), "--variant", variant]
        if source == "flag":
            argv += [arg for key, value in settings.items() for arg in (f"--{key}", value)]
            named = [f"--{key}" for key in settings]
        else:
            cfg_file = tmp_path / "cfg.txt"
            cfg_file.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
            argv += ["--config", str(cfg_file)]
            named = [f"config key {key!r} in {cfg_file}" for key in settings]
        out_args, out = output_args(command, tmp_path)
        assert main([command, *argv, *out_args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(variant) in err and all(name in err for name in named)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "transfer"])
    @pytest.mark.parametrize("variant, flags, config", [
        ("sga", ["--samples", "1"], "kappa=0.0\nmu=0.0\nnu=1.0\n"),
        ("subtriangle-C", ["--region", "C"], "region=C\n"),
    ])
    def test_value_equal_to_the_pinned_one_passes(
        self, dataset_file, tmp_path, command, variant, flags, config
    ):
        # and the run writes what the run without the setting writes
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(config)
        common = ["--seed", "5", "--dataset", str(dataset_file), "--variant", variant,
                  "--steps", "2"]
        written = []
        for name, extra in (("plain", []), ("pinned", [*flags, "--config", str(cfg_file)])):
            (tmp_path / name).mkdir()
            out_args, _ = output_args(command, tmp_path / name)
            assert main([command, *common, *extra, *out_args]) == EXIT_OK
            files = sorted(f for f in (tmp_path / name).rglob("*") if f.is_file())
            written.append([(f.name, f.read_text()) for f in files])
        assert written[0] == written[1] != []


class TestDerivedOptions:
    def test_synth_flags_are_the_generator_fields(self):
        args = vars(build_parser().parse_args(["synth", "--seed", "0", "--pairs", "2"]))
        for key in ("command", "func", "seed", "pairs", "out"):
            del args[key]
        assert args == {f.name: f.default for cls in (DatasetDims, GeneratorParams)
                        for f in fields(cls)}

    def test_config_keys_and_attack_flags_are_the_config_fields(self):
        want = [f.name for f in fields(AttackConfig) if f.name != "master_seed"]
        assert list(_CONFIG_PARSERS) == want
        args = vars(build_parser().parse_args(["attack", "--seed", "0", "--dataset", "d"]))
        for key in ("command", "func", "seed", "config", "dataset", "variant",
                    "limit", "out_dir"):
            del args[key]
        assert args == dict.fromkeys(want)

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"The config-file keys are exactly the attack flags \(([^)]*)\)", readme)
        assert listed is not None
        assert re.findall(r"`(\w+)`", listed.group(1)) == list(_CONFIG_PARSERS)
