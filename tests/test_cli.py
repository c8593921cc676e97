import csv

import numpy as np
import pytest

from aetlab import matio
from aetlab.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from aetlab.core import AttackConfig
from aetlab.harness import craft_adversarial_pairs, load_dataset_descriptor, surrogate_projector

SMALL_SYNTH = [
    "--pairs", "6", "--height", "8", "--width", "8", "--embed-dim", "16",
    "--vocab-size", "128", "--caption-len", "4", "--held-out", "10",
    "--held-out-len", "12",
]


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

    def test_entropy_opt_in(self, tmp_path):
        rc = main(["synth", "--entropy", *SMALL_SYNTH, "--out", str(tmp_path / "d.txt")])
        assert rc == EXIT_OK


class TestSynth:
    def test_writes_descriptor(self, dataset_file, capsys):
        kv = matio.load_keyvalues(dataset_file)
        assert kv["seed"] == "5"
        assert kv["n_pairs"] == "6"

    def test_reports_clean_recall(self, tmp_path, capsys):
        main(["synth", "--seed", "5", *SMALL_SYNTH, "--out", str(tmp_path / "d.txt")])
        out = capsys.readouterr().out
        assert "clean R@1 TR=100.0% IR=100.0%" in out


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
        assert rows[0][0] == "instance"
        assert len(rows) == 4
        assert all(row[-1] == "True" for row in rows[1:])

    def test_zero_instances_is_usage_error(self, tmp_path, capsys):
        rc = main(["theory", "--seed", "0", "--instances", "0",
                   "--out", str(tmp_path / "theory.csv")])
        assert rc == EXIT_USAGE
        assert "pass" not in capsys.readouterr().out


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
        expect = surrogate_projector(ds, ds.base, AttackConfig(master_seed=5)).projector
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
        assert np.array_equal(full, surrogate_projector(ds, ds.base, cfg).projector)


class TestConfigPrecedence:
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

    def test_unknown_config_key_is_usage_error(self, dataset_file, tmp_path):
        # master_seed is not a config key: the seed comes from --seed alone
        cfg_file = tmp_path / "cfg.txt"
        for line in ("warp_factor=9\n", "master_seed=7\n"):
            cfg_file.write_text(line)
            rc = main([
                "attack", "--seed", "5", "--dataset", str(dataset_file),
                "--config", str(cfg_file),
            ])
            assert rc == EXIT_USAGE
