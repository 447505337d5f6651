"""End-to-end command-line tests: prepare -> train -> eval -> recommend,
plus exit-code mapping and override handling."""
import ast
import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vampcf
from vampcf import cli, gridcheck, metrics, training
from vampcf.autodiff import Matrix
from vampcf.checkpoint import load_checkpoint
from vampcf.cli import main
from vampcf.data import load_split, vocab_fingerprint
from vampcf.errors import ConfigError
from vampcf.metrics import ranked_candidates
from vampcf.model import ElboResult, score_items
from vampcf.synthetic import archetype_interactions, write_ratings_csv
from tests.conftest import TINY_MODEL_OVERRIDES, TINY_TRAIN_OVERRIDES

SPLIT_FILES = ["meta.json", "vocab.csv", "train.csv",
               "validation_tr.csv", "validation_te.csv",
               "test_tr.csv", "test_te.csv"]


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.fixture
def other_split(tmp_path, capsys):
    """A split of other ratings, whose vocabulary fingerprint differs from
    the trained run's."""
    other = archetype_interactions(n_users=80, n_items=50, n_archetypes=2,
                                   seed=11, min_items=8, max_items=15)
    ratings = tmp_path / "other.csv"
    write_ratings_csv(other, str(ratings))
    out = str(tmp_path / "split2")
    assert main(["prepare", "--ratings", str(ratings), "--heldout-users",
                 "10", "--out", out]) == 0
    capsys.readouterr()
    return out


def assert_names_both_fingerprints(err, trained_run, split):
    _, extra = load_checkpoint(os.path.join(trained_run, "model.ckpt"))
    assert extra["vocab_fingerprint"] in err
    assert vocab_fingerprint(load_split(split).vocab) in err


class TestSynthetic:
    def test_writes_the_generator_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        # Blocks of 40 items hold the 34 in-block draws of a 40-item user.
        assert main(["synthetic", "--users", "30", "--items", "80",
                     "--archetypes", "2", "--seed", "4", "--out", str(out)]) == 0
        ref = tmp_path / "ref.csv"
        data = archetype_interactions(30, 80, 2, 4)
        write_ratings_csv(data, str(ref))
        assert out.read_bytes() == ref.read_bytes()
        n_inter = sum(len(items) for _, items in data)
        assert (f"wrote {out}: 30 users, 80 items, {n_inter} interactions"
                in capsys.readouterr().out)
        assert sorted(os.listdir(tmp_path)) == ["r.csv", "ref.csv"]

    @pytest.mark.parametrize("sizes", [["--items", "61", "--archetypes", "3"],
                                       ["--items", "0", "--archetypes", "3"],
                                       ["--items", "20", "--archetypes", "2"],
                                       ["--archetypes", "0"], ["--users", "0"]])
    def test_sizes_it_cannot_honour_exit_1(self, tmp_path, capsys, sizes):
        out = tmp_path / "r.csv"
        assert main(["synthetic", *sizes, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_min_items_above_max_items_is_a_config_error(self):
        with pytest.raises(ConfigError, match="min_items 5 exceeds max_items 3"):
            archetype_interactions(10, 6, 2, 0, min_items=5, max_items=3)
        data = archetype_interactions(10, 6, 2, 0, min_items=3, max_items=3)
        assert {len(items) for _, items in data} == {3}

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            archetype_interactions(6, 30, 3, -1, min_items=2, max_items=4)

    def test_block_smaller_than_the_in_block_draw_is_a_config_error(self):
        # 6 items in 3 blocks of 2 cannot hold the 34 in-block draws of a
        # 40-item user; with 2-item users each keeps to its own block.
        with pytest.raises(ConfigError, match="draw up to 34 .* block, which has 2"):
            archetype_interactions(6, 6, 3, 0)
        data = archetype_interactions(6, 6, 3, 0, min_items=2, max_items=2)
        blocks = [{int(i[1:]) // 2 for i in items} for _, items in data]
        assert blocks == [{0}, {1}, {2}] * 2

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def write_then_fail(data, path):
            write_ratings_csv(data[:2], path)
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "write_ratings_csv", write_then_fail)
        out = tmp_path / "r.csv"
        assert main(["synthetic", "--users", "10", "--out", str(out)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_out_in_missing_directory_names_the_out_path(self, tmp_path,
                                                         capsys):
        out = tmp_path / "nodir" / "r.csv"
        assert main(["synthetic", "--users", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert os.listdir(tmp_path) == []


class TestPrepare:
    def test_writes_all_split_files(self, split_dir):
        assert sorted(os.listdir(split_dir)) == sorted(SPLIT_FILES)

    def test_prints_diagnostics(self, ratings_file, tmp_path, capsys):
        code = main(["prepare", "--ratings", ratings_file, "--heldout-users",
                     "15", "--seed", "7", "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        assert "vocab fingerprint:" in out
        assert "90 train / 15 validation / 15 test" in out

    def test_rerun_is_byte_identical(self, ratings_file, tmp_path):
        args = ["prepare", "--ratings", ratings_file, "--heldout-users", "15",
                "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_overwrites_existing_output(self, ratings_file, tmp_path):
        out = str(tmp_path / "s")
        args = ["prepare", "--ratings", ratings_file, "--heldout-users", "15",
                "--out", out]
        assert main(args) == 0
        assert main(args) == 0
        assert sorted(os.listdir(out)) == sorted(SPLIT_FILES)

    def test_missing_ratings_file_exits_2(self, tmp_path, capsys):
        code = main(["prepare", "--ratings", str(tmp_path / "nope.csv"),
                     "--heldout-users", "5", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_undecodable_ratings_file_exits_2(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_bytes(b"user_id,item_id,rating\nu1,i\xff,5\n")
        code = main(["prepare", "--ratings", str(ratings),
                     "--heldout-users", "5", "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read ratings file {ratings}: ")
        assert "Traceback" not in err

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["prepare", "--heldout-users", "5", "--out", "x"]) == 1
        assert "error" in capsys.readouterr().err

    def test_min_items_below_one_exits_1(self, ratings_file, tmp_path, capsys):
        code = main(["prepare", "--ratings", ratings_file, "--heldout-users",
                     "15", "--min-items", "0", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "min_items must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_non_finite_min_rating_exits_1(self, ratings_file, tmp_path, capsys):
        code = main(["prepare", "--ratings", ratings_file, "--heldout-users",
                     "15", "--min-rating", "nan", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "min_rating must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained_run, split_dir):
        ckpt = os.path.join(trained_run, "model.ckpt")
        log = os.path.join(trained_run, "train_log.jsonl")
        assert os.path.exists(ckpt) and os.path.exists(log)
        records = [json.loads(line) for line in open(log, encoding="utf-8")]
        # Line i is epoch i's whole record.
        assert [r["epoch"] for r in records] == [0, 1]
        for r in records:
            assert r.keys() == {"epoch", "mean_elbo", "mean_recon", "mean_kl_z1",
                                "mean_kl_z2", "beta", "val_metric",
                                "mean_grad_norm", "wall_seconds"}

        params, extra = load_checkpoint(ckpt)
        ds = load_split(split_dir)
        assert params.config.n_items == ds.n_items
        assert params.config.n_pseudo == 3
        assert extra["vocab_fingerprint"] == vocab_fingerprint(ds.vocab)
        assert extra["eval_metric"] == "ndcg@10"
        assert 0 <= extra["best_epoch"] < 2

    @pytest.mark.parametrize("gated", ["true", "false"], ids=["gated", "tanh"])
    def test_depth_2_round_trips_and_evaluates(self, split_dir, tmp_path,
                                               monkeypatch, capsys, gated):
        """A depth-2 model trains through the command line, its checkpoint
        loads every tensor, the second trunk layers included, bit for bit
        as train saved it, and `vampcf eval` scores it."""
        saved, save = {}, cli.save_checkpoint

        def spy(path, params, extra):
            saved.update((n, m.data.copy())
                         for n, m in params.named_parameters().items())
            save(path, params, extra=extra)

        monkeypatch.setattr(cli, "save_checkpoint", spy)
        out = tmp_path / "r"
        assert main(["train", "--data", split_dir, "--out", str(out), "--quiet",
                     *TINY_MODEL_OVERRIDES, *TINY_TRAIN_OVERRIDES,
                     "--set", "model.hierarchy=two_level", "--set", "model.depth=2",
                     "--set", f"model.gated={gated}"]) == 0
        params, _ = load_checkpoint(str(out / "model.ckpt"))
        got = params.named_parameters()
        assert [n for n in got if ".1." in n] == [
            f"{trunk}.1.{t}" for trunk in ("encoder_z2", "encoder_z1",
                                           "prior_z1", "decoder")
            for t in ("W", "b")]
        assert list(got) == list(saved)
        for n, m in got.items():
            assert m.data.tobytes() == saved[n].tobytes(), n
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", split_dir, "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "metrics_test.json").exists()
        capsys.readouterr()

    def test_set_overrides_beat_config_file(self, split_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[model]\nprior = standard\nhidden = 16\n"
                       "d_z1 = 4\nd_z2 = 4\nk = 3\n"
                       "[train]\nmax_epochs = 1\nbatch_size = 64\n"
                       "eval_metric = ndcg@10\n")
        out = str(tmp_path / "run")
        code = main(["train", "--config", str(cfg), "--data", split_dir,
                     "--out", out, "--quiet",
                     "--set", "model.K=7", "--set", "model.prior=vamp"])
        assert code == 0
        params, _ = load_checkpoint(os.path.join(out, "model.ckpt"))
        assert params.config.n_pseudo == 7
        assert params.config.prior == "vamp"

    def test_beta_cap_out_of_range_exits_1(self, split_dir, tmp_path, capsys):
        code = main(["train", "--data", split_dir, "--out", str(tmp_path / "r"),
                     "--set", "train.beta_cap=1.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "beta_cap" in err and "[0, 1]" in err

    def test_unknown_config_key_exits_1(self, split_dir, tmp_path, capsys):
        # min_rating is a prepare flag, not a config key; the warm-up length
        # and the dropout rate are training constants.
        for override in ("model.widgets=3", "train.min_rating=1",
                         "train.anneal_steps=auto", "train.dropout_rate=0.5"):
            code = main(["train", "--data", split_dir, "--out",
                         str(tmp_path / "r"), "--set", override])
            assert code == 1
            assert "unknown key" in capsys.readouterr().err

    def test_unknown_section_exits_1(self, split_dir, tmp_path, capsys):
        # A split is named by --data alone: there is no [data] section.
        for override in ("tarin.seed=1", f"data.split_dir={split_dir}"):
            code = main(["train", "--data", split_dir, "--out",
                         str(tmp_path / "r"), "--set", override])
            assert code == 1
            assert "unknown config section" in capsys.readouterr().err

    def test_malformed_override_exits_1(self, tmp_path, capsys):
        # The config is checked before the split directory is read.
        code = main(["train", "--data", str(tmp_path / "missing"),
                     "--set", "model.k"])
        assert code == 1
        assert "section.key=value" in capsys.readouterr().err

    def test_no_split_dir_anywhere_exits_1(self, capsys):
        assert main(["train"]) == 1
        assert "required: --data" in capsys.readouterr().err

    def test_nonexistent_split_dir_exits_2(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("seed", "-1"), ("learning_rate", "nan"),
                                           ("learning_rate", "inf")])
    def test_negative_seed_or_non_finite_learning_rate_exits_1(
            self, split_dir, tmp_path, key, value, capsys):
        code = main(["train", "--data", split_dir, "--out", str(tmp_path / "r"),
                     "--set", f"train.{key}={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "r").exists()

    def test_user_numbers_with_a_gap_exit_2(self, split_dir, tmp_path, capsys):
        broken = tmp_path / "s"
        shutil.copytree(split_dir, broken)
        lines = (broken / "train.csv").read_text().splitlines()
        (broken / "train.csv").write_text("".join(
            f"{line}\n" for line in lines if not line.startswith("3,")))
        code = main(["train", "--data", str(broken), "--out", str(tmp_path / "r"),
                     "--quiet", *TINY_MODEL_OVERRIDES, *TINY_TRAIN_OVERRIDES])
        assert code == 2
        assert "train.csv: users must be numbered 0.." in capsys.readouterr().err

    def test_out_under_a_file_exits_1(self, split_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["train", "--data", split_dir, "--out", str(blocker / "run"),
                     "--quiet", *TINY_MODEL_OVERRIDES, *TINY_TRAIN_OVERRIDES])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_numerical_abort_exits_3(self, split_dir, tmp_path, capsys,
                                     monkeypatch):
        inf = Matrix(np.array([[np.inf]]))
        zero = Matrix(np.zeros((1, 1)))

        def bad_elbo(x, params, beta, **kw):
            return ElboResult(elbo=inf, recon=zero, kl_z1=zero, kl_z2_ce=zero)

        monkeypatch.setattr(training, "elbo", bad_elbo)
        code = main(["train", "--data", split_dir, "--out", str(tmp_path / "r"),
                     "--quiet", *TINY_MODEL_OVERRIDES, *TINY_TRAIN_OVERRIDES])
        assert code == 3
        assert "non-finite loss" in capsys.readouterr().err
        # checkpoint of the best (here: initial) snapshot is still written
        assert os.path.exists(tmp_path / "r" / "model.ckpt")


class TestEval:
    def test_writes_reports(self, trained_run, split_dir, tmp_path, capsys):
        out = str(tmp_path / "rep")
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--ks", "5,10", "--out", out])
        assert code == 0
        with open(os.path.join(out, "metrics_test.json"), encoding="utf-8") as f:
            report = json.load(f)
        rows = [(r["metric"], r["k"]) for r in report["rows"]]
        assert rows == [("ndcg", 5), ("ndcg", 10), ("recall", 5), ("recall", 10)]
        assert report["n_users"] == 15
        text = open(os.path.join(out, "metrics_test.txt"), encoding="utf-8").read()
        assert "NDCG@10" in text
        assert "NDCG@10" in capsys.readouterr().out

    def test_validation_split_flag(self, trained_run, split_dir, tmp_path):
        out = str(tmp_path / "rep")
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--split", "validation",
                     "--ks", "10", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "metrics_validation.json"))

    def test_reports_are_deterministic(self, trained_run, split_dir, tmp_path):
        ckpt = os.path.join(trained_run, "model.ckpt")
        for name in ("a", "b"):
            assert main(["eval", "--checkpoint", ckpt, "--data", split_dir,
                         "--ks", "5,10", "--out", str(tmp_path / name)]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_per_user_csv(self, trained_run, split_dir, tmp_path):
        csv_path = str(tmp_path / "per_user.csv")
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--ks", "10",
                     "--out", str(tmp_path / "rep"), "--csv", csv_path])
        assert code == 0
        lines = open(csv_path, encoding="utf-8").read().strip().split("\n")
        # header + one row per (user, metric, k): 15 users x {ndcg, recall}
        assert len(lines) == 1 + 15 * 2

    def test_failed_csv_write_leaves_no_csv(self, trained_run, split_dir,
                                           tmp_path, monkeypatch, capsys):
        class FailsAfterHeader:
            def __init__(self, f):
                self.writer, self.rows = csv.writer(f), 0

            def writerow(self, row):
                if self.rows:
                    raise OSError("disk full")
                self.rows += 1
                self.writer.writerow(row)

        monkeypatch.setattr(metrics, "csv",
                            SimpleNamespace(writer=FailsAfterHeader))
        csv_path = tmp_path / "per_user.csv"
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--ks", "10",
                     "--out", str(tmp_path / "rep"), "--csv", str(csv_path)])
        assert code == 1
        assert "error: disk full" in capsys.readouterr().err
        assert not csv_path.exists()
        assert not (tmp_path / "per_user.csv.partial").exists()

    def test_csv_in_missing_directory_exits_1(self, trained_run, split_dir,
                                              tmp_path, capsys):
        csv_path = tmp_path / "missing" / "u.csv"
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--ks", "10",
                     "--out", str(tmp_path / "rep"), "--csv", str(csv_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{csv_path}'" in err
        assert ".partial" not in err
        assert not (tmp_path / "missing").exists()

    def test_vocab_mismatch_names_both_fingerprints(self, trained_run,
                                                    other_split, tmp_path, capsys):
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", other_split, "--out", str(tmp_path / "rep")])
        assert code == 1
        assert_names_both_fingerprints(capsys.readouterr().err, trained_run,
                                       other_split)

    def test_non_integer_k_exits_1(self, trained_run, split_dir, tmp_path,
                                   capsys):
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--ks", "10,abc",
                     "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "'abc'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "rep")

    def test_missing_checkpoint_exits_2(self, split_dir, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", split_dir])
        assert code == 2

    def test_no_split_dir_exits_1_before_reading_checkpoint(self, tmp_path,
                                                             capsys):
        # The checkpoint does not exist: --data is a required flag, so the
        # usage error wins over the missing file.
        code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt")])
        assert code == 1
        assert "required: --data" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--set"])
    def test_config_flags_are_gone(self, trained_run, split_dir, tmp_path,
                                   flag, capsys):
        # eval scores with the checkpoint's own model, so it takes no config.
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, flag, "model.hidden=999",
                     "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "rep")

    def test_split_without_vocab_exits_2(self, trained_run, split_dir, tmp_path,
                                         capsys):
        broken = tmp_path / "s"
        shutil.copytree(split_dir, broken)
        (broken / "vocab.csv").unlink()
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", str(broken), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "vocab.csv" in capsys.readouterr().err


    @staticmethod
    def pairs_by_user(path):
        """{user number: item indices} of a split's pairs file."""
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[1:]
        users = {}
        for user, item in rows:
            users.setdefault(int(user), []).append(int(item))
        return users

    def test_csv_user_numbers_name_the_split_file_users(self, trained_run,
                                                        split_dir, tmp_path):
        # Rows in reverse order: a user is named by its number, not its place.
        data = tmp_path / "s"
        shutil.copytree(split_dir, data)
        for name in ("test_tr.csv", "test_te.csv"):
            header, *rows = (data / name).read_text().splitlines()
            (data / name).write_text("\n".join([header, *reversed(rows)]) + "\n")
        ckpt = os.path.join(trained_run, "model.ckpt")
        csv_path = tmp_path / "per_user.csv"
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                     "--ks", "5,10", "--out", str(tmp_path / "rep"),
                     "--csv", str(csv_path)]) == 0
        fold_in = self.pairs_by_user(data / "test_tr.csv")
        heldout = self.pairs_by_user(data / "test_te.csv")
        params, _ = load_checkpoint(ckpt)
        oracle = {"ndcg": metrics.ndcg_at_k, "recall": metrics.recall_at_k}
        with open(csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert {int(r["user_index"]) for r in rows} == set(fold_in) == set(heldout)
        for r in rows:
            u = int(r["user_index"])
            x = np.zeros((1, params.config.n_items))
            x[0, fold_in[u]] = 1.0
            scores = score_items(Matrix(x), params).data[0]
            expect = oracle[r["metric"]](scores, heldout[u], fold_in[u], int(r["k"]))
            assert float(r["value"]) == pytest.approx(expect, abs=1e-9), r

    def test_reads_only_vocab_and_the_scored_split_files(self, trained_run,
                                                         split_dir, tmp_path):
        ckpt = os.path.join(trained_run, "model.ckpt")
        only = tmp_path / "s"
        only.mkdir()
        for name in ("vocab.csv", "test_tr.csv", "test_te.csv"):
            shutil.copy(os.path.join(split_dir, name), only / name)
        for data, out in ((split_dir, "full"), (only, "only")):
            assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                         "--ks", "5,10", "--out", str(tmp_path / out)]) == 0
        assert read_tree(tmp_path / "full") == read_tree(tmp_path / "only")

    def test_missing_heldout_file_exits_2_naming_it(self, trained_run, split_dir,
                                                    tmp_path, capsys):
        broken = tmp_path / "s"
        shutil.copytree(split_dir, broken)
        (broken / "test_te.csv").unlink()
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", str(broken), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "test_te.csv" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_user_numbers_with_a_gap_exit_2(self, trained_run, split_dir,
                                            tmp_path, capsys):
        # User 0 is gone from both test files: the file's user 1 must not be
        # reported as user 0.
        broken = tmp_path / "s"
        shutil.copytree(split_dir, broken)
        for name in ("test_tr.csv", "test_te.csv"):
            lines = (broken / name).read_text().splitlines()
            (broken / name).write_text("".join(
                f"{line}\n" for line in lines if not line.startswith("0,")))
        code = main(["eval", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", str(broken), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "test_tr.csv: users must be numbered 0.." in capsys.readouterr().err

    def test_checkpoint_extra_not_an_object_exits_2(self, trained_run, split_dir,
                                                    tmp_path, capsys):
        raw = Path(trained_run, "model.ckpt").read_bytes()
        line, _, payload = raw.partition(b"\n")
        header = json.loads(line)
        header["extra"] = "not an object"
        line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(line + b"\n" + payload)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", split_dir,
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        assert f"{ckpt}: checkpoint header's extra" in capsys.readouterr().err


class TestRecommend:
    def run(self, trained_run, split_dir, items, top_n=5, extra=()):
        return main(["recommend", "--checkpoint",
                     os.path.join(trained_run, "model.ckpt"),
                     "--data", split_dir, "--items", items,
                     "--top-n", str(top_n), *extra])

    def test_history_excluded_and_scores_sorted(self, trained_run, split_dir,
                                                capsys):
        vocab = load_split(split_dir).vocab
        history = [vocab[0], vocab[3], vocab[7]]
        assert self.run(trained_run, split_dir, ",".join(history)) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        ids = [line.split("\t")[0] for line in lines]
        scores = [float(line.split("\t")[1]) for line in lines]
        assert not set(ids) & set(history)
        assert scores == sorted(scores, reverse=True)

    def test_vocab_mismatch_exits_1_naming_both_fingerprints(
            self, trained_run, other_split, capsys):
        item = load_split(other_split).vocab[0]
        assert self.run(trained_run, other_split, item) == 1
        assert_names_both_fingerprints(capsys.readouterr().err, trained_run,
                                       other_split)

    def test_matches_direct_scoring(self, trained_run, split_dir, capsys):
        ds = load_split(split_dir)
        history_idx = [0, 3, 7]
        params, _ = load_checkpoint(os.path.join(trained_run, "model.ckpt"))
        x = np.zeros((1, ds.n_items))
        x[0, history_idx] = 1.0
        scores = score_items(Matrix(x), params).data[0]
        expect = [ds.vocab[i]
                  for i in ranked_candidates(scores, set(history_idx))[:5]]

        items = ",".join(ds.vocab[i] for i in history_idx)
        assert self.run(trained_run, split_dir, items) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[0] for line in lines] == expect

    def test_unknown_item_warned_and_dropped(self, trained_run, split_dir,
                                             capsys):
        vocab = load_split(split_dir).vocab
        assert self.run(trained_run, split_dir, f"{vocab[0]},zzz") == 0
        captured = capsys.readouterr()
        assert "unknown item id 'zzz'" in captured.err
        assert len(captured.out.strip().split("\n")) == 5

    def test_all_items_unknown_exits_2(self, trained_run, split_dir, capsys):
        assert self.run(trained_run, split_dir, "zzz,yyy") == 2
        assert "no usable items" in capsys.readouterr().err

    def test_full_history_leaves_no_candidates(self, trained_run, split_dir,
                                               capsys):
        vocab = load_split(split_dir).vocab
        assert self.run(trained_run, split_dir, ",".join(vocab)) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_exits_1(self, trained_run, split_dir, top_n,
                                     capsys):
        vocab = load_split(split_dir).vocab
        assert self.run(trained_run, split_dir, vocab[0], top_n=top_n) == 1
        captured = capsys.readouterr()
        assert "--top-n" in captured.err and captured.out == ""


class TestGradcheckCommand:
    def test_unknown_corrupt_cell_exits_1_before_any_cell_runs(
            self, monkeypatch, capsys):
        def check_cell(*args, **kwargs):
            raise AssertionError("a grid cell ran")
        monkeypatch.setattr(gridcheck, "check_cell", check_cell)
        assert main(["gradcheck", "--corrupt-cell", "nope"]) == 1
        assert "unknown grid cell 'nope'" in capsys.readouterr().err

    def test_tolerance_is_not_a_flag(self, monkeypatch, capsys):
        # Every cell is checked against gridcheck.TOLERANCE.
        def check_cell(*args, **kwargs):
            raise AssertionError("a grid cell ran")
        monkeypatch.setattr(gridcheck, "check_cell", check_cell)
        assert main(["gradcheck", "--tolerance", "1e-3"]) == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    @pytest.fixture
    def fake_cells(self, monkeypatch):
        """Cells that report 1e-9, or 1.0 when corrupted, without computing
        gradients: the real grid is checked by acceptance check 1 and the
        corrupted cell by test_model's TestElbo."""
        def check_cell(cell_kwargs, seed=0, corrupt=False):
            return 1.0 if corrupt else 1e-9
        monkeypatch.setattr(gridcheck, "check_cell", check_cell)

    def test_grid_passes(self, fake_cells, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count(" pass") == 12
        assert f"all 12 grid cells within {gridcheck.TOLERANCE:g}" in out

    def test_corrupted_cell_is_named(self, fake_cells, capsys):
        cell = "flat-standard-gated-multinomial"
        assert main(["gradcheck", "--corrupt-cell", cell]) == 3
        captured = capsys.readouterr()
        assert f"gradient check failed: {cell}" in captured.err
        assert captured.out.count(" pass") == 11
        assert captured.out.count("FAIL") == 1


@pytest.mark.parametrize("command", [
    ["synthetic", "--out", "r.csv"],
    ["prepare", "--ratings", "r.csv", "--heldout-users", "1", "--out", "s"],
    ["gradcheck"]])
def test_negative_seed_exits_1(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--seed", "-1"]) == 1
    assert "seed must be an integer >= 0, got '-1'" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


class TestEntryPoints:
    COMMANDS = ("synthetic", "prepare", "train", "eval", "recommend",
                "gradcheck")

    @staticmethod
    def checkout_env():
        """Environment whose PYTHONPATH holds the imported `vampcf` package,
        so subprocesses run this checkout whatever else is installed."""
        return dict(os.environ,
                    PYTHONPATH=str(Path(vampcf.__file__).resolve().parents[1]))

    def assert_help(self, proc):
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: vampcf")
        for command in self.COMMANDS:
            assert command in proc.stdout

    def test_module_invocation(self):
        self.assert_help(subprocess.run(
            [sys.executable, "-m", "vampcf", "--help"],
            capture_output=True, text=True, env=self.checkout_env()))

    def test_console_script(self):
        # The `vampcf` executable exists only after `pip install`; what the
        # project declares is the entry point in pyproject.toml. Run that
        # target through the same body pip writes into the script.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["vampcf"]
        module, attr = target.split(":")
        body = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'vampcf'; sys.exit({attr}())")
        env = self.checkout_env()
        self.assert_help(subprocess.run(
            [sys.executable, "-c", body, "--help"],
            capture_output=True, text=True, env=env))

        script = shutil.which("vampcf")
        if script is not None:
            self.assert_help(subprocess.run(
                [script, "--help"], capture_output=True, text=True, env=env))

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_1(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "invalid choice" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cross_process_runs(tmp_path_factory):
    """Three `vampcf train` runs of one split in fresh processes, each given
    a temporary directory of its own: two with different hash seeds at two
    BLAS threads, then one at one thread. (split, [(run dir, temp dir)])."""
    root = tmp_path_factory.mktemp("cross_process")
    data = archetype_interactions(n_users=400, n_items=600, n_archetypes=3,
                                  seed=5)
    ratings = root / "ratings.csv"
    write_ratings_csv(data, str(ratings))
    split = str(root / "split")
    assert main(["prepare", "--ratings", str(ratings), "--heldout-users",
                 "40", "--out", split]) == 0
    config = Path(__file__).resolve().parents[1] / "configs" / "h_vamp_gated.cfg"
    runs = []
    for hash_seed, threads in (("1", "2"), ("2", "2"), ("3", "1")):
        out, tmp = root / f"run{hash_seed}", root / f"tmp{hash_seed}"
        tmp.mkdir()
        env = dict(TestEntryPoints.checkout_env(), PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS=threads, TMPDIR=str(tmp))
        proc = subprocess.run(
            [sys.executable, "-m", "vampcf", "train", "--config", str(config),
             "--data", split, "--out", str(out), "--quiet",
             "--set", "model.hidden=128", "--set", "model.d_z1=32",
             "--set", "model.d_z2=32", "--set", "model.k=50",
             "--set", "train.batch_size=64", "--set", "train.max_epochs=2"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append((out, tmp))
    return split, runs


def test_train_is_byte_identical_across_processes(cross_process_runs):
    """Two `vampcf train` runs in fresh processes with different hash seeds
    and the same BLAS thread count write the same checkpoint, byte for
    byte. At 600 items, hidden 128 and batch 64 OpenBLAS splits the layer
    products over its two threads: with scipy-openblas 0.3.31, a run at one
    thread writes a different checkpoint (the next test bounds how much
    that changes). No run leaves its best-epoch snapshot in the temporary
    directory."""
    _, runs = cross_process_runs
    checkpoints = [(out / "model.ckpt").read_bytes() for out, _ in runs]
    assert checkpoints[0] == checkpoints[1]
    assert [list(tmp.iterdir()) for _, tmp in runs] == [[], [], []]


# Relative (and, near zero, absolute) bound on how far a run at one BLAS
# thread may move a logged or reported value from the two-thread run's.
# Measured on this fixture: reports and per-user values identical, log
# values at most 6.1e-16 apart relatively.
THREADS_TOLERANCE = 1e-12


def _assert_close(a, b, where):
    """``a`` and ``b`` have the same structure and strings, and their
    numbers agree within ``THREADS_TOLERANCE``."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _assert_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=THREADS_TOLERANCE,
                            abs_tol=THREADS_TOLERANCE), (where, a, b)
    else:
        assert a == b, where


def test_one_and_two_blas_threads_agree_within_tolerance(cross_process_runs,
                                                         tmp_path):
    """A run at one BLAS thread writes a different checkpoint from one at
    two, so only a tolerance holds across thread counts: the two runs' logs
    (apart from wall_seconds) and the `vampcf eval` reports and per-user
    values of their checkpoints agree within ``THREADS_TOLERANCE``."""
    split, runs = cross_process_runs
    outputs = []
    for out, _ in (runs[0], runs[2]):
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()]
        for record in log:
            del record["wall_seconds"]
        report = tmp_path / out.name
        env = dict(TestEntryPoints.checkout_env(), OPENBLAS_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "vampcf", "eval",
             "--checkpoint", str(out / "model.ckpt"), "--data", split,
             "--out", str(report), "--csv", str(report / "per_user.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        with open(report / "per_user.csv", newline="", encoding="utf-8") as f:
            per_user = [[float(v) if i == 3 else v for i, v in enumerate(row)]
                        for row in list(csv.reader(f))[1:]]
        metrics_json = json.loads((report / "metrics_test.json").read_text())
        outputs.append({"log": log, "report": metrics_json, "per_user": per_user})
    assert len(outputs[0]["log"]) == 2 and len(outputs[0]["per_user"]) > 0
    _assert_close(outputs[0], outputs[1], "one vs two threads")


def test_eval_is_byte_identical_across_processes(cross_process_runs, tmp_path):
    """`vampcf eval` of one checkpoint in fresh processes with different
    hash seeds and the same BLAS thread count writes the same reports and
    per-user csv, byte for byte."""
    split, runs = cross_process_runs
    outputs = []
    for hash_seed in ("3", "4"):
        out = tmp_path / f"eval{hash_seed}"
        env = dict(TestEntryPoints.checkout_env(), PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "vampcf", "eval",
             "--checkpoint", str(runs[0][0] / "model.ckpt"), "--data", split,
             "--out", str(out), "--csv", str(out / "per_user.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(read_tree(out))
    assert sorted(outputs[0]) == ["metrics_test.json", "metrics_test.txt",
                                  "per_user.csv"]
    assert outputs[0] == outputs[1]


def test_package_source_has_no_assert_statements():
    """Runtime checks raise real errors: `python -O` strips `assert`."""
    found = []
    for path in sorted(Path(vampcf.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/vampcf: {found}"
