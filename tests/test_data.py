"""Dataset pipeline tests: ingest filtering, split invariants, determinism."""
import json
import math
import os
import re

import numpy as np
import pytest

from vampcf.data import (CSRMatrix, DatasetSplit, InteractionVector, ingest,
                         load_split, parse_ratings, save_split, split,
                         to_dense_batch, vocab_fingerprint)
from vampcf.errors import ConfigError, DataError


def write_ratings(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
    return str(path)


class TestIngest:
    def test_threshold_is_inclusive(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [
            ("u1", f"i{j}", 4.0) for j in range(5)] + [("u1", "i9", 3.9)])
        data = ingest(path, min_rating=4.0, min_items=5)
        assert data == [("u1", ("i0", "i1", "i2", "i3", "i4"))]

    def test_user_below_min_items_dropped(self, tmp_path):
        rows = [("few", f"i{j}", 5.0) for j in range(4)]
        rows += [("enough", f"i{j}", 5.0) for j in range(5)]
        data = ingest(write_ratings(tmp_path / "r.csv", rows), min_items=5)
        assert [u for u, _ in data] == ["enough"]

    def test_duplicate_pairs_collapse(self, tmp_path):
        rows = [("u1", "i0", 4.0), ("u1", "i0", 5.0)]
        rows += [("u1", f"i{j}", 4.5) for j in range(1, 5)]
        data = ingest(write_ratings(tmp_path / "r.csv", rows), min_items=5)
        assert data[0][1] == ("i0", "i1", "i2", "i3", "i4")

    def test_low_ratings_do_not_count_toward_minimum(self, tmp_path):
        rows = [("u1", f"i{j}", 2.0) for j in range(10)]
        rows += [("u1", "top", 5.0)]
        with pytest.raises(DataError):
            ingest(write_ratings(tmp_path / "r.csv", rows), min_items=5)

    def test_header_autodetected(self, tmp_path):
        rows = [("u1", f"i{j}", 4.0) for j in range(5)]
        path = write_ratings(tmp_path / "r.csv", rows,
                             header="user_id,item_id,rating")
        assert len(ingest(path)) == 1

    def test_header_after_leading_blank_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\n \nuser_id,item_id,rating\nu1,i0,5\n",
                        encoding="utf-8")
        assert list(parse_ratings(str(path))) == [("u1", "i0", 5.0)]

    def test_only_the_first_nonblank_record_can_be_a_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\nuser_id,item_id,rating\n\nu1,i0,5\nu1,i1,rating\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r":5: non-numeric rating 'rating'"):
            list(parse_ratings(str(path)))

    def test_timestamp_column_ignored(self, tmp_path):
        rows = [("u1", f"i{j}", 4.0, 1234567 + j) for j in range(5)]
        data = ingest(write_ratings(tmp_path / "r.csv", rows))
        assert len(data[0][1]) == 5

    def test_parsed_rows_are_plain_tuples(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [("u1", "i0", 4.5, 1234567)],
                             header="user,item,rating,timestamp")
        assert list(parse_ratings(path)) == [("u1", "i0", 4.5)]

    @pytest.mark.parametrize("stamp", ["yesterday", "inf"])
    def test_bad_timestamp_reports_line_number(self, tmp_path, stamp):
        rows = [("u1", "i0", 4.0, 1234567), ("u1", "i1", 4.0, stamp)]
        path = write_ratings(tmp_path / "r.csv", rows)
        with pytest.raises(DataError, match=r":2: bad timestamp"):
            list(parse_ratings(path))

    def test_malformed_row_reports_line_number(self, tmp_path):
        rows = [("u1", "i0", 4.0), ("u1", "i1", 4.0)]
        path = write_ratings(tmp_path / "r.csv", rows)
        with open(path, "a") as f:
            f.write("u1,i2,not_a_number_after_header_zone\n")
        with pytest.raises(DataError) as err:
            list(parse_ratings(path))
        assert ":3:" in str(err.value)

    def test_output_sorted_by_user_then_item(self, tmp_path):
        rows = [("b", "z", 5.0), ("b", "a", 5.0), ("a", "m", 5.0)]
        rows += [("a", f"i{j}", 5.0) for j in range(4)]
        rows += [("b", f"i{j}", 5.0) for j in range(3)]
        data = ingest(write_ratings(tmp_path / "r.csv", rows), min_items=5)
        assert [u for u, _ in data] == ["a", "b"]
        for _, items in data:
            assert list(items) == sorted(items)

    def test_missing_file_is_data_error(self):
        with pytest.raises(DataError):
            list(parse_ratings("/nonexistent/ratings.csv"))

    def test_quoted_field_spanning_lines_keeps_physical_line_numbers(
            self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('u1,i0,5\n"u\n1",i1,5\nu1,i2,abc\n', encoding="utf-8")
        with pytest.raises(DataError, match=r":4: non-numeric rating 'abc'"):
            list(parse_ratings(str(path)))

    def test_undecodable_file_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"u1,i0,5\nu1,i\xff,5\n")
        with pytest.raises(DataError, match=re.escape(
                f"cannot read ratings file {path}: 'utf-8' codec can't decode")):
            list(parse_ratings(str(path)))


def unique_histories(n_users=100, pool=60, seed=5):
    """Users with unique random histories over a shared item pool."""
    rng = np.random.default_rng(seed)
    seen, data = set(), []
    for u in range(n_users):
        while True:
            n = int(rng.integers(8, 15))
            items = tuple(sorted(f"item{j:02d}" for j in
                                 rng.choice(pool, size=n, replace=False)))
            if items not in seen:
                seen.add(items)
                break
        data.append((f"user{u:03d}", items))
    return data


class TestSplit:
    def test_fold_in_count_uses_ceiling(self):
        data = unique_histories(30)
        ds = split(data, n_heldout_users=5, seed=0)
        for fold_in, heldout in ds.validation_users + ds.test_users:
            n = fold_in.item_indices.size + heldout.item_indices.size
            assert fold_in.item_indices.size == math.ceil(0.8 * n)

    def test_ten_items_gives_eight_two(self):
        data = [(f"u{i}", tuple(f"i{j}" for j in range(10))) for i in range(20)]
        # identical histories are fine for this count check
        ds = split(data, n_heldout_users=3, seed=1)
        for fold_in, heldout in ds.validation_users + ds.test_users:
            assert fold_in.item_indices.size == 8
            assert heldout.item_indices.size == 2

    def test_partition_counts_and_disjoint_owners(self):
        data = unique_histories(100)
        ds = split(data, n_heldout_users=10, seed=2)
        assert len(ds.vocab) == 60  # every pool item appears in training
        assert len(ds.train_users) == 80
        assert len(ds.validation_users) == 10
        assert len(ds.test_users) == 10
        assert ds.diagnostics == {"discarded_validation": 0, "discarded_test": 0}

        histories = {items: user for user, items in data}
        vocab = np.array(ds.vocab)
        train_owners = {histories[tuple(vocab[tv.item_indices])]
                        for tv in ds.train_users}

        def owners(pairs):
            out = set()
            for fold_in, heldout in pairs:
                full = set(vocab[fold_in.item_indices]) | set(vocab[heldout.item_indices])
                matches = [user for user, items in data if full <= set(items)]
                assert len(matches) == 1
                out.add(matches[0])
            return out

        val_owners, test_owners = owners(ds.validation_users), owners(ds.test_users)
        assert len(train_owners) == 80
        assert not (train_owners & val_owners)
        assert not (train_owners & test_owners)
        assert not (val_owners & test_owners)

    def test_fold_in_and_heldout_partition_each_history(self):
        data = unique_histories(40)
        ds = split(data, n_heldout_users=6, seed=3)
        vocab = np.array(ds.vocab)
        in_vocab = {items: tuple(sorted(i for i in items if i in set(ds.vocab)))
                    for _, items in data}
        for fold_in, heldout in ds.validation_users + ds.test_users:
            fi = set(fold_in.item_indices.tolist())
            ho = set(heldout.item_indices.tolist())
            assert not (fi & ho)
            full = tuple(sorted(vocab[sorted(fi | ho)]))
            assert full in in_vocab.values()

    def test_vocabulary_closure(self):
        data = unique_histories(50)
        ds = split(data, n_heldout_users=8, seed=4)
        m = len(ds.vocab)
        for fold_in, heldout in ds.validation_users + ds.test_users:
            assert np.all(fold_in.item_indices < m)
            assert np.all(heldout.item_indices < m)

    def test_degenerate_users_discarded_and_counted(self):
        # half the users hold one unique item: fold-in takes it, heldout empty
        data = unique_histories(20)
        data += [(f"loner{i}", (f"item{i:02d}",)) for i in range(20)]
        ds = split(data, n_heldout_users=10, seed=6)
        discarded = ds.diagnostics["discarded_validation"]
        assert len(ds.validation_users) + discarded == 10
        assert len(ds.test_users) + ds.diagnostics["discarded_test"] == 10
        assert discarded + ds.diagnostics["discarded_test"] > 0

    def test_pure_function_of_seed(self):
        data = unique_histories(60)
        a = split(data, n_heldout_users=8, seed=7)
        b = split(data, n_heldout_users=8, seed=7)
        assert a.vocab == b.vocab
        for ua, ub in zip(a.train_users, b.train_users):
            assert np.array_equal(ua.item_indices, ub.item_indices)
        c = split(data, n_heldout_users=8, seed=8)
        assert any(not np.array_equal(ua.item_indices, uc.item_indices)
                   for ua, uc in zip(a.train_users, c.train_users))

    def test_too_many_heldout_users_rejected(self):
        data = unique_histories(10)
        with pytest.raises(ConfigError):
            split(data, n_heldout_users=5, seed=0)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            split(unique_histories(10), n_heldout_users=2, seed=-1)


class TestDense:
    def test_example_vector(self):
        v = InteractionVector(np.array([0, 2], dtype=np.int64))
        assert to_dense_batch([v], 4).data.tolist() == [[1.0, 0.0, 1.0, 0.0]]

    def test_empty_indices_zero_vector(self):
        v = InteractionVector(np.array([], dtype=np.int64))
        assert to_dense_batch([v], 3).data.tolist() == [[0.0, 0.0, 0.0]]

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            idx = np.sort(rng.choice(m, size=rng.integers(1, m), replace=False))
            dense = to_dense_batch([InteractionVector(idx.astype(np.int64))], m)
            back = np.flatnonzero(dense.data[0])
            assert np.array_equal(back, idx)

    def test_out_of_bounds_rejected(self):
        v = InteractionVector(np.array([5], dtype=np.int64))
        with pytest.raises(DataError):
            to_dense_batch([v], 4)

    def test_negative_index_rejected(self):
        v = InteractionVector(np.array([-1, 2], dtype=np.int64))
        with pytest.raises(DataError, match="-1"):
            to_dense_batch([v], 5)
        with pytest.raises(DataError, match="-1"):
            CSRMatrix.from_vectors([v], 5)

    def test_unsorted_indices_rejected(self):
        with pytest.raises(DataError):
            InteractionVector(np.array([3, 1], dtype=np.int64))
        with pytest.raises(DataError):
            InteractionVector(np.array([2, 2], dtype=np.int64))


class TestCSRMatrix:
    def vectors(self):
        return [InteractionVector(np.array([1, 4], dtype=np.int64)),
                InteractionVector(np.array([], dtype=np.int64)),
                InteractionVector(np.array([0, 2, 5], dtype=np.int64))]

    def test_from_vectors_matches_dense_batch(self):
        x = CSRMatrix.from_vectors(self.vectors(), 6)
        assert x.shape == (3, 6) and x.rows == 3 and x.cols == 6 and x.indices.size == 5
        assert x.indptr.tolist() == [0, 2, 2, 5]
        assert x.indices.tolist() == [1, 4, 0, 2, 5]
        assert np.array_equal(x.toarray(), to_dense_batch(self.vectors(), 6).data)

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((7, 9)) < 0.3) * rng.normal(size=(7, 9))
        dense[2] = 0.0
        x = CSRMatrix.from_dense(dense)
        assert np.array_equal(x.toarray(), dense)
        assert x.indices.size == np.count_nonzero(dense)
        assert np.array_equal(x.row_ids(), np.nonzero(dense)[0])

    def test_take_rows_in_order_with_repeats(self):
        x = CSRMatrix.from_vectors(self.vectors(), 6)
        rows = [2, 0, 1, 2]
        assert np.array_equal(x.take_rows(rows).toarray(), x.toarray()[rows])
        assert x.take_rows([]).shape == (0, 6)

    def test_empty_batch(self):
        x = CSRMatrix.from_vectors([], 4)
        assert x.shape == (0, 4) and x.toarray().shape == (0, 4)


class TestSplitArtifact:
    def test_same_seed_byte_identical_directories(self, tmp_path):
        data = unique_histories(40)
        dirs = []
        for run in range(2):
            ds = split(data, n_heldout_users=5, seed=11)
            out = tmp_path / f"run{run}"
            save_split(ds, str(out))
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == ["meta.json", "test_te.csv", "test_tr.csv", "train.csv",
                         "validation_te.csv", "validation_tr.csv", "vocab.csv"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_load_round_trip(self, tmp_path):
        data = unique_histories(40)
        ds = split(data, n_heldout_users=5, seed=12)
        save_split(ds, str(tmp_path / "s"))
        back = load_split(str(tmp_path / "s"))
        assert back.vocab == ds.vocab
        assert back.seed == ds.seed
        assert back.diagnostics == ds.diagnostics
        assert len(back.train_users) == len(ds.train_users)
        for a, b in zip(ds.train_users, back.train_users):
            assert np.array_equal(a.item_indices, b.item_indices)
        for (afi, aho), (bfi, bho) in zip(ds.validation_users, back.validation_users):
            assert np.array_equal(afi.item_indices, bfi.item_indices)
            assert np.array_equal(aho.item_indices, bho.item_indices)

    @pytest.mark.parametrize("name", ["train.csv", "validation_tr.csv", "test_te.csv"])
    @pytest.mark.parametrize("bad", ["-1", "n_items"])
    def test_item_index_out_of_range_rejected(self, tmp_path, name, bad):
        ds = split(unique_histories(40), n_heldout_users=5, seed=12)
        out = tmp_path / "s"
        save_split(ds, str(out))
        path = out / name
        lines = path.read_text().splitlines()
        user = lines[1].split(",")[0]
        index = str(ds.n_items) if bad == "n_items" else bad
        lines[1] = f"{user},{index}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{name}: item index {index} out of range"):
            load_split(str(out))

    @staticmethod
    def saved_split(tmp_path):
        out = tmp_path / "s"
        save_split(split(unique_histories(40), n_heldout_users=5, seed=12), str(out))
        return out

    @pytest.mark.parametrize("name", ["meta.json", "vocab.csv", "train.csv", "test_te.csv"])
    def test_missing_file_rejected(self, tmp_path, name):
        out = self.saved_split(tmp_path)
        (out / name).unlink()
        with pytest.raises(DataError, match=f"cannot read .*{name}"):
            load_split(str(out))

    @pytest.mark.parametrize("name", ["train.csv", "validation_te.csv"])
    @pytest.mark.parametrize("row", ["7,x", "u,3", "7", "7,2.5"])
    def test_malformed_pairs_row_rejected(self, tmp_path, name, row):
        out = self.saved_split(tmp_path)
        path = out / name
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{name}: line 3: expected two integers"):
            load_split(str(out))

    @pytest.mark.parametrize("name", ["train.csv", "validation_tr.csv", "test_te.csv"])
    def test_repeated_pair_rejected(self, tmp_path, name):
        out = self.saved_split(tmp_path)
        path = out / name
        lines = path.read_text().splitlines()
        user, item = lines[1].split(",")
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DataError, match=f"{name}: line {len(lines) + 1}: "
                                            f"user {user} lists item {item} twice"):
            load_split(str(out))

    @staticmethod
    def drop_user(path, user):
        """Remove every row of ``user`` from a pairs file."""
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines
                                if line.split(",")[0] != str(user)))

    def test_users_are_numbered_by_position(self, tmp_path):
        ds = split(unique_histories(40), n_heldout_users=5, seed=12)
        out = self.saved_split(tmp_path)
        for name, users in [("train.csv", ds.train_users),
                            ("test_tr.csv", [fi for fi, _ in ds.test_users]),
                            ("test_te.csv", [ho for _, ho in ds.test_users])]:
            rows = [line.split(",")
                    for line in (out / name).read_text().splitlines()[1:]]
            expected = [[str(u), str(i)] for u, v in enumerate(users)
                        for i in v.item_indices]
            assert rows == expected, name

    @pytest.mark.parametrize("name", ["train.csv", "validation_tr.csv", "test_te.csv"])
    @pytest.mark.parametrize("user", [0, 2])
    def test_users_not_numbered_from_zero_without_gaps_rejected(self, tmp_path,
                                                                 name, user):
        out = self.saved_split(tmp_path)
        self.drop_user(out / name, user)
        with pytest.raises(DataError, match=f"{name}: users must be numbered 0.."):
            load_split(str(out))

    def test_fold_in_and_heldout_must_list_the_same_users(self, tmp_path):
        out = self.saved_split(tmp_path)
        last = (out / "test_te.csv").read_text().splitlines()[-1].split(",")[0]
        self.drop_user(out / "test_te.csv", last)
        with pytest.raises(DataError, match=f"test_tr.csv lists {int(last) + 1} "
                                            f"users but test_te.csv lists {last}"):
            load_split(str(out))

    @pytest.mark.parametrize("name", ["train.csv", "test_tr.csv", "vocab.csv"])
    def test_row_with_an_extra_field_rejected(self, tmp_path, name):
        # The first two fields alone are a valid row.
        out = self.saved_split(tmp_path)
        path = out / name
        lines = path.read_text().splitlines()
        lines[1] += ",junk"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{name}: line 2: expected .*'junk'"):
            load_split(str(out))

    def test_short_vocab_row_rejected(self, tmp_path):
        out = self.saved_split(tmp_path)
        path = out / "vocab.csv"
        lines = path.read_text().splitlines()
        lines[1] = "0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="vocab.csv: line 2: expected index,item_id"):
            load_split(str(out))

    def test_vocab_index_that_is_not_the_row_position_rejected(self, tmp_path):
        out = self.saved_split(tmp_path)
        path = out / "vocab.csv"
        lines = path.read_text().splitlines()
        lines[3] = "7," + lines[3].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match="vocab.csv: line 4: expected index 2, got '7'"):
            load_split(str(out))

    def test_vocab_item_id_listed_twice_rejected(self, tmp_path):
        out = self.saved_split(tmp_path)
        path = out / "vocab.csv"
        lines = path.read_text().splitlines()
        first = lines[1].split(",")[1]
        lines[3] = f"2,{first}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=f"vocab.csv: line 4: item id '{first}' listed twice"):
            load_split(str(out))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"n_items": 3}'])
    def test_malformed_meta_rejected(self, tmp_path, text):
        out = self.saved_split(tmp_path)
        (out / "meta.json").write_text(text)
        with pytest.raises(DataError, match="meta.json"):
            load_split(str(out))

    def test_meta_records_parameters_and_fingerprint(self, tmp_path):
        data = unique_histories(40)
        ds = split(data, n_heldout_users=5, seed=13)
        save_split(ds, str(tmp_path / "s"))
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        assert meta["seed"] == 13
        assert meta["params"]["fold_in_fraction"] == 0.8
        assert meta["vocab_fingerprint"] == vocab_fingerprint(ds.vocab)

    def test_fingerprint_distinguishes_vocabularies(self):
        assert vocab_fingerprint(["a", "b"]) != vocab_fingerprint(["a", "c"])
        assert vocab_fingerprint(["a", "b"]) == vocab_fingerprint(["a", "b"])
