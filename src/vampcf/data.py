"""Rating-log ingestion, binarization, and strong-generalization splits.

The input is a delimited text file with one ``user_id,item_id,rating`` (and
optional trailing timestamp) record per line. Ratings are binarized by a
threshold, light users are dropped, and the surviving users are partitioned
into train / validation / test sets. Validation and test users are unseen
during training; each has a fold-in part (used to infer their latent
representation) and a heldout part (the prediction targets).

A split is persisted as a directory of csv files plus ``meta.json``; see
``save_split`` for the exact layout.
"""
import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix
from .errors import ConfigError, DataError, ShapeError, check_float, check_int

# The Mult-VAE protocol's split of each heldout user's items: 80% fold-in.
FOLD_IN_FRACTION = 0.8


@dataclass
class InteractionVector:
    """A user's binarized item indices, sorted; the user is its list position."""
    item_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.item_indices, dtype=np.int64)
        if idx.size and not np.all(np.diff(idx) > 0):
            raise DataError("item indices must be strictly increasing")
        self.item_indices = idx

    @property
    def n_items(self):
        return int(self.item_indices.size)


@dataclass
class DatasetSplit:
    """Training users plus (fold_in, heldout) pairs for unseen users."""
    vocab: list
    train_users: list
    validation_users: list
    test_users: list
    seed: int
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_items(self):
        return len(self.vocab)


def parse_ratings(path):
    """Yield ``(user_id, item_id, rating)`` from a delimited ratings file.

    Blank lines are skipped, and so is the first other record when its
    rating field is not numeric (a header). Any other malformed row, a bad
    timestamp included, raises DataError with its physical line number,
    and so does a file that cannot be read or decoded as UTF-8; a valid
    timestamp is not kept.
    """
    with _csv_reader(path, "ratings file ") as reader:
        records = (row for row in reader if row and (len(row) > 1 or row[0].strip()))
        for n, row in enumerate(records):
            if len(row) not in (3, 4):
                raise DataError(f"{path}:{reader.line_num}: expected 3 or 4 fields, "
                                f"got {len(row)}")
            user_id, item_id = row[0].strip(), row[1].strip()
            try:
                rating = float(row[2])
            except ValueError:
                if n == 0:
                    continue  # header line
                raise DataError(f"{path}:{reader.line_num}: non-numeric rating {row[2]!r}")
            if not math.isfinite(rating):
                raise DataError(f"{path}:{reader.line_num}: non-finite rating")
            if not user_id or not item_id:
                raise DataError(f"{path}:{reader.line_num}: empty user or item id")
            if len(row) == 4 and row[3].strip():
                try:
                    int(float(row[3]))
                except (ValueError, OverflowError):
                    raise DataError(f"{path}:{reader.line_num}: bad timestamp {row[3]!r}")
            yield user_id, item_id, rating


def ingest(path, min_rating=4.0, min_items=5):
    """Binarize a ratings file into per-user item-id sets.

    Keeps records with rating >= min_rating, deduplicates (user, item)
    pairs, and drops users left with fewer than min_items items. Output is
    a list of (user_id, tuple_of_item_ids) sorted by user_id, items sorted
    within each user.
    """
    min_rating = check_float("min_rating", min_rating)
    min_items = check_int("min_items", min_items, 1)
    by_user = {}
    for user_id, item_id, rating in parse_ratings(path):
        if rating >= min_rating:
            by_user.setdefault(user_id, set()).add(item_id)
    result = [(user, tuple(sorted(items)))
              for user, items in sorted(by_user.items())
              if len(items) >= min_items]
    if not result:
        raise DataError(
            f"no users with >= {min_items} items rated >= {min_rating} in {path}")
    return result


def split(data, n_heldout_users, seed=0):
    """Partition users into train/validation/test and fold each heldout user.

    Samples ``n_heldout_users`` users uniformly for validation and the same
    number for test; everyone else trains. The item vocabulary comes from
    training users only. For each heldout user, items outside the vocabulary
    are dropped, then ceil(FOLD_IN_FRACTION * n) of the rest are sampled
    without replacement as the fold-in part and the remainder is heldout.
    Users left without a usable fold-in or with an empty heldout part are
    discarded and counted in the diagnostics. Deterministic given the seed.
    """
    n_heldout_users = check_int("n_heldout_users", n_heldout_users, 1)
    seed = check_int("seed", seed, 0)
    data = sorted(data)
    n_users = len(data)
    if 2 * n_heldout_users >= n_users:
        raise ConfigError(
            f"need 2*{n_heldout_users} heldout users but only {n_users} users total")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_users)
    validation_rows = np.sort(perm[:n_heldout_users])
    test_rows = np.sort(perm[n_heldout_users:2 * n_heldout_users])
    train_data = [data[i] for i in np.sort(perm[2 * n_heldout_users:])]
    vocab = sorted({item for _, items in train_data for item in items})
    index_of = {item: i for i, item in enumerate(vocab)}

    train_users = [
        InteractionVector(np.array([index_of[it] for it in items], dtype=np.int64))
        for _, items in train_data
    ]

    diagnostics = {"discarded_validation": 0, "discarded_test": 0}

    def fold_users(rows, diag_key):
        pairs = []
        for i in rows:
            _, items = data[i]
            idx = np.array(sorted(index_of[it] for it in items if it in index_of),
                           dtype=np.int64)
            if idx.size == 0:
                diagnostics[diag_key] += 1
                continue
            order = rng.permutation(idx.size)
            n_fold = math.ceil(FOLD_IN_FRACTION * idx.size)
            heldout = np.sort(idx[order[n_fold:]])
            if heldout.size == 0:
                diagnostics[diag_key] += 1
                continue
            fold_in = np.sort(idx[order[:n_fold]])
            pairs.append((InteractionVector(fold_in), InteractionVector(heldout)))
        return pairs

    validation_users = fold_users(validation_rows, "discarded_validation")
    test_users = fold_users(test_rows, "discarded_test")

    return DatasetSplit(
        vocab=vocab,
        train_users=train_users,
        validation_users=validation_users,
        test_users=test_users,
        seed=seed,
        params={"n_heldout_users": n_heldout_users,
                "fold_in_fraction": FOLD_IN_FRACTION},
        diagnostics=diagnostics,
    )


def _check_item_range(indices, n_items):
    """DataError naming the first index outside [0, n_items): the one check
    on every row built from user vectors."""
    bad = (indices < 0) | (indices >= n_items)
    if bad.any():
        raise DataError(
            f"item index {int(indices[np.argmax(bad)])} out of range for {n_items} items")


class CSRMatrix:
    """Compressed sparse rows, with scipy.sparse's attribute names.

    Row ``r`` holds the values ``data[indptr[r]:indptr[r + 1]]`` at the
    columns ``indices[indptr[r]:indptr[r + 1]]``, strictly increasing
    within the row. ``rows`` and ``cols`` mirror ``Matrix``.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_vectors(cls, vectors, n_items):
        """0/1 rows with ones at each vector's item indices."""
        sizes = np.array([v.item_indices.size for v in vectors], dtype=np.int64)
        indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        indices = np.concatenate([v.item_indices for v in vectors]) \
            if vectors else np.zeros(0, dtype=np.int64)
        _check_item_range(indices, n_items)
        return cls(np.ones(indices.size), indices, indptr, (len(vectors), n_items))

    @classmethod
    def from_dense(cls, x):
        """The nonzero entries of a 2-D ``Matrix`` or array."""
        arr = x.data if isinstance(x, Matrix) else np.asarray(x, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"CSRMatrix needs a 2-D input, got ndim={arr.ndim}")
        rows, cols = np.nonzero(arr)
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=arr.shape[0]), out=indptr[1:])
        return cls(arr[rows, cols], cols.astype(np.int64, copy=False), indptr,
                   arr.shape)

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def __repr__(self):
        return f"CSRMatrix({self.rows}x{self.cols}, nnz={self.indices.size})"

    def row_ids(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))

    def with_data(self, data):
        """Same sparsity pattern, new values."""
        return CSRMatrix(data, self.indices, self.indptr, self.shape)

    def take_rows(self, rows):
        """A new matrix of the given rows, in order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        pick = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return CSRMatrix(self.data[pick], self.indices[pick], indptr,
                         (rows.size, self.cols))

    def toarray(self):
        """The dense (rows, cols) float64 array."""
        out = np.zeros(self.shape)
        out[self.row_ids(), self.indices] = self.data
        return out


def to_dense_batch(vectors, n_items):
    """Stack interaction vectors into a dense (len(vectors), n_items) matrix."""
    return Matrix(CSRMatrix.from_vectors(vectors, n_items).toarray())


def vocab_fingerprint(vocab):
    """Stable hex digest identifying an item vocabulary."""
    h = hashlib.sha256()
    for item in vocab:
        h.update(item.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Split artifact I/O
# ---------------------------------------------------------------------------

_PAIR_FILES = {
    "validation": ("validation_tr.csv", "validation_te.csv"),
    "test": ("test_tr.csv", "test_te.csv"),
}


def _write_pairs_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_index", "item_index"])
        w.writerows(rows)


def _user_rows(users):
    for u, v in enumerate(users):
        for i in v.item_indices:
            yield (u, int(i))


def save_split(ds, out_dir):
    """Write a split directory: vocab.csv, train.csv, the four fold-in /
    heldout files (users numbered by list position), and meta.json."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "vocab.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "item_id"])
        for i, item in enumerate(ds.vocab):
            w.writerow([i, item])
    _write_pairs_csv(os.path.join(out_dir, "train.csv"), _user_rows(ds.train_users))
    for kind, (tr_name, te_name) in _PAIR_FILES.items():
        users = getattr(ds, f"{kind}_users")
        _write_pairs_csv(os.path.join(out_dir, tr_name),
                         _user_rows([tr for tr, _ in users]))
        _write_pairs_csv(os.path.join(out_dir, te_name),
                         _user_rows([te for _, te in users]))
    meta = {
        "n_items": ds.n_items,
        "n_train_users": len(ds.train_users),
        "n_validation_users": len(ds.validation_users),
        "n_test_users": len(ds.test_users),
        "seed": ds.seed,
        "params": ds.params,
        "diagnostics": ds.diagnostics,
        "vocab_fingerprint": vocab_fingerprint(ds.vocab),
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _csv_reader(path, what=""):
    """A csv reader over ``path``, whose ``line_num`` is the physical line
    of the last record read; a file that cannot be opened, decoded as UTF-8
    or parsed is a ``DataError`` naming it after ``what``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {what}{path}: {e}") from e


def _read_pairs_csv(path, n_items):
    """A pairs file's vectors in user order; users must be numbered 0..n-1."""
    by_user = {}
    with _csv_reader(path) as reader:
        next(reader, None)  # header
        for row in reader:
            try:
                user, item = map(int, row)
            except ValueError:
                raise DataError(f"{path}: line {reader.line_num}: expected two integers "
                                f"user_index,item_index, got {row!r}") from None
            if not 0 <= item < n_items:
                raise DataError(
                    f"{path}: item index {item} out of range for {n_items} items")
            items = by_user.setdefault(user, set())
            if item in items:
                raise DataError(f"{path}: line {reader.line_num}: user {user} "
                                f"lists item {item} twice")
            items.add(item)
    if sorted(by_user) != list(range(len(by_user))):
        raise DataError(f"{path}: users must be numbered 0..{len(by_user) - 1}, "
                        f"got {min(by_user)}..{max(by_user)}")
    return [InteractionVector(np.array(sorted(by_user[u]), dtype=np.int64))
            for u in range(len(by_user))]


def read_vocab(split_dir):
    """The item ids of a split directory's ``vocab.csv``, in index order.
    Each row's index is its position, and no item id is listed twice."""
    path = os.path.join(split_dir, "vocab.csv")
    vocab, seen = [], set()
    with _csv_reader(path) as reader:
        next(reader, None)  # header
        for row in reader:
            where = f"{path}: line {reader.line_num}: "
            if len(row) != 2:
                raise DataError(f"{where}expected index,item_id, got {row!r}")
            if row[0] != str(len(vocab)):
                raise DataError(f"{where}expected index {len(vocab)}, got {row[0]!r}")
            if row[1] in seen:
                raise DataError(f"{where}item id {row[1]!r} listed twice")
            seen.add(row[1])
            vocab.append(row[1])
    return vocab


def read_heldout_users(split_dir, kind, n_items):
    """The (fold-in, heldout) pairs of ``kind`` ("validation" or "test") in
    user order, read from that kind's two files alone."""
    tr_name, te_name = _PAIR_FILES[kind]
    fold_in = _read_pairs_csv(os.path.join(split_dir, tr_name), n_items)
    heldout = _read_pairs_csv(os.path.join(split_dir, te_name), n_items)
    if len(fold_in) != len(heldout):
        raise DataError(f"{split_dir}: {tr_name} lists {len(fold_in)} users "
                        f"but {te_name} lists {len(heldout)}")
    return list(zip(fold_in, heldout))


def load_split(split_dir):
    """Reconstruct a DatasetSplit from a directory written by save_split."""
    meta_path = os.path.join(split_dir, "meta.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read {meta_path}: {e}") from e
    if not isinstance(meta, dict) or "seed" not in meta:
        raise DataError(f"{meta_path}: split metadata has no seed")
    vocab = read_vocab(split_dir)
    n_items = len(vocab)
    return DatasetSplit(
        vocab=vocab,
        train_users=_read_pairs_csv(os.path.join(split_dir, "train.csv"), n_items),
        validation_users=read_heldout_users(split_dir, "validation", n_items),
        test_users=read_heldout_users(split_dir, "test", n_items),
        seed=meta["seed"],
        params=meta.get("params", {}),
        diagnostics=meta.get("diagnostics", {}),
    )
