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
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix
from .errors import ConfigError, DataError, ShapeError


@dataclass
class RatingRecord:
    """One parsed input row; the timestamp is carried but never used."""
    user_id: str
    item_id: str
    rating: float
    timestamp: int | None = None


@dataclass
class InteractionVector:
    """A user's binarized consumption history as sorted item indices."""
    user_index: int
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

    def item_index(self):
        return {item: i for i, item in enumerate(self.vocab)}


def parse_ratings(path):
    """Yield RatingRecords from a delimited ratings file.

    A single leading header line is skipped when its rating field is not
    numeric. Any other malformed row raises DataError with its line number.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read ratings file {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (3, 4):
                raise DataError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(row)}")
            user_id, item_id = row[0].strip(), row[1].strip()
            try:
                rating = float(row[2])
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise DataError(f"{path}:{lineno}: non-numeric rating {row[2]!r}")
            if not math.isfinite(rating):
                raise DataError(f"{path}:{lineno}: non-finite rating")
            if not user_id or not item_id:
                raise DataError(f"{path}:{lineno}: empty user or item id")
            timestamp = None
            if len(row) == 4 and row[3].strip():
                try:
                    timestamp = int(float(row[3]))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad timestamp {row[3]!r}")
            yield RatingRecord(user_id, item_id, rating, timestamp)


def ingest(path, min_rating=4.0, min_items=5):
    """Binarize a ratings file into per-user item-id sets.

    Keeps records with rating >= min_rating, deduplicates (user, item)
    pairs, and drops users left with fewer than min_items items. Output is
    a list of (user_id, tuple_of_item_ids) sorted by user_id, items sorted
    within each user.
    """
    by_user = {}
    for rec in parse_ratings(path):
        if rec.rating >= min_rating:
            by_user.setdefault(rec.user_id, set()).add(rec.item_id)
    result = [(user, tuple(sorted(items)))
              for user, items in sorted(by_user.items())
              if len(items) >= min_items]
    if not result:
        raise DataError(
            f"no users with >= {min_items} items rated >= {min_rating} in {path}")
    return result


def split(data, n_heldout_users, fold_in_fraction=0.8, seed=0):
    """Partition users into train/validation/test and fold each heldout user.

    Samples ``n_heldout_users`` users uniformly for validation and the same
    number for test; everyone else trains. The item vocabulary comes from
    training users only. For each heldout user, items outside the vocabulary
    are dropped, then ceil(fold_in_fraction * n) of the rest are sampled
    without replacement as the fold-in part and the remainder is heldout.
    Users left without a usable fold-in or with an empty heldout part are
    discarded and counted in the diagnostics. Deterministic given the seed.
    """
    if not 0.0 < fold_in_fraction < 1.0:
        raise ConfigError(f"fold_in_fraction must be in (0, 1), got {fold_in_fraction}")
    if n_heldout_users < 1:
        raise ConfigError("n_heldout_users must be >= 1")
    data = sorted(data)
    n_users = len(data)
    if 2 * n_heldout_users >= n_users:
        raise ConfigError(
            f"need 2*{n_heldout_users} heldout users but only {n_users} users total")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_users)
    val_set = set(perm[:n_heldout_users].tolist())
    test_set = set(perm[n_heldout_users:2 * n_heldout_users].tolist())

    train_data = [data[i] for i in range(n_users)
                  if i not in val_set and i not in test_set]
    vocab = sorted({item for _, items in train_data for item in items})
    index_of = {item: i for i, item in enumerate(vocab)}

    train_users = [
        InteractionVector(u, np.array([index_of[it] for it in items], dtype=np.int64))
        for u, (_, items) in enumerate(train_data)
    ]

    diagnostics = {"discarded_validation": 0, "discarded_test": 0}

    def fold_users(member_set, diag_key):
        pairs = []
        user_index = 0
        for i in range(n_users):
            if i not in member_set:
                continue
            _, items = data[i]
            idx = np.array(sorted(index_of[it] for it in items if it in index_of),
                           dtype=np.int64)
            if idx.size == 0:
                diagnostics[diag_key] += 1
                continue
            order = rng.permutation(idx.size)
            n_fold = math.ceil(fold_in_fraction * idx.size)
            heldout = np.sort(idx[order[n_fold:]])
            if heldout.size == 0:
                diagnostics[diag_key] += 1
                continue
            fold_in = np.sort(idx[order[:n_fold]])
            pairs.append((InteractionVector(user_index, fold_in),
                          InteractionVector(user_index, heldout)))
            user_index += 1
        return pairs

    validation_users = fold_users(val_set, "discarded_validation")
    test_users = fold_users(test_set, "discarded_test")

    return DatasetSplit(
        vocab=vocab,
        train_users=train_users,
        validation_users=validation_users,
        test_users=test_users,
        seed=seed,
        params={"n_heldout_users": n_heldout_users,
                "fold_in_fraction": fold_in_fraction},
        diagnostics=diagnostics,
    )


def _check_item_range(indices, n_items):
    """ShapeError naming the first index outside [0, n_items)."""
    bad = (indices < 0) | (indices >= n_items)
    if bad.any():
        raise ShapeError(
            f"item index {int(indices[np.argmax(bad)])} out of bounds for M={n_items}")


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


def to_dense(v, n_items):
    """0/1 row vector of length n_items with ones at the interaction indices."""
    return to_dense_batch([v], n_items)


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
    for v in users:
        for i in v.item_indices:
            yield (v.user_index, int(i))


def save_split(ds, out_dir):
    """Write a split directory: vocab.csv, train.csv, the four fold-in /
    heldout files, and meta.json."""
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


def _read_pairs_csv(path, n_items):
    by_user = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            item = int(row[1])
            if not 0 <= item < n_items:
                raise DataError(
                    f"{path}: item index {item} out of range for {n_items} items")
            by_user.setdefault(int(row[0]), []).append(item)
    return {u: np.array(sorted(items), dtype=np.int64) for u, items in by_user.items()}


def load_split(split_dir):
    """Reconstruct a DatasetSplit from a directory written by save_split."""
    meta_path = os.path.join(split_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise DataError(f"not a split directory (missing meta.json): {split_dir}")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    vocab = []
    with open(os.path.join(split_dir, "vocab.csv"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            vocab.append(row[1])

    n_items = len(vocab)
    train_map = _read_pairs_csv(os.path.join(split_dir, "train.csv"), n_items)
    train_users = [InteractionVector(u, train_map[u]) for u in sorted(train_map)]

    def load_pairs(kind):
        tr_name, te_name = _PAIR_FILES[kind]
        tr = _read_pairs_csv(os.path.join(split_dir, tr_name), n_items)
        te = _read_pairs_csv(os.path.join(split_dir, te_name), n_items)
        if sorted(tr) != sorted(te):
            raise DataError(f"{kind}: fold-in and heldout user sets differ")
        return [(InteractionVector(u, tr[u]), InteractionVector(u, te[u]))
                for u in sorted(tr)]

    return DatasetSplit(
        vocab=vocab,
        train_users=train_users,
        validation_users=load_pairs("validation"),
        test_users=load_pairs("test"),
        seed=meta["seed"],
        params=meta.get("params", {}),
        diagnostics=meta.get("diagnostics", {}),
    )
