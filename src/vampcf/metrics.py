"""Ranking metrics and the strong-generalization evaluation loop.

Scores are ranked descending with ties broken by ascending item index;
fold-in items are excluded from the candidate list entirely so they can
never be "retrieved". Users whose heldout set is empty are skipped and
counted, never treated as zeros.
"""
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Callable scorers get their batch from to_dense_batch; perfbench wraps it
# by attribute here (``metrics.to_dense_batch``), so the name must stay.
from .data import CSRMatrix, to_dense_batch
from .errors import ConfigError, DataError, NumericalError
from .model import ModelParams, score_items

METRIC_NAMES = ("ndcg", "recall")

# Rows ranked at once. At 20k items a block of negated scores plus its
# partition indices is about 80 MB, whatever the batch size.
RANK_BLOCK_ROWS = 256


def ranked_candidates(scores, mask):
    """All unmasked item indices, best score first, index tie-break.

    Only unmasked indices are ranked, so a masked item never appears
    whatever the scores are; NaN scores rank last.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    mask = np.fromiter(mask, dtype=np.int64)
    keep = np.ones(s.size, dtype=bool)
    if mask.size:
        if mask.min() < 0 or mask.max() >= s.size:
            raise ConfigError("mask index out of range")
        keep[mask] = False
    candidates = np.flatnonzero(keep)
    return candidates[np.lexsort((candidates, -s[candidates]))]


def _check_inputs(scores, heldout, mask, k):
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    heldout = np.asarray(sorted(heldout), dtype=np.int64)
    mask_set = set(int(i) for i in mask)
    if any(int(i) in mask_set for i in heldout):
        raise DataError("heldout and mask overlap")
    return heldout, mask_set


def _dcg(hits):
    if hits.size == 0:
        return 0.0
    return float(np.sum(hits / np.log2(np.arange(2.0, hits.size + 2.0))))


def ndcg_at_k(scores, heldout, mask, k):
    """Truncated normalized discounted cumulative gain; hits at rank r are
    discounted by 1/log2(r+1). Returns None for an empty heldout set (the
    caller should skip the user)."""
    heldout, _ = _check_inputs(scores, heldout, mask, k)
    if heldout.size == 0:
        return None
    top = ranked_candidates(scores, mask)[:k]
    dcg = _dcg(np.isin(top, heldout).astype(np.float64))
    ideal = _dcg(np.ones(min(k, heldout.size)))
    return dcg / ideal


def recall_at_k(scores, heldout, mask, k):
    """Fraction of heldout items in the top K, normalized by
    min(K, heldout size). Returns None for an empty heldout set."""
    heldout, _ = _check_inputs(scores, heldout, mask, k)
    if heldout.size == 0:
        return None
    top = ranked_candidates(scores, mask)[:k]
    hits = int(np.isin(top, heldout).sum())
    return hits / min(k, heldout.size)


def popularity_baseline(train_users, n_items):
    """Training consumption count per item; the non-personalized bar any
    learned model must clear."""
    if not train_users:
        raise DataError("popularity baseline needs a non-empty training set")
    all_items = np.concatenate([u.item_indices for u in train_users])
    return np.bincount(all_items, minlength=n_items).astype(np.float64)


@dataclass
class MetricRow:
    metric: str
    k: int
    mean: float
    se: float
    n_users: int

    @property
    def label(self):
        return f"{self.metric.upper()}@{self.k}"


@dataclass
class MetricReport:
    rows: list
    n_users: int
    n_skipped: int
    fingerprint: str = ""
    per_user: list = field(default_factory=list)

    def row(self, metric, k):
        for r in self.rows:
            if r.metric == metric and r.k == k:
                return r
        raise KeyError(f"no row for {metric}@{k}")

    def to_dict(self):
        return {
            "fingerprint": self.fingerprint,
            "n_users": self.n_users,
            "n_skipped": self.n_skipped,
            "rows": [{"metric": r.metric, "k": r.k, "mean": r.mean,
                      "se": r.se, "n_users": r.n_users} for r in self.rows],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self):
        lines = [f"{'metric':<12}{'mean':>10}{'se':>10}{'users':>8}"]
        for r in self.rows:
            lines.append(f"{r.label:<12}{r.mean:>10.5f}{r.se:>10.5f}{r.n_users:>8d}")
        lines.append(f"evaluated {self.n_users} users, skipped {self.n_skipped}")
        if self.fingerprint:
            lines.append(f"fingerprint {self.fingerprint}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        """One row per (user, metric, K); requires keep_per_user=True."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["user_index", "metric", "k", "value"])
            for user_index, metric, k, value in self.per_user:
                w.writerow([user_index, metric, k, f"{value:.10f}"])


def _make_scorer(scorer, n_items):
    """(n_items, function from a list of fold-in vectors to their scores)."""
    if isinstance(scorer, ModelParams):
        m = scorer.config.n_items
        if n_items is not None and n_items != m:
            raise ConfigError(f"model expects {m} items, split has {n_items}")
        return m, lambda fold_in: score_items(
            CSRMatrix.from_vectors(fold_in, m), scorer).data
    if isinstance(scorer, np.ndarray):
        vec = np.asarray(scorer, dtype=np.float64).ravel()
        if n_items is not None and n_items != vec.size:
            raise ConfigError(f"score vector has {vec.size} items, split has {n_items}")
        return vec.size, lambda fold_in: np.broadcast_to(vec, (len(fold_in), vec.size))
    if callable(scorer):
        if n_items is None:
            raise ConfigError("callable scorer needs explicit n_items")
        return n_items, lambda fold_in: scorer(to_dense_batch(fold_in, n_items).data)
    raise ConfigError(f"unsupported scorer type {type(scorer).__name__}")


def _top_k_rows(neg, k):
    """Per row of ``neg`` (negated scores), the columns of the k best
    scores ordered by (-score, index): the head of ``ranked_candidates``.

    A partial partition finds k smallest values; where values tied with
    the k-th one straddle the cut, the row's set is rebuilt as every
    column below it plus the lowest-index columns equal to it.
    """
    top = np.argpartition(neg, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(neg, top, axis=1)
    kth = vals.max(axis=1, keepdims=True)
    for r in np.flatnonzero(np.count_nonzero(neg <= kth, axis=1) > k):
        row, t = neg[r], kth[r, 0]
        below = np.flatnonzero(row < t)
        top[r] = np.concatenate([below, np.flatnonzero(row == t)[:k - below.size]])
        vals[r] = row[top[r]]
    order = np.lexsort((top, vals), axis=1)
    return np.take_along_axis(top, order, axis=1)


def _flat_rows(vectors):
    """(row, column, row size) index arrays of a non-empty list of
    interaction vectors, one row per vector."""
    sizes = np.array([v.item_indices.size for v in vectors])
    rows = np.repeat(np.arange(len(vectors)), sizes)
    return rows, np.concatenate([v.item_indices for v in vectors]), sizes


def _rank_block(scores, block, ks, ideal, discount):
    """NDCG and recall, each (len(ks), len(block)), of a block of
    (user, fold-in, heldout) triples ranked on their rows of ``scores``."""
    n_rows, n_items = scores.shape
    fi_rows, fi_cols, _ = _flat_rows([fi for _, fi, _ in block])
    ho_rows, ho_cols, n_held = _flat_rows([ho for _, _, ho in block])
    if ho_cols.min() < 0 or ho_cols.max() >= n_items:
        raise DataError(f"heldout item index out of range for {n_items} items")
    held = np.zeros((n_rows, n_items), dtype=bool)
    held[ho_rows, ho_cols] = True
    clash = held[fi_rows, fi_cols]
    if clash.any():
        u = block[fi_rows[np.argmax(clash)]][0]
        raise DataError(f"user {u}: fold-in and heldout overlap")
    # A negated copy: the scorer's array stays untouched, and the fold-in
    # items sort after every finite score. Past a user's unmasked count the
    # top-k holds fold-in items, which are never hits.
    neg = np.negative(scores)
    neg[fi_rows, fi_cols] = np.inf
    top = _top_k_rows(neg, discount.size)
    hits = np.take_along_axis(held, top, axis=1).astype(np.float64)
    gains = hits / discount
    capped = np.minimum.outer(ks, n_held)
    ndcg = np.stack([gains[:, :k].sum(axis=1) for k in ks]) / ideal[capped]
    recall = np.stack([hits[:, :k].sum(axis=1) for k in ks]) / capped
    return ndcg, recall


def evaluate(users, scorer, ks, n_items=None, batch_size=1024,
             fingerprint="", keep_per_user=False):
    """Fold-in evaluation: infer latents from each user's fold-in items,
    score everything, mask the fold-in, and measure how well the heldout
    items rank. ``scorer`` is ModelParams, a static score vector, or a
    callable mapping a dense fold-in batch to a score matrix; the array it
    returns is never written to.

    Each batch is ranked in blocks of ``RANK_BLOCK_ROWS`` rows with one
    exact partial top-k, and every per-user value equals what
    ``ndcg_at_k`` / ``recall_at_k`` give on the same scores.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ConfigError("Ks must be positive")
    n_items, score_batch = _make_scorer(scorer, n_items)
    max_k = min(ks[-1], n_items)
    # The oracle's denominators: DCG of n straight hits, n = 0..max_k.
    ideal = np.array([_dcg(np.ones(n)) for n in range(max_k + 1)])
    discount = np.log2(np.arange(2.0, max_k + 2.0))

    kept = [(u, fi, ho) for u, (fi, ho) in enumerate(users)
            if ho.item_indices.size > 0]
    n_skipped = len(users) - len(kept)
    if not kept:
        raise DataError("no evaluable users (all heldout sets empty)")
    # One contiguous row per (metric, K), so each mean and standard error
    # sums the same values in the same order as a list would.
    values = {m: np.empty((len(ks), len(kept))) for m in METRIC_NAMES}

    for start in range(0, len(kept), batch_size):
        chunk = kept[start:start + batch_size]
        scores = np.asarray(score_batch([fi for _, fi, _ in chunk]), dtype=np.float64)
        if scores.shape != (len(chunk), n_items):
            raise ConfigError(f"scorer returned {scores.shape}, "
                              f"expected {(len(chunk), n_items)}")
        # min and max propagate NaN, so both are finite only when every
        # score is, and neither allocates a batch-sized mask.
        if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
            raise NumericalError("scorer returned non-finite scores")
        for lo in range(0, len(chunk), RANK_BLOCK_ROWS):
            block = chunk[lo:lo + RANK_BLOCK_ROWS]
            cols = slice(start + lo, start + lo + len(block))
            values["ndcg"][:, cols], values["recall"][:, cols] = _rank_block(
                scores[lo:lo + len(block)], block, ks, ideal, discount)
        # Freed before the next batch is scored, not after.
        del scores

    per_user = []
    if keep_per_user:
        for i, (u, _, _) in enumerate(kept):
            for j, k in enumerate(ks):
                for metric in METRIC_NAMES:
                    per_user.append((u, metric, k, float(values[metric][j, i])))

    rows = []
    for metric in METRIC_NAMES:
        for j, k in enumerate(ks):
            vs = values[metric][j]
            se = float(vs.std(ddof=1) / math.sqrt(vs.size)) if vs.size > 1 else 0.0
            rows.append(MetricRow(metric=metric, k=k, mean=float(vs.mean()),
                                  se=se, n_users=int(vs.size)))
    return MetricReport(rows=rows, n_users=len(kept), n_skipped=n_skipped,
                        fingerprint=fingerprint, per_user=per_user)
