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

# Only perfbench's tracer reads ``metrics.to_dense_batch``; this import goes
# with ROADMAP item 1, when the tracer patches names where they are defined.
from .data import CSRMatrix, _check_item_range, to_dense_batch  # noqa: F401
from .errors import ConfigError, DataError, NumericalError, check_int
from .model import ModelParams, score_items

METRIC_NAMES = ("ndcg", "recall")

# Users scored and ranked at once, so memory does not grow with the number
# of users. At 20k items a block's scores, the one buffer its negated copy
# is written into, and its partition indices are 41 MB each, and at most
# two of them are alive at once.
RANK_BLOCK_ROWS = 256


def _score_vector(scores):
    """One user's scores, of shape (n,) or (1, n), as a float64 vector."""
    scores = np.asarray(scores, dtype=np.float64)
    if not (scores.ndim == 1 or scores.ndim == 2 and scores.shape[0] == 1):
        raise ConfigError(f"a score vector has shape (n,) or (1, n), "
                          f"got {scores.shape}")
    return scores.ravel()


def ranked_candidates(scores, mask):
    """All unmasked item indices, best score first, index tie-break.

    Only unmasked indices are ranked, so a masked item never appears
    whatever the scores are; NaN scores rank last. A mask index outside
    the scores is a ``DataError``.
    """
    s = _score_vector(scores)
    mask = np.fromiter(mask, dtype=np.int64)
    _check_item_range(mask, s.size)
    keep = np.ones(s.size, dtype=bool)
    keep[mask] = False
    candidates = np.flatnonzero(keep)
    return candidates[np.lexsort((candidates, -s[candidates]))]


def _check_inputs(scores, heldout, mask, k):
    check_int("K", k, 1)
    heldout = np.asarray(sorted(heldout), dtype=np.int64)
    _check_item_range(heldout, _score_vector(scores).size)
    twice = heldout[1:][heldout[1:] == heldout[:-1]]
    if twice.size:
        raise DataError(f"heldout item {int(twice[0])} listed twice")
    mask_set = set(int(i) for i in mask)
    if any(int(i) in mask_set for i in heldout):
        raise DataError("heldout and mask overlap")
    return heldout


def _dcg(hits):
    if hits.size == 0:
        return 0.0
    return float(np.sum(hits / np.log2(np.arange(2.0, hits.size + 2.0))))


def ndcg_at_k(scores, heldout, mask, k):
    """Truncated normalized discounted cumulative gain; hits at rank r are
    discounted by 1/log2(r+1). Returns None for an empty heldout set (the
    caller should skip the user)."""
    heldout = _check_inputs(scores, heldout, mask, k)
    if heldout.size == 0:
        return None
    top = ranked_candidates(scores, mask)[:k]
    dcg = _dcg(np.isin(top, heldout).astype(np.float64))
    ideal = _dcg(np.ones(min(k, heldout.size)))
    return dcg / ideal


def recall_at_k(scores, heldout, mask, k):
    """Fraction of heldout items in the top K, normalized by
    min(K, heldout size). Returns None for an empty heldout set."""
    heldout = _check_inputs(scores, heldout, mask, k)
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
    items = CSRMatrix.from_vectors(train_users, n_items).indices
    return np.bincount(items, minlength=n_items).astype(np.float64)


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
    """(n_items, function from a block's fold-in CSR to its scores)."""
    if isinstance(scorer, ModelParams):
        m = scorer.config.n_items
        if n_items is not None and n_items != m:
            raise ConfigError(f"model expects {m} items, split has {n_items}")
        return m, lambda x: score_items(x, scorer).data
    if isinstance(scorer, np.ndarray):
        vec = _score_vector(scorer)
        if n_items is not None and n_items != vec.size:
            raise ConfigError(f"score vector has {vec.size} items, split has {n_items}")
        return vec.size, lambda x: np.broadcast_to(vec, (x.rows, vec.size))
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


def _rank_block(neg, fold_in, heldout, ks, ideal, discount):
    """NDCG and recall, each (len(ks), rows), of a block of users ranked on
    ``neg``, their negated scores, whose fold-in items it overwrites;
    ``fold_in`` and ``heldout`` are the block's disjoint CSR rows."""
    held = np.zeros(neg.shape, dtype=bool)
    held[heldout.row_ids(), heldout.indices] = True
    # Fold-in items sort after every finite score. Past a user's unmasked
    # count the top-k holds fold-in items, which are never hits.
    neg[fold_in.row_ids(), fold_in.indices] = np.inf
    top = _top_k_rows(neg, discount.size)
    hits = np.take_along_axis(held, top, axis=1).astype(np.float64)
    gains = hits / discount
    capped = np.minimum.outer(ks, np.diff(heldout.indptr))
    ndcg = np.stack([gains[:, :k].sum(axis=1) for k in ks]) / ideal[capped]
    recall = np.stack([hits[:, :k].sum(axis=1) for k in ks]) / capped
    return ndcg, recall


def evaluate(users, scorer, ks, n_items=None, fingerprint="",
             keep_per_user=False):
    """Fold-in evaluation: infer latents from each user's fold-in items,
    score everything, mask the fold-in, and measure how well the heldout
    items rank. ``users`` is a list of (fold-in, heldout) vectors, and
    ``scorer`` is ModelParams or a static score vector, which is never
    written to. An item index outside [0, n_items) is a ``DataError``, as
    is a user whose fold-in and heldout items overlap; both are raised
    before anything is scored.

    The kept users' fold-in and heldout rows are built once, as two CSR
    matrices, and scored and ranked in blocks of ``RANK_BLOCK_ROWS`` rows,
    each with one exact partial top-k. Every per-user value equals what
    ``ndcg_at_k`` / ``recall_at_k`` give on the same scores.
    """
    ks = sorted(set(check_int("K", k, 1) for k in ks))
    if not ks:
        raise ConfigError("evaluate needs at least one K")
    n_items, score_block = _make_scorer(scorer, n_items)
    max_k = min(ks[-1], n_items)
    # The oracle's denominators: DCG of n straight hits, n = 0..max_k.
    ideal = np.array([_dcg(np.ones(n)) for n in range(max_k + 1)])
    discount = np.log2(np.arange(2.0, max_k + 2.0))

    kept = [u for u, (_, ho) in enumerate(users) if ho.item_indices.size > 0]
    n_skipped = len(users) - len(kept)
    if not kept:
        raise DataError("no evaluable users (all heldout sets empty)")
    fold_in = CSRMatrix.from_vectors([users[u][0] for u in kept], n_items)
    heldout = CSRMatrix.from_vectors([users[u][1] for u in kept], n_items)
    # Keys row * n_items + index are strictly increasing in each CSR.
    both = np.intersect1d(fold_in.row_ids() * n_items + fold_in.indices,
                          heldout.row_ids() * n_items + heldout.indices,
                          assume_unique=True)
    if both.size:
        raise DataError(f"user {kept[both[0] // n_items]}: "
                        "fold-in and heldout overlap")
    # One contiguous row per (metric, K), so each mean and standard error
    # sums the same values in the same order as a list would.
    values = {m: np.empty((len(ks), len(kept))) for m in METRIC_NAMES}
    # Each block's negated scores, written here rather than into the
    # scorer's array, which stays untouched.
    buf = np.empty((min(RANK_BLOCK_ROWS, len(kept)), n_items))

    for lo in range(0, len(kept), RANK_BLOCK_ROWS):
        block = np.arange(lo, min(lo + RANK_BLOCK_ROWS, len(kept)))
        x = fold_in.take_rows(block)
        neg = np.negative(score_block(x), out=buf[:x.rows])
        # min and max propagate NaN, so both are finite only when every
        # score is, and neither allocates a block-sized mask.
        if not (np.isfinite(neg.min()) and np.isfinite(neg.max())):
            raise NumericalError("scorer returned non-finite scores")
        cols = slice(lo, lo + x.rows)
        values["ndcg"][:, cols], values["recall"][:, cols] = _rank_block(
            neg, x, heldout.take_rows(block), ks, ideal, discount)

    per_user = []
    if keep_per_user:
        for i, u in enumerate(kept):
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
