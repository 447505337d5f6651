"""Ranking metric oracles.

The brute-force reference below is built straight from the definitions
(sort by score with index tie-break, count discounted hits) with no shared
code, so agreement is meaningful.
"""
import math
import tracemalloc

import numpy as np
import pytest

from vampcf import metrics
from vampcf.autodiff import Matrix
from vampcf.data import CSRMatrix, InteractionVector, to_dense_batch
from vampcf.errors import ConfigError, DataError, NumericalError
from vampcf.metrics import (MetricReport, evaluate, ndcg_at_k,
                            popularity_baseline, ranked_candidates, recall_at_k)
from vampcf.model import ModelConfig, empty_params, init_params, score_items


def brute_rank(scores, mask):
    return sorted((i for i in range(len(scores)) if i not in mask),
                  key=lambda i: (-scores[i], i))


def brute_ndcg(scores, heldout, mask, k):
    top = brute_rank(scores, mask)[:k]
    dcg = sum(1.0 / math.log2(r + 2) for r, item in enumerate(top) if item in heldout)
    idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(heldout))))
    return dcg / idcg


def brute_recall(scores, heldout, mask, k):
    top = brute_rank(scores, mask)[:k]
    return len(set(top) & set(heldout)) / min(k, len(heldout))


def iv(items):
    return InteractionVector(np.asarray(sorted(items), dtype=np.int64))


def model_scoring(monkeypatch, n_items, scores_of):
    """A model over ``n_items`` items that evaluate() scores as
    ``scores_of(x)`` for each fold-in CSR block ``x``: ``metrics.score_items``
    is replaced, so none of the model runs."""
    monkeypatch.setattr(metrics, "score_items",
                        lambda x, params: Matrix(scores_of(x)))
    return empty_params(ModelConfig(n_items=n_items, hidden=1, d_z1=1, d_z2=1))


class TestHandValues:
    def test_ndcg_ranks_one_and_three(self):
        scores = [3.0, 2.0, 1.0, 0.0]
        got = ndcg_at_k(scores, heldout={0, 2}, mask=set(), k=3)
        expected = (1.0 + 0.5) / (1.0 + 1.0 / math.log2(3.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 6) == 0.919721

    def test_ndcg_perfect_ranking(self):
        scores = [5.0, 4.0, 3.0, 0.0, 0.0]
        assert ndcg_at_k(scores, {0, 1, 2}, set(), 3) == 1.0

    def test_ndcg_no_hits(self):
        scores = [5.0, 4.0, 0.0, 0.0]
        assert ndcg_at_k(scores, {2, 3}, set(), 2) == 0.0

    def test_recall_single_hit_of_three(self):
        scores = [5.0, 0.0, 0.0, 4.0, 3.0]
        got = recall_at_k(scores, heldout={0, 1, 2}, mask=set(), k=2)
        assert got == 0.5

    def test_recall_all_retrieved(self):
        scores = [5.0, 4.0, 0.0, 0.0]
        assert recall_at_k(scores, {0, 1}, set(), 4) == 1.0

    def test_recall_none_retrieved(self):
        scores = [0.0, 0.0, 5.0, 4.0]
        assert recall_at_k(scores, {0, 1}, set(), 2) == 0.0


class TestRankingRules:
    def test_ties_break_by_ascending_index(self):
        order = ranked_candidates([1.0, 1.0, 2.0, 1.0], mask=set())
        assert list(order) == [2, 0, 1, 3]

    def test_masked_items_never_ranked(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(3, 15))
            scores = rng.normal(size=m)
            mask = set(int(i) for i in rng.choice(m, size=rng.integers(0, m), replace=False))
            order = ranked_candidates(scores, mask)
            assert len(order) == m - len(mask)
            assert not (set(order.tolist()) & mask)

    def test_nan_scores_never_surface_masked_items(self):
        order = ranked_candidates([0.5, np.nan, 0.2, np.nan, 0.9], [0, 2])
        assert list(order) == [4, 1, 3]

    def test_minus_inf_ties_never_surface_masked_items(self):
        order = ranked_candidates([-np.inf, 0.3, -np.inf, 0.1], [1])
        assert list(order) == [3, 0, 2]

    def test_duplicate_mask_entries_drop_one_item(self):
        assert list(ranked_candidates([0.1, 0.2, 0.3], [0, 0])) == [2, 1]

    def test_all_items_masked_gives_empty_ranking(self):
        assert ranked_candidates([1.0, 2.0], {0, 1}).size == 0

    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            ndcg_at_k([1.0, 2.0, 3.0], heldout={0, 1}, mask={1}, k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            recall_at_k([1.0, 2.0], {0}, set(), 0)

    def test_empty_heldout_is_skip_signal(self):
        assert ndcg_at_k([1.0, 2.0], set(), set(), 2) is None
        assert recall_at_k([1.0, 2.0], set(), set(), 2) is None


class TestOracleEquivalence:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(3, 21))
            # half-integer scores force plenty of ties
            scores = rng.integers(0, 4, size=m) * 0.5
            perm = rng.permutation(m)
            n_mask = int(rng.integers(0, m - 1))
            mask = set(int(i) for i in perm[:n_mask])
            rest = perm[n_mask:]
            n_h = int(rng.integers(1, rest.size + 1))
            heldout = set(int(i) for i in rest[:n_h])
            k = int(rng.integers(1, 11))
            assert abs(ndcg_at_k(scores, heldout, mask, k)
                       - brute_ndcg(scores, heldout, mask, k)) < 1e-12
            assert abs(recall_at_k(scores, heldout, mask, k)
                       - brute_recall(scores, heldout, mask, k)) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            scores = rng.normal(size=12)
            heldout, mask, k = {1, 5, 9}, {0, 3}, int(rng.integers(1, 8))
            scaled = 2.0 * scores + 7.0
            assert ndcg_at_k(scores, heldout, mask, k) == \
                ndcg_at_k(scaled, heldout, mask, k)
            assert recall_at_k(scores, heldout, mask, k) == \
                recall_at_k(scaled, heldout, mask, k)

    def test_recall_nondecreasing_in_k(self):
        # monotone only once K reaches the heldout size: below that the
        # min(K, |heldout|) denominator grows with K and the value can dip
        rng = np.random.default_rng(9)
        scores = rng.normal(size=15)
        heldout, mask = {2, 6, 11}, {0, 1}
        vals = [recall_at_k(scores, heldout, mask, k) for k in range(3, 14)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_recall_can_dip_below_heldout_size(self):
        # hit at rank 1, nothing at rank 2: 1/1 then 1/2
        scores = [9.0, 8.0, 0.5, 0.4, 0.3]
        heldout = {0, 3, 4}
        assert recall_at_k(scores, heldout, set(), 1) == 1.0
        assert recall_at_k(scores, heldout, set(), 2) == 0.5

    def test_ndcg_at_heldout_size_perfect(self):
        scores = [9.0, 8.0, 7.0, 0.0, 0.0, 0.0]
        assert ndcg_at_k(scores, {0, 1, 2}, set(), 3) == 1.0


class TestPopularityBaseline:
    def test_counts_match_brute_tally(self):
        rng = np.random.default_rng(10)
        users = []
        m = 12
        for _ in range(30):
            n = int(rng.integers(1, 6))
            users.append(iv(rng.choice(m, size=n, replace=False)))
        counts = popularity_baseline(users, m)
        tally = [sum(1 for u in users if i in set(u.item_indices.tolist()))
                 for i in range(m)]
        assert counts.tolist() == tally

    def test_universal_item_is_maximal(self):
        users = [iv([0, u + 1]) for u in range(5)]
        counts = popularity_baseline(users, 7)
        assert counts[0] == counts.max() == 5.0
        assert counts[6] == 0.0

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            popularity_baseline([], 5)

    @pytest.mark.parametrize("items", [[0, 7], [-1, 2]])
    def test_item_outside_vocabulary_rejected(self, items):
        with pytest.raises(DataError, match="out of range for 5 items"):
            popularity_baseline([iv([1, 3]), iv(items)], 5)


class TestEvaluate:
    def make_users(self, rng, n, m):
        users = []
        for _ in range(n):
            items = rng.choice(m, size=int(rng.integers(4, m - 1)), replace=False)
            cut = max(1, int(0.8 * items.size))
            if cut == items.size:
                cut -= 1
            users.append((iv(items[:cut]), iv(items[cut:])))
        return users

    def test_uniform_scores_match_brute_oracle(self, monkeypatch):
        rng = np.random.default_rng(11)
        users = self.make_users(rng, 25, 15)
        scorer = model_scoring(monkeypatch, 15, lambda x: np.zeros(x.shape))
        report = evaluate(users, scorer, ks=[3, 5], n_items=15, keep_per_user=True)
        per_user = {(u, metric, k): v for u, metric, k, v in report.per_user}
        for u, (fi, ho) in enumerate(users):
            scores = np.zeros(15)
            heldout = set(ho.item_indices.tolist())
            mask = set(fi.item_indices.tolist())
            for k in (3, 5):
                assert per_user[(u, "ndcg", k)] == \
                    pytest.approx(brute_ndcg(scores, heldout, mask, k), abs=1e-12)
                assert per_user[(u, "recall", k)] == \
                    pytest.approx(brute_recall(scores, heldout, mask, k), abs=1e-12)

    def test_duplicate_user_leaves_mean_unchanged(self):
        rng = np.random.default_rng(12)
        users = self.make_users(rng, 1, 10)
        vec = rng.normal(size=10)
        single = evaluate(users, vec, ks=[3])
        double = evaluate(users * 2, vec, ks=[3])
        assert double.row("ndcg", 3).mean == single.row("ndcg", 3).mean
        assert double.row("ndcg", 3).n_users == 2

    def test_default_k_set_gives_six_rows(self):
        rng = np.random.default_rng(13)
        users = self.make_users(rng, 8, 30)
        report = evaluate(users, rng.normal(size=30), ks=[20, 50, 100])
        assert len(report.rows) == 6
        labels = {r.label for r in report.rows}
        assert {"NDCG@100", "RECALL@50", "RECALL@20"} <= labels

    def test_empty_heldout_users_skipped_and_counted(self):
        rng = np.random.default_rng(14)
        users = self.make_users(rng, 4, 10)
        users.append((iv([1, 2, 3]), iv([])))
        report = evaluate(users, rng.normal(size=10), ks=[3])
        assert report.n_skipped == 1
        assert report.n_users == 4

    def test_all_users_degenerate_rejected(self):
        users = [(iv([1, 2]), iv([]))]
        with pytest.raises(DataError):
            evaluate(users, np.zeros(5), ks=[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        users = [(iv([1, 2]), iv([3]))]
        vec = np.array([0.1, 0.2, bad, 0.4, 0.5])
        with pytest.raises(NumericalError):
            evaluate(users, vec, ks=[2])

    def test_determinism(self):
        rng = np.random.default_rng(15)
        users = self.make_users(rng, 10, 12)
        vec = rng.normal(size=12)
        a = evaluate(users, vec, ks=[2, 4], fingerprint="abc")
        b = evaluate(users, vec, ks=[2, 4], fingerprint="abc")
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_standard_error_formula(self):
        rng = np.random.default_rng(16)
        users = self.make_users(rng, 20, 12)
        vec = rng.normal(size=12)
        report = evaluate(users, vec, ks=[3], keep_per_user=True)
        vals = np.array([v for _, m, _, v in report.per_user if m == "ndcg"])
        row = report.row("ndcg", 3)
        assert row.se == pytest.approx(vals.std(ddof=1) / math.sqrt(vals.size))
        assert 0.0 <= row.mean <= 1.0


SCORER_KINDS = ["vector", "model"]


def spy_score_items(monkeypatch):
    """The list of batches that evaluate() hands the model from now on."""
    batches = []
    real = metrics.score_items

    def spy(x, params):
        batches.append(x)
        return real(x, params)

    monkeypatch.setattr(metrics, "score_items", spy)
    return batches


def counting_scorer(kind, monkeypatch, n_items=6):
    """A scorer of the given kind over ``n_items`` items, and the list that
    records each batch it scores (a score vector is never called)."""
    if kind == "vector":
        return np.arange(float(n_items)), []
    cfg = ModelConfig(n_items=n_items, hidden=4, d_z1=2, d_z2=2)
    return init_params(cfg, np.random.default_rng(0)), spy_score_items(monkeypatch)


class TestBatchedEvaluate:
    """evaluate() ranks whole blocks of users at once; every per-user value
    must equal the per-user oracle on the same scores."""

    def tie_heavy_case(self, seed, n_users, m):
        rng = np.random.default_rng(seed)
        # Few distinct integer scores, so ties straddle every cut-off.
        scores = rng.integers(0, 4, size=(n_users, m)).astype(np.float64)
        users = []
        for _ in range(n_users):
            # Some users leave fewer unmasked items than the largest K.
            n_fold = int(rng.integers(0, m - 1))
            perm = rng.permutation(m)
            n_held = int(rng.integers(1, m - n_fold + 1))
            users.append((iv(perm[:n_fold]),
                          iv(perm[n_fold:n_fold + n_held])))
        return users, scores

    def assert_matches_oracle(self, monkeypatch, users, scores, ks, scorer=None,
                              **kw):
        """``scorer`` defaults to a model that scores the users' rows of
        ``scores`` in order."""
        m = scores.shape[1]
        rows = iter(range(len(users)))
        if scorer is None:
            scorer = model_scoring(monkeypatch, m, lambda x: scores[
                [next(rows) for _ in range(x.rows)]])
        report = evaluate(users, scorer, ks=ks, n_items=m, keep_per_user=True, **kw)
        oracle = {"ndcg": ndcg_at_k, "recall": recall_at_k}
        assert len(report.per_user) == len(users) * len(ks) * 2
        worst = 0.0
        for u, metric, k, value in report.per_user:
            fi, ho = users[u]
            ref = oracle[metric](scores[u], ho.item_indices, fi.item_indices, k)
            worst = max(worst, abs(value - ref))
        assert worst <= 1e-12
        for row in report.rows:
            vals = [v for _, me, k, v in report.per_user
                    if me == row.metric and k == row.k]
            assert row.mean == pytest.approx(np.mean(vals), abs=1e-12)
        return report

    def test_ties_across_batches_and_row_blocks(self, monkeypatch):
        # 600 users: blocks of 512 + 88.
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 512)
        users, scores = self.tie_heavy_case(21, 600, 30)
        self.assert_matches_oracle(monkeypatch, users, scores, ks=[1, 3, 7, 25, 40])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_in_the_last_partial_block_rejected(
            self, bad, monkeypatch):
        # 600 users: blocks of 512 + 88, and one bad score in user 590.
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 512)
        users, scores = self.tie_heavy_case(21, 600, 30)
        scores[590, 4] = bad
        with pytest.raises(NumericalError):
            self.assert_matches_oracle(monkeypatch, users, scores, ks=[5])

    def test_consecutive_calls_with_different_item_counts(self, monkeypatch):
        # Each call ranks in its own buffer, sized to its own item count.
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 16)
        for seed, m in [(31, 30), (32, 12), (33, 30)]:
            users, scores = self.tie_heavy_case(seed, 40, m)
            self.assert_matches_oracle(monkeypatch, users, scores, ks=[1, 5, 20])

    def test_largest_k_above_item_count(self, monkeypatch):
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 16)
        users, scores = self.tie_heavy_case(22, 40, 9)
        self.assert_matches_oracle(monkeypatch, users, scores, ks=[2, 9, 50])

    def test_all_scores_tied(self, monkeypatch):
        users, _ = self.tie_heavy_case(23, 50, 20)
        self.assert_matches_oracle(monkeypatch, users, np.zeros((50, 20)),
                                   ks=[1, 5, 10])

    def test_distinct_scores(self, monkeypatch):
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 32)
        users, _ = self.tie_heavy_case(24, 70, 25)
        scores = np.random.default_rng(25).normal(size=(70, 25))
        self.assert_matches_oracle(monkeypatch, users, scores, ks=[3, 10])

    @pytest.mark.parametrize("hierarchy", ["flat", "two_level"])
    def test_model_on_csr_matches_oracle_on_dense_batch(self, hierarchy, monkeypatch):
        # evaluate() hands the model CSR fold-in blocks; the oracle ranks
        # scores of the same users from one dense batch.
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 32)
        users, _ = self.tie_heavy_case(28, 90, 30)
        cfg = ModelConfig(n_items=30, prior="vamp", hierarchy=hierarchy,
                          hidden=8, d_z1=4, d_z2=4, n_pseudo=3)
        params = init_params(cfg, np.random.default_rng(29))
        scores = score_items(to_dense_batch([fi for fi, _ in users], 30), params).data
        self.assert_matches_oracle(monkeypatch, users, scores, ks=[1, 5, 20],
                                   scorer=params)

    def test_model_scored_in_csr_blocks_of_rank_block_rows(self, monkeypatch):
        users, _ = self.tie_heavy_case(30, 600, 30)
        params = init_params(ModelConfig(n_items=30, hidden=8, d_z1=4, d_z2=4),
                             np.random.default_rng(31))
        batches = spy_score_items(monkeypatch)
        evaluate(users, params, ks=[5])
        assert [x.rows for x in batches] == [256, 256, 88]
        assert all(isinstance(x, CSRMatrix) for x in batches)

    def test_rows_are_built_once_per_call(self, monkeypatch):
        # 600 users in 3 blocks: one fold-in and one heldout matrix, each
        # sliced per block.
        users, scores = self.tie_heavy_case(30, 600, 30)
        built = []
        real = CSRMatrix.from_vectors

        def spy(cls, vectors, n_items):
            built.append(len(vectors))
            return real(vectors, n_items)

        monkeypatch.setattr(CSRMatrix, "from_vectors", classmethod(spy))
        self.assert_matches_oracle(monkeypatch, users, scores, ks=[5])
        assert built == [600, 600]

    def test_scorer_output_left_unchanged(self, monkeypatch):
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 8)
        users, scores = self.tie_heavy_case(26, 30, 12)
        returned = []

        def scores_of(x):
            out = scores[:x.rows].copy()
            returned.append((out, out.copy()))
            return out

        evaluate(users, model_scoring(monkeypatch, 12, scores_of), ks=[3, 5])
        assert len(returned) == 4
        for out, before in returned:
            assert np.array_equal(out, before)

    def test_popularity_vector_left_unchanged(self):
        users, scores = self.tie_heavy_case(27, 20, 12)
        vec = scores[0].copy()
        evaluate(users, vec, ks=[4])
        assert np.array_equal(vec, scores[0])

    def test_score_array_must_be_one_row(self):
        # Ravelled, the two-row array would rank 8 "items" for 2 users.
        users = [(iv([0]), iv([1, 3])), (iv([2]), iv([3]))]
        vec = np.arange(4.0)
        ndcg = evaluate(users, vec, ks=[2]).row("ndcg", 2).mean
        assert evaluate(users, vec[None], ks=[2]).row("ndcg", 2).mean == ndcg
        for bad, shape in [(np.tile(vec, (2, 1)), r"\(2, 4\)"),
                           (vec[:, None], r"\(4, 1\)"),
                           (vec.reshape(1, 2, 2), r"\(1, 2, 2\)")]:
            with pytest.raises(ConfigError, match=f"got {shape}"):
                evaluate(users, bad, ks=[2])

    def test_overlap_rejected(self):
        users = [(iv([0, 1]), iv([2])), (iv([1, 3]), iv([3, 4]))]
        with pytest.raises(DataError, match="user 1"):
            evaluate(users, np.arange(6.0), ks=[2])

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_overlap_in_a_late_block_rejected_before_scoring(self, kind, monkeypatch):
        # 600 good users fill two blocks and most of a third; user 600
        # shares item 3 between fold-in and heldout.
        users = [(iv([0, 1]), iv([2])) for _ in range(600)]
        users.append((iv([1, 3]), iv([3, 4])))
        scorer, calls = counting_scorer(kind, monkeypatch)
        with pytest.raises(DataError, match="user 600: fold-in and heldout overlap"):
            evaluate(users, scorer, ks=[1], n_items=6)
        assert calls == []

    def test_heldout_index_out_of_range_rejected(self):
        users = [(iv([0, 1]), iv([2, 6]))]
        with pytest.raises(DataError, match="out of range"):
            evaluate(users, np.arange(6.0), ks=[2])

    # -1 would mask item 5 by wrapping around, and 6 would index past the row.
    @pytest.mark.parametrize("fold_in", [[-1], [6]])
    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_fold_in_index_out_of_range_rejected(self, kind, fold_in, monkeypatch):
        # The bad user sits in the second block: nothing is scored first.
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 1)
        users = [(iv([1]), iv([2])), (iv(fold_in), iv([4]))]
        scorer, calls = counting_scorer(kind, monkeypatch)
        with pytest.raises(DataError, match=f"item index {fold_in[0]} out of range"):
            evaluate(users, scorer, ks=[1], n_items=6)
        assert calls == []

    @pytest.mark.parametrize("heldout", [[-1], [6]])
    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_heldout_index_out_of_range_rejected_before_scoring(
            self, kind, heldout, monkeypatch):
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 1)
        users = [(iv([1]), iv([2])), (iv([3]), iv(heldout))]
        scorer, calls = counting_scorer(kind, monkeypatch)
        with pytest.raises(DataError, match=f"item index {heldout[0]} out of range"):
            evaluate(users, scorer, ks=[1], n_items=6)
        assert calls == []


# Every row built from user vectors, whoever builds it, is checked by
# data._check_item_range alone. -1 would mask item 5 by wrapping around,
# and 6 would index past the row.
@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("site", [
    "from_vectors", "to_dense_batch", "popularity_baseline", "vector-fold_in",
    "vector-heldout", "model-fold_in", "model-heldout"])
def test_out_of_range_index_is_one_data_error(site, bad, monkeypatch):
    vectors = [iv([1]), iv([bad])]
    build = {"from_vectors": CSRMatrix.from_vectors,
             "to_dense_batch": to_dense_batch,
             "popularity_baseline": popularity_baseline}
    scored = []
    if site in build:
        run = lambda: build[site](vectors, 6)
    else:
        # The bad user sits in the second block: nothing is scored first.
        kind, side = site.split("-")
        monkeypatch.setattr(metrics, "RANK_BLOCK_ROWS", 1)
        scorer, scored = counting_scorer(kind, monkeypatch)
        fold_in, heldout = (vectors[1], iv([4])) if side == "fold_in" \
            else (iv([3]), vectors[1])
        users = [(vectors[0], iv([2])), (fold_in, heldout)]
        run = lambda: evaluate(users, scorer, ks=[1], n_items=6)
    with pytest.raises(DataError) as raised:
        run()
    assert str(raised.value) == f"item index {bad} out of range for 6 items"
    assert scored == []


def test_evaluate_holds_only_a_few_blocks_of_scores(monkeypatch):
    # 1,500 users at 20k items: one batch of all their scores would be
    # 240 MB. Each block of RANK_BLOCK_ROWS users is scored and ranked
    # alone, so the peak is a few block-sized arrays (41 MB each here)
    # whatever the user count.
    n_users, n_items = 1500, 20000
    rng = np.random.default_rng(0)

    def fold():
        fold_in, heldout = np.split(rng.choice(n_items, 12, replace=False), [8])
        return iv(fold_in), iv(heldout)

    users = [fold() for _ in range(n_users)]
    scorer = model_scoring(monkeypatch, n_items, lambda x: x.toarray() + 1.0)
    tracemalloc.start()
    try:
        report = evaluate(users, scorer, ks=[100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_users == n_users
    block_bytes = metrics.RANK_BLOCK_ROWS * n_items * 8
    assert peak < 5 * block_bytes, f"peak {peak / 2**20:.0f} MB"
