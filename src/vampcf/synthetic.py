"""Seeded synthetic implicit-feedback data with clustered preferences.

The generator partitions the item set into equal-size blocks, one per
preference archetype. Each user belongs to one archetype (round-robin by
user number) and draws ``IN_BLOCK_FRACTION`` of their items from their own
block, where per-item popularity decays with the item's rank inside the
block at the rate ``DECAY``, and the rest uniformly from the other
blocks. The decay gives a global popularity ranking some signal while
leaving plenty of headroom for a model that identifies the user's
archetype, which is what end-to-end learning checks exploit.

``vampcf synthetic`` writes a ratings csv from the command line.
"""
import csv

import numpy as np

from .errors import ConfigError, check_int

IN_BLOCK_FRACTION = 0.85  # share of a user's items from their own block
DECAY = 0.8  # popularity inside a block falls as 1 / (rank + 3) ** DECAY
RATING = 5.0  # the rating written for every interaction


def archetype_interactions(n_users=1200, n_items=300, n_archetypes=3, seed=0,
                           min_items=15, max_items=40):
    """Generate (user_id, item_id tuple) pairs in ingest's output format.

    Item ids are zero-padded so lexicographic order matches block layout.
    Deterministic given the arguments; sizes it cannot honour raise ConfigError.
    """
    n_users, n_items, n_archetypes, min_items, max_items = (
        check_int(name, value, 1) for name, value in (
            ("n_users", n_users), ("n_items", n_items),
            ("n_archetypes", n_archetypes), ("min_items", min_items),
            ("max_items", max_items)))
    seed = check_int("seed", seed, 0)
    if n_archetypes > n_items or n_items % n_archetypes:
        raise ConfigError(f"cannot give {n_users} users {n_items} items in "
                          f"{n_archetypes} equal non-empty archetype blocks")
    if min_items > max_items:
        raise ConfigError(f"min_items {min_items} exceeds max_items {max_items}")
    block = n_items // n_archetypes
    most_in = max(1, round(IN_BLOCK_FRACTION * max_items))
    if most_in > block:
        raise ConfigError(f"users of up to {max_items} items draw up to {most_in} "
                          f"from their own block, which has {block} items")
    rng = np.random.default_rng(seed)
    width = len(str(n_items - 1))
    item_ids = [f"i{j:0{width}d}" for j in range(n_items)]

    # per-block popularity profile, shared by all blocks
    ranks = np.arange(block, dtype=np.float64)
    weights = 1.0 / (ranks + 3.0) ** DECAY
    weights /= weights.sum()

    data = []
    uwidth = len(str(n_users - 1))
    for u in range(n_users):
        a = u % n_archetypes
        own = np.arange(a * block, (a + 1) * block)
        other = np.concatenate([np.arange(0, a * block),
                                np.arange((a + 1) * block, n_items)])
        n_u = int(rng.integers(min_items, max_items + 1))
        n_in = max(1, round(IN_BLOCK_FRACTION * n_u))
        n_out = min(n_u - n_in, other.size)
        picked_in = rng.choice(own, size=n_in, replace=False, p=weights)
        picked_out = rng.choice(other, size=n_out, replace=False)
        items = tuple(sorted(item_ids[j] for j in np.concatenate([picked_in, picked_out])))
        data.append((f"u{u:0{uwidth}d}", items))
    return data


def write_ratings_csv(data, path):
    """Emit generator output as a ``user_id,item_id,rating`` file, every
    rating ``RATING``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "item_id", "rating"])
        for user_id, items in data:
            for item_id in items:
                w.writerow([user_id, item_id, RATING])

