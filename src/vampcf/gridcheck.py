"""Finite-difference verification of ELBO gradients over the model grid.

Builds a tiny model for every valid configuration cell, freezes the
sampling noise by evaluating the objective on copies of one generator,
and compares tape gradients of -ELBO at beta 1 against central
differences for every parameter entry (pseudo-inputs included). A cell
passes when its maximum relative error is below ``TOLERANCE``.
"""
import copy
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import CSRMatrix
from .errors import ConfigError, check_int
from .model import (HIERARCHIES, LIKELIHOODS, PRIORS, ModelConfig, elbo,
                    init_params)

TINY = {"n_items": 30, "hidden": 16, "d": 4, "n_pseudo": 3}
TOLERANCE = 1e-4


def grid_cells():
    """All valid (name, config kwargs) cells of the model grid: the
    combinations that ModelConfig accepts, 12 of the 16."""
    cells = []
    for hierarchy, prior, gated, likelihood in itertools.product(
            HIERARCHIES, PRIORS, (True, False), LIKELIHOODS):
        cell = {"prior": prior, "hierarchy": hierarchy,
                "gated": gated, "likelihood": likelihood}
        try:
            tiny_config(**cell)
        except ConfigError:
            continue
        name = "-".join([
            hierarchy, prior, "gated" if gated else "ungated", likelihood])
        cells.append((name, cell))
    return cells


def tiny_config(depth=1, **cell):
    return ModelConfig(
        n_items=TINY["n_items"], hidden=TINY["hidden"], depth=depth,
        d_z1=TINY["d"], d_z2=TINY["d"], n_pseudo=TINY["n_pseudo"], **cell)


def _tiny_batch(rng, n_users, n_items):
    x = (rng.random((n_users, n_items)) < 0.25).astype(np.float64)
    for r in range(n_users):
        if x[r].sum() == 0:
            x[r, rng.integers(n_items)] = 1.0
    return CSRMatrix.from_dense(x)


def check_cell(cell_kwargs, seed=0, corrupt=False):
    """Max relative gradient error of -ELBO at beta 1 for one grid cell.

    ``corrupt`` injects a tape-only term into the objective so analytic
    gradients disagree with finite differences; a negative control for
    the checker itself.
    """
    seed = check_int("seed", seed, 0)
    cfg = tiny_config(**cell_kwargs)
    rng = np.random.default_rng(seed)
    x_train = _tiny_batch(rng, 8, cfg.n_items)
    params = init_params(cfg, rng, train_matrix=x_train)
    x = _tiny_batch(rng, 4, cfg.n_items)

    def objective():
        # Each evaluation draws from a fresh copy of the generator as it
        # stands here, so every evaluation sees the same noise.
        res = elbo(x, params, 1.0, copy.deepcopy(rng))
        out = ad.scale(res.elbo, -1.0)
        if corrupt and ad._ACTIVE is not None:
            out = ad.add(out, ad.scale(ad.sum_all(params.head_out.W), 0.01))
        return out

    return ad.grad_check(objective, list(params.named_parameters().values()))


@dataclass
class CellResult:
    name: str
    max_rel_err: float
    passed: bool


def run_grid(seed=0, corrupt_cell=None):
    """Gradient-check every grid cell against ``TOLERANCE``; returns one
    CellResult per cell."""
    cells = grid_cells()
    if corrupt_cell is not None and corrupt_cell not in dict(cells):
        raise ConfigError(f"unknown grid cell {corrupt_cell!r}")
    results = []
    for name, kwargs in cells:
        err = check_cell(kwargs, seed=seed, corrupt=(name == corrupt_cell))
        results.append(CellResult(name=name, max_rel_err=err, passed=err < TOLERANCE))
    return results
