"""Command-line entry points: prepare, train, eval, recommend, gradcheck.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure. Artifacts are written atomically (.partial suffix
until complete) so a failed run never leaves a plausible-looking output.
"""
import argparse
import csv
import hashlib
import json
import os
import shutil
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .data import (CSRMatrix, InteractionVector, ingest, load_split, save_split,
                   split, vocab_fingerprint)
from .errors import ConfigError, DataError, NumericalError, VampCFError
from .gridcheck import TOLERANCE, run_grid
from .metrics import evaluate, ranked_candidates
from .model import score_items
from .training import train


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _write_atomic(path, text):
    tmp = path + ".partial"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _config_fingerprint(model_config):
    blob = json.dumps(model_config.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def cmd_prepare(args):
    data = ingest(args.ratings, min_rating=args.min_rating,
                  min_items=args.min_items)
    ds = split(data, n_heldout_users=args.heldout_users,
               fold_in_fraction=args.fold_in_fraction, seed=args.seed)
    out = args.out.rstrip("/")
    tmp = out + ".partial"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    save_split(ds, tmp)
    if os.path.exists(out):
        shutil.rmtree(out)
    os.replace(tmp, out)
    n_train = len(ds.train_users)
    n_interactions = int(sum(u.item_indices.size for u in ds.train_users))
    print(f"split written to {out}")
    print(f"users: {n_train} train / {len(ds.validation_users)} validation "
          f"/ {len(ds.test_users)} test")
    print(f"items: {ds.n_items}  train interactions: {n_interactions}")
    print(f"discarded: {ds.diagnostics['discarded_validation']} validation, "
          f"{ds.diagnostics['discarded_test']} test")
    print(f"vocab fingerprint: {vocab_fingerprint(ds.vocab)}")
    return 0


def _resolve_split_dir(args, cfg):
    split_dir = getattr(args, "data", None) or cfg.data.get("split_dir")
    if not split_dir:
        raise ConfigError("no split directory: pass --data or set data.split_dir")
    return split_dir


def cmd_train(args):
    cfg = load_config(args.config, args.set)
    split_dir = _resolve_split_dir(args, cfg)
    ds = load_split(split_dir)
    model_cfg = cfg.model_config(n_items=ds.n_items)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.jsonl")

    def progress(record):
        print(f"epoch {record['epoch']:3d}  elbo {record['mean_elbo']:10.3f}  "
              f"beta {record['beta']:.3f}  val {record['val_metric']:.5f}")

    result = train(ds, model_cfg, cfg.train, log_path=log_path,
                   progress=progress if not args.quiet else None)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    save_checkpoint(ckpt_path, result.params, extra={
        "vocab_fingerprint": vocab_fingerprint(ds.vocab),
        "config_fingerprint": _config_fingerprint(model_cfg),
        "best_epoch": result.best_epoch,
        "best_metric": result.best_metric,
        "eval_metric": cfg.train.eval_metric,
        "train_config": cfg.train.to_dict(),
    })
    print(f"checkpoint written to {ckpt_path}")
    print(f"best {cfg.train.eval_metric} = {result.best_metric:.5f} "
          f"at epoch {result.best_epoch} ({result.stopped})")
    if result.stopped.startswith("numerical"):
        print(f"training aborted early: {result.stopped}", file=sys.stderr)
        return 3
    return 0


def cmd_eval(args):
    params, extra = load_checkpoint(args.checkpoint)
    cfg = load_config(args.config, args.set) if args.config or args.set \
        else None
    split_dir = args.data or (cfg.data.get("split_dir") if cfg else None)
    if not split_dir:
        raise ConfigError("no split directory: pass --data or set data.split_dir")
    ds = load_split(split_dir)
    fp = vocab_fingerprint(ds.vocab)
    stored = extra.get("vocab_fingerprint")
    if stored is not None and stored != fp:
        raise ConfigError(
            f"vocabulary mismatch: checkpoint was trained against {stored}, "
            f"split directory has {fp}")
    users = ds.test_users if args.split == "test" else ds.validation_users
    ks = [int(k) for k in args.ks.split(",") if k.strip()]
    report = evaluate(users, params, ks=ks,
                      fingerprint=f"{fp}:{_config_fingerprint(params.config)}",
                      keep_per_user=bool(args.csv))
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"metrics_{args.split}")
    _write_atomic(base + ".json", report.to_json())
    _write_atomic(base + ".txt", report.to_text())
    if args.csv:
        report.write_csv(args.csv)
    print(report.to_text(), end="")
    print(f"report written to {base}.json")
    return 0


def _read_vocab(split_dir):
    path = os.path.join(split_dir, "vocab.csv")
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            next(reader)  # header
            return [row[1] for row in reader]
    except OSError as e:
        raise DataError(f"cannot read vocabulary {path}: {e}") from e


def cmd_recommend(args):
    params, extra = load_checkpoint(args.checkpoint)
    vocab = _read_vocab(args.data)
    fp = vocab_fingerprint(vocab)
    stored = extra.get("vocab_fingerprint")
    if stored is not None and stored != fp:
        raise ConfigError(
            f"vocabulary mismatch: checkpoint was trained against {stored}, "
            f"split directory has {fp}")
    index_of = {item: i for i, item in enumerate(vocab)}
    known, unknown = [], []
    for item in args.items.split(","):
        item = item.strip()
        if not item:
            continue
        (known if item in index_of else unknown).append(item)
    for item in unknown:
        print(f"warning: unknown item id {item!r} dropped", file=sys.stderr)
    if not known:
        raise DataError("no usable items in the interaction list")
    mask = sorted(index_of[i] for i in set(known))
    x = CSRMatrix.from_vectors([InteractionVector(0, mask)], len(vocab))
    scores = score_items(x, params).data[0]
    top = ranked_candidates(scores, set(mask))[:args.top_n]
    for idx in top:
        print(f"{vocab[idx]}\t{scores[idx]:.6f}")
    return 0


def cmd_gradcheck(args):
    results = run_grid(seed=args.seed, tolerance=args.tolerance,
                       corrupt_cell=args.corrupt_cell)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:45s} max_rel_err {r.max_rel_err:.3e}  {status}")
    if failed:
        print(f"gradient check failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return 3
    print(f"all {len(results)} grid cells within {args.tolerance:g}")
    return 0


def build_parser():
    p = _Parser(prog="vampcf",
                description="Variational autoencoders with mixture-of-posteriors "
                            "priors for implicit-feedback recommendation.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="binarize ratings and write a split")
    sp.add_argument("--ratings", required=True, help="ratings csv path")
    sp.add_argument("--min-rating", type=float, default=4.0)
    sp.add_argument("--min-items", type=int, default=5)
    sp.add_argument("--heldout-users", type=int, required=True)
    sp.add_argument("--fold-in-fraction", type=float, default=0.8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="split directory to create")
    sp.set_defaults(func=cmd_prepare)

    st = sub.add_parser("train", help="train a model on a prepared split")
    st.add_argument("--config", default=None, help="config file path")
    st.add_argument("--set", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="override a config value")
    st.add_argument("--data", default=None, help="split directory")
    st.add_argument("--out", default="run", help="output directory")
    st.add_argument("--quiet", action="store_true")
    st.set_defaults(func=cmd_train)

    se = sub.add_parser("eval", help="evaluate a checkpoint on heldout users")
    se.add_argument("--checkpoint", required=True)
    se.add_argument("--data", default=None, help="split directory")
    se.add_argument("--config", default=None)
    se.add_argument("--set", action="append", default=[])
    se.add_argument("--split", choices=("test", "validation"), default="test")
    se.add_argument("--ks", default="20,50,100")
    se.add_argument("--out", default=None, help="report directory")
    se.add_argument("--csv", default=None, help="per-user csv path")
    se.set_defaults(func=cmd_eval)

    sr = sub.add_parser("recommend", help="rank unseen items for a history")
    sr.add_argument("--checkpoint", required=True)
    sr.add_argument("--data", required=True, help="split directory (for vocab)")
    sr.add_argument("--items", required=True,
                    help="comma-separated consumed item ids")
    sr.add_argument("--top-n", type=int, default=10)
    sr.set_defaults(func=cmd_recommend)

    sg = sub.add_parser("gradcheck",
                        help="finite-difference check over the model grid")
    sg.add_argument("--seed", type=int, default=0)
    sg.add_argument("--tolerance", type=float, default=TOLERANCE)
    sg.add_argument("--corrupt-cell", default=None,
                    help="test hook: corrupt this cell's gradients")
    sg.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except VampCFError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
