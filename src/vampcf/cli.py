"""The vampcf commands: synthetic, prepare, train, eval, recommend, gradcheck.

Exit codes: 0 success, 1 usage or configuration error or an output that
cannot be written, 2 data error, 3 numerical failure. Artifacts are
written atomically (.partial suffix until complete, removed when the write
fails) so a failed run never leaves a plausible-looking output.
"""
import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import load_config
from .data import (CSRMatrix, InteractionVector, ingest, load_split, read_heldout_users,
                   read_vocab, save_split, split, vocab_fingerprint)
from .errors import ConfigError, DataError, NumericalError, VampCFError
from .gridcheck import TOLERANCE, run_grid
from .metrics import evaluate, ranked_candidates
from .model import score_items
from .synthetic import archetype_interactions, write_ratings_csv
from .training import train


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _seed(text):
    """A ``--seed`` value: an integer >= 0, as numpy's generators need."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _write_text(path, text):
    write_atomic(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))


def _config_fingerprint(model_config):
    blob = json.dumps(model_config.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _checked_vocab_fingerprint(extra, vocab):
    """The fingerprint of ``vocab``, which must match the one in the
    checkpoint header ``extra`` when the header carries one."""
    fp = vocab_fingerprint(vocab)
    stored = extra.get("vocab_fingerprint")
    if stored is not None and stored != fp:
        raise ConfigError(
            f"vocabulary mismatch: checkpoint was trained against {stored}, "
            f"split directory has {fp}")
    return fp


def cmd_synthetic(args):
    data = archetype_interactions(args.users, args.items, args.archetypes, args.seed)
    write_atomic(args.out, lambda tmp: write_ratings_csv(data, tmp))
    n_inter = sum(len(items) for _, items in data)
    print(f"wrote {args.out}: {args.users} users, {args.items} items, "
          f"{n_inter} interactions")
    return 0


def cmd_prepare(args):
    data = ingest(args.ratings, min_rating=args.min_rating,
                  min_items=args.min_items)
    ds = split(data, n_heldout_users=args.heldout_users, seed=args.seed)
    out = args.out.rstrip("/")

    def write(tmp):
        save_split(ds, tmp)
        if os.path.exists(out):
            shutil.rmtree(out)

    write_atomic(out, write)
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


def cmd_train(args):
    cfg = load_config(args.config, args.set)
    ds = load_split(args.data)
    model_cfg = cfg.model_config(n_items=ds.n_items)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "train_log.jsonl"), "w",
              encoding="utf-8") as log:
        def progress(record):
            log.write(json.dumps(record, sort_keys=True) + "\n")
            log.flush()
            if not args.quiet:
                print(f"epoch {record['epoch']:3d}  elbo {record['mean_elbo']:10.3f}  "
                      f"beta {record['beta']:.3f}  val {record['val_metric']:.5f}")

        result = train(ds, model_cfg, cfg.train, progress=progress)
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


def _parse_ks(text):
    ks = []
    for k in map(str.strip, text.split(",")):
        if k:
            try:
                ks.append(int(k))
            except ValueError:
                raise ConfigError(f"--ks: K {k!r} is not an integer") from None
    return ks


def cmd_eval(args):
    ks = _parse_ks(args.ks)
    params, extra = load_checkpoint(args.checkpoint)
    vocab = read_vocab(args.data)
    fp = _checked_vocab_fingerprint(extra, vocab)
    users = read_heldout_users(args.data, args.split, len(vocab))
    report = evaluate(users, params, ks=ks,
                      fingerprint=f"{fp}:{_config_fingerprint(params.config)}",
                      keep_per_user=bool(args.csv))
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"metrics_{args.split}")
    _write_text(base + ".json", report.to_json())
    _write_text(base + ".txt", report.to_text())
    if args.csv:
        write_atomic(args.csv, report.write_csv)
    print(report.to_text(), end="")
    print(f"report written to {base}.json")
    return 0


def cmd_recommend(args):
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be at least 1, got {args.top_n}")
    params, extra = load_checkpoint(args.checkpoint)
    vocab = read_vocab(args.data)
    _checked_vocab_fingerprint(extra, vocab)
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
    x = CSRMatrix.from_vectors([InteractionVector(mask)], len(vocab))
    scores = score_items(x, params).data[0]
    top = ranked_candidates(scores, set(mask))[:args.top_n]
    for idx in top:
        print(f"{vocab[idx]}\t{scores[idx]:.6f}")
    return 0


def cmd_gradcheck(args):
    results = run_grid(seed=args.seed, corrupt_cell=args.corrupt_cell)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:45s} max_rel_err {r.max_rel_err:.3e}  {status}")
    if failed:
        print(f"gradient check failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return 3
    print(f"all {len(results)} grid cells within {TOLERANCE:g}")
    return 0


def build_parser():
    p = _Parser(prog="vampcf",
                description="Variational autoencoders with mixture-of-posteriors "
                            "priors for implicit-feedback recommendation.")
    sub = p.add_subparsers(dest="command", required=True)

    sy = sub.add_parser("synthetic",
                        help="write a seeded synthetic ratings csv")
    sy.add_argument("--users", type=int, default=1200)
    sy.add_argument("--items", type=int, default=300)
    sy.add_argument("--archetypes", type=int, default=3)
    sy.add_argument("--seed", type=_seed, default=0)
    sy.add_argument("--out", required=True, help="ratings csv to write")
    sy.set_defaults(func=cmd_synthetic)

    sp = sub.add_parser("prepare", help="binarize ratings and write a split")
    sp.add_argument("--ratings", required=True, help="ratings csv path")
    sp.add_argument("--min-rating", type=float, default=4.0)
    sp.add_argument("--min-items", type=int, default=5)
    sp.add_argument("--heldout-users", type=int, required=True)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="split directory to create")
    sp.set_defaults(func=cmd_prepare)

    st = sub.add_parser("train", help="train a model on a prepared split")
    st.add_argument("--config", default=None, help="config file path")
    st.add_argument("--set", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="override a config value")
    st.add_argument("--data", required=True, help="split directory")
    st.add_argument("--out", default="run", help="output directory")
    st.add_argument("--quiet", action="store_true")
    st.set_defaults(func=cmd_train)

    se = sub.add_parser("eval", help="evaluate a checkpoint on heldout users")
    se.add_argument("--checkpoint", required=True)
    se.add_argument("--data", required=True, help="split directory")
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
    sg.add_argument("--seed", type=_seed, default=0)
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
    except (VampCFError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
