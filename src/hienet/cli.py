"""Command-line entry point.

Subcommands cover the whole workflow: generate a synthetic corpus, sanity
check a cascade file, train, evaluate, predict, and run the branch-ablation
sweep. Exit codes: 0 on success, 1 for bad usage or a bad setting, 2 for
data problems (unparseable file, missing manifest, unit mismatch, empty
split, corrupt checkpoint).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cascade import build_cascade_graph, build_global_graph, compute_label
from .config import FUSION_MODES, TrainConfig, resolve_config
from .errors import CascadeParseError, DataError, HienetError, UsageError
from .synth import SyntheticSpec, generate_synthetic, write_corpus
from .train import _output_dir, evaluate, load_corpus, predict, train

BRANCHES = ("cs", "sg", "cg")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1 here
        raise UsageError(message)


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="cascade file (manifest.json beside it)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int)
    p.add_argument("--window", type=int, help="observation window in dataset time units")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument(
        "--disable-branch",
        action="append",
        choices=BRANCHES,
        default=[],
        help="drop a branch (repeatable)",
    )
    p.add_argument("--fusion", choices=FUSION_MODES)
    p.add_argument("--resume", help="checkpoint directory to warm-start from")


def _config_from_args(args) -> TrainConfig:
    overrides: dict = {"data": args.data, "out": args.out}
    for key in ("seed", "window", "epochs", "batch_size", "lr", "resume"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    for branch in args.disable_branch:
        overrides[f"use_{branch}"] = False
    if args.fusion is not None:
        overrides["fusion_mode"] = args.fusion
    return resolve_config(args.config, overrides)


def build_parser() -> _Parser:
    parser = _Parser(prog="hienet", description="cascade popularity prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=SyntheticSpec.num_users)
    p.add_argument("--cascades", type=int, default=SyntheticSpec.num_cascades)
    p.add_argument("--branching", type=float, default=SyntheticSpec.mean_branching)
    p.add_argument("--decay", type=float, default=SyntheticSpec.decay)
    p.add_argument("--horizon", type=int, default=SyntheticSpec.horizon)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)

    p = sub.add_parser("ingest", help="parse and summarize a cascade file")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=TrainConfig.window)

    p = sub.add_parser("train", help="train a model")
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--out", help="directory for metrics.json and per_cascade.csv")

    p = sub.add_parser("predict", help="predict popularity for every cascade in a file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--out", help="directory for predictions.csv")

    p = sub.add_parser("ablate", help="train branch-ablation variants and compare")
    _add_train_flags(p)

    return parser


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_users=args.users,
        num_cascades=args.cascades,
        mean_branching=args.branching,
        decay=args.decay,
        horizon=args.horizon,
        seed=args.seed,
    )
    out = _output_dir(args.out)
    records, manifest = generate_synthetic(spec)
    path = write_corpus(out, records, manifest)
    extra = manifest.extra
    print(f"wrote {len(records)} cascades to {path}")
    print(f"final size: median {extra['final_size_median']:g}, max {extra['final_size_max']}")
    return 0


def _cmd_ingest(args) -> int:
    window = TrainConfig(window=args.window).window  # checked as a run's window is
    records, manifest = load_corpus(args.data, window)
    ggraph = build_global_graph(records)
    labels = []
    observed = []
    for rec in records:
        graph = build_cascade_graph(rec, window)
        observed.append(graph.num_nodes)
        labels.append(compute_label(rec, window))
    labels_arr = np.array(labels)
    print(f"cascades: {len(records)}")
    print(f"users: {ggraph.num_users}")
    print(f"time unit: {manifest.time_unit}, label horizon: {manifest.label_horizon}")
    print(f"observed nodes at window {window}: median {np.median(observed):g}, max {max(observed)}")
    print(
        f"labels: median {np.median(labels_arr):g}, max {labels_arr.max()}, "
        f"nonzero {int((labels_arr > 0).sum())}/{len(records)}"
    )
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    result = train(config)
    for entry in result.history:
        print(
            f"epoch {entry['epoch']:4d}  train MSLE {entry['train_MSLE']:.4f}  "
            f"val MSLE {entry['val_MSLE']:.4f}"
        )
    print(
        f"best epoch {result.best_epoch} val MSLE {result.best_val_msle:.4f} "
        f"(mean-predictor baseline {result.baseline_val_msle:.4f})"
    )
    print(f"checkpoint: {result.checkpoint_dir}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate(args.checkpoint, args.data, window=args.window, split=args.split, out_dir=args.out)
    shown = {k: report[k] for k in ("split", "window", "count", "MSLE", "mSLE", "baseline_MSLE")}
    print(json.dumps(shown, indent=2, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    rows = predict(args.checkpoint, args.data, window=args.window, out_dir=args.out)
    for message_id, _, size in rows:
        print(f"{message_id}\t{size:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    base = _config_from_args(args)
    if not (base.use_cs and base.use_sg and base.use_cg):
        raise UsageError("ablate needs all branches enabled in the base config")
    if base.resume:
        raise UsageError("ablate trains every variant from scratch and takes no --resume")
    variants = [("full", {})]
    variants += [(f"no_{b}", {f"use_{b}": False}) for b in BRANCHES]
    if base.fusion_mode == "transformer":
        variants.append(("concat_fusion", {"fusion_mode": "concat"}))

    out_root = Path(base.out)
    rows = []
    for name, changes in variants:
        config = replace(base, out=str(out_root / name), **changes)
        result = train(config)
        test_report = evaluate(result.checkpoint_dir, config.data, split="test")
        rows.append((name, result.best_val_msle, test_report["MSLE"]))
        print(f"{name:14s} val MSLE {result.best_val_msle:.4f}  test MSLE {test_report['MSLE']:.4f}")

    with open(out_root / "ablation.md", "w", encoding="utf-8") as fh:
        fh.write("| variant | val MSLE | test MSLE |\n")
        fh.write("|---|---|---|\n")
        for name, val, test in rows:
            fh.write(f"| {name} | {val:.4f} | {test:.4f} |\n")
    print(f"wrote {out_root / 'ablation.md'}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (CascadeParseError, DataError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except HienetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
