"""Command-line entry point.

Subcommands: knn, cnn-train, cnn-eval, synth. Exit codes: 0 success,
2 configuration error, 3 data error (a file-system error included),
4 checkpoint integrity error.
"""

from __future__ import annotations

import argparse
import sys

from .data import MAX_IMAGES
from .errors import ConfigError, DataError, IntegrityError, ShapeError
from .harness import cmd_cnn_eval, cmd_cnn_train, cmd_knn, cmd_synth
from .knn import DistanceMetric


def parse_k_list(text: str) -> list[int]:
    """Comma-separated integers; 'a-b' spans are inclusive (e.g. '1-150,200').

    At most 2**20 values in all; a span is counted before it is expanded.
    """
    values: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part[1:]:
                lo, hi = (int(v) for v in part.split("-", 1))
                if hi < lo:
                    raise ConfigError(f"k list {text!r} has a reversed span {part!r}")
            else:
                lo = hi = int(part)
            if len(values) + hi - lo + 1 > MAX_IMAGES:
                raise ConfigError(f"k list {text!r} has more than {MAX_IMAGES} values")
            values.extend(range(lo, hi + 1))
    except ValueError:
        raise ConfigError(f"k list {text!r} must be integers or 'a-b' spans") from None
    return values


class _Parser(argparse.ArgumentParser):
    """Bad arguments end like any other configuration error: one line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellgrade", description="Cell-image classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("knn", help="cross-validated kNN over image features")
    p.add_argument("--data", required=True, help="dataset root (Parasitized/ + Uninfected/)")
    p.add_argument("--features", choices=("raw", "hist"), default="hist")
    p.add_argument("--metric", choices=("euclidean", "manhattan", "hamming", "minkowski"),
                   default="euclidean")
    p.add_argument("--p", type=float, default=None, help="minkowski exponent (p >= 1)")
    p.add_argument("--k", default="10", help="k values, e.g. '10' or '1,5,10' or '1-150'")
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--bins", type=int, default=8, help="histogram bins per channel, 1 to 16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix (writes PREFIX.csv, PREFIX.json)")

    p = sub.add_parser("cnn-train", help="train the CNN from scratch")
    p.add_argument("--data", required=True)
    p.add_argument("--reduced", action="store_true", help="desk-scale 32x32 preset")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--out", required=True, help="output prefix (writes PREFIX.csv, PREFIX.ckpt)")

    p = sub.add_parser("cnn-eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("synth", help="generate a synthetic cell-image dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--side", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _run(args) -> None:
    if args.command == "knn":
        metric = DistanceMetric(args.metric, args.p)  # rejects --p on any metric but minkowski
        summary = cmd_knn(args.data, features=args.features, metric=metric,
                          k_values=parse_k_list(args.k), folds=args.folds,
                          seed=args.seed, bins=args.bins, out_prefix=args.out)
        for res in summary["results"]:
            print(f"k={res['k']:4d}  mean_accuracy={res['mean_accuracy']:.4f}  "
                  f"folds={['%.4f' % a for a in res['fold_accuracies']]}")
        print(f"best k: {summary['best_k']} (mean accuracy {summary['best_mean_accuracy']:.4f})")
        print(f"wrote {args.out}.csv and {args.out}.json")
    elif args.command == "cnn-train":
        def show(rec):
            print(f"epoch {rec['epoch']:3d}  train_loss={rec['train_loss']:.4f}  "
                  f"train_acc={rec['train_acc']:.4f}  val_loss={rec['val_loss']:.4f}  "
                  f"val_acc={rec['val_acc']:.4f}")

        summary = cmd_cnn_train(args.data, reduced=args.reduced, epochs=args.epochs,
                                batch_size=args.batch, lr=args.lr, seed=args.seed,
                                val_frac=args.val_frac, out_prefix=args.out, progress=show)
        print(f"wrote {args.out}.csv and checkpoint {summary['checkpoint']}")
    elif args.command == "cnn-eval":
        report = cmd_cnn_eval(args.checkpoint, args.data, out_path=args.out, reduced=args.reduced)
        print(f"accuracy={report['accuracy']:.4f} over {report['n_samples']} samples")
        print(f"confusion (rows true 0/1, cols predicted 0/1): {report['confusion']}")
        print(f"wrote {args.out}")
    elif args.command == "synth":
        manifest = cmd_synth(args.out, args.n, args.fraction, args.side, args.seed)
        print(f"wrote {manifest['counts']['Parasitized']} parasitized + "
              f"{manifest['counts']['Uninfected']} uninfected images under {args.out}")


def main(argv=None) -> int:
    try:
        _run(build_parser().parse_args(argv))
    except (ConfigError, ShapeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
