"""Command-line entry point.

Subcommands: knn, cnn-train, cnn-eval, synth. Exit codes: 0 success,
2 configuration error, 3 data error (a file-system error included),
4 checkpoint integrity error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .data import MAX_IMAGES
from .errors import ConfigError, DataError, IntegrityError
from .harness import FEATURE_KINDS, cmd_cnn_eval, cmd_cnn_train, cmd_knn, cmd_synth
from .imaging import MAX_BINS
from .knn import VARIANTS, DistanceMetric


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
    """Each flag's dest is its harness parameter; a flag not given is not passed."""
    parser = _Parser(prog="cellgrade", description="Cell-image classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("knn", help="cross-validated kNN over image features")
    p.add_argument("--data", dest="data_dir", required=True, help="root of Parasitized/ and Uninfected/")
    p.add_argument("--features", choices=tuple(FEATURE_KINDS))
    p.add_argument("--metric", choices=VARIANTS, default="euclidean")
    p.add_argument("--p", type=float, default=None, help="minkowski exponent (p >= 1)")
    p.add_argument("--k", dest="k_values", type=parse_k_list, help="e.g. '10', '1,5,10' or '1-150'")
    p.add_argument("--folds", type=int)
    p.add_argument("--bins", type=int, help=f"histogram bins per channel, 1 to {MAX_BINS}")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_prefix", required=True, help="writes PREFIX.csv and PREFIX.json")

    p = command("cnn-train", help="train the CNN from scratch")
    p.add_argument("--data", dest="data_dir", required=True)
    p.add_argument("--reduced", action="store_true", help="desk-scale 32x32 preset")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-frac", type=float)
    p.add_argument("--out", dest="out_prefix", required=True, help="writes PREFIX.csv and PREFIX.ckpt")

    p = command("cnn-eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", dest="data_dir", required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--out", dest="out_path", required=True, help="output JSON path")

    p = command("synth", help="generate a synthetic cell-image dataset")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fraction", dest="parasitized_fraction", type=float)
    p.add_argument("--side", type=int)
    p.add_argument("--seed", type=int)
    return parser


def _run(command: str, **kwargs) -> None:
    if command == "knn":
        # the only defaults in the parser; rejects --p on any metric but minkowski
        kwargs["metric"] = DistanceMetric(kwargs["metric"], kwargs.pop("p"))
        summary = cmd_knn(**kwargs)
        for res in summary["results"]:
            print(f"k={res['k']:4d}  mean_accuracy={res['mean_accuracy']:.4f}  "
                  f"folds={['%.4f' % a for a in res['fold_accuracies']]}")
        print(f"best k: {summary['best_k']} (mean accuracy {summary['best_mean_accuracy']:.4f})")
        print(f"wrote {kwargs['out_prefix']}.csv and {kwargs['out_prefix']}.json")
    elif command == "cnn-train":
        def show(rec):
            print(f"epoch {rec['epoch']:3d}  train_loss={rec['train_loss']:.4f}  "
                  f"train_acc={rec['train_acc']:.4f}  val_loss={rec['val_loss']:.4f}  "
                  f"val_acc={rec['val_acc']:.4f}")

        summary = cmd_cnn_train(**kwargs, progress=show)
        print(f"wrote {kwargs['out_prefix']}.csv and checkpoint {summary['checkpoint']}")
    elif command == "cnn-eval":
        report = cmd_cnn_eval(**kwargs)
        print(f"accuracy={report['accuracy']:.4f} over {report['n_samples']} samples")
        print(f"confusion (rows true 0/1, cols predicted 0/1): {report['confusion']}")
        print(f"wrote {kwargs['out_path']}")
    elif command == "synth":
        manifest = cmd_synth(**kwargs)
        print(f"wrote {manifest['counts']['Parasitized']} parasitized + "
              f"{manifest['counts']['Uninfected']} uninfected images under {kwargs['out_dir']}")


def main(argv=None) -> int:
    try:
        _run(**vars(build_parser().parse_args(argv)))
    except ConfigError as exc:
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
