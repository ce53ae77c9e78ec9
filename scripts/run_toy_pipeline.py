#!/usr/bin/env python3
"""End-to-end toy experiment: data, pairwise energy models, bridge samples,
leave-one-out segmentation comparison, an all-domain segmentation comparison,
and a 2-D projection of the result. The last three stages each read the saved
bridge pool."""
import sys
from pathlib import Path

from langaug.cli import run

CONFIG = Path(__file__).parent / "configs" / "toy.json"


def main(out_dir="runs/toy"):
    for stage in ("gen-data", "train-ebms", "augment", "eval-loo", "train-seg", "project"):
        print(f"== {stage}")
        code = run(stage, CONFIG, out_dir)
        if code != 0:
            return code
    results = Path(out_dir) / "loo" / "results.csv"
    print(f"leave-one-out table: {results}")
    rows = results.read_text().strip().splitlines()[1:]
    by_method = {}
    for row in rows:
        fold, method, seed, mean_dice, _ = row.split(",")
        by_method.setdefault(method, []).append(float(mean_dice))
    for method, dices in sorted(by_method.items()):
        print(f"  {method}: mean held-out dice {sum(dices) / len(dices):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
