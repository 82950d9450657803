#!/usr/bin/env python3
"""Subsumption-ranking comparison on the bundled 2000-class surrogate.

Splits held-out subclass pairs (70/20/10), trains the base model and the
variance-aware variant with validation early stopping, and reports the
median test rank per seed.  The expectation is the variant's median at or
below the base model's in most seeds.
"""

import argparse
import sys
import time

from geodl.model import Variant
from geodl.normalize import normalize
from geodl.parser import parse_ontology
from geodl.ranking import eligible_candidates, evaluate
from geodl.synthetic import surrogate_lines
from geodl.training import SplitSpec, TrainConfig, split, train


def run(seeds, dim, epochs, lr, sigma_reg, patience):
    axioms, _ = parse_ontology(surrogate_lines(seed=0))
    onto = normalize(axioms)
    candidates = eligible_candidates(onto.classes)
    print(f"surrogate: {len(onto.axioms)} axioms, {len(onto.classes)} classes")
    print(f"config: dim={dim} adam lr={lr} epochs<={epochs} "
          f"patience={patience} sigma_reg={sigma_reg}")
    wins = 0
    start = time.time()
    for seed in seeds:
        parts = split(onto, SplitSpec(seed=seed))
        medians = {}
        for variant in (Variant.EMEL, Variant.EMEL_VAR):
            cfg = TrainConfig(
                dim=dim, epochs=epochs, seed=seed, lr=lr, patience=patience,
                variant=variant, sigma_reg=sigma_reg,
            )
            result = train(onto, cfg, train_axioms=parts.train,
                           valid_nf1=parts.valid)
            report = evaluate(parts.test, result.state, candidates)
            medians[variant] = report.median_rank
            print(f"  seed {seed} {variant.value:8s} median {report.median_rank:>5} "
                  f"hits@10 {report.hits10:.3f} hits@100 {report.hits100:.3f} "
                  f"(stopped {result.stopped_epoch}, {time.time() - start:.0f}s)")
        ok = medians[Variant.EMEL_VAR] <= medians[Variant.EMEL]
        wins += ok
        print(f"  seed {seed}: variant median <= base median: {ok}")
    print(f"variant at or below base in {wins}/{len(seeds)} seeds")
    return 0 if wins * 3 >= len(seeds) * 2 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--dim", type=int, default=25)
    parser.add_argument("--epochs", type=int, default=800)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--sigma-reg", type=float, default=0.25)
    parser.add_argument("--patience", type=int, default=6)
    args = parser.parse_args(argv)
    return run(args.seeds, args.dim, args.epochs, args.lr, args.sigma_reg,
               args.patience)


if __name__ == "__main__":
    sys.exit(main())
