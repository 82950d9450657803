"""Command-line pipeline: normalize, split, train, eval, stats.

Exit codes: 0 success, 1 input/validation error, 2 numerical failure.
All randomness flows from ``--seed`` (default 42); two runs of any
subcommand with the same inputs write byte-identical outputs.  No subcommand
writes over its inputs or names one output file twice, also through a
symlink; each checks its output paths before it writes any of them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import baselines, model as gm, ranking, training
from .model import NumericalError
from .normalize import (NF1, NormalizedOntology, normal_axiom_to_text, normalize,
                        subclass_pairs)
from .parser import ParseError, parse_ontology
from .training import SplitSpec, TrainConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise ValueError(message)


def _read_lines(path: str) -> list[str]:
    with gm.open_text(path) as fh:
        # physical lines: splitlines() would also break at \x0c, \x1c-\x1e,
        # \x85, \u2028 and \u2029, which sit inside one line in an editor
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the piece after a final newline
    return lines


def _check_distinct(inputs, outputs) -> None:
    """Refuse outputs that name an input, or the same file twice, also
    through a symlink."""
    taken = {os.path.realpath(p) for p in inputs if p}
    written: set = set()
    for out in outputs:
        if not out:
            continue
        path = os.path.realpath(out)
        if path in taken:
            raise ValueError(f"refusing to overwrite input file: {out}")
        if path in written:
            raise ValueError(f"output file given twice: {out}")
        written.add(path)


def _parse(path: str, read):
    """*read* (``parse_ontology`` or ``subclass_pairs``) over the lines of
    *path*; a parse error names the file."""
    try:
        return read(_read_lines(path))
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)  # which of the inputs is broken
        raise


def _load_normalized(path: str) -> NormalizedOntology:
    return normalize(_parse(path, parse_ontology)[0])


def _subclass_pairs(path: str, name_to_id: dict):
    """``(sub name, super name, NF1 of their ids in name_to_id)`` for each
    pair ``normalize.subclass_pairs`` finds in *path*, in order; the NF1 is
    None when a name is not in *name_to_id*.  The whole file is read before
    the first pair."""
    for sub, sup in _parse(path, subclass_pairs):
        c, d = name_to_id.get(sub), name_to_id.get(sup)
        yield sub, sup, None if c is None or d is None else NF1(c, d)


def _write_axiom_file(path: str, header: list, lines: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header:
            fh.write(f"# {comment}\n")
        for line in lines:
            fh.write(line + "\n")


def cmd_stats(args) -> int:
    axioms, stats = _parse(args.input, parse_ontology)
    onto = normalize(axioms)
    print(f"axioms\t{stats.axiom_count}")
    print(f"classes\t{stats.class_count}")
    print(f"relations\t{stats.relation_count}")
    print(f"individuals\t{stats.individual_count}")
    print(f"normalized_axioms\t{len(onto.axioms)}")
    print(f"normalized_classes\t{len(onto.classes)}")
    print(f"normalized_relations\t{len(onto.relations)}")
    print(f"fresh_classes\t{onto.fresh_count}")
    return 0


def cmd_normalize(args) -> int:
    _check_distinct([args.input], [args.output, f"{args.output}.fresh.tsv"])
    onto = _load_normalized(args.input)
    lines = [normal_axiom_to_text(ax, onto) for ax in onto.axioms]
    _write_axiom_file(
        args.output,
        [f"geodl normalize source={os.path.basename(args.input)}",
         f"axioms={len(lines)} fresh_classes={onto.fresh_count}"],
        lines,
    )
    with open(f"{args.output}.fresh.tsv", "w", encoding="utf-8") as fh:
        fh.write("fresh\tdefinition\n")
        for name, definition in onto.fresh_definitions.items():
            fh.write(f"{name}\t{definition}\n")
    return 0


def _parse_fractions(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--fractions expects three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad --fractions value {text!r}") from None


def cmd_split(args) -> int:
    seed = args.seed if args.seed is not None else 42
    fractions = _parse_fractions(args.fractions) if args.fractions else (0.7, 0.2, 0.1)
    parts = ("train", "valid", "test")
    paths = [os.path.join(args.out_dir, f"{part}.el") for part in parts]
    report_path = os.path.join(args.out_dir, "split.tsv")
    _check_distinct([args.input], paths + [report_path])
    onto = _load_normalized(args.input)
    spec = SplitSpec(
        train_frac=fractions[0], valid_frac=fractions[1],
        test_frac=fractions[2], seed=seed,
    )
    result = training.split(onto, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    frac_text = ",".join(repr(f) for f in fractions)
    for part, path, axioms in zip(
        parts, paths, (result.train, result.valid, result.test)
    ):
        _write_axiom_file(
            path,
            [f"geodl split part={part} seed={seed} fractions={frac_text}"],
            [normal_axiom_to_text(ax, onto) for ax in axioms],
        )
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"eligible_nf1\t{result.eligible_count}\n")
        fh.write(f"train_axioms\t{len(result.train)}\n")
        fh.write(f"valid_axioms\t{len(result.valid)}\n")
        fh.write(f"test_axioms\t{len(result.test)}\n")
        fh.write(f"swaps\t{result.swaps}\n")
        fh.write(f"candidate_count\t{result.candidate_count}\n")
        fh.write(f"seed\t{seed}\n")
        fh.write(f"fractions\t{frac_text}\n")
    return 0


def _build_config(args) -> TrainConfig:
    if args.config:
        with gm.open_text(args.config) as fh:
            cfg = training.parse_config(fh.read())
    else:
        cfg = TrainConfig()
    if args.variant:
        cfg.variant = gm.parse_variant(args.variant)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _sibling_valid(train_path: str) -> Optional[str]:
    """The valid.el next to the training file, if there is one."""
    path = os.path.join(os.path.dirname(os.path.abspath(train_path)), "valid.el")
    if not os.path.isfile(path) or path == os.path.abspath(train_path):
        return None
    return path


def _valid_nf1(path: str, onto: NormalizedOntology):
    """Early-stopping data from the sibling valid.el *path*.

    Pairs of one class with itself and pairs naming a class absent from
    training are dropped; a pair whose subclass can never be a candidate is
    refused before training starts."""
    valid = []
    for c, d, ax in _subclass_pairs(path, onto.class_index):
        if ax is None or c == d:
            continue
        why = ranking.unrankable(onto.classes, ax.c, ax.d)
        if why:
            raise ValueError(f"{path}: validation pair {why}")
        valid.append(ax)
    return valid or None


def cmd_train(args) -> int:
    log_out = args.log_out or f"{args.model_out}.log.tsv"
    valid_path = _sibling_valid(args.train_file)
    _check_distinct([args.train_file, args.config, valid_path],
                    [args.model_out, log_out])
    cfg = _build_config(args)
    onto = _load_normalized(args.train_file)

    if args.model:
        result = baselines.train_baseline(
            args.model, baselines.extract_triples(onto), len(onto.classes),
            len(onto.relations) + 1, cfg,
        )
        baselines.save_baseline(
            args.model_out, result.state, onto.classes,
            baselines.baseline_relation_names(onto),
        )
        columns = training.LOG_COLUMNS[:2]  # epoch, mean hinge per triple
    else:
        valid_nf1 = _valid_nf1(valid_path, onto) if valid_path else None
        result = training.train(onto, cfg, valid_nf1=valid_nf1)
        gm.save_model(args.model_out, result.state, onto.classes,
                      onto.relations, cfg.variant, cfg.margin)
        columns = training.LOG_COLUMNS
    training.write_log(log_out, result.log, columns)
    return 0


def _load_tests(path: str, names: list, name_to_id: dict, direction: str) -> list:
    tests = []
    for c, d, ax in _subclass_pairs(path, name_to_id):
        if ax is None:
            missing = c if c not in name_to_id else d
            raise ValueError(f"test class {missing!r} has no embedding in the model")
        why = ranking.unrankable(names, ax.c, ax.d, direction)
        if why:
            raise ValueError(f"test pair {why}")
        tests.append(ax)
    if not tests:
        raise ValueError(f"no subclass test axioms found in {path}")
    return tests


def cmd_eval(args) -> int:
    _check_distinct(
        [args.model_in, args.test_file, args.filtered],
        [args.report_out, f"{args.report_out}.ranks"],
    )
    with gm.open_text(args.model_in) as fh:
        header = fh.readline()
    if header.startswith(baselines.BASELINE_HEADER_PREFIX):
        saved = baselines.load_baseline(args.model_in)
        names = saved.entity_names
        if args.radius_adjusted:
            raise ValueError(f"--radius-adjusted needs ball radii; {args.model_in} "
                             f"is a {saved.state.model} baseline")
        try:
            sub_rel = saved.relation_names.index(baselines.SUBCLASS_RELATION)
        except ValueError:
            raise ValueError(
                f"baseline file lacks the {baselines.SUBCLASS_RELATION} relation"
            ) from None
        rank = functools.partial(ranking.baseline_evaluate, sub_relation=sub_rel)
    elif header.startswith(gm.MODEL_HEADER_PREFIX):
        saved = gm.load_model(args.model_in)
        names = saved.class_names
        rank = functools.partial(ranking.evaluate,
                                 adjust_radius=args.radius_adjusted)
    else:
        raise ValueError(f"{args.model_in}: not a geodl model or baseline file")
    name_to_id = {name: i for i, name in enumerate(names)}
    candidates = ranking.eligible_candidates(names)
    tests = _load_tests(args.test_file, names, name_to_id, args.direction)
    known = None
    if args.filtered:
        known = [ax for _, _, ax in _subclass_pairs(args.filtered, name_to_id) if ax]
    report = rank(tests, saved.state, candidates, direction=args.direction,
                  filter_known=known)
    ranking.write_report(args.report_out, report)
    print(f"wrote {args.report_out} ({len(report.ranks)} tests, "
          f"{report.candidate_count} candidates)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="geodl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="axiom/class/relation counts for a file")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("normalize", help="rewrite axioms into normal forms")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("split", help="hold out subclass pairs for valid/test")
    p.add_argument("input")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fractions", default=None, metavar="a,b,c")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="learn embeddings from a training file")
    p.add_argument("train_file")
    p.add_argument("model_out")
    p.add_argument("log_out", nargs="?", default=None)
    p.add_argument("--variant", default=None, help="emel or emel-var")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", default=None, choices=baselines.MODELS,
                   help="train this baseline instead")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank held-out subclass pairs")
    p.add_argument("model_in")
    p.add_argument("test_file")
    p.add_argument("report_out")
    p.add_argument("--direction", default="sub", choices=ranking.DIRECTIONS,
                   help="rank the subclass (default) or the superclass")
    p.add_argument("--filtered", default=None, metavar="KNOWN_EL",
                   help="drop other known subclasses of the source class")
    p.add_argument("--radius-adjusted", action="store_true",
                   help="add radius slack to the candidate distance")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"geodl: parse error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"geodl: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"geodl: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a config dim too large to allocate
        print(f"geodl: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
