import contextlib
import hashlib
import importlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from geodl.cli import main
from geodl.model import load_model
from geodl.normalize import normalize
from geodl.parser import parse_ontology
from geodl.synthetic import hub_spoke_lines, random_raw_lines, surrogate_lines
from reference import mean_hinge

GALEN_ISH = [
    "# tiny fixture",
    "subClassOf(Cat,Mammal)",
    "subClassOf(Dog,Mammal)",
    "subClassOf(Mammal,Animal)",
    "subClassOf(Bird,Animal)",
    "subClassOf(Fish,Animal)",
    "subClassOf(Whale,Mammal)",
    "subClassOf(Sparrow,Bird)",
    "subClassOf(Shark,Fish)",
    "subClassOf(Salmon,Fish)",
    "subClassOf(Kitten,Cat)",
    "subClassOf(Puppy,Dog)",
    "subClassOf(Cat,some(eats,Fish))",
    "subClassOf(Dog,some(eats,Bird))",
    "disjointWith(Cat,Dog)",
    "subClassOf(and(Cat,Dog),bottom)",
]


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "zoo.el"
    path.write_text("\n".join(GALEN_ISH) + "\n")
    return str(path)


def run(args):
    return main(args)


def stats_rows(path, capsys):
    """``geodl stats``'s lines as a name -> count dict."""
    assert run(["stats", path]) == 0
    out = capsys.readouterr().out
    return {name: int(n) for name, n in
            (line.split("\t") for line in out.strip().splitlines())}


def test_stats_matches_parse_ontology(fixture_file, capsys):
    """The printed counts are parse_ontology's and those of a walk over the
    trees, which the parser's name tables replaced."""
    rows = stats_rows(fixture_file, capsys)
    _, stats = parse_ontology(GALEN_ISH)
    printed = (rows["axioms"], rows["classes"], rows["relations"],
               rows["individuals"])
    assert printed == astuple(stats) == reference.ontology_counts(GALEN_ISH)


@pytest.mark.parametrize("lines, fresh", [
    (["subClassOf(__nf_0,B)", "subClassOf(A,B)"], 0),
    (["subClassOf(__nf_0,B)", "subClassOf(some(R,and(A,B)),C)"], 1),
], ids=["literal", "literal-and-helper"])
def test_fresh_classes_counts_only_this_files_helpers(tmp_path, capsys, lines,
                                                       fresh):
    """A ``__nf_*`` name read from the file is a class like any other: stats,
    the normalize header and its sidecar count only the helpers made."""
    src = tmp_path / "in.el"
    src.write_text("\n".join(lines) + "\n")
    assert stats_rows(str(src), capsys)["fresh_classes"] == fresh
    out = tmp_path / "out.el"
    assert run(["normalize", str(src), str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(f" fresh_classes={fresh}")
    sidecar = (tmp_path / "out.el.fresh.tsv").read_text().splitlines()
    assert len(sidecar) == 1 + fresh


def test_normalize_idempotent_on_normal_input(tmp_path, fixture_file):
    out1 = str(tmp_path / "norm1.el")
    out2 = str(tmp_path / "norm2.el")
    assert run(["normalize", fixture_file, out1]) == 0
    assert run(["normalize", out1, out2]) == 0

    def axiom_lines(path):
        return [l for l in Path(path).read_text().splitlines()
                if l and not l.startswith("#")]

    assert axiom_lines(out1) == axiom_lines(out2)
    assert os.path.exists(out1 + ".fresh.tsv")


# sha256 of the axiom file and of its .fresh.tsv that `geodl normalize`
# writes for nested input: every production, top, bottom and nominals, so
# every rule runs, and the pin covers fresh-class numbering and axiom order.
# Re-recorded when a left side with a nested bottom (and(bottom,A),
# some(R,bottom), ...) came to be dropped whole, with no helper class, and
# again when A <= some(R,F) with F empty however deep its bottom sits came to
# give subClassOf(A,bottom) with no helper for F.
GOLDEN_NORMALIZE_NESTED = (
    "becc4d886006527c1743a240c62a73c56826659ec64c9fc1f5940483ffdbf779",
    "39a83230f7805787a0dfc11032a427b2ddf3910713cb3e040165aa4591e9fb50",
)


def nested_lines():
    return [line for s in range(10)
            for line in random_raw_lines(np.random.default_rng(s), 60)]


def test_normalize_output_bytes_are_pinned_on_nested_input(tmp_path):
    src = tmp_path / "nested.el"
    src.write_text("\n".join(nested_lines()) + "\n")
    out = tmp_path / "nested.norm.el"
    assert run(["normalize", str(src), str(out)]) == 0
    assert tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / "nested.norm.el.fresh.tsv")
    ) == GOLDEN_NORMALIZE_NESTED


# sha256 of normalize's id tables on the same input, in id order: the class
# names, the relation names, then each class_index key with its id.  The
# files above print names, so they cannot see which id a class has.
GOLDEN_NORMALIZE_NESTED_TABLES = (
    "e2a78effc7ea88f6c956602602e43a9905fdd4c958244f4d61b054024f912f61")


def test_normalize_id_tables_are_pinned_on_nested_input():
    onto = normalize(parse_ontology(nested_lines())[0])
    index = sorted(onto.class_index.items(), key=lambda kv: (kv[1], kv[0]))
    text = "\n".join([*onto.classes, "", *onto.relations, "",
                      *(f"{i}\t{key}" for key, i in index)])
    assert (hashlib.sha256(text.encode()).hexdigest()
            == GOLDEN_NORMALIZE_NESTED_TABLES)


def test_normalize_refuses_to_overwrite_input(fixture_file):
    assert run(["normalize", fixture_file, fixture_file]) == 1


def test_split_writes_parts_and_report(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    for name in ("train.el", "valid.el", "test.el", "split.tsv"):
        assert os.path.exists(os.path.join(out_dir, name))
    report = dict(
        line.split("\t")
        for line in Path(out_dir, "split.tsv").read_text().splitlines()
    )
    assert report["seed"] == "7"
    assert int(report["eligible_nf1"]) == 11
    assert int(report["valid_axioms"]) == 2
    assert int(report["test_axioms"]) == 1


def test_split_deterministic_files(tmp_path, fixture_file):
    dir1 = str(tmp_path / "s1")
    dir2 = str(tmp_path / "s2")
    assert run(["split", fixture_file, dir1, "--seed", "3"]) == 0
    assert run(["split", fixture_file, dir2, "--seed", "3"]) == 0
    for name in ("train.el", "valid.el", "test.el", "split.tsv"):
        a = Path(dir1, name).read_bytes()
        b = Path(dir2, name).read_bytes()
        assert a == b


def test_train_and_eval_geometric(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=40\nbatch_size=32\nlr=0.02\n")
    model = str(tmp_path / "model.tsv")
    train_file = os.path.join(out_dir, "train.el")
    assert run([
        "train", "--variant", "emel-var", "--config", str(cfg),
        "--seed", "5", train_file, model,
    ]) == 0
    assert os.path.exists(model)
    assert os.path.exists(model + ".log.tsv")
    header = Path(model).read_text().splitlines()[0]
    assert header.startswith("#geodl v1 dim=6 variant=EmElVar")

    report = str(tmp_path / "report.tsv")
    test_file = os.path.join(out_dir, "test.el")
    assert run(["eval", model, test_file, report]) == 0
    rows = [l for l in Path(report).read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 7
    assert os.path.exists(report + ".ranks")


def test_train_and_eval_baseline(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=30\nbatch_size=32\n")
    model = str(tmp_path / "transe.tsv")
    assert run([
        "train", "--model", "transe", "--config", str(cfg),
        os.path.join(out_dir, "train.el"), model,
    ]) == 0
    header = Path(model).read_text().splitlines()[0]
    assert header.startswith("#geodl-baseline v1 model=transe dim=6")
    report = str(tmp_path / "report.tsv")
    assert run(["eval", model, os.path.join(out_dir, "test.el"), report]) == 0
    rows = [l for l in Path(report).read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 7


def test_eval_direction_and_filtered_flags(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=10\n")
    model = str(tmp_path / "m.tsv")
    train_file = os.path.join(out_dir, "train.el")
    assert run(["train", "--config", str(cfg), train_file, model]) == 0
    report = str(tmp_path / "r.tsv")
    assert run([
        "eval", "--direction", "sup", "--filtered", train_file,
        model, os.path.join(out_dir, "test.el"), report,
    ]) == 0
    first = Path(report).read_text().splitlines()[0]
    assert "direction=sup" in first
    assert "filtered=yes" in first
    assert run([
        "eval", "--radius-adjusted", model,
        os.path.join(out_dir, "test.el"), str(tmp_path / "r2.tsv"),
    ]) == 0


def test_train_determinism_bitwise(tmp_path, fixture_file):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=5\nepochs=25\nseed=13\n")
    m1 = str(tmp_path / "m1.tsv")
    m2 = str(tmp_path / "m2.tsv")
    assert run(["train", "--config", str(cfg), fixture_file, m1]) == 0
    assert run(["train", "--config", str(cfg), fixture_file, m2]) == 0
    assert Path(m1).read_bytes() == Path(m2).read_bytes()


def test_unknown_flag_exits_1(fixture_file, capsys):
    assert run(["stats", "--bogus", fixture_file]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_baseline_model_exits_1(tmp_path, fixture_file, capsys):
    out = tmp_path / "m.tsv"
    assert run(["train", "--model", "rotate", fixture_file, str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'rotate'" in err[0] and "transh" in err[0]
    assert not out.exists()


def test_missing_file_exits_1(tmp_path, capsys):
    assert run(["stats", str(tmp_path / "nope.el")]) == 1
    err = capsys.readouterr().err
    assert "not found" in err


def test_directory_input_exits_1(tmp_path, capsys):
    assert run(["stats", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"geodl: error: input is not a regular file: {tmp_path}\n"


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_config_and_model_paths_follow_the_input_rule(tmp_path, fixture_file,
                                                      capsys, command, missing):
    """A ``--config`` or eval model path that does not exist, or is not a
    regular file, is refused in one line as every other input is, before any
    output is written."""
    path = str(tmp_path / "nope") if missing else str(tmp_path)
    out = str(tmp_path / "out.tsv")
    argv = (["train", "--config", path, fixture_file, out] if command == "train"
            else ["eval", path, fixture_file, out])
    assert run(argv) == 1
    why = "input file not found" if missing else "input is not a regular file"
    assert capsys.readouterr().err == f"geodl: error: {why}: {path}\n"
    assert not os.path.exists(out)


def test_syntax_error_exits_1_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("subClassOf(A,B)\nsubClassOf(A,\n")
    assert run(["stats", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert f"geodl: parse error: {bad}: line 2" in err


def test_form_feed_in_a_comment_does_not_end_the_line(tmp_path, capsys):
    """A form feed sits inside one physical line: the comment's tail after
    it is not read as a line of its own, and line 2's own error is the one
    reported."""
    bad = tmp_path / "bad.el"
    bad.write_text("subClassOf(A,B) # a\x0cb\nsubClassOf(B,C\n")
    assert run(["stats", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: line 2, col 15: expected ')', found end of line" in err


@pytest.mark.parametrize("separator", ["\x1d", "\x1e", "\x85", "\u2028"])
def test_unicode_line_separators_do_not_split_an_axiom_line(tmp_path, capsys,
                                                            separator):
    """Only \\n ends a line: two axioms joined by a group separator (or
    another character that ``str.splitlines`` breaks at) are one line with
    trailing input, not two axioms."""
    bad = tmp_path / "bad.el"
    bad.write_text(f"subClassOf(A,B){separator}subClassOf(B,C)\n")
    assert run(["stats", str(bad)]) == 1
    assert "line 1, col 17: trailing input 'subClassOf(B,C)'" in (
        capsys.readouterr().err)


def test_config_comment_with_a_form_feed_parses(tmp_path, fixture_file):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4  # four\x0cdimensions\nepochs=2\n")
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), fixture_file, str(model)]) == 0
    assert load_model(str(model)).state.class_centers.shape[1] == 4


@pytest.mark.parametrize("broken", ["valid.el", "test.el", "known.el"],
                         ids=["sibling-valid", "eval-test", "filtered"])
def test_parse_error_names_its_file(tmp_path, capsys, broken):
    """A syntax error in the sibling valid.el that train reads, in eval's
    test file or in its --filtered file names that file, not only the
    line."""
    work = tmp_path / "w"
    work.mkdir()
    train_file = work / "train.el"
    train_file.write_text("\n".join(GALEN_ISH) + "\n")
    for name in ("test.el", "known.el"):
        (work / name).write_text("subClassOf(Cat,Mammal)\n")
    (work / broken).write_text("subClassOf(Cat,Mammal)\nsubClassOf(Cat,(Dog))\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    model = str(tmp_path / "m.tsv")
    code = run(["train", "--config", str(cfg), str(train_file), model])
    if broken != "valid.el":
        assert code == 0
        code = run(["eval", "--filtered", str(work / "known.el"), model,
                    str(work / "test.el"), str(tmp_path / "r.tsv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"geodl: parse error: {work / broken}: line 2, col 16: "
                   f"expected a name, found '('"]


def test_parse_error_column_is_position_in_file_line(tmp_path, capsys):
    """An indented broken line in the --filtered file reports the column of
    the offence in the file's line, indent included."""
    train_file = tmp_path / "train.el"
    train_file.write_text("\n".join(GALEN_ISH) + "\n")
    test_file = tmp_path / "test.el"
    test_file.write_text("subClassOf(Cat,Mammal)\n")
    known = tmp_path / "known.el"
    known.write_text("subClassOf(Cat,Mammal)\n\t  subClassOf(Cat,(Dog))  # broken\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    model = str(tmp_path / "m.tsv")
    assert run(["train", "--config", str(cfg), str(train_file), model]) == 0
    assert run(["eval", "--filtered", str(known), model, str(test_file),
                str(tmp_path / "r.tsv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"geodl: parse error: {known}: line 2, col 19: expected a name, found '('"]


@pytest.mark.parametrize("pair_file", ["test", "valid"])
def test_parse_error_in_a_pair_file_comes_before_its_pair_errors(tmp_path, capsys,
                                                                 pair_file):
    """The whole pair file is read before its pairs are checked: a first
    pair naming a class absent from the model (or from training) loses to a
    malformed last line."""
    work = tmp_path / "w"
    work.mkdir()
    train_file = work / "train.el"
    train_file.write_text("\n".join(GALEN_ISH) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    model = str(tmp_path / "m.tsv")
    broken = work / f"{pair_file}.el"
    if pair_file == "test":
        assert run(["train", "--config", str(cfg), str(train_file), model]) == 0
    broken.write_text("subClassOf(Unicorn,Mammal)\nsubClassOf(nominal(tom),Cat)\n"
                      "subClassOf(Cat,Mammal)\nsubClassOf(Cat,(Dog))\n")
    if pair_file == "test":
        code = run(["eval", model, str(broken), str(tmp_path / "r.tsv")])
    else:
        code = run(["train", "--config", str(cfg), str(train_file), model])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"geodl: parse error: {broken}: line 4, col 16: expected a name, found '('"]


def test_pair_reader_matches_normalizing_the_file(tmp_path):
    """``cli._subclass_pairs`` gives the names and NF1s of normalizing the
    whole file (``reference``), also for names the id map lacks."""
    from geodl.cli import _subclass_pairs

    path = tmp_path / "pairs.el"
    for seed in range(20):
        lines = random_raw_lines(np.random.default_rng(seed), n_axioms=30)
        lines += ["subClassOf(__nf_0,A1)", "  equivalentClasses( A2 , top ) # x",
                  "subClassOf(A3,and(A4,nominal(ind0)))", ""]
        path.write_text("\n".join(lines) + "\n")
        named = {name for c, d, _ in reference.subclass_pairs(lines, {})
                 for name in (c, d)}
        # every other name has an id
        name_to_id = {name: i for i, name in enumerate(sorted(named)[::2])}
        assert (list(_subclass_pairs(str(path), name_to_id))
                == reference.subclass_pairs(lines, name_to_id))


# --- a byte that is not UTF-8 names its file and line -------------------------


@pytest.mark.parametrize("reader", ["model-header", "model-rows", "axioms",
                                    "config", "filtered"])
def test_non_utf8_input_names_its_file_and_line(tmp_path, capsys, fixture_file,
                                                reader):
    """Each reader reports a byte that does not decode by the file and line
    that hold it; the codec's message named neither.  A model file's byte is
    met by eval's header read when it sits in the first block of text, and
    by the row reader past it."""
    names = ZOO + [f"C{i}" for i in range(1500)] if reader == "model-rows" else ZOO
    lines, test = write_eval_inputs(tmp_path, "ball", names=names)
    model = tmp_path / "m.tsv"
    report = str(tmp_path / "r.tsv")
    argv = ["eval", str(model), test, report]
    if reader.startswith("model"):
        bad, line = model, 3 if reader == "model-header" else len(lines)
        model.write_bytes("\n".join(lines[:line]).encode() + b"\xff\n"
                          + "\n".join(lines[line:]).encode())
        # eval's header read decodes less than the first 32 KiB
        assert (model.read_bytes().index(b"\xff") > 2**15) == (reader == "model-rows")
    elif reader == "axioms":
        bad, line = tmp_path / "in.el", 2
        bad.write_bytes(b"subClassOf(A,B)\r\nsubClassOf(B,\xffC)\r\n")
        argv = ["normalize", str(bad), str(tmp_path / "out.el")]
    elif reader == "config":
        bad, line = tmp_path / "c.cfg", 2
        bad.write_bytes(b"dim=4\r# \xff\repochs=2\r")
        argv = ["train", "--config", str(bad), fixture_file, str(model)]
    else:
        bad, line = tmp_path / "known.el", 2
        bad.write_bytes(b"subClassOf(Cat,Mammal)\n\xfe\n")
        argv += ["--filtered", str(bad)]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"geodl: error: {bad}: line {line} is not UTF-8 text"]


def test_train_refuses_a_repeated_config_key(tmp_path, fixture_file, capsys):
    """``variant=emel`` then ``variant=emel-var`` trained EmElVar."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nvariant=emel\nepochs=2\nvariant=emel-var\n")
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), fixture_file, str(model)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "geodl: error: config line 4: key 'variant' repeated (first on line 2)"]
    assert not model.exists() and not (tmp_path / "m.tsv.log.tsv").exists()


def test_split_nan_fraction_exits_1(tmp_path, fixture_file, capsys):
    # NaN passed every comparison in the checks, then failed in the split
    assert run(["split", fixture_file, str(tmp_path / "s"),
                "--fractions", "0.7,0.2,nan"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "geodl: error: split fractions must be finite"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("fractions, message", [
    ("0.5,0.5", "--fractions expects three comma-separated numbers"),
    ("a,b,c", "bad --fractions value 'a,b,c'"),
])
def test_split_malformed_fractions_exit_1(tmp_path, fixture_file, capsys,
                                          fractions, message):
    assert run(["split", fixture_file, str(tmp_path / "s"),
                "--fractions", fractions]) == 1
    assert capsys.readouterr().err.splitlines() == [f"geodl: error: {message}"]
    assert not (tmp_path / "s").exists()


def test_eval_on_a_split_with_an_empty_test_part_exits_1(tmp_path, capsys):
    """Each X_i occurs in one axiom only, so split moves every held-out pair
    back to training and writes an empty test.el; eval refuses it."""
    src = tmp_path / "in.el"
    src.write_text("".join(f"subClassOf(X{i},Y)\n" for i in range(12)))
    out = tmp_path / "s"
    assert run(["split", str(src), str(out), "--seed", "0"]) == 0
    report = dict(line.split("\t") for line in
                  (out / "split.tsv").read_text().splitlines())
    assert (report["valid_axioms"], report["test_axioms"],
            report["swaps"]) == ("0", "0", "3")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=2\nepochs=1\n")
    model = str(tmp_path / "m.tsv")
    assert run(["train", "--config", str(cfg), str(out / "train.el"),
                model]) == 0
    capsys.readouterr()
    assert run(["eval", model, str(out / "test.el"),
                str(tmp_path / "r.tsv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"geodl: error: no subclass test axioms found in {out / 'test.el'}"]


@pytest.mark.parametrize("command", ["split", "train", "config"])
def test_negative_seed_exits_1_naming_it(tmp_path, fixture_file, capsys,
                                         command):
    # numpy's own "expected non-negative integer" used to be the message
    out = str(tmp_path / "out")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\nseed=-3\n")
    argv, seed = {
        "split": (["split", fixture_file, out, "--seed", "-1"], -1),
        "train": (["train", fixture_file, out, "--seed", "-1"], -1),
        "config": (["train", "--config", str(cfg), fixture_file, out], -3),
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"geodl: error: seed must be a non-negative integer, got {seed}"]
    assert not Path(out).exists()


def test_divergence_before_any_step_names_the_margin(tmp_path, fixture_file,
                                                     capsys):
    # the first batch's loss overflows on the initial parameters: the
    # learning rate has not acted yet, so the advice names the margin
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\nmargin=1e308\n")
    out = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), fixture_file, str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite" in err[0]
    assert " in epoch 0 batch 0; " in err[0]
    assert err[0].endswith(
        "; no step has run: check the margin and the initial parameters")
    assert not out.exists()


def test_eval_unknown_direction_exits_1(tmp_path, capsys):
    assert run(["eval", "--direction", "up", str(tmp_path / "m.tsv"),
                str(tmp_path / "t.el"), str(tmp_path / "r.tsv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "'up'" in err[0] and "'sub'" in err[0] and "'sup'" in err[0]


def test_malformed_config_exits_1(tmp_path, fixture_file, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=not_a_number\n")
    assert run([
        "train", "--config", str(cfg), fixture_file, str(tmp_path / "m.tsv")
    ]) == 1
    assert "config" in capsys.readouterr().err


def test_eval_unknown_test_class_exits_1(tmp_path, fixture_file, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    model = str(tmp_path / "m.tsv")
    assert run(["train", "--config", str(cfg), fixture_file, model]) == 0
    stranger = tmp_path / "t.el"
    stranger.write_text("subClassOf(Unicorn,Animal)\n")
    report = str(tmp_path / "r.tsv")
    assert run(["eval", model, str(stranger), report]) == 1
    assert "Unicorn" in capsys.readouterr().err


def test_inputs_never_mutated(tmp_path, fixture_file):
    before = Path(fixture_file).read_bytes()
    out_dir = str(tmp_path / "s")
    run(["split", fixture_file, out_dir])
    run(["normalize", fixture_file, str(tmp_path / "n.el")])
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    run(["train", "--config", str(cfg), fixture_file, str(tmp_path / "m.tsv")])
    assert Path(fixture_file).read_bytes() == before


@pytest.mark.parametrize("name", ["split.tsv", "valid.el"])
def test_split_refuses_input_among_outputs_before_writing(tmp_path, name,
                                                          capsys):
    """An input that is one of split's four outputs is refused before any
    output is written, so it is neither replaced nor left beside a partial
    split."""
    out_dir = tmp_path / "work"
    out_dir.mkdir()
    source = out_dir / name
    source.write_text("\n".join(GALEN_ISH) + "\n")
    assert run(["split", str(source), str(out_dir)]) == 1
    assert "refusing to overwrite input file" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == [name]
    assert source.read_text() == "\n".join(GALEN_ISH) + "\n"


def test_normalize_refuses_a_symlink_to_its_input(tmp_path, capsys):
    """An output path that is a symlink to the input is the input: writing
    through it would replace the file being read."""
    source = tmp_path / "in.el"
    source.write_text("\n".join(GALEN_ISH) + "\n")
    before = source.read_bytes()
    link = tmp_path / "out.el"
    link.symlink_to(source)
    assert run(["normalize", str(source), str(link)]) == 1
    assert "refusing to overwrite input file" in capsys.readouterr().err
    assert source.read_bytes() == before
    assert not (tmp_path / "out.el.fresh.tsv").exists()


def test_train_refuses_two_symlinks_to_one_output(tmp_path, fixture_file,
                                                  capsys):
    target = tmp_path / "target.tsv"
    model, log = tmp_path / "m.tsv", tmp_path / "log.tsv"
    model.symlink_to(target)
    log.symlink_to(target)
    assert run(["train", fixture_file, str(model), str(log)]) == 1
    assert "output file given twice" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("extra", [[], ["--model", "transe"]],
                         ids=["ball", "transe"])
def test_train_refuses_log_over_model(tmp_path, fixture_file, extra, capsys):
    model = str(tmp_path / "m.tsv")
    assert run(["train", fixture_file, model, model, *extra]) == 1
    assert "output file given twice" in capsys.readouterr().err
    assert not os.path.exists(model)


@pytest.mark.parametrize("extra", [[], ["--model", "transe"]],
                         ids=["ball", "transe"])
@pytest.mark.parametrize("slot", ["log", "model"])
def test_train_refuses_to_overwrite_sibling_valid(tmp_path, capsys, slot, extra):
    """The valid.el next to the training file is an input, with or without
    --model; naming it as the log or the model used to replace it."""
    train_file = tmp_path / "train.el"
    train_file.write_text("\n".join(GALEN_ISH) + "\n")
    valid = tmp_path / "valid.el"
    valid.write_text("subClassOf(Dog,Mammal)\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    model = tmp_path / "m.tsv"
    outputs = [str(model), str(valid)] if slot == "log" else [str(valid)]
    assert run(["train", "--config", str(cfg), str(train_file), *outputs,
                *extra]) == 1
    assert "refusing to overwrite input file" in capsys.readouterr().err
    assert valid.read_text() == "subClassOf(Dog,Mammal)\n"
    assert not model.exists() and not (tmp_path / "valid.el.log.tsv").exists()


def test_sibling_valid_file_enables_early_stopping(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=60\npatience=1\n")
    model = str(tmp_path / "m.tsv")
    assert run([
        "train", "--config", str(cfg), os.path.join(out_dir, "train.el"), model
    ]) == 0
    log = Path(model + ".log.tsv").read_text().splitlines()
    hits_cells = [line.split("\t")[-1] for line in log[1:]]
    assert any(cell != "nan" for cell in hits_cells)


# --- model readers and eval exit codes --------------------------------------

ZOO = ["Cat", "Mammal", "Dog", "Animal"]


def write_eval_inputs(tmp_path, kind, scale=1.0, names=ZOO):
    """A hand-made model of *kind* ("ball" or a baseline name) over *names*
    and a one-pair test file; returns (model lines, test path)."""
    from geodl import baselines
    from geodl.model import EmbeddingState, Variant, save_model

    path = tmp_path / "m.tsv"
    points = scale * np.arange(2.0 * len(names)).reshape(len(names), 2)
    if kind == "ball":
        state = EmbeddingState(points, np.full(len(names), 0.1),
                               np.ones((1, 2)), np.zeros(1))
        save_model(path, state, names, ["eats"], Variant.EMEL, 0.1)
    else:
        normals = np.array([[1.0, 0.0]] * 2) if kind == "transh" else None
        state = baselines.BaselineState(kind, points, np.ones((2, 2)), normals)
        baselines.save_baseline(path, state, names,
                                ["eats", baselines.SUBCLASS_RELATION])
    test = tmp_path / "t.el"
    test.write_text("subClassOf(Cat,Mammal)\n")
    return path.read_text().splitlines(), str(test)


def eval_edited(tmp_path, kind, edit):
    lines, test = write_eval_inputs(tmp_path, kind)
    lines = edit(lines)
    model = tmp_path / "m.tsv"
    model.write_text("\n".join(lines) + "\n")
    return run(["eval", str(model), test, str(tmp_path / "r.tsv")])


def test_eval_hand_made_models_exit_0(tmp_path):
    for kind in ("ball", "transe", "transh", "distmult"):
        assert eval_edited(tmp_path, kind, lambda lines: lines) == 0


def _last_value(line, text):
    """*line* with its last tab-separated value replaced by *text*."""
    return line.rsplit("\t", 1)[0] + "\t" + text


MALFORMED = {
    # name: (model kind, edit of the model file's lines, 1-based bad line,
    #        start of the message after "path:line: ")
    "ball_header_without_variant": (
        "ball", lambda l: ["#geodl v1 dim=2 margin=0.1"] + l[1:], 1,
        "header lacks variant"),
    "ball_unknown_header_field": (
        "ball", lambda l: [l[0] + " seed=3"] + l[1:], 1,
        "unknown header field 'seed=3'"),
    "ball_malformed_header_field": (
        "ball", lambda l: [l[0] + " dim"] + l[1:], 1,
        "unknown header field 'dim'"),
    "ball_dim_zero": (
        "ball", lambda l: ["#geodl v1 dim=0 variant=EmEl margin=0.1"], 1,
        "dim must be at least 1"),
    "ball_duplicate_class": (
        "ball", lambda l: l[:2] + l[1:], 3,
        "duplicate C row 'Cat' (first on line 2)"),
    "ball_duplicate_relation": (
        "ball", lambda l: l + l[-1:], 7,
        "duplicate R row 'eats' (first on line 6)"),
    "ball_nan_parameter": (
        "ball", lambda l: l[:2] + [_last_value(l[2], "nan")] + l[3:], 3,
        "non-finite value"),
    "ball_non_numeric_parameter": (
        "ball", lambda l: l[:2] + [_last_value(l[2], "2,5")] + l[3:], 3,
        "could not convert string to float: '2,5'"),
    "ball_row_one_column_short": (
        "ball", lambda l: l[:2] + [l[2].rsplit("\t", 1)[0]] + l[3:], 3,
        "expected 5 columns"),
    "ball_bad_value_before_duplicate": (
        # the first fault in file order wins, not the first kind of check
        "ball", lambda l: l[:2] + [_last_value(l[2], "x")] + l[3:] + l[1:2], 3,
        "could not convert string to float: 'x'"),
    "ball_nan_before_duplicate": (
        "ball", lambda l: l[:2] + [_last_value(l[2], "nan")] + l[3:] + l[1:2],
        3, "non-finite value"),
    "baseline_without_model": (
        "transe", lambda l: ["#geodl-baseline v1 dim=2"] + l[1:], 1,
        "header lacks model"),
    "baseline_without_dim": (
        "transe", lambda l: ["#geodl-baseline v1 model=transe"] + l[1:], 1,
        "header lacks dim"),
    "baseline_unknown_model": (
        "transe", lambda l: ["#geodl-baseline v1 model=rotate dim=2"] + l[1:],
        1, "bad header value 'model=rotate'"),
    "baseline_unknown_row_kind": (
        "transe", lambda l: l[:2] + ["C" + l[2][1:]] + l[3:], 3,
        "unknown row kind 'C'"),
    "baseline_duplicate_entity": (
        "distmult", lambda l: l[:3] + l[2:], 4,
        "duplicate E row 'Mammal' (first on line 3)"),
    "baseline_inf_parameter": (
        "transe", lambda l: l[:1] + [_last_value(l[1], "inf")] + l[2:], 2,
        "non-finite value"),
    "transh_missing_w_row": (
        "transh", lambda l: l[:-1], 7,
        "relation '__subClassOf__' has no W row"),
    "transe_with_w_row": (
        "transe", lambda l: l + ["W\teats\t1\t0"], 8,
        "W rows belong to transh models only"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_eval_malformed_model_exits_1_with_line(tmp_path, capsys, case):
    kind, edit, line, message = MALFORMED[case]
    assert eval_edited(tmp_path, kind, edit) == 1
    err = capsys.readouterr().err
    assert f"m.tsv:{line}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["ball", "transe", "transh", "distmult"])
def test_eval_non_finite_scores_exit_2(tmp_path, capsys, kind):
    # finite parameters whose squared distances overflow: a NaN or infinite
    # score used to rank its test 1 and report Hits@1 = 1.0
    lines, test = write_eval_inputs(tmp_path, kind, scale=1e300)
    assert run(["eval", str(tmp_path / "m.tsv"), test,
                str(tmp_path / "r.tsv")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("flags,config", [
    pytest.param(["--model", "transe"], "lr=1e200", id="transe-1e200"),
    pytest.param(["--model", "transh"], "lr=1e200", id="transh-1e200"),
    pytest.param(["--model", "distmult"], "lr=1e6", id="distmult-1e6"),
    pytest.param([], "optimizer=sgd\nlr=1e300", id="ball-sgd-1e300"),
    pytest.param(["--variant", "emel"], "optimizer=sgd\nlr=1e300",
                 id="emel-sgd-1e300"),
    pytest.param(["--variant", "emel-var"], "optimizer=sgd\nlr=1e300",
                 id="emel-var-sgd-1e300"),
    pytest.param(["--variant", "emel-var"], "lr=1e200",
                 id="emel-var-adam-1e200"),
])
def test_train_baseline_divergence_exits_2(tmp_path, capsys, flags, config):
    # the baseline runs used to exit 0 with nan or infinite parameters in the
    # model file and nan losses in the log, leaking numpy warnings; the ball
    # runs exited 2 but leaked a numpy warning before the message, and the
    # sgd ones named neither the epoch nor the remedy
    src = tmp_path / "in.el"
    src.write_text("\n".join(hub_spoke_lines()) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{config}\ndim=4\nepochs=200\n")
    out = tmp_path / "m.tsv"
    assert run(["train", *flags, "--config", str(cfg), str(src),
                str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite" in err[0]
    assert " in epoch " in err[0] and " batch " in err[0]
    assert err[0].endswith("; try a smaller learning rate")
    assert not out.exists() and not (tmp_path / "m.tsv.log.tsv").exists()


NAMED = ["Cat", "Mammal", "__nf_0", "nominal(tom)", "Dog"]
UNRANKABLE = {
    # name: (test pair, direction); the held-out class is never a candidate
    "same_class": ("subClassOf(Cat,Cat)", "sub"),
    "helper_held_out": ("subClassOf(__nf_0,Mammal)", "sub"),
    "nominal_held_out": ("subClassOf(Cat,nominal(tom))", "sup"),
}


@pytest.mark.parametrize("kind", ["ball", "transe"])
@pytest.mark.parametrize("case", sorted(UNRANKABLE))
def test_eval_unrankable_pair_names_its_classes(tmp_path, capsys, kind, case):
    pair, direction = UNRANKABLE[case]
    _, test = write_eval_inputs(tmp_path, kind, names=NAMED)
    with open(test, "a") as fh:
        fh.write(pair + "\n")
    report = tmp_path / "r.tsv"
    assert run(["eval", str(tmp_path / "m.tsv"), test, str(report),
                "--direction", direction]) == 1
    err = capsys.readouterr().err
    assert pair in err
    assert len(err.strip().splitlines()) == 1
    assert not report.exists()


@pytest.mark.parametrize("pair", ["subClassOf(nominal(tom),Cat)",
                                  "subClassOf(__nf_0,Animal)"],
                         ids=["nominal", "helper"])
def test_sibling_valid_unrankable_pair_exits_1_before_training(tmp_path, capsys,
                                                               pair):
    """A validation pair whose subclass can never be a candidate is refused
    before the first epoch, naming the pair and the file; it used to fail
    after 25 epochs with an internal class index."""
    train_file = tmp_path / "train.el"
    train_file.write_text("\n".join(GALEN_ISH + [
        "subClassOf(nominal(tom),Cat)",
        "subClassOf(Cat,some(eats,and(Fish,Bird)))",  # defines __nf_0
    ]) + "\n")
    valid = tmp_path / "valid.el"
    valid.write_text("subClassOf(Dog,Mammal)\n" + pair + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=30\n")
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), str(train_file), str(model)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"{valid}: validation pair {pair} cannot be ranked" in err[0]
    assert "helper or a nominal" in err[0]
    assert not model.exists() and not (tmp_path / "m.tsv.log.tsv").exists()


# normalized, this line gives a helper __nf_0 for and(X,Y) and the subclass
# pairs __nf_0 <= X and __nf_0 <= Y
HELPER_LINE = "subClassOf(Cat,some(eats,and({},{})))"


def test_sibling_valid_skips_its_own_helpers(tmp_path):
    """The pairs through a helper that normalizing valid.el makes are
    skipped; they used to be matched by name to the training file's
    unrelated __nf_0, and train exited 1 on it."""
    train_file = tmp_path / "train.el"
    train_file.write_text("\n".join(
        GALEN_ISH + [HELPER_LINE.format("Fish", "Bird")]) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=30\n")
    valid = tmp_path / "valid.el"
    outputs = []
    for extra in ([], [HELPER_LINE.format("Fish", "Bird")]):
        valid.write_text("\n".join(["subClassOf(Dog,Mammal)"] + extra) + "\n")
        model = tmp_path / f"m{len(extra)}.tsv"
        assert run(["train", "--config", str(cfg), str(train_file),
                    str(model)]) == 0
        outputs.append(model.read_bytes())
        outputs.append(Path(f"{model}.log.tsv").read_bytes())
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("kind", ["ball", "transe"])
@pytest.mark.parametrize("direction", ["sub", "sup"])
def test_eval_skips_pairs_through_the_test_files_own_helpers(tmp_path, kind,
                                                            direction):
    """The test file's helper pairs __nf_0 <= Dog and __nf_0 <= Mammal are
    not ranked against the model's unrelated __nf_0; they used to be ranked
    (sup) or refused (sub)."""
    _, test = write_eval_inputs(tmp_path, kind, names=NAMED)
    with open(test, "a") as fh:
        fh.write(HELPER_LINE.format("Dog", "Mammal") + "\n")
    report = tmp_path / "r.tsv"
    assert run(["eval", str(tmp_path / "m.tsv"), test, str(report),
                "--direction", direction]) == 0
    assert "test_count\t1\n" in report.read_text()


@pytest.mark.parametrize("kind", ["ball", "transe"])
def test_eval_filtered_skips_the_known_files_own_helpers(tmp_path, kind):
    """The known file's helper pair __nf_0 <= Mammal does not drop Mammal
    from the candidates of the model's unrelated __nf_0; it used to, and so
    lifted Dog's rank."""
    _, test = write_eval_inputs(tmp_path, kind, names=NAMED)
    Path(test).write_text("subClassOf(__nf_0,Dog)\n")
    known = tmp_path / "known.el"
    known.write_text(HELPER_LINE.format("Mammal", "Bird") + "\n")
    ranks = []
    for extra in ([], ["--filtered", str(known)]):
        report = tmp_path / "r.tsv"
        assert run(["eval", str(tmp_path / "m.tsv"), test, str(report),
                    "--direction", "sup", *extra]) == 0
        ranks.append(Path(f"{report}.ranks").read_text())
    assert ranks[0] == ranks[1]


@pytest.mark.parametrize("test_file", ["present", "missing"])
def test_eval_baseline_without_subclass_relation_exits_1(tmp_path, capsys,
                                                         test_file):
    """A TransH file with no __subClassOf__ R (and W) row cannot rank
    subclass pairs; it is refused before the test file is read."""
    lines, test = write_eval_inputs(tmp_path, "transh")
    model = tmp_path / "m.tsv"
    model.write_text("\n".join(
        line for line in lines if "\t__subClassOf__\t" not in line) + "\n")
    if test_file == "missing":
        os.remove(test)
    assert run(["eval", str(model), test, str(tmp_path / "r.tsv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "geodl: error: baseline file lacks the __subClassOf__ relation"]
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_eval_radius_adjusted_baseline_exits_1(tmp_path, capsys, model):
    # a baseline has no radii; the flag used to be ignored silently
    _, test = write_eval_inputs(tmp_path, model)
    report = tmp_path / "r.tsv"
    assert run(["eval", "--radius-adjusted", str(tmp_path / "m.tsv"), test,
                str(report)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "--radius-adjusted" in err[0] and f"{model} baseline" in err[0]
    assert not report.exists() and not (tmp_path / "r.tsv.ranks").exists()


@pytest.mark.parametrize("kind", ["ball", "transe"])
@pytest.mark.parametrize("pair, direction", [
    ("subClassOf(Cat,__nf_0)", "sub"), ("subClassOf(nominal(tom),Dog)", "sup"),
])
def test_eval_helper_or_nominal_source_is_ranked(tmp_path, kind, pair,
                                                 direction):
    # only the held-out class must be a candidate; the source need not be
    _, test = write_eval_inputs(tmp_path, kind, names=NAMED)
    with open(test, "w") as fh:
        fh.write(pair + "\n")
    assert run(["eval", str(tmp_path / "m.tsv"), test, str(tmp_path / "r.tsv"),
                "--direction", direction]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line", [
    "lr=nan", "lr=inf", "lr=1e400", "margin=nan", "margin=inf", "threads=2",
    "sigma_reg=nan", "sigma_reg=-0.5",
])
def test_rejected_config_value_exits_1(tmp_path, fixture_file, capsys, line):
    # a non-finite lr or margin used to train and exit 2 (or leak warnings);
    # threads is no longer a config key
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dim=4\nepochs=2\n{line}\n")
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), fixture_file, str(model)]) == 1
    err = capsys.readouterr().err
    assert line.split("=")[0] in err
    assert len(err.strip().splitlines()) == 1
    assert not model.exists()


@pytest.mark.parametrize("flags", [[], ["--model", "transh"]],
                         ids=["ball", "transh"])
def test_unallocatable_dim_exits_1(tmp_path, capsys, flags):
    """Arrays of 3 x 2**45 float64 (768 TiB, above the 128 TiB user address
    space) fail to allocate at once: one error line, no model, no log."""
    src = tmp_path / "in.el"
    src.write_text("subClassOf(A,B)\nsubClassOf(B,C)\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dim={2**45}\n")
    model = tmp_path / "m.tsv"
    assert run(["train", *flags, "--config", str(cfg), str(src), str(model)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geodl: error: ")
    assert not model.exists()
    assert not (tmp_path / "m.tsv.log.tsv").exists()


def test_sigma_reg_config_key_lets_the_slack_grow(tmp_path):
    """With sigma_reg=0.25 in the config file, emel-var's slack grows from its
    initial 0.01 and the hub's containment hinge ends at most half of
    EmEl's, both read from the written model files (SGD, as criterion 4)."""
    lines = hub_spoke_lines(8)
    src = tmp_path / "hub.el"
    src.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=10\nepochs=2000\noptimizer=sgd\nlr=0.01\nseed=0\n"
                   "sigma_reg=0.25\n")
    onto = normalize(parse_ontology(lines)[0])
    hinge, sigma = {}, {}
    for variant in ("emel", "emel-var"):
        model = tmp_path / f"{variant}.tsv"
        assert run(["train", "--config", str(cfg), "--variant", variant,
                    str(src), str(model)]) == 0
        saved = load_model(model)
        assert saved.class_names == onto.classes
        sigma[variant] = float(np.abs(saved.state.relation_sigmas_raw).max())
        hinge[variant] = mean_hinge(saved.state, onto.axioms, saved.margin,
                                    saved.variant)
    assert sigma["emel-var"] > 0.01
    assert hinge["emel-var"] <= 0.5 * hinge["emel"], hinge


def test_threads_flag_is_gone(tmp_path, fixture_file, capsys):
    assert run(["train", "--threads", "2", fixture_file,
                str(tmp_path / "m.tsv")]) == 1
    assert "--threads" in capsys.readouterr().err


# sha256 of the model file and the log of the fixed-seed run below, per
# variant.  Recorded with numpy 2.4 on x86-64; another numpy or BLAS build may
# round differently.
GOLDEN = {
    "emel": (
        "6a4919e4827e8bdf04ce66b00c36cf2e464463fd1b8a6ade3645520f456e4a99",
        "363a0fd7d73f8ad32be4137626d27ed97a2921520e385835ac5fd0c6526f439f",
    ),
    "emel-var": (
        "3f8c25758ffff1fd5c35be22164894e65a9d9a9e39bc97c6a91005340b86cfbe",
        "a4c2188ba18b94ec858ab49f4ec284ca175a136907486fa112dd8f455825563d",
    ),
}


def digests(model):
    """sha256 of a model file and of its log."""
    return tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (model, model.parent / (model.name + ".log.tsv"))
    )


def train_every_shape(tmp_path, variant, config):
    """Train on every normal form and a nominal; returns the model path."""
    lines = hub_spoke_lines(8) + [
        "subClassOf(and(T1,T2),T3)",
        "subClassOf(some(linksTo,T4),T5)",
        "subClassOf(nominal(x),Hub)",
        "subClassOf(T6,bottom)",
    ]
    src = tmp_path / "in.el"
    src.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), "--variant", variant,
                str(src), str(model)]) == 0
    return model


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_train_output_bytes_are_pinned(tmp_path, variant):
    """Every normal form and a nominal, trained with a fixed seed, write
    exactly the recorded bytes: a change to training that alters the
    accumulation order or the arithmetic fails here."""
    model = train_every_shape(
        tmp_path, variant, "dim=6\nepochs=20\nbatch_size=8\nseed=3\n")
    assert digests(model) == GOLDEN[variant]


GOLDEN_SGD = (
    "eb350007945764e2bf561a9c357da0f2347ec297ad8a10ea539b89cf5f30590f",
    "684a981e7f08af9fdf9b533364b1c04a59912c8d7a6b2d766a7b92f133538e17",
)


def test_sgd_output_bytes_are_pinned(tmp_path):
    """The same run with the SGD step writes the recorded bytes."""
    model = train_every_shape(
        tmp_path, "emel-var",
        "dim=6\nepochs=20\nbatch_size=8\nseed=3\noptimizer=sgd\nlr=0.05\n")
    assert digests(model) == GOLDEN_SGD


GOLDEN_SIGMA_REG = (
    "34748aea1d9064524b5a37d214eeea2e9a658911fdd1167fbc5f0810936377f0",
    "a125185ee1be4a8868fc783e44ae4838f1193b289575528e4d7f57233ed0771e",
)


def test_sigma_reg_output_bytes_are_pinned(tmp_path):
    """The emel-var run with a slack regularizer weight below 1, the weight
    every experiment uses, writes the recorded bytes."""
    model = train_every_shape(
        tmp_path, "emel-var",
        "dim=6\nepochs=20\nbatch_size=8\nseed=3\nsigma_reg=0.25\n")
    assert digests(model) == GOLDEN_SIGMA_REG


GOLDEN_EARLY_STOP = (
    "99aaacf48ce8a6557513f1dc8932cd7e1ff2230588aa7dcf794707215c8e08c0",
    "d2ab33cdd8537e84012514ddddbf37b3cac5b0e7ec19b23057116a9aa6f7065a",
)


def test_early_stop_checkpoint_bytes_are_pinned(tmp_path):
    """split, then train with the sibling valid.el: validation every 25
    epochs, an early stop, and the model file written from the best
    checkpoint, which is older than the last step."""
    src = tmp_path / "in.el"
    src.write_text("\n".join(surrogate_lines(n_classes=60, seed=1)) + "\n")
    parts = tmp_path / "s"
    assert run(["split", str(src), str(parts), "--seed", "5"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=300\nbatch_size=64\npatience=1\nseed=3\n")
    model = parts / "m.tsv"
    assert run(["train", "--config", str(cfg), "--variant", "emel-var",
                str(parts / "train.el"), str(model)]) == 0
    log = [line.split("\t") for line in
           (parts / "m.tsv.log.tsv").read_text().splitlines()[1:]]
    hits = [float(row[-1]) for row in log if row[-1] != "nan"]
    # stopped early, one evaluation after the best one
    assert len(log) == 150 and hits[-1] < max(hits) == hits[-2]
    assert digests(model) == GOLDEN_EARLY_STOP


# sha256 of the model file, the log and the rank report of the fixed-seed
# baseline run below, per model.
GOLDEN_BASELINE = {
    "transe": (
        "b8e0ce045301a0efd078947e218aa2faf70ea70d4a313165afca95b9f88f94fa",
        "3a9afe20f33b2e77ddccedf3890dcf0fb7acd401ad90e452a25aacc82d01d3f4",
        "715e8e5e84b9000046a8f7568520b4ae4d449a3b8f42f3ff6b7e30da24f521c4",
    ),
    "transh": (
        "406ba0997977c38f361d22ca3761367a94a2b94d5b69c72f9811fc331ef3e0ca",
        "0e843592eb9834dd6a018917f6a8a5020ef006d7991ed67f0dc83c2ed51a46bd",
        "d146c1650ae2f71449f52d1c41fdf1746356dcf1dc13c00675d5a8afb1697437",
    ),
    "distmult": (
        "f1c758cf3f6b69f752c365a1e269925a510a11392c035ac92566c8d87d2a7e65",
        "0f7be7e544544ee6369872c7748eafa97bfa8a35268520ceea09ac5f3c9804e8",
        "69360ff5a6ea1eb69795fe777302d9e943de0f86a57072773daf457d6929c410",
    ),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_BASELINE))
def test_baseline_output_bytes_are_pinned(tmp_path, fixture_file, model):
    """split, train a baseline with a fixed seed and several batches per
    epoch, then eval: the model file, log and report are the recorded
    bytes."""
    parts = tmp_path / "s"
    assert run(["split", fixture_file, str(parts), "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=30\nbatch_size=4\nseed=3\n")
    out = tmp_path / "m.tsv"
    assert run(["train", "--model", model, "--config", str(cfg),
                str(parts / "train.el"), str(out)]) == 0
    report = tmp_path / "r.tsv"
    assert run(["eval", str(out), str(parts / "test.el"), str(report)]) == 0
    assert digests(out) + (
        hashlib.sha256(report.read_bytes()).hexdigest(),
    ) == GOLDEN_BASELINE[model]


# split, an emel-var train with one validation ranking, a filtered sub eval
# and a radius-adjusted sup eval of it, and a TransH train with a filtered
# eval, in one interpreter; prints the process's thread count when /proc
# shows it
BLAS_PIPELINE = """
import os, sys
from geodl.cli import main
for argv in ("split input.el split --seed 3",
             "train split/train.el model.tsv --config train.cfg"
             " --variant emel-var --seed 3",
             "eval model.tsv split/test.el eval.tsv --filtered split/train.el",
             "eval model.tsv split/test.el sup.tsv --direction sup"
             " --radius-adjusted",
             "train split/train.el transh.tsv --config train.cfg"
             " --model transh --seed 3",
             "eval transh.tsv split/test.el transh_eval.tsv"
             " --filtered split/train.el"):
    if main(argv.split()):
        sys.exit(f"geodl {argv} failed")
task = "/proc/self/task"
print(len(os.listdir(task)) if os.path.isdir(task) else 0)
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The pipeline above writes the same bytes into every output file with
    OpenBLAS at one thread and at two, each in a fresh interpreter: ranking
    proves its ranks independent of the block product's summation order,
    and nothing else may depend on it either."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    outputs, threads = {}, {}
    for n in ("1", "2"):
        work = tmp_path / f"threads{n}"
        work.mkdir()
        (work / "input.el").write_text(
            "\n".join(surrogate_lines(n_classes=300, seed=1)) + "\n")
        (work / "train.cfg").write_text("epochs=25\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
               "PYTHONPATH": os.pathsep.join(
                   [src_dir, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", BLAS_PIPELINE], cwd=work,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        threads[n] = int(done.stdout.split()[-1])
        outputs[n] = {str(p.relative_to(work)): p.read_bytes()
                      for p in sorted(work.rglob("*")) if p.is_file()}
    assert {"model.tsv", "model.tsv.log.tsv", "eval.tsv", "sup.tsv",
            "transh.tsv", "transh.tsv.log.tsv", "transh_eval.tsv",
            "split/train.el", "split/valid.el", "split/test.el"} <= set(outputs["1"])
    assert outputs["2"] == outputs["1"]
    if threads["1"] and len(os.sched_getaffinity(0)) >= 2:
        assert threads["2"] > threads["1"]  # the setting took effect


def bench_tracing(monkeypatch):
    """The benchmark's tracing module and the geodl modules it wraps."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    modules = {name: importlib.import_module(f"geodl.{name}")
               for name in ("cli", "model", "training", "ranking", "baselines")}
    return importlib.import_module("tracing"), modules


def test_bench_tracer_installs_and_uninstalls(monkeypatch, tmp_path):
    """Every function the benchmark's tracer wraps is still where the tracer
    looks it up, training reaches every kernel through the wrapped module
    attribute, tracing changes no output byte, and uninstalling puts each
    original back."""
    tracing, modules = bench_tracing(monkeypatch)
    config = "dim=6\nepochs=20\nbatch_size=8\nseed=3\n"
    traced_dir, plain_dir = tmp_path / "traced", tmp_path / "plain"
    traced_dir.mkdir()
    plain_dir.mkdir()

    def lookup(module, path):
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[attr]

    originals = [lookup(module, path) for module, path, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        wrapped = [lookup(module, path) for module, path, _ in tracing.TRACED]
        model = train_every_shape(traced_dir, "emel", config)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(None)
    assert all(metrics[f"model.{key}_rows"] > 0 for key in tracing.KERNELS)
    axioms, _ = parse_ontology((traced_dir / "in.el").read_text().splitlines())
    batches = 20 * math.ceil(len(normalize(axioms).axioms) / 8)
    assert metrics["training.batches"] == batches
    plain = train_every_shape(plain_dir, "emel", config)
    assert digests(model) == digests(plain)
    assert len(tracing.TRACED) == 26
    assert all(new is not old for new, old in zip(wrapped, originals))
    assert all(lookup(module, path) is old
               for (module, path, _), old in zip(tracing.TRACED, originals))


def test_bench_tracer_times_baseline_training(monkeypatch, tmp_path,
                                              fixture_file):
    """A traced TransH run reaches the baseline's training, scoring and
    gradient through the wrapped names, and writes the bytes of the same run
    untraced."""
    tracing, modules = bench_tracing(monkeypatch)
    parts = tmp_path / "s"
    assert run(["split", fixture_file, str(parts), "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=30\nbatch_size=4\nseed=3\n")
    argv = ["train", "--model", "transh", "--config", str(cfg),
            str(parts / "train.el")]
    traced_dir, plain_dir = tmp_path / "traced", tmp_path / "plain"
    traced_dir.mkdir()
    plain_dir.mkdir()
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        assert run(argv + [str(traced_dir / "m.tsv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(None)
    assert all(metrics[f"baselines.{name}_s"] > 0.0
               for name in ("train_baseline", "scores_batch", "score_grads"))
    assert run(argv + [str(plain_dir / "m.tsv")]) == 0
    assert digests(traced_dir / "m.tsv") == digests(plain_dir / "m.tsv")


# --- fuzzing through main: every input exits 0, 1 or 2 -------------------------

AXIOM_TOKENS = [
    "subClassOf(", "disjointWith(", "some(", "and(", "nominal(", "bottom",
    "top", "A", "B", "Cat", "r", "__nf_0", ",", "(", ")", " ", "\n", "#",
    "\t", "=", "\u00e9", "\x00",
]


def main_quietly(argv):
    """main's return value and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


CONCEPTS = st.recursive(
    st.sampled_from(["A", "B", "Cat", "__nf_0", "top", "bottom",
                     "nominal(x)"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["r", "s"]), inner).map(
            lambda t: f"some({t[0]},{t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"and({t[0]},{t[1]})"),
    ),
    max_leaves=4,
)
AXIOM_LINES = st.one_of(
    st.tuples(st.sampled_from(["subClassOf", "disjointWith"]), CONCEPTS,
              CONCEPTS).map(lambda t: f"{t[0]}({t[1]},{t[2]})"),
    st.lists(st.sampled_from(AXIOM_TOKENS) | st.text(max_size=4),
             max_size=8).map("".join),
)


@settings(max_examples=60)
@given(st.lists(AXIOM_LINES, max_size=12).map("\n".join))
@example("subClassOf(A,B)\nsubClassOf(A,some(r,B))\nsubClassOf(nominal(x),A)\n")
@example("subClassOf(A,B")
@example("subClassOf(and(A,B),bottom)\ndisjointWith(A,A)\n")
def test_axiom_text_fuzz_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as work:
        src = os.path.join(work, "in.el")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(text)
        cfg = os.path.join(work, "c.cfg")
        with open(cfg, "w") as fh:
            fh.write("dim=2\nepochs=2\nbatch_size=4\n")
        for argv in (["stats", src],
                     ["normalize", src, os.path.join(work, "out.el")],
                     ["train", "--config", cfg, "--variant", "emel-var", src,
                      os.path.join(work, "m.tsv")]):
            code, err = main_quietly(argv)
            assert code in (0, 1, 2), argv[0]
            assert "Traceback" not in err


MODEL_TOKENS = [
    "\t", "\n", " ", "nan", "inf", "-inf", "1e400", "-", ".", "e", "0", "1",
    "=", "C", "R", "W", "#geodl v1 ", "#geodl-baseline v1 ", "dim=",
    "variant=", "margin=", "model=", "EmEl", "transh", "Cat",
]


@st.composite
def corrupted(draw, kind):
    """A valid hand-made model file of *kind*, with one to three spans
    replaced by model-file tokens or arbitrary bytes."""
    with tempfile.TemporaryDirectory() as work:
        lines, _ = write_eval_inputs(Path(work), kind)
    data = ("\n".join(lines) + "\n").encode()
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 12)))
        piece = draw(st.lists(st.sampled_from(MODEL_TOKENS), max_size=3)
                     .map("".join).map(str.encode) | st.binary(max_size=4))
        data = data[:start] + piece + data[end:]
    return data


@settings(max_examples=60)
@given(st.sampled_from(["ball", "transh"]).flatmap(
    lambda kind: st.tuples(st.just(kind), corrupted(kind))))
def test_corrupted_model_fuzz_exits_cleanly(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as work:
        model = os.path.join(work, "m.tsv")
        with open(model, "wb") as fh:
            fh.write(data)
        test = os.path.join(work, "t.el")
        with open(test, "w") as fh:
            fh.write("subClassOf(Cat,Mammal)\n")
        code, err = main_quietly(["eval", model, test,
                                  os.path.join(work, "r.tsv")])
    assert code in (0, 1, 2), kind
    assert "Traceback" not in err
