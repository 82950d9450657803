import os

import numpy as np
import pytest

from geodl.cli import main
from geodl.parser import parse_ontology

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


def test_stats_matches_parse_ontology(fixture_file, capsys):
    assert run(["stats", fixture_file]) == 0
    out = capsys.readouterr().out
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    _, stats = parse_ontology(GALEN_ISH)
    assert int(rows["axioms"]) == stats.axiom_count
    assert int(rows["classes"]) == stats.class_count
    assert int(rows["relations"]) == stats.relation_count
    assert int(rows["individuals"]) == stats.individual_count


def test_normalize_idempotent_on_normal_input(tmp_path, fixture_file):
    out1 = str(tmp_path / "norm1.el")
    out2 = str(tmp_path / "norm2.el")
    assert run(["normalize", fixture_file, out1]) == 0
    assert run(["normalize", out1, out2]) == 0

    def axiom_lines(path):
        return [l for l in open(path).read().splitlines()
                if l and not l.startswith("#")]

    assert axiom_lines(out1) == axiom_lines(out2)
    assert os.path.exists(out1 + ".fresh.tsv")


def test_normalize_refuses_to_overwrite_input(fixture_file):
    assert run(["normalize", fixture_file, fixture_file]) == 1


def test_split_writes_parts_and_report(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    for name in ("train.el", "valid.el", "test.el", "split.tsv"):
        assert os.path.exists(os.path.join(out_dir, name))
    report = dict(
        line.split("\t")
        for line in open(os.path.join(out_dir, "split.tsv")).read().splitlines()
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
        a = open(os.path.join(dir1, name), "rb").read()
        b = open(os.path.join(dir2, name), "rb").read()
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
    header = open(model).readline()
    assert header.startswith("#geodl v1 dim=6 variant=EmElVar")

    report = str(tmp_path / "report.tsv")
    test_file = os.path.join(out_dir, "test.el")
    assert run(["eval", model, test_file, report]) == 0
    rows = [l for l in open(report).read().splitlines() if not l.startswith("#")]
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
    header = open(model).readline()
    assert header.startswith("#geodl-baseline v1 model=transe dim=6")
    report = str(tmp_path / "report.tsv")
    assert run(["eval", model, os.path.join(out_dir, "test.el"), report]) == 0
    rows = [l for l in open(report).read().splitlines() if not l.startswith("#")]
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
    first = open(report).readline()
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
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_unknown_flag_exits_1(fixture_file, capsys):
    assert run(["stats", "--bogus", fixture_file]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert run(["stats", str(tmp_path / "nope.el")]) == 1
    err = capsys.readouterr().err
    assert "not found" in err


def test_syntax_error_exits_1_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("subClassOf(A,B)\nsubClassOf(A,\n")
    assert run(["stats", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


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
    before = open(fixture_file, "rb").read()
    out_dir = str(tmp_path / "s")
    run(["split", fixture_file, out_dir])
    run(["normalize", fixture_file, str(tmp_path / "n.el")])
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=2\n")
    run(["train", "--config", str(cfg), fixture_file, str(tmp_path / "m.tsv")])
    assert open(fixture_file, "rb").read() == before


def test_sibling_valid_file_enables_early_stopping(tmp_path, fixture_file):
    out_dir = str(tmp_path / "splits")
    assert run(["split", fixture_file, out_dir, "--seed", "7"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=4\nepochs=60\npatience=1\n")
    model = str(tmp_path / "m.tsv")
    assert run([
        "train", "--config", str(cfg), os.path.join(out_dir, "train.el"), model
    ]) == 0
    log = open(model + ".log.tsv").read().splitlines()
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


MALFORMED = {
    # name: (model kind, edit of the model file's lines, 1-based bad line)
    "ball_header_without_variant": (
        "ball", lambda l: ["#geodl v1 dim=2 margin=0.1"] + l[1:], 1),
    "ball_unknown_header_field": (
        "ball", lambda l: [l[0] + " seed=3"] + l[1:], 1),
    "ball_malformed_header_field": (
        "ball", lambda l: [l[0] + " dim"] + l[1:], 1),
    "ball_dim_zero": (
        "ball", lambda l: ["#geodl v1 dim=0 variant=EmEl margin=0.1"], 1),
    "ball_duplicate_class": ("ball", lambda l: l[:2] + l[1:], 3),
    "ball_duplicate_relation": ("ball", lambda l: l + l[-1:], 7),
    "ball_nan_parameter": (
        "ball", lambda l: l[:2] + [l[2].rsplit("\t", 1)[0] + "\tnan"] + l[3:], 3),
    "baseline_without_model": (
        "transe", lambda l: ["#geodl-baseline v1 dim=2"] + l[1:], 1),
    "baseline_without_dim": (
        "transe", lambda l: ["#geodl-baseline v1 model=transe"] + l[1:], 1),
    "baseline_unknown_model": (
        "transe", lambda l: ["#geodl-baseline v1 model=rotate dim=2"] + l[1:], 1),
    "baseline_duplicate_entity": ("distmult", lambda l: l[:3] + l[2:], 4),
    "baseline_inf_parameter": (
        "transe", lambda l: l[:1] + [l[1].rsplit("\t", 1)[0] + "\tinf"] + l[2:], 2),
    "transh_missing_w_row": ("transh", lambda l: l[:-1], 7),
    "transe_with_w_row": (
        "transe", lambda l: l + ["W\teats\t1\t0"], 8),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_eval_malformed_model_exits_1_with_line(tmp_path, capsys, case):
    kind, edit, line = MALFORMED[case]
    assert eval_edited(tmp_path, kind, edit) == 1
    err = capsys.readouterr().err
    assert f"m.tsv:{line}:" in err
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


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_train_output_bytes_are_pinned(tmp_path, variant):
    """Every normal form and a nominal, trained with a fixed seed, write
    exactly the recorded bytes: a change to training that alters the
    accumulation order or the arithmetic fails here."""
    import hashlib

    from geodl.synthetic import hub_spoke_lines

    lines = hub_spoke_lines(8) + [
        "subClassOf(and(T1,T2),T3)",
        "subClassOf(some(linksTo,T4),T5)",
        "subClassOf(nominal(x),Hub)",
        "subClassOf(T6,bottom)",
    ]
    src = tmp_path / "in.el"
    src.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim=6\nepochs=20\nbatch_size=8\nseed=3\n")
    model = tmp_path / "m.tsv"
    assert run(["train", "--config", str(cfg), "--variant", variant,
                str(src), str(model)]) == 0
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (model, tmp_path / "m.tsv.log.tsv")
    )
    assert digests == GOLDEN[variant]
