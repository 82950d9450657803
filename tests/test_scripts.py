"""The experiment scripts run end to end on small settings.

Each script's ``main`` is called in-process with arguments that finish in
seconds; the checks are that it returns one of its two exit codes and
prints its summary line.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, summary", [
    ("surrogate_ranking_trend", ["--seeds", "0", "--epochs", "2", "--dim", "4"],
     "variant at or below base in "),
    ("many_to_many_separation", ["--seeds", "0", "--epochs", "5"],
     "worst ratio "),
])
def test_script_runs(name, argv, summary, capsys):
    assert load(name).main(argv) in (0, 1)
    assert summary in capsys.readouterr().out
