from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from geodl.model import EmbeddingState, GradientAccumulator, Variant, batch_terms

settings.register_profile("default", deadline=None)
settings.load_profile("default")

# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_state(rng, num_classes=4, num_relations=2, dim=3, scale=2.0):
    """A small random parameter state, not on the unit sphere on purpose."""
    return EmbeddingState(
        class_centers=rng.uniform(-scale, scale, size=(num_classes, dim)),
        class_radii_raw=rng.uniform(-1.0, 1.0, size=num_classes),
        relation_vectors=rng.uniform(-scale, scale, size=(num_relations, dim)),
        relation_sigmas_raw=rng.uniform(-1.0, 1.0, size=num_relations),
    )


class Term(NamedTuple):
    value: float
    hinge: float
    acc: GradientAccumulator


def one_term(key, state, ids, gamma=0.0, variant=Variant.EMEL, sigma_reg=1.0):
    """``batch_terms`` over one term of one row: *ids* in the kernel's
    column order, e.g. ``(c, r, d)`` for nf3, nf4 and nf3_negative.
    Returns ``(value, hinge, acc)``."""
    acc = GradientAccumulator.zeros_like(state)
    [(values, hinges)] = batch_terms(
        state, [(key, [np.array([i]) for i in ids])], gamma, variant, acc,
        sigma_reg)
    return Term(float(values[0]), float(hinges[0]), acc)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
