"""Shared fixtures, the deviation bound used by the statistical tests, and
builders of hand-written queries and answers."""
import math

import numpy as np
import pytest

from pircsi import MODEL_I, Answer, FieldParams, Query


def count_bound(trials: int, p: float, sigmas: float = 4.0) -> float:
    """Allowed |count - trials*p| for a binomial count, in standard deviations."""
    return sigmas * math.sqrt(trials * p * (1.0 - p))


def query_of(sets, model: str = MODEL_I, case_tag: int = 0) -> Query:
    """The Query of hand-written (indices, coefficients) pairs of one size."""
    shape = len(sets), len(sets[0][0]) if sets else 0
    idx = np.array([i for i, _ in sets], np.int64).reshape(shape)
    coef = np.array([c for _, c in sets], np.int64).reshape(shape)
    return Query(idx, coef, model, case_tag)


def message(db, index: int):
    """Message X_index of the database, 1-based, as the FieldElement a
    decoder gives: row index - 1 of its words."""
    return db.params.element(db.words[index - 1])


def answer_of(params: FieldParams, values) -> Answer:
    """The Answer of a sequence of field elements."""
    words = np.array([x.coeffs for x in values], dtype=np.int64)
    return Answer(params, words.reshape(len(values), params.m))


@pytest.fixture(scope="session")
def gf3() -> FieldParams:
    return FieldParams(3)


@pytest.fixture(scope="session")
def gf9() -> FieldParams:
    return FieldParams(3, 2)
