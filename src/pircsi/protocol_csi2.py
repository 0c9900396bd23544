"""Retrieval protocol for demands inside the side-information support.

The shape of the query depends only on the support size M:

* M == 1: the side information is c_1 * X_W itself, so nothing is sent.
* M == 2 (single-probe case, tag 1): ask for one index, the demand with
  probability 1/K under a fresh coefficient, and otherwise its support
  partner under the partner's own.
* 3 <= M <= K/2 (disjoint case, tag 2): send S without the demand under its
  true coefficients, plus a disjoint cover set of the same size.
* K/2 < M <= K-1 (overlap case, tag 3): send S with a fresh coefficient on
  the demand, plus a cover set holding everything outside S and a few
  repeated support indices.
* M == K (full case, tag 4): send all of [K] with a fresh coefficient on the
  demand.

Each case downloads 0, 1, or 2 elements, matching the second-model capacity,
and leaves X_W one linear step from one downloaded element and Y.  This
module holds only the case table, the structure draw and the shape rules;
pircsi.protocols holds what both models share.
"""

from functools import lru_cache

import numpy as np

from .draws import draws_from, in_random_order, unplaced
from .errors import ParameterError, ShapeError
from .pmf import Cdf, case2_pmf, case3_pmf

CASE_TRIVIAL = 0
CASE_SINGLE = 1
CASE_DISJOINT = 2
CASE_OVERLAP = 3
CASE_FULL = 4

CASE_TAGS = (CASE_TRIVIAL, CASE_SINGLE, CASE_DISJOINT, CASE_OVERLAP, CASE_FULL)


def case_shape(case: int, K: int) -> tuple[int, int | None]:
    """Set count and fixed set size of a case's query against K messages.
    The size is None where it varies with M; paired sets share one size."""
    return {
        CASE_TRIVIAL: (0, None),
        CASE_SINGLE: (1, 1),
        CASE_DISJOINT: (2, None),
        CASE_OVERLAP: (2, None),
        CASE_FULL: (1, K),
    }[case]


# Why a set of the wrong fixed size was refused, by case.
_SIZE_ERRORS = {
    CASE_SINGLE: "single-probe case takes exactly one index",
    CASE_FULL: "full case must cover the whole database",
}


def case_for(K: int, M: int) -> int:
    """Which query shape a support of size M uses against K messages."""
    if not 1 <= M <= K:
        raise ParameterError(f"need 1 <= M <= K, got M={M}, K={K}")
    if M == 1:
        return CASE_TRIVIAL
    if M == 2:
        return CASE_SINGLE
    if M == K:
        return CASE_FULL
    if 2 * M <= K:
        return CASE_DISJOINT
    return CASE_OVERLAP


def download_cost(K: int, M: int) -> int:
    """Field elements downloaded per retrieval: 0, 1, or 2."""
    return case_shape(case_for(K, M), K)[0]


def draw_structures(W: np.ndarray, S: np.ndarray, K: int, rng):
    """The index sets of T >= 1 queries at once, for the (T,) demands W
    inside the (T, M) supports S (sorted, though any order draws the same
    law): a (T, n, s) int64 array, row t holding query t's sets in
    transmitted order, and the (T,) demand slots, None in the trivial case.
    The case, and so the shape, follows from (K, M) alone.  rng is a
    random.Random or another interpreter of the draw primitives (pircsi.draws)."""
    T, M = S.shape
    if not T:
        raise ParameterError("a structure draw needs at least one trial, got T=0")
    if not (S == W[:, None]).any(axis=1).all():
        raise ParameterError("demand must lie inside the support")
    if S.min() < 1 or S.max() > K:
        raise ParameterError("scenario indices exceed the database size")
    d, case = draws_from(rng), case_for(K, M)

    if case == CASE_TRIVIAL:
        return np.empty((T, 0, 0), np.int64), None
    if case == CASE_SINGLE:
        # Probe the partner?  Outcome 0 (mass 1/K) probes W.
        partner = S.sum(axis=1) - W
        probe = np.where(d.choose(Cdf(K, (1, K), (False, True)), T), partner, W)
        return probe.reshape(T, 1, 1), np.zeros(T, np.int64)
    if case == CASE_FULL:
        sets = S.copy()
        d.shuffle(sets)
        return sets.reshape(T, 1, M), np.zeros(T, np.int64)

    # The outside pool from one mask over [0, K] per trial: 0 is no index,
    # so it is marked with S.
    inside = np.zeros((T, K + 1), bool)
    inside[np.arange(T)[:, None], S] = inside[:, 0] = True
    outside = unplaced(inside)
    others = S[S != W[:, None]].reshape(T, M - 1)  # S without the demand
    sets = np.empty((T, 2, M - (case == CASE_DISJOINT)), np.int64)
    known, cover = sets[:, 0], sets[:, 1]
    if case == CASE_DISJOINT:
        # S without the demand, and a cover set of r outside indices that the
        # demand completes in the smaller branch, r = M - 2.
        known[:], pool, end = others, outside, M - 1
    else:  # CASE_OVERLAP
        # S itself, and a cover set of r repeated support indices, the demand
        # among them in the smaller branch (r = 2M - K - 1), then everything
        # outside S.
        end = 2 * M - K
        known[:], pool, cover[:, end:] = S, others, outside
    cdf = _cover_cdf(case, K, M)
    branches = d.choose(cdf, T)
    sizes = np.bincount(branches, minlength=len(cdf.outcomes)).tolist()
    for k, r in enumerate(cdf.outcomes):
        if sizes[k]:  # each branch's trials drawn together; views when it holds every trial
            at = slice(None) if sizes[k] == T else (branches == k).nonzero()[0]
            cover[at, :r], cover[at, r:end] = d.sample(pool[at], r), W[at, None]
    d.shuffle(sets.reshape(2 * T, -1))  # each set's elements
    return in_random_order(d, sets)


@lru_cache(maxsize=None)
def _cover_cdf(case: int, K: int, M: int) -> Cdf:
    """The cover-set pmf of the disjoint or the overlap case, ready to draw from."""
    return Cdf.of(case2_pmf(K, M) if case == CASE_DISJOINT else case3_pmf(K, M))


def check_sizes(case_tag: int, sizes: list[int], K: int) -> None:
    """The second model's shape rules on a case tag and the list of set
    sizes: a known case tag, case_shape's set count and size, no empty set,
    equal paired sizes."""
    if case_tag not in CASE_TAGS:
        raise ShapeError(f"unknown case tag {case_tag!r}", "case")
    n_sets, size = case_shape(case_tag, K)
    if len(sizes) != n_sets:
        text = f"case {case_tag} carries {n_sets} sets, payload has {len(sizes)}"
        raise ShapeError(text, "count")
    if 0 in sizes:
        raise ShapeError("empty query set", "size")
    if size is not None and sizes.count(size) != n_sets:
        raise ShapeError(_SIZE_ERRORS[case_tag], "size")
    if n_sets == 2 and sizes[0] != sizes[1]:
        raise ShapeError("paired sets must have equal sizes", "size")
