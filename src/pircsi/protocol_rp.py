"""Retrieval protocol for demands outside the side-information support.

The client sends n = ceil(K/(M+1)) index sets of size M+1 with fresh nonzero
coefficients.  The sets cover the whole database; l = (M+1)n - K indices
appear in exactly two sets ("repeats"), everything else in exactly one, and
all the repeats sit in one pair of sets.  One set is the demand set {W} on
S; whether it is in that pair, and with W repeated or not, is one draw from
the repeat-class pmf, weighted so that every candidate demand explains the
transmitted query equally well.  The server returns one field element per
set, and the client strips Y off the demand set's element.

This module holds only the first model's own rules: its structure draw,
partition guard and shape rules.  pircsi.protocols holds what both share.
"""

import numpy as np

from .draws import draws_from, in_random_order, unplaced
from .errors import ParameterError, ProtocolError, ShapeError
from .pmf import rp_distribution


def draw_structures(W: np.ndarray, S: np.ndarray, K: int, rng):
    """The index sets of T >= 1 queries at once, for the (T,) demands W
    outside the (T, M) sorted supports S: a (T, n, M+1) int64 array, row t
    holding query t's sets in transmitted order, and the (T,) demand slots.
    Everything the server sees of a query but its coefficients is drawn here,
    from (W, S) alone.  rng is a random.Random, or another interpreter of the
    draw primitives (pircsi.draws), such as the exact auditor's or a mutant."""
    T, M = S.shape
    if not T:
        raise ParameterError("a structure draw needs at least one trial, got T=0")
    if not 0 <= M < K:
        raise ParameterError(f"need 0 <= M < K, got M={M}, K={K}")
    if (S == W[:, None]).any():
        raise ParameterError("demand must lie outside the support")
    demand = np.concatenate([W[:, None], S], axis=1)  # the demand sets [W, *S]
    if demand.min() < 1 or demand.max() > K:
        raise ParameterError("scenario indices exceed the database size")
    d, dist = draws_from(rng), rp_distribution(K, M)
    n, l, cdf = dist.n, dist.l, dist.cdf
    sizes = [T]  # trials per repeat class; a pmf of one class needs no draw
    if len(cdf.outcomes) > 1:
        classes = d.choose(cdf, T)
        sizes = np.bincount(classes, minlength=len(cdf.outcomes)).tolist()
    # One mask over [0, K] per trial marks the indices placed so far; 0 is
    # no index, so the unmarked ones are the outside pool, in order.
    trial = np.arange(T)[:, None]
    placed = np.zeros((T, K + 1), bool)
    placed[:, 0] = True
    placed[trial, demand] = True
    sets = np.empty((T, n, M + 1), np.int64)  # each query's sets, the demand set first
    sets[:, 0] = demand
    d.shuffle(sets[:, 0])  # a view: the demand set in its own order
    # The l repeats sit in one pair of sets: two cover sets sharing r = l
    # outside indices, or the demand set and a partner holding s support
    # indices and W when s = l-1.  Every other set is disjoint from the rest.
    # The trials of one class are drawn together, and the fills of the pair
    # in one call, split among its cover sets.
    others = sets[:, 1:]  # a view: every set but the demand set
    for k, (s, r) in enumerate(cdf.outcomes):
        if not sizes[k]:
            continue
        # One class for every trial, as at T = 1: views, not copies.
        at = slice(None) if sizes[k] == T else (classes == k).nonzero()[0]
        mask, pieces = placed[at], []
        if l:
            rows = trial[: sizes[k]]
            if r:
                shared = d.sample(unplaced(mask), r)
                mask[rows, shared] = True
                partners = shared[:, None].repeat(2, axis=1)
            else:
                W, S = demand[at, :1], demand[at, 1:]
                partners = np.concatenate([d.sample(S, s), W[:, : l - s]], axis=1)[:, None]
            fill = M + 1 - l
            fills = d.blocks(unplaced(mask), len(partners[0]), fill)
            mask[rows, fills.reshape(sizes[k], -1)] = True
            pieces.append(np.concatenate([partners, fills], axis=2))
            d.shuffle(pieces[0].reshape(-1, M + 1))  # a view: each cover set shuffled in place
        pieces.append(d.split(unplaced(mask), M + 1))
        if any(piece.shape[2] != M + 1 for piece in pieces):
            raise ProtocolError("built a set of the wrong size")
        others[at] = np.concatenate(pieces, axis=1)
    return in_random_order(d, sets)


def check_partition(idx: np.ndarray, K: int, M: int) -> None:
    """The first model's construction guard on a query's (n, s) index array,
    or on a (T, n, s) stack of them: sets of M+1 indices, none twice in one
    set, that cover [1, K] with no index thrice and l = n(M+1) - K,
    n = ceil(K/(M+1)), twice.  Raises ProtocolError.  build_query runs it
    once per query, the screen on each chunk's stack of structures, and the
    exact auditor on the first leaf of each fingerprint."""
    if idx.shape[-1] != M + 1:
        raise ProtocolError("built a set of the wrong size")
    rows = np.sort(idx, axis=-1)
    if (rows[..., 1:] == rows[..., :-1]).any():
        raise ProtocolError("built a set with a repeated index")
    if idx.min() < 1:
        raise ProtocolError("built sets that do not cover the database")
    # counts[t * width + i]: the sets of query t holding index i, for i up
    # to the largest index of the stack or K, whichever is larger.
    flat = idx.reshape(-1, idx.shape[-2] * idx.shape[-1])
    width = max(int(idx.max()), K) + 1
    at = np.arange(0, width * len(flat), width)[:, None] + flat
    counts = np.bincount(at.ravel(), minlength=width * len(flat))
    if counts.max() > 2:
        raise ProtocolError("built sets with the wrong repeat budget")
    # Every index lies in [1, width): each query covers [1, K] when it holds
    # K distinct ones and none lies above K.
    if width > K + 1 or np.count_nonzero(counts) != K * len(flat):
        raise ProtocolError("built sets that do not cover the database")
    # Each of the K indices is held once or twice, so n(M+1) - K are twice.
    if idx.shape[-2] != -(-K // (M + 1)):
        raise ProtocolError("built sets with the wrong repeat budget")


def check_sizes(case_tag: int, sizes: list[int], K: int) -> None:
    """The first model's shape rules on a case tag and the list of set sizes:
    case tag 0, at least one set, and every set of one size 1 <= M+1 <= K."""
    if case_tag != 0:
        raise ShapeError(f"first-model queries use case tag 0, got {case_tag!r}", "case")
    if not sizes:
        raise ShapeError("first-model query carries no sets", "count")
    if 0 in sizes:
        raise ShapeError("empty query set", "size")
    size = sizes[0]
    if sizes.count(size) != len(sizes):
        raise ShapeError("first-model sets must share one size", "size")
    if size > K:
        raise ShapeError(f"set size {size} exceeds the database", "size")
