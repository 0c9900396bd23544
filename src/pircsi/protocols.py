"""The one place that picks a protocol by model.

Both protocol modules expose the same entry points with the same signatures,
so callers look the module up here instead of branching on the model:

    build_query(scenario, K, rng)       draw_structure, then attach_coefficients
    draw_structure(W, S, K, rng)        the index sets, their order, the demand slot
    attach_coefficients(structure, scenario, rng)
                                        the coefficients; returns (Query, DecoderState)
    check_shape(query, K)               the model, then check_sizes; raises ShapeError
    check_sizes(case_tag, sizes, K)     the model's shape rules on the case tag and
                                        the list of set sizes; raises ShapeError
    answer_query(db, query)             check_shape and check_sets, then the answer
    decode_answer(answer, state)        the demand, from the answer and the client state

Both build the one query type, protocol_rp.Query; its model field names the
module that answers it.  Both draw the fresh coefficients of all cover sets
of a query in one field.sample_coefficients call, which gives the values of
one randrange(1, q) per index.  Both share one decoder: attach_coefficients returns
DecoderState(scenario, demand_slot, a, b), and decode_answer, protocol_rp's
in both modules, computes X_W = a * A[demand_slot] + b * Y.

The server never builds a Query: wire parses a query frame straight into
the flat index and coefficient arrays of protocol_rp's kernel, checks them
with check_sizes and protocol_rp.check_set_arrays, and writes the answer
frame from protocol_rp.answer_words.  Either model's sets share one size,
and check_set_arrays, which check_sets runs too, takes sets of one size
only.
"""

from . import protocol_csi2, protocol_rp
from .model import MODEL_I, MODEL_II

PROTOCOLS = {MODEL_I: protocol_rp, MODEL_II: protocol_csi2}
