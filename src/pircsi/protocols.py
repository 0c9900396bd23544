"""The one place that picks a protocol by model.

Both protocol modules expose the same entry points with the same signatures,
so callers look the module up here instead of branching on the model:

    build_query(scenario, K, rng)       draw_structures at T = 1, then attach_coefficients
                                        (protocol_rp's then runs check_partition)
    draw_structures(W, S, K, rng)       the model's one structure draw, with no other knob:
                                        the index sets of T >= 1 queries for (T,) demands and
                                        (T, M) supports in transmitted order, (T, n, s) int64,
                                        and the (T,) demand slots (None when no set is sent);
                                        rng is a Random or a draws interpreter, mutants included
    attach_coefficients(idx, slot, case_tag, support, scenario, rng)
                                        one query's coefficients; returns (Query,
                                        DecoderState); protocol_rp's, for both models
    check_sizes(case_tag, sizes, K)     the model's shape rules on the case tag and
                                        the list of set sizes; raises ShapeError
    answer_query(db, query)             the model, then the server's calls: check_sizes,
                                        check_set_arrays and model.answer_words
    decode_answer(answer, state)        the demand, from the answer and the client state;
                                        one function, protocol_rp's, for both models

Both build the one query type, protocol_rp.Query, whose model names the
module that answers it and whose (n, s) index and coefficient arrays go
from attach_coefficients (the index array from draw_structures) to the
encoder's check_set_arrays and record array.  Both
draw a query's structure and all its coefficients over one
draws.RandomDraws, the coefficients by coefficients(q, count) on the
thread's numpy Generator: one call for the (n, s) array, and one more for
the demand where its set holds it.  attach_coefficients returns
DecoderState(scenario, demand_slot, a, b), and decode_answer computes
X_W = a * A[demand_slot] + b * Y mod q as one expression on word rows: that
row of the Answer's (n, m) word array and Y's words.  The server parses a
frame into the same arrays, checks them with check_sizes and
check_set_arrays, and answers from model.answer_words, the same arithmetic
on the database's K×m word array.
"""

from . import protocol_csi2, protocol_rp
from .model import MODEL_I, MODEL_II

PROTOCOLS = {MODEL_I: protocol_rp, MODEL_II: protocol_csi2}
