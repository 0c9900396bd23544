"""The one place that picks a protocol by model.

Both protocol modules expose build_query, answer_query and decode_answer with
the same signatures, so callers look the module up here instead of branching
on the model themselves.
"""

from . import protocol_csi2, protocol_rp
from .model import MODEL_I, MODEL_II

PROTOCOLS = {MODEL_I: protocol_rp, MODEL_II: protocol_csi2}
