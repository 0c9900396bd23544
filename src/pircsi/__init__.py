"""Private information retrieval with coded side information.

A client who caches one random linear combination of M database messages can
retrieve another message from a single server without revealing which one it
wants.  This package implements the two retrieval protocols (demand outside
or inside the cached combination's support), the exact distributions that
make them private, auditors that verify privacy and recoverability, and a
small wire protocol plus CLI for running the whole thing end to end.
"""

from .errors import (
    AuditSizeError,
    ParameterError,
    ProtocolError,
    SetRuleError,
    ShapeError,
    WireParseError,
)
from .field import FieldElement, FieldParams
from .model import (
    MODEL_I,
    MODEL_II,
    Database,
    Scenario,
    sample_demand,
    sample_scenario,
    side_information,
)
from .pmf import (
    RpDistribution,
    capacity,
    case2_pmf,
    case3_pmf,
    partition_rounds,
    rp_distribution,
    sample_from_pmf,
)
from .protocols import (
    Answer,
    DecoderState,
    Query,
    QuerySet,
    answer_query,
    build_query,
    canonical_fingerprint,
    decode_answer,
)
from .protocol_csi2 import (
    CASE_DISJOINT,
    CASE_FULL,
    CASE_OVERLAP,
    CASE_SINGLE,
    CASE_TRIVIAL,
    case_for,
    download_cost,
)
from .audit import (
    MUTATIONS,
    MonteCarloReport,
    PosteriorReport,
    RateReport,
    RecoverabilityReport,
    audit_exact,
    audit_montecarlo,
    audit_recoverability,
    measure_rate,
)
from . import protocol_csi2, protocol_rp, wire

__version__ = "0.1.0"

__all__ = [
    "AuditSizeError",
    "Answer",
    "CASE_DISJOINT",
    "CASE_FULL",
    "CASE_OVERLAP",
    "CASE_SINGLE",
    "CASE_TRIVIAL",
    "Database",
    "DecoderState",
    "FieldElement",
    "FieldParams",
    "MODEL_I",
    "MODEL_II",
    "MUTATIONS",
    "MonteCarloReport",
    "ParameterError",
    "PosteriorReport",
    "ProtocolError",
    "Query",
    "QuerySet",
    "RateReport",
    "RecoverabilityReport",
    "RpDistribution",
    "Scenario",
    "SetRuleError",
    "ShapeError",
    "WireParseError",
    "answer_query",
    "audit_exact",
    "audit_montecarlo",
    "audit_recoverability",
    "build_query",
    "canonical_fingerprint",
    "capacity",
    "case2_pmf",
    "case3_pmf",
    "case_for",
    "decode_answer",
    "download_cost",
    "measure_rate",
    "partition_rounds",
    "protocol_csi2",
    "protocol_rp",
    "rp_distribution",
    "sample_from_pmf",
    "sample_demand",
    "sample_scenario",
    "side_information",
    "wire",
]
