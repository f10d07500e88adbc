"""Exact query-complexity workbench for Boolean functions on hypercube slices."""

ENGINE_VERSION = "2"

from .errors import (
    AdversaryExhaustedError,
    AdversaryInvalidError,
    DomainError,
    FormatError,
    MatchProtocolError,
    MembershipError,
    ResourceCapError,
    SliceBenchError,
    VerificationError,
)
from .slicecore import (
    BOOLEAN,
    Assignment,
    Domain,
    LabeledFunction,
    SliceGraph,
    from_graph,
    mask_to_string,
    string_to_mask,
    to_graph,
)

__all__ = [
    "AdversaryExhaustedError",
    "AdversaryInvalidError",
    "Assignment",
    "BOOLEAN",
    "Domain",
    "DomainError",
    "ENGINE_VERSION",
    "FormatError",
    "LabeledFunction",
    "MatchProtocolError",
    "MembershipError",
    "ResourceCapError",
    "SliceBenchError",
    "SliceGraph",
    "VerificationError",
    "from_graph",
    "mask_to_string",
    "string_to_mask",
    "to_graph",
]
