"""Arc-coloured permutations and set partitions: crossing and nesting
statistics, tableau encodings, the crossing/nesting involution, transfer
multigraphs and exact rational generating functions."""

from .automata import (
    Multigraph,
    build_general,
    build_permutation_22,
    build_quotient,
    build_setpartition_22,
    export_dot,
)
from .diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    JointHistogram,
    VertexKind,
    closers,
    cr_ne,
    max_crossing,
    max_nesting,
    openers,
    parse_diagram,
    vertex_kind,
)
from .errors import CapExceeded, ConsistencyError
from .involution import involute
from .oracle import EnumSpec, count, enumerate_objects, joint_histogram
from .ratfunc import (
    IntPoly,
    RationalFunction,
    Series,
    gf_from_graph,
    series,
    series_by_power,
    split_linear_factors,
)
from .tableaux import (
    TableauKind,
    TableauSequence,
    decode,
    encode_hesitating,
    encode_semioscillating,
    encode_vacillating,
    transpose_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ColouredPermutation",
    "ColouredSetPartition",
    "ConsistencyError",
    "EnumSpec",
    "IntPoly",
    "JointHistogram",
    "Multigraph",
    "RationalFunction",
    "Series",
    "TableauKind",
    "TableauSequence",
    "VertexKind",
    "build_general",
    "build_permutation_22",
    "build_quotient",
    "build_setpartition_22",
    "closers",
    "count",
    "cr_ne",
    "decode",
    "encode_hesitating",
    "encode_semioscillating",
    "encode_vacillating",
    "enumerate_objects",
    "export_dot",
    "gf_from_graph",
    "involute",
    "joint_histogram",
    "max_crossing",
    "max_nesting",
    "openers",
    "parse_diagram",
    "series",
    "series_by_power",
    "split_linear_factors",
    "transpose_sequence",
    "vertex_kind",
]
