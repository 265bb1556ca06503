"""Normal forms and reference semantics for ground answer-set programs.

The package parses ground normal logic programs, computes their answer
sets and well-founded model with oracle-grade reference algorithms,
checks and constructs the kernel and 3-kernel normal forms, and
performs the normalizing transformations (anti-chain to kernel,
long-rule simplification, bridge elimination) with machine-checked
equivalence modulo projection.
"""

from .errors import (
    AspnfError,
    KernelFormError,
    MalformedAnswerSetError,
    ReconstructionError,
    ReservedAtomError,
    UniverseTooLargeError,
)
from .model import (
    Literal,
    Program,
    Rule,
    build_program,
    neg,
    pos,
)
from .textio import (
    ParseError,
    SourceSpan,
    export_dot,
    parse_program,
    render_program,
)
from .semantics import (
    DEFAULT_MAX_ATOMS,
    WfsResult,
    enumerate_answer_sets,
    gamma,
    well_founded,
)
from .kernel import (
    AntiChain,
    KernelReport,
    KernelViolation,
    antichain_to_kernel,
    check_kernel,
    equivalent_mod_projection,
    kernelize,
    parse_antichain,
    render_antichain,
)
from .cycles import Bridge, find_bridges
from .normalize import (
    ReconstructionFormula,
    ThreeKernelReport,
    ThreeKernelViolation,
    TransformStep,
    TransformTrace,
    check_3kernel,
    long_rule_simplify,
    reconstruct,
    three_kernelize,
    trace_to_dict,
)
from .generate import (
    UndirectedGraph,
    decode_3col,
    encode_3col,
    graph,
    random_kernel_program,
)

__version__ = "0.1.0"

__all__ = [
    "AntiChain",
    "AspnfError",
    "Bridge",
    "DEFAULT_MAX_ATOMS",
    "KernelFormError",
    "KernelReport",
    "KernelViolation",
    "Literal",
    "MalformedAnswerSetError",
    "ParseError",
    "Program",
    "ReconstructionError",
    "ReconstructionFormula",
    "ReservedAtomError",
    "Rule",
    "SourceSpan",
    "ThreeKernelReport",
    "ThreeKernelViolation",
    "TransformStep",
    "TransformTrace",
    "UndirectedGraph",
    "UniverseTooLargeError",
    "WfsResult",
    "antichain_to_kernel",
    "build_program",
    "check_3kernel",
    "check_kernel",
    "decode_3col",
    "encode_3col",
    "enumerate_answer_sets",
    "equivalent_mod_projection",
    "export_dot",
    "find_bridges",
    "gamma",
    "graph",
    "kernelize",
    "long_rule_simplify",
    "neg",
    "parse_antichain",
    "parse_program",
    "pos",
    "random_kernel_program",
    "reconstruct",
    "render_antichain",
    "render_program",
    "three_kernelize",
    "trace_to_dict",
    "well_founded",
]
