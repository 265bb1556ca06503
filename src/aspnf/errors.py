"""Exception types shared across the package."""


class AspnfError(Exception):
    """Base class for all errors raised by aspnf."""


class ReservedAtomError(AspnfError):
    """A user-supplied atom uses the reserved ``__`` prefix."""


class UniverseTooLargeError(AspnfError):
    """The program exceeds the answer-set enumeration cap."""


class CycleCapExceededError(AspnfError):
    """``find_cycles`` listed more cycles than its ``max_cycles`` cap.

    No other function lists cycles, so nothing else raises it. Not
    re-exported from ``aspnf``: only the benchmark's corpus uses it, and
    it goes with the cycle lister."""


class KernelFormError(AspnfError):
    """A transformation precondition (kernel form) does not hold."""


class BridgeNotFoundError(AspnfError):
    """The bridge passed to a simplification is not present in the program.

    Not re-exported from ``aspnf``: no CLI path simplifies one bridge at
    a time, and it goes with ``simplify_or_bridge`` and
    ``simplify_and_bridge``."""


class ReconstructionError(AspnfError):
    """An answer-set reconstruction formula references an unknown atom."""


class MalformedAnswerSetError(AspnfError):
    """An interpretation does not have the shape an operation requires."""
