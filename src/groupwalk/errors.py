"""Shared exception types.

The exit-code table lives on these types: each carries the `exit_code`
the CLI returns for it and the `label` that starts its one stderr line.
Bad command-line input exits 2, oracle shortages exit 3, capacity/budget
overruns and a reduction past its width limit exit 4, any other error
exits 1.
"""


class GroupwalkError(Exception):
    exit_code = 1
    label = "error"


class UsageError(GroupwalkError):
    """A command-line value that names no group, oracle or radius."""

    exit_code = 2


class ContextError(GroupwalkError):
    """An element or word was used with a group context it does not belong to."""


class UnknownGeneratorError(GroupwalkError):
    """A word contains a symbol outside the context's generating set."""

    exit_code = 2


class CapacityError(GroupwalkError):
    """A ball enumeration hit the element cap.

    Carries the largest radius that was fully enumerated.
    """

    exit_code, label = 4, "capacity"

    def __init__(self, attained_radius, cap):
        self.attained_radius = attained_radius
        self.cap = cap
        super().__init__(
            f"element cap {cap} reached; largest complete radius is {attained_radius}"
        )


class ReductionWidthError(GroupwalkError):
    """A conjunctive reduction's output would be wider than its limit.

    Raised from the width alone, before the output is allocated.
    """

    exit_code = 4

    def __init__(self, width, limit):
        self.width = width
        self.limit = limit
        super().__init__(f"reduction width {width} exceeds the limit of {limit} bits")


class CapExceededError(GroupwalkError):
    """An order search ran past its cap without finding the identity."""

    exit_code, label = 4, "capacity"

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"order exceeds cap {cap}")


class OracleShortageError(GroupwalkError):
    """Base class for failures caused by a too-short oracle prefix."""

    exit_code, label = 3, "oracle shortage"


class PrefixTooShortError(OracleShortageError):
    """An operation needed an oracle bit beyond the supplied prefix."""

    def __init__(self, needed, have):
        self.needed = needed
        self.have = have
        super().__init__(f"oracle prefix of length {needed} required, have {have}")


class OracleExhausted(OracleShortageError):
    """A word-problem query fell outside the oracle prefix.

    Carries the index of the first out-of-range query.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"word-problem oracle exhausted at query index {index}")


class BudgetExceededError(GroupwalkError):
    """A construction stage would exceed its declared search budget."""

    exit_code, label = 4, "capacity"

    def __init__(self, stage, required, budget):
        self.stage = stage
        self.required = required
        self.budget = budget
        # required is 2^m, which str() refuses past 4,300 digits
        shown = required if required.bit_length() <= 2048 else f"2^{required.bit_length() - 1}"
        super().__init__(
            f"stage {stage} needs {shown} prefix candidates, budget is {budget}"
        )


class RateError(GroupwalkError):
    """A rate function violated a monotonicity or growth requirement."""


class SpecificationError(GroupwalkError):
    """An automaton rule table has no entry for an observed situation."""
