"""Node budgets for searches that can blow up on oversized instances.

A budget is a positive int.  Where a search keeps a table, the budget
bounds its memory too.  The numerical oracle_scan is charged one node per
value 0..bound+m.  Up to the last value it checks, it keeps an 8-byte
list slot per value, an 8-byte array slot per check, and a 32-byte int
object per non-member (its sentinel) and per length above 256.  While it
fills, it also holds one slot per value below 0 down to minus the
largest atom in range.  With the lists' growth slack that is at most 60
bytes per node.  Where nearly every scanned value is checked and every
length is at most 256, as at m = 9899 in <100, 101, 9899>, it is at most
24 bytes per check.
"""

from .errors import BudgetExceededError, SgflError

DEFAULT_BUDGET = 10_000_000


class BudgetMeter:
    """Counts search nodes and raises once the allowance is spent."""

    __slots__ = ("allowance", "remaining")

    def __init__(self, budget=None):
        if budget is None:
            budget = DEFAULT_BUDGET
        elif isinstance(budget, bool) or not isinstance(budget, int):
            raise SgflError(f"budget must be a positive integer, got {budget!r}")
        if budget <= 0:
            raise SgflError("budget must be positive")
        self.allowance = budget
        self.remaining = budget

    def spend(self, nodes=1):
        self.remaining -= nodes
        if self.remaining < 0:
            raise BudgetExceededError(
                f"search exceeded its node budget of {self.allowance}"
            )
