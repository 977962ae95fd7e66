"""Node budgets for searches that can blow up on oversized instances."""

from .errors import BudgetExceededError, SgflError

DEFAULT_BUDGET = 10_000_000


class BudgetMeter:
    """Counts search nodes and raises once the allowance is spent."""

    __slots__ = ("allowance", "remaining")

    def __init__(self, budget=None):
        if budget is None:
            budget = DEFAULT_BUDGET
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
