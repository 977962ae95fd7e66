"""Node budgets for searches that can blow up on oversized instances.

A budget is a positive int.  Where a search keeps a table, the budget
bounds its memory too.  The dimension-1 oracle_scan is charged one node
per value 0..bound+m, and its memory depends on its engine (see
verdicts._by_classes).  Besides one Check record per counterexample:

* The class engine keeps a 4-byte array slot per check (8 from
  2**32 on) and a 1- or
  2-byte length per value up to the last one it checks: it runs only
  where at most SCAN_PASS_VALUES = 1,500 length classes can occur.  That
  is at most 6.3 bytes per node with the arrays' growth slack.  While it
  runs it also holds a few bit sets and unpacking buffers of 1/8 to 1
  byte per value.  Under tracemalloc on CPython 3.11 it peaked at 8.8
  bytes per node on <100, 101, 9899> at m = 9899 (shortest, lengths
  above 255) and at 8.2 on the full scans of <1000, 1001>.
* The per-value engine keeps, up to the last value it checks, an 8-byte
  list slot per value, a 4-byte array slot per check (8 from 2**32
  on), and a 32-byte int
  object per non-member (its sentinel) and per length above 256.  While
  it fills, it also holds one slot per value below 0 down to minus the
  largest atom in range.  With the lists' growth slack that is at most
  60 bytes per node (58.3 at peak on the longest scan of <2, 60001>).

A dimension-1 residue table modulo m (membership, apery_set, frobenius)
is charged m nodes to a fresh meter with the budget given to
new_semigroup (DEFAULT_BUDGET when none is) before it is allocated, so a
table beyond the budget fails at once instead of exhausting memory.
Under tracemalloc on CPython 3.11 it keeps 40 bytes per node, an 8-byte
slot and a 32-byte int per residue, and peaked at 44 while being built
(<100000, 100003> modulo 100000).

The Kunz face cache is bounded by weight, not by node budget.  A face
weighs (m + 2)**2 for its order tables, plus len(atoms) + 1 for each
minimal INFINITY vector, plus m + 1 for each main_verdict template; the
templates of both formulas are built with the face.  Under tracemalloc
on CPython 3.11, every face measured held less than
FACE_BYTES_PER_WEIGHT = 128 bytes per unit of weight: 42 on average over
the 1,069 faces of the first 30,000 seed-1 kunz_scan benchmark points
(m = 6..8), and at most 118, on faces with many tight pairs and few
minimal vectors (the all-zero points, m = 2..50; the most at m = 45).
So the cache holds at most 128 * 50,000 bytes = 6.4 MB, and about
2.1 MB once the benchmark's faces fill it.
"""

from .errors import BudgetExceededError, SgflError

DEFAULT_BUDGET = 10_000_000
FACE_CACHE_WEIGHT = 50_000
FACE_BYTES_PER_WEIGHT = 128


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
