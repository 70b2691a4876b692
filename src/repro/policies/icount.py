"""ICOUNT fetch priority (Tullsen et al., ISCA-23 [18]).

Threads with the fewest instructions in the pre-issue stages (fetch queue,
rename, issue queues) get priority: they are making the best forward
progress and are least likely to clog shared structures.  This is the
paper's baseline (§5).
"""

from __future__ import annotations

from typing import List

from .base import FetchPolicy


class ICountPolicy(FetchPolicy):
    """Priority = ascending count of pre-issue instructions."""

    name = "icount"

    def fetch_order(self, now: int) -> List[int]:
        threads = self.threads
        if len(threads) == 2:
            # The common Table 2 case, on the per-cycle hot path; the
            # tid tie-break matches sorted()'s stable order.
            return [0, 1] if threads[0].icount <= threads[1].icount \
                else [1, 0]
        # Ascending-tid input + stable sort = tid tie-break, with the
        # key lookup running at C level (this is a per-cycle path).
        icounts = [thread.icount for thread in threads]
        return sorted(range(len(icounts)), key=icounts.__getitem__)
