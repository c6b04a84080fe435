"""Credit replenishment policies.

The paper's hardware uses *reset-based* replenishment (Algorithm 1): a
register holds the period ``T_r``, a counter ``T_c`` counts it down, and at
each boundary every ``n_i`` is reset to ``K_i``.  A rate-based drip variant
is provided as an ablation (DESIGN.md item 2): it divides the period into
slices and tops bins up incrementally, trading burst capacity for
smoothness the way a token bucket with a small bucket would.

Policies are applied *lazily*: the simulator calls ``apply_until(state,
now)`` before reading credit counters, and ``upcoming(state)`` to know when
a stalled request might become issuable again.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .bins import BinConfig
from .credits import CreditState


class ReplenishPolicy:
    """Base class: owns the period bookkeeping.

    ``phase`` offsets the first boundary backwards (modulo the period) so
    that co-running shapers do not replenish in lockstep -- synchronized
    boundaries make every core spend its burst credits at the same instant,
    the short-term congestion Section III-C discusses.
    """

    __slots__ = ("period", "_next", "_own_period")

    def __init__(self, config: BinConfig, period: Optional[int] = None,
                 phase: int = 0) -> None:
        #: the explicit period, or None when ``T_r`` follows the allocation
        self._own_period = period
        self.period = period if period is not None else config.replenish_period()
        if self.period < 1:
            raise ValueError("replenishment period must be >= 1 cycle")
        self._next = self.period - (phase % self.period)

    def next_boundary(self) -> int:
        """Cycle of the next replenishment event."""
        return self._next

    def reset_clock(self, now: int) -> None:
        """Restart the period from ``now`` (used on reconfiguration)."""
        self._next = now + self.period

    def for_config(self, config: BinConfig) -> "ReplenishPolicy":
        """This policy, own parameters kept, for a new allocation (a
        derived period is re-derived); the caller resets the clock."""
        return type(self)(config, period=self._own_period)

    def apply_until(self, state: CreditState, now: int) -> None:
        """Apply all replenishment boundaries at or before ``now``."""
        raise NotImplementedError

    def upcoming(self, state: CreditState
                 ) -> Iterator[Tuple[Sequence[int], int]]:
        """``(counts, until)``: the counters ``state`` holds before each
        coming boundary ``until``; after the last step every counter is
        ``K_i`` for good.  Reads ``state`` and the clock, changes neither.
        """
        raise NotImplementedError


class ResetReplenisher(ReplenishPolicy):
    """Algorithm 1: at each period boundary reset all ``n_i`` to ``K_i``.

    Because a reset is idempotent, crossing several boundaries at once
    collapses into a single reset; only the clock needs to catch up.
    """

    __slots__ = ()

    def apply_until(self, state: CreditState, now: int) -> None:
        if now < self._next:
            return
        state.replenish()
        periods_crossed = (now - self._next) // self.period + 1
        self._next += periods_crossed * self.period

    def upcoming(self, state: CreditState
                 ) -> Iterator[Tuple[Sequence[int], int]]:
        # The next boundary refills every bin; nothing changes after that.
        yield state.counts, self._next


class RateReplenisher(ReplenishPolicy):
    """Drip credits in ``slices`` installments across the period.

    Budget-neutral with the reset policy: each period adds exactly ``K_i``
    credits to ``bin_i``, spread across the slices by a largest-remainder
    schedule (slice ``s`` adds ``K_i*(s+1)//slices - K_i*s//slices``).
    Counters still saturate at ``K_i``, so unspent installments are lost --
    that loss of banked burst capacity is precisely the tradeoff against
    Algorithm 1's reset.
    """

    __slots__ = ("slices", "_slice_period", "_slice_index")

    def __init__(self, config: BinConfig, period: Optional[int] = None,
                 slices: int = 8, phase: int = 0) -> None:
        super().__init__(config, period)
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.slices = slices
        self._slice_period = max(1, self.period // slices)
        self._next = self._slice_period - (phase % self._slice_period)
        self._slice_index = 0

    def for_config(self, config: BinConfig) -> "RateReplenisher":
        return RateReplenisher(config, period=self._own_period,
                               slices=self.slices)

    def reset_clock(self, now: int) -> None:
        self._next = now + self._slice_period
        self._slice_index = 0

    def _topped_up(self, counts: Sequence[int], limits: Sequence[int],
                   s: int) -> List[int]:
        """``counts`` after slice ``s``'s installment, saturating at K."""
        slices = self.slices
        return [min(limit, count + limit * (s + 1) // slices
                    - limit * s // slices)
                for count, limit in zip(counts, limits)]

    def apply_until(self, state: CreditState, now: int) -> None:
        while self._next <= now:
            state.counts = self._topped_up(state.counts, state.config.credits,
                                           self._slice_index)
            self._slice_index = (self._slice_index + 1) % self.slices
            self._next += self._slice_period

    def upcoming(self, state: CreditState
                 ) -> Iterator[Tuple[Sequence[int], int]]:
        # One full round of installments adds K_i to every bin, so the
        # counters are at K after at most ``slices`` boundaries.
        counts = state.counts
        limits = state.config.credits
        until, s = self._next, self._slice_index
        for _ in range(self.slices):
            yield counts, until
            counts = self._topped_up(counts, limits, s)
            s = (s + 1) % self.slices
            until += self._slice_period
