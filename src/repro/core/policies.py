"""Addend-selection policies.

A policy decides, each time the column reducer is about to create an FA (or
HA), *which* addends of the working set feed it.  This is exactly where the
paper's algorithms differ from the classic Wallace scheme and from each other:

* :class:`EarliestArrivalPolicy` — the paper's ``SC_T`` selection (timing);
  ties are broken by larger ``|q|`` as Section 4.3 prescribes for ``FA_AOT``.
* :class:`LargestQPolicy` — the paper's ``SC_LP`` selection (power); ties are
  broken by earlier arrival, i.e. the reverse priority used by ``FA_ALP``.
* :class:`RandomPolicy` — the ``FA_random`` baseline of Table 2.
* :class:`RowOrderPolicy` — arrival-blind, row-ordered selection; this is the
  "fixed selection ... as the Wallace scheme does" of Figure 2(a).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.errors import AllocationError


class SelectionPolicy:
    """Strategy object choosing FA/HA inputs from a column's working set.

    A ranked policy defines :attr:`sort_key`; an order-dependent one leaves
    it ``None`` and overrides :meth:`select`.
    """

    #: short identifier used in reports and result records
    name = "abstract"

    #: static per-addend ranking key of a ranked policy, which selects the
    #: ``count`` addends with the smallest keys.  Every key ends in the
    #: unique ``sequence``, so it is a total order and the column reducer
    #: may keep its working set in a heap, computing each key once.  ``None``
    #: marks an order-dependent policy: the reducer then hands it the whole
    #: working list, in list order, at every step.
    sort_key: Optional[Callable[[Addend], Tuple]] = None

    def select(self, candidates: Sequence[Addend], count: int) -> List[Addend]:
        """Return ``count`` addends chosen from ``candidates`` (no repeats)."""
        self._check(candidates, count)
        return sorted(candidates, key=self.sort_key)[:count]

    def _check(self, candidates: Sequence[Addend], count: int) -> None:
        if count <= 0:
            raise AllocationError(f"cannot select {count} addends")
        if len(candidates) < count:
            raise AllocationError(
                f"policy {self.name!r} asked for {count} addends but only "
                f"{len(candidates)} are available"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class EarliestArrivalPolicy(SelectionPolicy):
    """Pick the addends with the earliest arrival times (paper's SC_T).

    Ties on arrival time are broken by larger ``|q|`` (the secondary, power
    oriented priority the paper gives to FA_AOT), then by creation order so
    results are deterministic.
    """

    name = "earliest_arrival"

    @staticmethod
    def sort_key(addend: Addend) -> Tuple[float, float, int]:
        return (addend.arrival, -abs(addend.q_value), addend.sequence)


class LargestQPolicy(SelectionPolicy):
    """Pick the addends with the largest ``|q| = |p - 0.5|`` (paper's SC_LP).

    Ties on ``|q|`` are broken by earlier arrival (the secondary priority the
    paper gives to FA_ALP), then by creation order.
    """

    name = "largest_q"

    @staticmethod
    def sort_key(addend: Addend) -> Tuple[float, float, int]:
        return (-abs(addend.q_value), addend.arrival, addend.sequence)


class RandomPolicy(SelectionPolicy):
    """Uniform random selection — the FA_random baseline of the paper."""

    name = "random"

    #: ``rng.sample`` draws by position, so the result depends on list order
    sort_key = None

    def __init__(self, seed: Optional[int] = None, rng: Optional[random.Random] = None) -> None:
        if rng is not None:
            self.rng = rng
        else:
            # ``None`` is a seed of its own, not OS entropy: a config with
            # ``seed=None`` has one cache identity, so it must have one result
            self.rng = random.Random("unseeded" if seed is None else seed)

    def select(self, candidates: Sequence[Addend], count: int) -> List[Addend]:
        self._check(candidates, count)
        return self.rng.sample(list(candidates), count)


class RowOrderPolicy(SelectionPolicy):
    """Arrival-blind selection in row (creation) order.

    This reproduces the fixed input assignment of the classic Wallace scheme
    as used in the motivating Figure 2(a): the first three addends listed in
    the column feed the first FA regardless of their arrival times.
    """

    name = "row_order"

    @staticmethod
    def sort_key(addend: Addend) -> Tuple[int]:
        return (addend.sequence,)
