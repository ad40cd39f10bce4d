"""Single-column FA/HA allocation — the inner loop shared by SC_T and SC_LP.

The paper's two single-column procedures have the same skeleton and differ
only in (a) which addends feed each FA and (b) how the half adder needed to
end the column with exactly two addends is modelled:

* ``SC_T`` (timing): while more than three addends remain, allocate an FA on
  the three selected addends; when exactly three remain, allocate an HA on two
  of them.
* ``SC_LP`` (power): when the column has an odd number of addends, a pseudo
  "logic 0" addend is added up front; FAs are then allocated on three selected
  addends until two remain, and an FA that consumes the pseudo zero is
  realised as an HA.

Both are expressed here by :func:`reduce_column` with an ``ha_style`` switch;
this module only decides which addends feed each cell, and
:meth:`repro.core.tree.CompressorTree.allocate` builds it.  The carries a
column produces are returned to the caller (the tree builder), which is what
lets column *j*'s carries participate in column *j+1*'s reduction — the
"column interaction" that distinguishes the paper's algorithm from
per-column-isolated reduction (Figure 2(b) vs 2(c)).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.core.policies import SelectionPolicy
from repro.core.result import ColumnReduction
from repro.core.tree import CompressorTree
from repro.errors import AllocationError

#: ha_style value for the SC_T behaviour (HA on the last pair of three)
HA_STYLE_LAST_PAIR = "last_pair"
#: ha_style value for the SC_LP behaviour (pseudo logic-0 addend)
HA_STYLE_PSEUDO_ZERO = "pseudo_zero"

_VALID_HA_STYLES = (HA_STYLE_LAST_PAIR, HA_STYLE_PSEUDO_ZERO)


def reduce_column(
    tree: CompressorTree,
    addends: Sequence[Addend],
    column: int,
    policy: SelectionPolicy,
    ha_style: str = HA_STYLE_LAST_PAIR,
    exclude_origins: Optional[FrozenSet[str]] = None,
) -> ColumnReduction:
    """Reduce one column's addends to at most two, allocating FAs/HAs in ``tree``.

    Parameters
    ----------
    addends:
        The column's working set (original addends plus carries received from
        the previous column, for the normal "column interaction" mode).
    policy:
        Selection policy choosing FA/HA inputs (timing / power / random / ...).
    ha_style:
        ``"last_pair"`` for the SC_T half-adder rule, ``"pseudo_zero"`` for the
        SC_LP rule.
    exclude_origins:
        When given, addends whose ``origin`` is in this set are kept out of
        FA/HA formation as long as enough other candidates exist.  Passing
        ``frozenset({"carry"})`` yields the column-isolation baseline of
        Figure 2(b).

    Returns ``tree``'s record of the column, with ``remaining`` and
    ``carries`` filled in.

    A ranked policy (one with a :attr:`~SelectionPolicy.sort_key`) keeps the
    working set in a heap, so each FA/HA step costs O(log n) and each key is
    computed once; any other policy is asked to select from the working list
    at every step.  Both give the cells, their port order and the order of
    ``remaining`` that sorting the list at every step would give.
    """
    if ha_style not in _VALID_HA_STYLES:
        raise AllocationError(
            f"unknown ha_style {ha_style!r}; expected one of {_VALID_HA_STYLES}"
        )

    working: List[Addend] = list(addends)
    reduction = tree.columns[column]
    pseudo_zero = ha_style == HA_STYLE_PSEUDO_ZERO
    if pseudo_zero and len(working) >= 3 and len(working) % 2 == 1:
        working.append(
            Addend(tree.netlist.const(0), column, 0.0, 0.0, origin="pseudo_zero")
        )

    def allocate(chosen: List[Addend]) -> Addend:
        """Add the FA or HA over ``chosen``; return its sum addend."""
        if pseudo_zero:
            # an FA that consumes the pseudo logic-0 is realised as an HA
            chosen = [a for a in chosen if a.origin != "pseudo_zero"]
        total, carry = tree.allocate(chosen, column)
        # a carry past the width is still listed as one this column produced
        reduction.carries.append(carry if carry is not None else reduction.dropped[-1])
        return total

    # SC_T ends a column of three with an HA on two of them
    pair_at_three = ha_style == HA_STYLE_LAST_PAIR
    if policy.sort_key is None:
        remaining = _reduce_listed(working, policy, exclude_origins, allocate, pair_at_three)
    else:
        remaining = _reduce_ranked(
            working, policy.sort_key, exclude_origins, allocate, pair_at_three
        )
    # A pseudo logic-0 that was never consumed must not leak into the final
    # rows: it carries no value and would only waste a final-adder input.
    reduction.remaining = [a for a in remaining if a.origin != "pseudo_zero"]
    return reduction


def _reduce_ranked(
    working: List[Addend],
    sort_key: Callable[[Addend], Tuple],
    exclude_origins: Optional[FrozenSet[str]],
    allocate: Callable[[List[Addend]], Addend],
    pair_at_three: bool,
) -> List[Addend]:
    """Heap reduction for a ranked policy; returns what is left, in list order.

    Entries are ``(key, insertion index, addend)``: keys are unique, so the
    heaps pop in exactly the order ``sorted(..., key=sort_key)`` gives, and
    the insertion index restores the list order a sort-and-remove reducer
    leaves behind (inputs first, then sums in creation order).  Addends of an
    excluded origin wait in their own heap, which is drawn from only when
    the preferred heap holds too few for a step.
    """
    preferred: List[Tuple] = []
    excluded: List[Tuple] = []
    for index, addend in enumerate(working):
        heap = excluded if exclude_origins and addend.origin in exclude_origins else preferred
        heap.append((sort_key(addend), index, addend))
    heapify(preferred)
    heapify(excluded)

    size = next_index = len(working)
    while size >= 3:
        count = 2 if pair_at_three and size == 3 else 3
        if len(preferred) >= count:
            chosen = [heappop(preferred)[2] for _ in range(count)]
        else:
            chosen = [
                heappop(
                    excluded if excluded and (not preferred or excluded[0] < preferred[0])
                    else preferred
                )[2]
                for _ in range(count)
            ]
        sum_addend = allocate(chosen)
        heap = excluded if exclude_origins and sum_addend.origin in exclude_origins else preferred
        heappush(heap, (sort_key(sum_addend), next_index, sum_addend))
        next_index += 1
        size -= count - 1
    return [entry[2] for entry in sorted(preferred + excluded, key=itemgetter(1))]


def _reduce_listed(
    working: List[Addend],
    policy: SelectionPolicy,
    exclude_origins: Optional[FrozenSet[str]],
    allocate: Callable[[List[Addend]], Addend],
    pair_at_three: bool,
) -> List[Addend]:
    """List reduction for an order-dependent policy; returns what is left.

    ``RandomPolicy`` draws by list position, so Table 2's ``fa_random``
    depends on this exact list discipline: chosen addends are removed in
    place and each sum is appended at the end.
    """
    while len(working) >= 3:
        count = 2 if pair_at_three and len(working) == 3 else 3
        pool = working
        if exclude_origins:
            preferred = [a for a in working if a.origin not in exclude_origins]
            if len(preferred) >= count:
                pool = preferred
        chosen = policy.select(pool, count)
        sum_addend = allocate(chosen)
        for used in chosen:
            working.remove(used)
        working.append(sum_addend)
    return working
