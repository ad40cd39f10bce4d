"""Optimality properties of SC_T / FA_AOT (Lemmas 1-2, Theorem 1).

The brute-force reference enumerates *every* possible FA/HA allocation of a
small instance on the column model the reducers themselves run on: each
step is one :meth:`~repro.core.tree.CompressorTree.allocate`, so an FA turns
three addends into a sum at ``max+Ds`` staying in the column and a carry at
``max+Dc`` going to the next, and an HA does the same for two addends when
exactly three remain.  No netlist is built, by the reference or by SC_T and
FA_AOT.  The paper's claims are then checked against the exhaustive set:

* Lemma 1 — for a single column, SC_T's sorted sum and carry arrival lists are
  element-wise no larger than those of any allocation.
* Lemma 2 / Theorem 1 — for a multi-column matrix, FA_AOT's final-row arrival
  times (and therefore the final adder's worst input) are element-wise no
  larger than those of any allocation that follows the same column-by-column
  discipline.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_aot import fa_aot
from repro.core.sc_t import sc_t
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist

MODEL = FADelayModel(2.0, 1.0)


@pytest.fixture(autouse=True, scope="module")
def _no_netlist():
    """The column model needs no netlist: constructing one fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the column model built a Netlist")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Netlist, "__init__", refuse)
        yield


def _addends(arrivals: Sequence[float], column: int = 0) -> List[Addend]:
    return [Addend(None, column, arrival) for arrival in arrivals]


def _column_allocations(
    tree: CompressorTree, working: List[Addend], column: int
) -> Iterator[Tuple[List[Addend], List[Addend]]]:
    """(final addends, carries kept) of every allocation of one column.

    While more than three addends remain any three may feed an FA; when
    exactly three remain any two feed an HA.
    """
    if len(working) <= 2:
        yield working, []
        return
    count = 3 if len(working) > 3 else 2
    for combo in itertools.combinations(range(len(working)), count):
        chosen = [working[i] for i in combo]
        rest = [addend for i, addend in enumerate(working) if i not in combo]
        total, carry = tree.allocate(chosen, column)
        kept = [] if carry is None else [carry]
        for final, carries in _column_allocations(tree, rest + [total], column):
            yield final, kept + carries


def _arrivals(addends: Sequence[Addend]) -> Tuple[float, ...]:
    return tuple(sorted(addend.arrival for addend in addends))


def _enumerate_single_column(
    arrivals: Tuple[float, ...]
) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    """All (sorted sums, sorted carries) reachable by any single-column allocation."""
    tree = CompressorTree(2, MODEL)
    outcomes = {
        (_arrivals(final), _arrivals(carries))
        for final, carries in _column_allocations(tree, _addends(arrivals), 0)
    }
    return sorted(outcomes)


def _sc_t_outcome(arrivals: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Run the real SC_T implementation and report (sorted sums, sorted carries)."""
    reduction = sc_t(None, _addends(arrivals), delay_model=MODEL)
    return _arrivals(reduction.remaining), _arrivals(reduction.carries)


def _dominates(ours: Sequence[float], other: Sequence[float]) -> bool:
    """Element-wise <= comparison of equal-length sorted arrival lists."""
    assert len(ours) == len(other)
    return all(a <= b + 1e-9 for a, b in zip(ours, other))


class TestLemma1:
    """SC_T minimises the *latest* sum and the *latest* carry of the column.

    Note on fidelity: read literally, Lemma 1 claims element-wise dominance of
    every remaining signal.  Exhaustive enumeration shows that the earlier
    (non-critical) elements can be beaten by other allocations — e.g. for
    arrivals (1,2,3,4,5) an allocation exists whose *earliest* carry is smaller
    than SC_T's — but the quantities the downstream argument (Observation 1 /
    Theorem 1) actually relies on, the worst sum and worst carry of the
    column, are indeed minimised by SC_T.  That is what is asserted here; the
    discrepancy is recorded in EXPERIMENTS.md.
    """

    @pytest.mark.parametrize(
        "arrivals",
        [
            (0.0, 0.0, 0.0, 0.0),
            (7.0, 2.0, 3.0, 5.0),
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (9.0, 1.0, 1.0, 1.0, 4.0, 4.0),
            (0.0, 10.0, 2.0, 8.0, 4.0, 6.0),
        ],
    )
    def test_sc_t_minimises_worst_sum_and_worst_carry(self, arrivals):
        our_sums, our_carries = _sc_t_outcome(arrivals)
        outcomes = _enumerate_single_column(arrivals)
        best_worst_sum = min(sums[-1] for sums, _ in outcomes)
        assert our_sums[-1] == pytest.approx(best_worst_sum)
        if our_carries:
            best_worst_carry = min(carries[-1] for _, carries in outcomes if carries)
            assert our_carries[-1] == pytest.approx(best_worst_carry)

    def test_elementwise_dominance_counterexample_documented(self):
        """The literal element-wise reading of Lemma 1 fails for (1,2,3,4,5)."""
        our_sums, our_carries = _sc_t_outcome((1.0, 2.0, 3.0, 4.0, 5.0))
        outcomes = _enumerate_single_column((1.0, 2.0, 3.0, 4.0, 5.0))
        smallest_carry_anywhere = min(carries[0] for _, carries in outcomes if carries)
        assert smallest_carry_anywhere < our_carries[0]
        # ... yet the worst carry and worst sum are still optimal:
        assert our_carries[-1] == min(c[-1] for _, c in outcomes if c)
        assert our_sums[-1] == min(s[-1] for s, _ in outcomes)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=3,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_sc_t_minimises_worst_sum_random(self, arrivals):
        our_sums, our_carries = _sc_t_outcome(arrivals)
        best_sum = min(s[-1] for s, _ in _enumerate_single_column(tuple(arrivals)))
        best_carry = min(
            (c[-1] if c else 0.0) for _, c in _enumerate_single_column(tuple(arrivals))
        )
        assert our_sums[-1] == pytest.approx(best_sum)
        if our_carries:
            assert our_carries[-1] == pytest.approx(best_carry)


def _enumerate_matrix_worst_final(columns: List[List[float]]) -> List[float]:
    """All achievable worst final-row arrivals for a small multi-column matrix.

    Every allocation follows the paper's column-by-column discipline (LSB to
    MSB, carries of column j available to column j+1) but may pick *any* three
    (or two) addends at each step.
    """
    tree = CompressorTree(len(columns), MODEL)
    worst_values: List[float] = []

    def reduce_from(index: int, carried: List[Addend], finals: List[Addend]) -> None:
        if index == len(columns):
            worst_values.append(max((a.arrival for a in finals), default=0.0))
            return
        working = _addends(columns[index], index) + carried
        for final, carries in _column_allocations(tree, working, index):
            reduce_from(index + 1, carries, finals + final)

    reduce_from(0, [], [])
    return worst_values


def _fa_aot_worst_final(columns: List[List[float]]) -> float:
    matrix = AddendMatrix(len(columns))
    for column_index, arrivals in enumerate(columns):
        matrix.extend(_addends(arrivals, column_index))
    return fa_aot(None, matrix, MODEL).max_final_arrival


class TestLemma2AndTheorem1:
    @pytest.mark.parametrize(
        "columns",
        [
            [[7.0, 2.0, 3.0, 5.0], [7.0, 5.0, 4.0]],
            [[1.0, 1.0, 1.0, 1.0], [0.0, 2.0, 4.0]],
            [[0.0, 3.0, 6.0], [1.0, 1.0, 1.0, 1.0], [2.0]],
            [[5.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0]],
        ],
    )
    def test_fa_aot_achieves_minimum_worst_final_arrival(self, columns):
        ours = _fa_aot_worst_final(columns)
        achievable = _enumerate_matrix_worst_final(columns)
        assert ours == pytest.approx(min(achievable))
