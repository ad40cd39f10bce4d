"""Tests for single-column reduction (SC_T / SC_LP building block)."""

import random

import pytest

from repro.bitmatrix.addend import Addend
from repro.core.column import HA_STYLE_LAST_PAIR, HA_STYLE_PSEUDO_ZERO, reduce_column
from repro.core.delay_model import FADelayModel
from repro.core.policies import (
    EarliestArrivalPolicy,
    LargestQPolicy,
    RandomPolicy,
    RowOrderPolicy,
)
from repro.core.power_model import FAPowerModel
from repro.core.sc_lp import sc_lp
from repro.core.sc_t import sc_t
from repro.core.tree import CompressorTree
from repro.errors import AllocationError, NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist


def _column(netlist, arrivals, probabilities=None):
    probabilities = probabilities or [0.5] * len(arrivals)
    return [
        Addend(netlist.add_net(), 0, arrival, probability)
        for arrival, probability in zip(arrivals, probabilities)
    ]


class TestScT:
    def test_reduces_to_two(self):
        netlist = Netlist("t")
        reduction = sc_t(netlist, _column(netlist, [1, 2, 3, 4, 5, 6]))
        assert len(reduction.remaining) == 2
        assert reduction.fa_count + reduction.ha_count == len(reduction.carries)

    def test_fa_ha_accounting_even_column(self):
        """An even-height column needs no HA (4 -> FA -> 2)."""
        netlist = Netlist("t")
        reduction = sc_t(netlist, _column(netlist, [1, 2, 3, 4]))
        assert reduction.fa_count == 1
        assert reduction.ha_count == 0

    def test_fa_ha_accounting_odd_column(self):
        """An odd-height column ends with exactly one HA (paper's SC_T)."""
        netlist = Netlist("t")
        reduction = sc_t(netlist, _column(netlist, [1, 2, 3, 4, 5]))
        assert reduction.fa_count == 1
        assert reduction.ha_count == 1

    def test_small_columns_untouched(self):
        netlist = Netlist("t")
        for height in (0, 1, 2):
            reduction = sc_t(netlist, _column(netlist, list(range(height))))
            assert len(reduction.remaining) == height
            assert reduction.fa_count == reduction.ha_count == 0

    def test_earliest_signals_feed_first_fa(self):
        netlist = Netlist("t")
        addends = _column(netlist, [7, 2, 3, 5])
        reduction = sc_t(netlist, addends, delay_model=FADelayModel(2.0, 1.0))
        fa = reduction.fa_cells[0]
        used = {fa.inputs["a"], fa.inputs["b"], fa.inputs["cin"]}
        assert addends[0].net not in used  # the latest addend (t=7) is spared
        # sum arrival = max(2,3,5)+2 = 7; carry = 6
        sums = [a for a in reduction.remaining if a.origin == "sum"]
        assert sums[0].arrival == pytest.approx(7.0)
        assert reduction.carries[0].arrival == pytest.approx(6.0)

    def test_carries_target_next_column(self):
        netlist = Netlist("t")
        reduction = sc_t(netlist, _column(netlist, [0, 0, 0, 0, 0]), column=3)
        assert all(carry.column == 4 for carry in reduction.carries)
        assert all(addend.column == 3 for addend in reduction.remaining)

    def test_switching_energy_accumulates(self):
        netlist = Netlist("t")
        reduction = sc_t(
            netlist,
            _column(netlist, [0, 0, 0, 0], probabilities=[0.5, 0.5, 0.5, 0.5]),
            power_model=FAPowerModel(1.0, 1.0),
        )
        assert reduction.switching_energy > 0


class TestScLp:
    def test_reduces_to_two_with_pseudo_zero(self):
        netlist = Netlist("t")
        reduction = sc_lp(netlist, _column(netlist, [0] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]))
        assert len(reduction.remaining) == 2
        assert all(a.origin != "pseudo_zero" for a in reduction.remaining)

    def test_largest_q_selected_first(self):
        netlist = Netlist("t")
        addends = _column(netlist, [0] * 4, [0.1, 0.2, 0.3, 0.4])
        reduction = sc_lp(netlist, addends)
        fa = reduction.fa_cells[0]
        used = {fa.inputs["a"], fa.inputs["b"], fa.inputs["cin"]}
        # p=0.4 has the smallest |q| and must be spared
        assert addends[3].net not in used

    def test_even_column_uses_only_fas(self):
        netlist = Netlist("t")
        reduction = sc_lp(netlist, _column(netlist, [0] * 6, [0.1] * 6))
        assert reduction.ha_count == 0
        assert reduction.fa_count == 2

    def test_odd_column_models_ha_with_pseudo_zero(self):
        netlist = Netlist("t")
        reduction = sc_lp(netlist, _column(netlist, [0] * 5, [0.1] * 5))
        # pseudo zero has |q|=0.5 (largest), so the HA appears in the first step
        assert reduction.ha_count == 1
        assert reduction.fa_count == 1


class TestReduceColumnOptions:
    def test_unknown_ha_style_rejected(self):
        netlist = Netlist("t")
        with pytest.raises(AllocationError):
            reduce_column(
                CompressorTree(netlist, 2),
                _column(netlist, [0, 0, 0]),
                0,
                EarliestArrivalPolicy(),
                ha_style="bogus",
            )

    def test_exclude_origins_prefers_non_carry_addends(self):
        netlist = Netlist("t")
        addends = _column(netlist, [7, 5, 4])
        late_carry = Addend(netlist.add_net(), 0, 0.0, 0.5, origin="carry")
        working = addends + [late_carry]
        reduction = reduce_column(
            CompressorTree(netlist, 2),
            working,
            0,
            EarliestArrivalPolicy(),
            ha_style=HA_STYLE_LAST_PAIR,
            exclude_origins=frozenset({"carry"}),
        )
        fa = reduction.fa_cells[0]
        used = {fa.inputs["a"], fa.inputs["b"], fa.inputs["cin"]}
        # Even though the carry arrives earliest, it is excluded from selection.
        assert late_carry.net not in used

    def test_exclude_origins_falls_back_when_not_enough(self):
        netlist = Netlist("t")
        addends = _column(netlist, [1.0])
        carries = [
            Addend(netlist.add_net(), 0, float(i), 0.5, origin="carry") for i in range(3)
        ]
        reduction = reduce_column(
            CompressorTree(netlist, 2),
            addends + carries,
            0,
            EarliestArrivalPolicy(),
            ha_style=HA_STYLE_LAST_PAIR,
            exclude_origins=frozenset({"carry"}),
        )
        assert len(reduction.remaining) == 2

    def test_pseudo_zero_style_via_policy(self):
        netlist = Netlist("t")
        reduction = reduce_column(
            CompressorTree(netlist, 2),
            _column(netlist, [0] * 3, [0.2, 0.4, 0.5]),
            0,
            LargestQPolicy(),
            ha_style=HA_STYLE_PSEUDO_ZERO,
        )
        assert len(reduction.remaining) == 2
        assert reduction.ha_count == 1


def _sort_and_remove(netlist, addends, column, policy, ha_style, exclude_origins):
    """Reference reducer: ask the policy to select from the whole list every step.

    Each step is one :meth:`CompressorTree.allocate`, whose cell must read
    the selected addends in selection order on its ports ``a``, ``b``, ``cin``.
    """
    tree = CompressorTree(netlist, column + 2)
    reduction = tree.columns[column]
    working = list(addends)
    if ha_style == HA_STYLE_PSEUDO_ZERO and len(working) >= 3 and len(working) % 2 == 1:
        working.append(
            Addend(netlist.const(0), column, 0.0, 0.0, origin="pseudo_zero")
        )
    while len(working) >= 3:
        count = 2 if ha_style == HA_STYLE_LAST_PAIR and len(working) == 3 else 3
        pool = working
        if exclude_origins:
            preferred = [a for a in working if a.origin not in exclude_origins]
            pool = preferred if len(preferred) >= count else working
        chosen = policy.select(pool, count)
        inputs = [a for a in chosen if a.origin != "pseudo_zero"]
        total, carry = tree.allocate(inputs, column)
        cell = (reduction.fa_cells if len(inputs) == 3 else reduction.ha_cells)[-1]
        ports = ("a", "b", "cin")[: len(inputs)]
        assert [cell.inputs[port] for port in ports] == [a.net for a in inputs]
        for used in chosen:
            working.remove(used)
        working.append(total)
        reduction.carries.append(carry)
    reduction.remaining = [a for a in working if a.origin != "pseudo_zero"]
    return reduction


def _random_column(seed):
    """A netlist and a column with many tied arrivals and tied ``|q|``."""
    rng = random.Random(seed)
    netlist = Netlist("diff")
    addends = [
        Addend(
            netlist.add_net(),
            3,
            rng.choice((0.0, 0.0, 1.0, 2.5)),
            rng.choice((0.5, 0.2, 0.8, 0.3, 0.7)),
            origin=rng.choice(("input", "pp", "carry", "carry")),
        )
        for _ in range(rng.randrange(0, 14))
    ]
    return netlist, addends


def _shape(netlist, reduction):
    def cells(found):
        return [
            (
                cell.name,
                cell.cell_type,
                [(port, net.name) for port, net in cell.inputs.items()],
                [(port, net.name) for port, net in cell.outputs.items()],
            )
            for cell in found
        ]

    return (
        [cell.name for cell in netlist.cells.values()],
        cells(reduction.fa_cells),
        cells(reduction.ha_cells),
        [(a.net.name, a.arrival, a.probability) for a in reduction.remaining],
        [(a.net.name, a.column, a.arrival, a.probability) for a in reduction.carries],
        reduction.switching_energy,
    )


POLICIES = {
    "earliest_arrival": EarliestArrivalPolicy,
    "largest_q": LargestQPolicy,
    "row_order": RowOrderPolicy,
    "random": lambda: RandomPolicy(seed=11),
}


class TestHeapReducerMatchesSortAndRemove:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("ha_style", [HA_STYLE_LAST_PAIR, HA_STYLE_PSEUDO_ZERO])
    @pytest.mark.parametrize("exclude_origins", [None, frozenset({"carry"})])
    def test_same_cells_ports_and_remaining_order(self, policy_name, ha_style, exclude_origins):
        make_policy = POLICIES[policy_name]
        reference_policy, policy = make_policy(), make_policy()
        for seed in range(100):
            reference_netlist, reference_column = _random_column(seed)
            expected = _sort_and_remove(
                reference_netlist, reference_column, 3, reference_policy, ha_style,
                exclude_origins,
            )
            netlist, column = _random_column(seed)
            actual = reduce_column(
                CompressorTree(netlist, 5), column, 3, policy,
                ha_style=ha_style, exclude_origins=exclude_origins,
            )
            assert _shape(netlist, actual) == _shape(reference_netlist, expected), seed

    @pytest.mark.parametrize("ha_style", [HA_STYLE_LAST_PAIR, HA_STYLE_PSEUDO_ZERO])
    def test_sort_key_runs_once_per_addend_entering_the_heap(self, ha_style):
        keyed = []
        policy = LargestQPolicy()
        policy.sort_key = lambda addend: keyed.append(addend) or LargestQPolicy.sort_key(addend)
        for seed in range(30):
            netlist, column = _random_column(seed)
            keyed.clear()
            reduction = reduce_column(
                CompressorTree(netlist, 5), column, 3, policy,
                ha_style=ha_style, exclude_origins=frozenset({"carry"}),
            )
            pseudo = int(ha_style == HA_STYLE_PSEUDO_ZERO and len(column) >= 3 and len(column) % 2)
            sums = reduction.fa_count + reduction.ha_count
            assert len(keyed) == len(column) + pseudo + sums
            assert len({id(addend) for addend in keyed}) == len(keyed)

    def test_order_dependent_policy_has_no_sort_key(self):
        assert RandomPolicy(seed=1).sort_key is None
        for policy in (EarliestArrivalPolicy(), LargestQPolicy(), RowOrderPolicy()):
            assert policy.sort_key is not None


class TestAddendIdentity:
    def test_addends_hash_and_compare_by_identity(self):
        netlist = Netlist("t")
        net = netlist.add_net()
        first = Addend(net, 0, 1.0, 0.5, sequence=5)
        twin = Addend(net, 0, 1.0, 0.5, sequence=5)
        assert first == first
        assert first != twin
        assert hash(first) == hash(first)
        assert len({first, twin, first}) == 2
        assert [first, twin].index(twin) == 1


class TestCellConstruction:
    def test_foreign_net_rejected_even_when_its_name_exists_here(self):
        netlist, other = Netlist("here"), Netlist("there")
        a, b = netlist.add_net("a"), netlist.add_net("b")
        foreign = other.add_net("a")
        with pytest.raises(NetlistError, match="does not belong"):
            netlist.add_cell(CellType.AND2, {"a": foreign, "b": b})
        assert not netlist.cells
        netlist.add_cell(CellType.AND2, {"a": a, "b": b})

    def test_one_generation_bump_per_cell(self):
        netlist = Netlist("t")
        a, b, c = (netlist.add_net() for _ in range(3))
        before = netlist.generation
        cell = netlist.add_cell(CellType.FA, {"a": a, "b": b, "cin": c})
        assert netlist.generation == before + 1
        outputs = [cell.outputs[port] for port in ("s", "co")]
        assert [net.name for net in outputs] == ["fa_1_s_4", "fa_1_co_5"]
        assert all(netlist.nets[net.name] is net for net in outputs)

    def test_bad_port_binding_names_missing_and_extra_ports(self):
        netlist = Netlist("t")
        a, b = netlist.add_net(), netlist.add_net()
        with pytest.raises(NetlistError, match=r"missing=\['b'\], unexpected=\['x'\]"):
            netlist.add_cell(CellType.AND2, {"a": a, "x": b})
