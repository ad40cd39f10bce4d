"""The column model's plan predicts the tree that materializing it builds.

Every matrix method plans its FA/HA steps on addend records with no netlist.
The plan alone gives the FA/HA counts, the paper's E_switching(T) and each
column's final arrival, and the flow that materializes the same plan must
report exactly those numbers.
"""

from __future__ import annotations

import pytest

from repro.api import Flow, FlowConfig
from repro.api.config import MATRIX_METHODS
from repro.api.stages import reduce_matrix
from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.core.fa_aot import fa_aot
from repro.core.sc_t import sc_t
from repro.core.tree import materialize
from repro.errors import NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist


def _final_arrivals(compression):
    return [
        max((addend.arrival for addend in reduction.remaining), default=None)
        for reduction in compression.column_reductions
    ]


@pytest.mark.parametrize("design", ["iir", "kalman", "serial_adapter"])
@pytest.mark.parametrize("method", MATRIX_METHODS)
def test_plan_predicts_the_materialized_tree(method, design):
    result = Flow(FlowConfig(method=method, opt_level=0)).run(design)
    build = result.matrix_build
    cells_before = len(build.netlist.cells)
    plan = reduce_matrix(
        result.config, None, build.matrix, result.delay_model, result.power_model
    )
    assert plan.netlist is None and not plan.fa_cells and not plan.ha_cells
    assert len(build.netlist.cells) == cells_before

    built = result.compression
    assert [(r.fa_count, r.ha_count) for r in plan.column_reductions] == [
        (len(r.fa_cells), len(r.ha_cells)) for r in built.column_reductions
    ]
    assert (plan.fa_count, plan.ha_count) == (len(built.fa_cells), len(built.ha_cells))
    assert plan.fa_count == len(result.netlist.cells_of_type(CellType.FA))
    assert plan.tree_switching_energy == built.tree_switching_energy
    assert _final_arrivals(plan) == _final_arrivals(built)
    assert plan.notes == built.notes


def test_a_column_plan_counts_its_adders():
    netlist = Netlist("column")
    addends = [Addend(netlist.add_net(), 0, float(t)) for t in range(6)]
    plan = sc_t(None, addends)
    assert (plan.fa_count, plan.ha_count) == (2, 0) and not plan.fa_cells
    assert len(plan.carries) == 2 and not netlist.cells


def test_materialize_rejects_a_net_of_another_netlist():
    here, there = Netlist("here"), Netlist("there")
    matrix = AddendMatrix(2)
    matrix.extend([Addend(here.add_net(), 0, 1.0) for _ in range(3)])
    # the earliest addend, so the first FA reads it: its net has the name
    # of a net of ``here``, but is not that net
    matrix.add(Addend(there.add_net(), 0, 0.0))
    plan = fa_aot(None, matrix)
    generation = here.generation
    with pytest.raises(NetlistError, match="does not belong to netlist 'here'"):
        materialize(plan, here)
    assert not here.cells and here.generation == generation


def test_materialize_names_cells_and_nets_as_add_cell_does():
    def tree(netlist):
        matrix = AddendMatrix(2)
        matrix.extend([Addend(netlist.add_net(), 0, float(t), 0.3) for t in range(5)])
        return matrix

    planned, checked = Netlist("planned"), Netlist("checked")
    matrix = tree(planned)
    plan = fa_aot(None, matrix)
    materialize(plan, planned)
    # the same leaves in ``checked``, then every step through add_cell
    leaves = zip(matrix.columns()[0], tree(checked).columns()[0])
    nets = {id(addend): twin.net for addend, twin in leaves}
    for _, step_inputs, total, carry in plan.steps:
        cell_type = CellType.FA if len(step_inputs) == 3 else CellType.HA
        ports = dict(zip(("a", "b", "cin"), (nets[id(a)] for a in step_inputs)))
        cell = checked.add_cell(cell_type, ports)
        nets[id(total)], nets[id(carry)] = cell.outputs["s"], cell.outputs["co"]
    assert list(planned.nets) == list(checked.nets)
    assert [
        (cell.name, [net.name for net in cell.inputs.values()]) for cell in planned.cells.values()
    ] == [
        (cell.name, [net.name for net in cell.inputs.values()]) for cell in checked.cells.values()
    ]
