"""Switching-activity and energy estimation.

Two views are provided:

* :func:`compressor_tree_switching_energy` — the paper's E_switching(T):
  Ws/Wc-weighted switching of the FA/HA outputs only (Section 4.2).  This is
  what Table 2 compares.
* :func:`estimate_power` — whole-netlist energy: every cell output's switching
  activity weighted by the library's per-output transition energy.  This is
  the secondary, more complete view used by the flows' reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.power_model import FAPowerModel
from repro.netlist.cells import CellType
from repro.netlist.core import Cell, Netlist
from repro.power.probability import ProbabilityResult, propagate_probabilities
from repro.tech.library import TechLibrary


@dataclass
class PowerResult:
    """Summary of a power estimation run."""

    netlist_name: str
    total_energy: float
    tree_energy: float
    by_cell_type: Dict[str, float] = field(default_factory=dict)
    total_switching: float = 0.0

    def summary(self) -> str:
        """One-line summary for logs and examples."""
        parts = ", ".join(f"{k}:{v:.3f}" for k, v in sorted(self.by_cell_type.items()))
        return (
            f"{self.netlist_name}: total={self.total_energy:.3f}, "
            f"tree(E_switching)={self.tree_energy:.3f} [{parts}]"
        )


def compressor_tree_switching_energy(
    cells: Iterable[Cell],
    probabilities: ProbabilityResult,
    power_model: FAPowerModel,
) -> float:
    """E_switching(T) over the given FA/HA cells (the paper's power metric)."""
    probs = probabilities.probabilities
    total = 0.0
    for cell in cells:
        sum_net = cell.outputs["s"]
        carry_net = cell.outputs["co"]
        p_sum = probs.get(sum_net.name)
        if p_sum is None:
            p_sum = probabilities.probability_of(sum_net)  # raises: not recorded
        p_carry = probs.get(carry_net.name)
        if p_carry is None:
            p_carry = probabilities.probability_of(carry_net)  # raises: not recorded
        if cell.cell_type is CellType.FA:
            total += power_model.fa_switching_energy(p_sum, p_carry)
        elif cell.cell_type is CellType.HA:
            total += power_model.ha_switching_energy(p_sum, p_carry)
    return total


def estimate_power(
    netlist: Netlist,
    library: TechLibrary,
    probabilities: Optional[ProbabilityResult] = None,
    power_model: Optional[FAPowerModel] = None,
) -> PowerResult:
    """Estimate total switching energy of the netlist.

    ``probabilities`` defaults to a fresh propagation using the nets'
    annotations; ``power_model`` (Ws/Wc for the tree metric) defaults to the
    library's FA characterization.
    """
    if probabilities is None:
        probabilities = propagate_probabilities(netlist)
    if power_model is None:
        power_model = FAPowerModel.from_library(library)

    probs = probabilities.probabilities
    output_energies = library.output_energies
    total = 0.0
    total_switching = 0.0
    # tallied per enum member and named once at the end: the per-type sums
    # and their first-seen order are those of a by-name tally
    by_member: Dict[CellType, float] = {}
    tree_cells = []
    for cell in netlist.cells.values():
        cell_type = cell.cell_type
        outputs = cell.outputs
        cell_energy = 0.0
        for port, energy in output_energies(cell_type):
            net = outputs[port]
            probability = probs.get(net.name)
            if probability is None:
                probability = probabilities.probability_of(net)  # raises: not recorded
            activity = probability * (1.0 - probability)
            total_switching += activity
            cell_energy += activity * energy
        total += cell_energy
        by_member[cell_type] = by_member.get(cell_type, 0.0) + cell_energy
        if cell_type is CellType.FA or cell_type is CellType.HA:
            tree_cells.append(cell)
    by_type = {cell_type.value: energy for cell_type, energy in by_member.items()}
    tree_energy = compressor_tree_switching_energy(tree_cells, probabilities, power_model)

    return PowerResult(
        netlist_name=netlist.name,
        total_energy=total,
        tree_energy=tree_energy,
        by_cell_type=by_type,
        total_switching=total_switching,
    )
