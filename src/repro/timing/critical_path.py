"""Critical-path extraction by backtracking through the arrival times."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import NetlistError
from repro.netlist.cells import cell_input_ports
from repro.netlist.core import Net, Netlist
from repro.tech.library import TechLibrary
from repro.timing.arrival import TimingResult


@dataclass
class PathStep:
    """One hop of a critical path: arriving at ``net`` through ``cell``."""

    net_name: str
    arrival: float
    cell_name: Optional[str] = None
    cell_type: Optional[str] = None
    through_port: Optional[str] = None

    def describe(self) -> str:
        """Human-readable rendering of the step."""
        if self.cell_name is None:
            return f"{self.net_name} (input, t={self.arrival:.3f})"
        return (
            f"{self.net_name} (t={self.arrival:.3f}) <- {self.cell_type} "
            f"{self.cell_name}.{self.through_port}"
        )


def extract_critical_path(
    netlist: Netlist,
    library: TechLibrary,
    timing: TimingResult,
    target: Optional[Union[str, Net]] = None,
) -> List[PathStep]:
    """Trace the worst path ending at ``target`` (default: the worst output).

    The returned list is ordered from the launching primary input (or
    constant) to the target net.  Each hop is matched as input arrival +
    library arc + the output net's wire delay, under the wire map
    ``timing`` was computed with.
    """
    if target is None:
        target_name = timing.worst_output_net or timing.worst_net
    else:
        target_name = target.name if isinstance(target, Net) else target
    if target_name is None:
        return []
    if target_name not in netlist.nets:
        raise NetlistError(f"critical-path target {target_name!r} is not a net")

    steps: List[PathStep] = []
    current = netlist.nets[target_name]
    epsilon = 1e-9
    while True:
        arrival = timing.arrivals.get(current.name, 0.0)
        if current.driver is None:
            steps.append(PathStep(net_name=current.name, arrival=arrival))
            break
        cell, out_port = current.driver
        ports = cell_input_ports(cell.cell_type)
        wire = timing.net_delays.get(current.name, 0.0)
        # STA's own arc reproduces the arrival exactly (same float ops)
        miss = {
            port: abs(
                timing.arrivals.get(cell.inputs[port].name, 0.0)
                + library.delay(cell.cell_type, port, out_port)
                + wire
                - arrival
            )
            for port in ports
        }
        best_port = min(ports, key=miss.__getitem__)
        if miss[best_port] > epsilon:
            # Numerical fallback: follow the slowest input.
            best_port = max(
                ports, key=lambda p: timing.arrivals.get(cell.inputs[p].name, 0.0)
            )
        best_net = cell.inputs[best_port]
        steps.append(
            PathStep(
                net_name=current.name,
                arrival=arrival,
                cell_name=cell.name,
                cell_type=cell.cell_type.value,
                through_port=best_port,
            )
        )
        current = best_net
    steps.reverse()
    return steps
