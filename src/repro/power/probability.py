"""Signal-probability propagation under the paper's power model.

The model of Section 4.1: signals are random variables, spatial independence
is assumed, gates have zero delay and glitches are ignored.  Probabilities are
propagated topologically from the primary inputs; the switching activity of a
signal is then ``p (1 - p)``.

The independence assumption makes reconvergent fanout slightly inaccurate —
that is a property of the paper's model, not an implementation shortcut; the
simulation-based estimator in :mod:`repro.sim.toggles` provides the exact
empirical counterpart used in tests.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union

from repro.errors import NetlistError
from repro.netlist.cells import CELL_DEFS, CellDef, define, straight_line
from repro.netlist.core import Net, Netlist


@dataclass
class ProbabilityResult:
    """Per-net signal probabilities."""

    netlist_name: str
    probabilities: Dict[str, float] = field(default_factory=dict)

    def probability_of(self, net: Union[str, Net]) -> float:
        """Probability that the net is 1."""
        name = net.name if isinstance(net, Net) else net
        if name not in self.probabilities:
            raise NetlistError(f"no probability recorded for net {name!r}")
        return self.probabilities[name]



#: probability of each node kind's output given independent children
_PROBABILITY_RULES = {
    "AND": "{0} * {1}",
    "OR": "{0} + {1} - {0} * {1}",
    "XOR": "{0} + {1} - 2.0 * {0} * {1}",
    "NOT": "1.0 - {0}",
    "MUX": "(1.0 - {0}) * {1} + {0} * {2}",
    "MAJ": "{0} * {1} + {0} * {2} + {1} * {2} - 2.0 * {0} * {1} * {2}",
}


def _probability_function(definition: CellDef) -> Callable[..., Tuple[float, ...]]:
    """Output probabilities from input probabilities, both in port order.

    Composing the node rules is exact because every cell function reads
    each input once; a record's named closed form takes precedence.
    """
    if definition.probability is not None:
        module, name = definition.probability.split(":")
        return getattr(importlib.import_module(module), name)
    body, results = straight_line(definition.functions, _PROBABILITY_RULES)
    body.append(f"return ({', '.join(results)},)")
    return define("probability", ", ".join(definition.inputs), body)


#: per cell type: probability function, input ports, output ports
_CELL_PROBABILITY = {
    t: (_probability_function(d), d.inputs, d.outputs) for t, d in CELL_DEFS.items()
}


def propagate_probabilities(netlist: Netlist) -> ProbabilityResult:
    """Propagate signal probabilities from the primary inputs to every net.

    A primary input's probability is its ``attributes["probability"]``
    annotation (written by the matrix builder from the validated signal
    spec), or 0.5 when it has none.  Constants have probability equal to
    their value.
    """
    probabilities: Dict[str, float] = {}
    for net in netlist.nets.values():
        if net.const_value is not None:
            probabilities[net.name] = float(net.const_value)
        elif net.is_primary_input:
            probability = net.attributes.get("probability", 0.5)
            probabilities[net.name] = float(probability)  # type: ignore[arg-type]

    for cell in netlist.topological_cells():
        function, in_ports, out_ports = _CELL_PROBABILITY[cell.cell_type]
        inputs, outputs = cell.inputs, cell.outputs
        args = []
        for port in in_ports:
            args.append(probabilities[inputs[port].name])
        values = function(*args)
        for port, value in zip(out_ports, values):
            if not 0.0 < value <= 1.0:  # out of range, or NaN
                value = min(1.0, max(0.0, value))
            probabilities[outputs[port].name] = value

    return ProbabilityResult(netlist_name=netlist.name, probabilities=probabilities)
