"""Arrival-time propagation (static timing analysis).

A topological sweep computes, for every net, the latest time at which its
value can settle, given primary-input arrival times and the library's
pin-to-pin cell delays.  This is the "sign-off" view of timing; the allocation
algorithms use the simpler Ds/Dc model while they build the tree, and the
tests check that both views agree on FA/HA-only structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Union

from repro.errors import NetlistError
from repro.netlist.core import Net, Netlist
from repro.tech.library import TechLibrary


@dataclass
class TimingResult:
    """Output of :func:`compute_arrival_times`."""

    netlist_name: str
    arrivals: Dict[str, float]
    worst_output_net: Optional[str] = None
    worst_output_arrival: float = 0.0
    worst_net: Optional[str] = None
    worst_arrival: float = 0.0
    #: the per-net wire delays the arrivals were computed under
    net_delays: Mapping[str, float] = field(default_factory=dict)

    def arrival_of(self, net: Union[str, Net]) -> float:
        """Arrival time of a net (by name or object)."""
        name = net.name if isinstance(net, Net) else net
        if name not in self.arrivals:
            raise NetlistError(f"no arrival time recorded for net {name!r}")
        return self.arrivals[name]

    @property
    def delay(self) -> float:
        """The design delay: worst arrival over primary outputs.

        Falls back to the worst arrival over all nets when the netlist has no
        registered primary outputs.
        """
        if self.worst_output_net is not None:
            return self.worst_output_arrival
        return self.worst_arrival


def _finalize(
    netlist: Netlist, arrivals: Dict[str, float], wire: Mapping[str, float]
) -> TimingResult:
    """Fold an arrival map into a :class:`TimingResult`."""
    worst_net = None
    worst_arrival = 0.0
    for name, value in arrivals.items():
        if worst_net is None or value > worst_arrival:
            worst_net, worst_arrival = name, value

    worst_output_net = None
    worst_output_arrival = 0.0
    for net in netlist.primary_outputs:
        value = arrivals.get(net.name, 0.0)
        if worst_output_net is None or value > worst_output_arrival:
            worst_output_net, worst_output_arrival = net.name, value

    return TimingResult(
        netlist_name=netlist.name,
        arrivals=arrivals,
        worst_output_net=worst_output_net,
        worst_output_arrival=worst_output_arrival,
        worst_net=worst_net,
        worst_arrival=worst_arrival,
        net_delays=wire,
    )


def compute_arrival_times(
    netlist: Netlist,
    library: TechLibrary,
    net_delays: Optional[Mapping[str, float]] = None,
) -> TimingResult:
    """Propagate arrival times through the netlist in one topological sweep.

    A primary input arrives at its ``attributes["arrival"]`` annotation
    (written by the matrix builder from the validated signal spec), or at 0
    when it has none; constant nets arrive at time 0.  The worst arc of a
    cell output starts from its first input rather than from 0.0, so
    negative input arrivals (early-mode analysis) propagate instead of
    being clamped at zero.  A cell input net with no arrival at all —
    undriven and not a primary input or constant — raises
    :class:`NetlistError` naming the net and the consuming cell.  Arcs come
    from :meth:`TechLibrary.output_arcs`, so a cell type the library cannot
    time raises its :class:`~repro.errors.LibraryError` before any input of
    that cell is read.

    ``net_delays`` adds a per-net interconnect delay (keyed by net name, in
    ns) on top of the driving arrival — the lumped wire model the placement
    subsystem produces (:func:`repro.place.wires.wire_delays`), making the
    sweep wire-aware.  Unlisted nets fly at zero wire delay, so the default
    (``None``) reproduces the classic pre-place view exactly.

    **Memo.**  The result is one of the netlist's
    :meth:`~repro.netlist.core.Netlist.derived_views`, keyed on the library
    and on the net-delay map.  Only a read-only map
    (:class:`types.MappingProxyType`, as the placer returns) is keyed, by
    identity; a plain dict could change under the key and is never
    memoized.  The shared :class:`TimingResult` must be treated as
    read-only.
    """
    memo_key = None
    if net_delays is None or isinstance(net_delays, MappingProxyType):
        memo_key = ("sta", id(library), id(net_delays))
        entry = netlist.derived_views().get(memo_key)
        if entry is not None:
            return entry[2]  # type: ignore[index]

    wire = net_delays or {}
    arrivals: Dict[str, float] = {}
    for net in netlist.nets.values():
        if net.const_value is not None:
            arrivals[net.name] = 0.0
        elif net.is_primary_input:
            value = float(net.attributes.get("arrival", 0.0))  # type: ignore[arg-type]
            arrivals[net.name] = value + wire.get(net.name, 0.0)

    arrival_of = arrivals.get
    wire_of = wire.get
    output_arcs = library.output_arcs
    for cell in netlist.topological_cells():
        inputs = cell.inputs
        outputs = cell.outputs
        for out_port, arcs in output_arcs(cell.cell_type):
            worst: Optional[float] = None
            for in_port, delay in arcs:
                in_net = inputs[in_port]
                in_arrival = arrival_of(in_net.name)
                if in_arrival is None:
                    raise NetlistError(
                        f"net {in_net.name!r} read by input {in_port!r} of "
                        f"cell {cell.name!r} is undriven (not a primary "
                        f"input, constant, or cell output)"
                    )
                arc = in_arrival + delay
                if worst is None or arc > worst:
                    worst = arc
            out_name = outputs[out_port].name
            arrivals[out_name] = (0.0 if worst is None else worst) + wire_of(out_name, 0.0)

    result = _finalize(netlist, arrivals, wire)
    if memo_key is not None:
        # the entry holds the library and the map, so their ids stay unique
        netlist.derived_views()[memo_key] = (library, net_delays, result)
    return result
