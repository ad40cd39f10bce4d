"""Arrival-time propagation (static timing analysis).

A topological sweep computes, for every net, the latest time at which its
value can settle, given primary-input arrival times and the library's
pin-to-pin cell delays.  This is the "sign-off" view of timing; the allocation
algorithms use the simpler Ds/Dc model while they build the tree, and the
tests check that both views agree on FA/HA-only structures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Set, Union

from repro import obs
from repro.errors import NetlistError
from repro.netlist.cells import cell_input_ports, cell_output_ports
from repro.netlist.core import Cell, Net, Netlist
from repro.tech.library import TechLibrary

ArrivalMap = Mapping[Union[str, Net], float]


@dataclass
class TimingResult:
    """Output of :func:`compute_arrival_times`."""

    netlist_name: str
    arrivals: Dict[str, float]
    worst_output_net: Optional[str] = None
    worst_output_arrival: float = 0.0
    worst_net: Optional[str] = None
    worst_arrival: float = 0.0
    input_arrivals: Dict[str, float] = field(default_factory=dict)
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


def _normalize_input_arrivals(
    netlist: Netlist, input_arrivals: Optional[ArrivalMap]
) -> Dict[str, float]:
    """Resolve user-provided arrival times to a name-keyed dict."""
    resolved: Dict[str, float] = {}
    if not input_arrivals:
        return resolved
    for key, value in input_arrivals.items():
        name = key.name if isinstance(key, Net) else str(key)
        if name not in netlist.nets:
            raise NetlistError(f"arrival given for unknown net {name!r}")
        resolved[name] = float(value)
    return resolved


def _source_arrival(
    net: Net,
    explicit: Dict[str, float],
    default_input_arrival: float,
    use_net_attributes: bool,
    wire: Mapping[str, float],
) -> float:
    """Arrival of a primary-input or constant net (shared by both sweeps)."""
    if net.is_constant:
        return 0.0
    if net.name in explicit:
        value = explicit[net.name]
    elif use_net_attributes and "arrival" in net.attributes:
        value = float(net.attributes["arrival"])  # type: ignore[arg-type]
    else:
        value = default_input_arrival
    return value + wire.get(net.name, 0.0)


def _cell_output_arrival(
    cell: Cell,
    out_port: str,
    out_name: str,
    arrivals: Dict[str, float],
    library: TechLibrary,
    wire: Mapping[str, float],
) -> float:
    """One output's arrival from its input arcs (shared by both sweeps).

    The worst arc initializes from the first input rather than from 0.0, so
    negative input arrivals (early-mode analysis, negative
    ``default_input_arrival``) propagate instead of being clamped at zero.
    An input net with no recorded arrival is floating — neither a primary
    input, a constant, nor driven — and is a structural error, not a
    silently-default-timed source.
    """
    worst: Optional[float] = None
    for in_port in cell_input_ports(cell.cell_type):
        in_net = cell.inputs[in_port]
        in_arrival = arrivals.get(in_net.name)
        if in_arrival is None:
            raise NetlistError(
                f"net {in_net.name!r} read by input {in_port!r} of cell "
                f"{cell.name!r} is undriven (not a primary input, constant, "
                f"or cell output)"
            )
        arc = in_arrival + library.delay(cell.cell_type, in_port, out_port)
        if worst is None or arc > worst:
            worst = arc
    return (0.0 if worst is None else worst) + wire.get(out_name, 0.0)


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
        input_arrivals={
            net.name: arrivals[net.name]
            for net in netlist.primary_inputs
            if net.name in arrivals
        },
        net_delays=wire,
    )


def compute_arrival_times(
    netlist: Netlist,
    library: TechLibrary,
    input_arrivals: Optional[ArrivalMap] = None,
    default_input_arrival: float = 0.0,
    use_net_attributes: bool = True,
    net_delays: Optional[Mapping[str, float]] = None,
    previous: Optional[TimingResult] = None,
    changed_nets: Optional[Iterable[str]] = None,
) -> TimingResult:
    """Propagate arrival times through the netlist.

    Primary-input arrivals are taken, in priority order, from
    ``input_arrivals``, from the net's ``attributes["arrival"]`` annotation
    (written by the matrix builder) when ``use_net_attributes`` is set, and
    finally from ``default_input_arrival``.  Constant nets arrive at time 0.
    A cell input net with no arrival source at all — undriven and not a
    primary input or constant — raises :class:`NetlistError` naming the net
    and the consuming cell.

    ``net_delays`` adds a per-net interconnect delay (keyed by net name, in
    ns) on top of the driving arrival — the lumped wire model the placement
    subsystem produces (:func:`repro.place.wires.wire_delays`), making the
    sweep wire-aware.  Unlisted nets fly at zero wire delay, so the default
    (``None``) reproduces the classic pre-place view exactly.

    **Incremental mode.**  Passing ``previous`` (a result for an earlier
    revision of the *same* netlist, computed under the same timing context:
    identical ``input_arrivals`` / ``default_input_arrival`` /
    ``net_delays``) together with ``changed_nets`` (the names every rewrite
    touched since — see :attr:`repro.opt.base.RewritePass.touched_nets`)
    re-propagates only the dirty fanout cone: arrivals of removed nets are
    pruned, new and touched nets are re-sourced or re-driven, and
    recomputation stops at the frontier where values stop changing.  The
    full sweep remains the sign-off reference; a fuzz property pins
    incremental ≡ full exactly (identical float operations per net, so
    equality is bitwise, not approximate).

    **Memo.**  A full sweep with no ``input_arrivals``, a zero
    ``default_input_arrival`` and net-attribute arrivals on — the sign-off
    call every flow stage makes — is one of the netlist's
    :meth:`~repro.netlist.core.Netlist.derived_views`, keyed on the library
    and on the net-delay map.  Only a read-only map
    (:class:`types.MappingProxyType`, as the placer returns) is keyed, by
    identity; a plain dict could change under the key and is never
    memoized.  The shared :class:`TimingResult` must be treated as
    read-only.
    """
    memo_key = None
    if (
        previous is None
        and input_arrivals is None
        and default_input_arrival == 0.0
        and use_net_attributes
        and (net_delays is None or isinstance(net_delays, MappingProxyType))
    ):
        memo_key = ("sta", id(library), id(net_delays))
        entry = netlist.derived_views().get(memo_key)
        if entry is not None:
            return entry[2]  # type: ignore[index]

    explicit = _normalize_input_arrivals(netlist, input_arrivals)
    wire = net_delays or {}

    if previous is not None:
        return _incremental_arrival_times(
            netlist,
            library,
            explicit,
            default_input_arrival,
            use_net_attributes,
            wire,
            previous,
            set(changed_nets or ()),
        )

    arrivals: Dict[str, float] = {}
    for net in netlist.nets.values():
        if net.is_constant or net.is_primary_input:
            arrivals[net.name] = _source_arrival(
                net, explicit, default_input_arrival, use_net_attributes, wire
            )

    for cell in netlist.topological_cells():
        for out_port in cell_output_ports(cell.cell_type):
            out_name = cell.outputs[out_port].name
            arrivals[out_name] = _cell_output_arrival(
                cell, out_port, out_name, arrivals, library, wire
            )

    result = _finalize(netlist, arrivals, wire)
    if memo_key is not None:
        # the entry holds the library and the map, so their ids stay unique
        netlist.derived_views()[memo_key] = (library, net_delays, result)
    return result


def _incremental_arrival_times(
    netlist: Netlist,
    library: TechLibrary,
    explicit: Dict[str, float],
    default_input_arrival: float,
    use_net_attributes: bool,
    wire: Mapping[str, float],
    previous: TimingResult,
    changed: Set[str],
) -> TimingResult:
    """Re-propagate arrivals through the dirty fanout cone only.

    Seeds a worklist with the cells driving or reading every dirty net
    (touched by a pass, new since ``previous``, or undriven-but-read) and
    drains it in cached topological order, so each affected cell is
    re-evaluated exactly once with final input arrivals.  Propagation past
    a cell output stops when its recomputed arrival is unchanged, which is
    what makes a localized rewrite cost its cone, not the netlist.
    """
    nets = netlist.nets
    arrivals = {
        name: value for name, value in previous.arrivals.items() if name in nets
    }

    dirty = {name for name in changed if name in nets}
    for name, net in nets.items():
        if name not in arrivals and (
            net.is_constant or net.is_primary_input or net.driver or net.loads
        ):
            dirty.add(name)

    topo_index = netlist.topological_index()
    heap: list = []
    scheduled: Set[str] = set()
    recomputed = 0

    def _schedule(cell: Cell) -> None:
        if cell.name not in scheduled:
            scheduled.add(cell.name)
            heapq.heappush(heap, (topo_index[cell.name], cell.name, cell))

    for name in dirty:
        net = nets[name]
        if net.is_constant or net.is_primary_input:
            arrivals[name] = _source_arrival(
                net, explicit, default_input_arrival, use_net_attributes, wire
            )
            recomputed += 1
            # a dirty net's *loads* may have been rebound to it even when its
            # own arrival is unchanged (a rewrite replacing a cell output with
            # a constant or an input), so the consumers always re-evaluate
            for load_cell, _port in net.loads:
                _schedule(load_cell)
        else:
            if net.driver is not None:
                _schedule(net.driver[0])
            else:
                # undriven: drop any stale arrival so a consuming cell
                # re-raises the floating-net error the full sweep would
                arrivals.pop(name, None)
            for load_cell, _port in net.loads:
                _schedule(load_cell)

    while heap:
        _, _, cell = heapq.heappop(heap)
        for out_port in cell_output_ports(cell.cell_type):
            out_net = cell.outputs[out_port]
            value = _cell_output_arrival(
                cell, out_port, out_net.name, arrivals, library, wire
            )
            recomputed += 1
            if arrivals.get(out_net.name) != value:
                arrivals[out_net.name] = value
                for load_cell, _port in out_net.loads:
                    _schedule(load_cell)

    obs.counter("timing.incremental_nets", recomputed)
    return _finalize(netlist, arrivals, wire)
