"""Core netlist data structures: :class:`Net`, :class:`Cell`, :class:`Bus`,
:class:`Netlist`.

A :class:`Netlist` is a directed acyclic graph of combinational cells.  Nets
are single-bit wires; a :class:`Bus` is an ordered (LSB-first) list of nets
used to group the bits of a word-level operand or result.  Constant 0/1 nets
are modelled as driverless nets with ``const_value`` set, so downstream
engines (timing, power, simulation) treat them uniformly.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import NetlistError
from repro.netlist.cells import CELL_DEFS, CellType


class Net:
    """A single-bit wire.

    Attributes
    ----------
    name:
        Unique name within the owning netlist.
    driver:
        ``(cell, output_port)`` pair, or ``None`` for primary inputs and
        constants.
    loads:
        List of ``(cell, input_port)`` pairs reading this net.
    is_primary_input:
        True when the net is a primary input of the netlist.
    const_value:
        0 or 1 for constant nets, ``None`` otherwise.
    """

    __slots__ = ("name", "driver", "loads", "is_primary_input", "const_value", "attributes")

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.driver: Optional[Tuple["Cell", str]] = None
        self.loads: List[Tuple["Cell", str]] = []
        self.is_primary_input = False
        self.const_value: Optional[int] = None
        self.attributes: Dict[str, object] = {} if attributes is None else attributes

    @property
    def is_constant(self) -> bool:
        """True when the net carries a constant 0 or 1."""
        return self.const_value is not None

    @property
    def fanout(self) -> int:
        """Number of cell input ports reading this net."""
        return len(self.loads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "const" if self.is_constant else ("pi" if self.is_primary_input else "wire")
        return f"Net({self.name!r}, {kind})"


class Cell:
    """An instance of a combinational cell bound to input and output nets.

    The cell keeps the port-to-net dicts it is given as its own.
    """

    __slots__ = ("name", "cell_type", "inputs", "outputs", "attributes")

    def __init__(
        self,
        name: str,
        cell_type: CellType,
        inputs: Dict[str, Net],
        outputs: Dict[str, Net],
    ) -> None:
        self.name = name
        self.cell_type = cell_type
        self.inputs = inputs
        self.outputs = outputs
        self.attributes: Dict[str, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.name!r}, {self.cell_type})"


class Bus:
    """An ordered, LSB-first collection of nets forming a word."""

    __slots__ = ("name", "nets")

    def __init__(self, name: str, nets: Sequence[Net]) -> None:
        self.name = name
        self.nets: List[Net] = list(nets)

    @property
    def width(self) -> int:
        """Number of bits in the bus."""
        return len(self.nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self.nets)

    def __len__(self) -> int:
        return len(self.nets)

    def __getitem__(self, index: int) -> Net:
        return self.nets[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bus({self.name!r}, width={self.width})"


#: per cell type: input ports, their set, output ports, cell-name prefix
_PORT_TABLES: Dict[CellType, Tuple[Tuple[str, ...], FrozenSet[str], Tuple[str, ...], str]] = {
    cell_type: (d.inputs, frozenset(d.inputs), d.outputs, f"{cell_type.value.lower()}_")
    for cell_type, d in CELL_DEFS.items()
}


class Netlist:
    """A named, growable netlist of combinational cells.

    The class is a *builder* as much as a container: generators (compressor
    trees, adders, multipliers) call :meth:`add_cell` to extend it, and the
    analysis engines consume the finished graph through :meth:`topological_cells`
    and the ``nets`` / ``cells`` views.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._nets: Dict[str, Net] = {}
        self._cells: Dict[str, Cell] = {}
        self._inputs: List[Net] = []
        self._outputs: List[Net] = []
        self.input_buses: Dict[str, Bus] = {}
        self.output_buses: Dict[str, Bus] = {}
        self._net_counter = 0
        self._cell_counter = 0
        self._const_nets: Dict[int, Net] = {}
        self._output_names: set = set()
        self._generation = 0
        self._views: Dict[Hashable, object] = {}
        self._views_generation = 0

    # ----------------------------------------------------------- invalidation
    @property
    def generation(self) -> int:
        """Monotonic structural-mutation counter.

        Every mutation through the public API (``add_net`` / ``add_cell`` /
        ``remove_cell`` / ``replace_net_uses`` / ``rebind_input`` /
        ``annotate`` / ...) bumps this counter.  Derived structures — the
        views memoized in :meth:`derived_views` — are keyed on the generation
        they were built against and treat any mismatch as stale, so cache
        invalidation is structural rather than a calling convention.
        """
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1

    def derived_views(self) -> Dict[Hashable, object]:
        """The memo of views derived from the current generation.

        One dict per netlist state: the first call after a mutation replaces
        it with an empty one, so every entry was computed from exactly the
        structure it is served for.  Producers store each view under their
        own key — the topological order, the compiled sim program
        (:func:`repro.sim.program.cached_program`), structural stats and
        per-library area (:func:`repro.netlist.stats.netlist_stats`), full
        STA results (:func:`repro.timing.arrival.compute_arrival_times`),
        the placement pin table (:func:`repro.place.placer.pin_table`) and
        the dead-cell-free marker of
        :class:`repro.opt.dce.DeadCellEliminationPass`.  A key must cover
        every input of its view beyond the structure; an entry that depends
        on another object (a library, a net-delay map) holds a reference to
        it, so the ``id()`` in its key cannot be recycled while the entry
        lives.  Views are shared, not copied: treat them as read-only.
        """
        if self._views_generation != self._generation:
            self._views = {}
            self._views_generation = self._generation
        return self._views

    # ------------------------------------------------------------------ views
    @property
    def nets(self) -> Dict[str, Net]:
        """Mapping of net name to :class:`Net` (do not mutate directly)."""
        return self._nets

    @property
    def cells(self) -> Dict[str, Cell]:
        """Mapping of cell name to :class:`Cell` (do not mutate directly)."""
        return self._cells

    @property
    def primary_inputs(self) -> List[Net]:
        """Primary input nets in creation order."""
        return list(self._inputs)

    @property
    def primary_outputs(self) -> List[Net]:
        """Primary output nets in creation order."""
        return list(self._outputs)

    def num_cells(self) -> int:
        """Total number of cell instances."""
        return len(self._cells)

    def cells_of_type(self, cell_type: CellType) -> List[Cell]:
        """All cells of the given type, in creation order."""
        return [c for c in self._cells.values() if c.cell_type is cell_type]

    # ------------------------------------------------------------- net create
    def add_net(self, name: Optional[str] = None, prefix: str = "n") -> Net:
        """Create a new internal net.

        If ``name`` is given it must be unique; otherwise a fresh name with the
        given prefix is generated.
        """
        if name is None:
            while True:
                self._net_counter += 1
                name = f"{prefix}{self._net_counter}"
                if name not in self._nets:
                    break
        elif name in self._nets:
            raise NetlistError(f"net name {name!r} already exists in netlist {self.name!r}")
        net = Net(name)
        self._nets[name] = net
        self._bump_generation()
        return net

    def add_input(self, name: str) -> Net:
        """Create a primary input net."""
        net = self.add_net(name)
        net.is_primary_input = True
        self._inputs.append(net)
        return net

    def add_input_bus(self, name: str, width: int) -> Bus:
        """Create ``width`` primary inputs named ``name[0]`` ... ``name[w-1]``."""
        if width <= 0:
            raise NetlistError(f"bus {name!r} must have positive width, got {width}")
        if name in self.input_buses:
            raise NetlistError(f"input bus {name!r} already exists")
        nets = [self.add_input(f"{name}[{i}]") for i in range(width)]
        bus = Bus(name, nets)
        self.input_buses[name] = bus
        return bus

    def const(self, value: int) -> Net:
        """Return the shared constant-0 or constant-1 net, creating it lazily."""
        if value not in (0, 1):
            raise NetlistError(f"constant nets carry 0 or 1, got {value!r}")
        if value not in self._const_nets:
            net = self.add_net(f"const{value}")
            net.const_value = value
            self._const_nets[value] = net
        return self._const_nets[value]

    # ------------------------------------------------------------ cell create
    def add_cell(
        self,
        cell_type: CellType,
        inputs: Mapping[str, Net],
        name: Optional[str] = None,
        output_prefix: Optional[str] = None,
        outputs: Optional[Mapping[str, Net]] = None,
    ) -> Cell:
        """Instantiate a cell, creating one fresh net per output port.

        ``inputs`` must bind every input port of the cell type to a net that
        already belongs to this netlist.  ``outputs`` may bind some (or all)
        output ports to *existing driverless* nets instead of fresh ones —
        the optimization passes use this to re-drive a primary-output net
        after its original driver has been removed.
        """
        table = _PORT_TABLES.get(cell_type)
        if table is None:
            raise NetlistError(f"unknown cell type {cell_type!r}")
        expected, expected_set, output_ports, _ = table
        nets = self._nets
        if inputs.keys() != expected_set:
            missing = [p for p in expected if p not in inputs]
            extra = [p for p in inputs if p not in expected_set]
            raise NetlistError(
                f"bad port binding for {cell_type}: missing={missing}, unexpected={extra}"
            )
        for port, net in inputs.items():
            if nets.get(net.name) is not net:
                raise NetlistError(
                    f"net {net.name!r} bound to port {port!r} does not belong to "
                    f"netlist {self.name!r}"
                )
        if outputs:
            if len({id(net) for net in outputs.values()}) != len(outputs):
                raise NetlistError(
                    f"the same net is bound to multiple output ports of {cell_type}"
                )
            for port, net in outputs.items():
                if port not in output_ports:
                    raise NetlistError(f"{cell_type} has no output port {port!r}")
                if nets.get(net.name) is not net:
                    raise NetlistError(
                        f"net {net.name!r} bound to output {port!r} does not belong "
                        f"to netlist {self.name!r}"
                    )
                if net.driver is not None:
                    raise NetlistError(
                        f"net {net.name!r} is already driven by {net.driver[0].name!r}"
                    )
                if net.is_primary_input or net.is_constant:
                    raise NetlistError(
                        f"net {net.name!r} is a primary input/constant and cannot be "
                        f"a cell output"
                    )
        if name is not None and name in self._cells:
            raise NetlistError(f"cell name {name!r} already exists in netlist {self.name!r}")

        cell = self.build_cell(cell_type, dict(inputs), name, output_prefix, outputs)
        self.touch()
        return cell

    def build_cell(
        self,
        cell_type: CellType,
        inputs: Dict[str, Net],
        name: Optional[str] = None,
        output_prefix: Optional[str] = None,
        outputs: Optional[Mapping[str, Net]] = None,
        annotations: Sequence[Dict[str, object]] = (),
    ) -> Cell:
        """:meth:`add_cell` without its checks and without a generation bump.

        For generators that build many cells over nets they have already
        checked (with :meth:`owns`) or built themselves: the port binding,
        the ownership of every input and output net and a given ``name`` are
        trusted, and the cell keeps ``inputs`` as its own dict.
        ``annotations`` gives the fresh output nets' attribute dicts in port
        order, written at creation instead of through :meth:`annotate`.  The
        caller calls :meth:`touch` once after its batch, so views derived
        before it are not served after.
        """
        _, _, output_ports, cell_prefix = _PORT_TABLES[cell_type]
        nets, cells = self._nets, self._cells
        if name is None:
            counter = self._cell_counter + 1
            name = f"{cell_prefix}{counter}"
            while name in cells:
                counter += 1
                name = f"{cell_prefix}{counter}"
            self._cell_counter = counter

        # fresh output nets are created here, not through add_net, which
        # would bump the generation once per net
        prefix = output_prefix or f"{name}_"
        cell_outputs: Dict[str, Net] = {}
        cell = Cell(name, cell_type, inputs, cell_outputs)
        counter = self._net_counter
        for index, port in enumerate(output_ports):
            net = outputs.get(port) if outputs else None
            if net is None:
                counter += 1
                net_name = f"{prefix}{port}_{counter}"
                while net_name in nets:
                    counter += 1
                    net_name = f"{prefix}{port}_{counter}"
                attributes = annotations[index] if annotations else None
                net = nets[net_name] = Net(net_name, attributes)
            cell_outputs[port] = net
            net.driver = (cell, port)
        self._net_counter = counter
        cells[name] = cell
        for port, net in inputs.items():
            net.loads.append((cell, port))
        return cell

    def owns(self, net: Net) -> bool:
        """True when ``net`` is this netlist's net of that name."""
        return self._nets.get(net.name) is net

    def touch(self) -> None:
        """Record a mutation made through :meth:`build_cell` (one per batch)."""
        self._generation += 1

    # ------------------------------------------------------------- mutation
    def annotate(self, net: Net, **attributes: object) -> None:
        """Set analysis annotations on ``net`` (``arrival``, ``probability``).

        Timing and power read source arrivals and probabilities from these
        annotations, so writing them is a mutation like any other: it bumps
        :attr:`generation` and no view derived before it is served after.
        """
        net.attributes.update(attributes)
        self._bump_generation()

    def remove_net(self, net: Net) -> None:
        """Delete a fully disconnected internal net.

        The net must belong to the netlist and have no driver, no loads and
        no primary-input/output/constant role.
        """
        if self._nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} does not belong to netlist {self.name!r}")
        if net.driver is not None:
            raise NetlistError(f"cannot remove driven net {net.name!r}")
        if net.loads:
            raise NetlistError(
                f"cannot remove net {net.name!r} with {len(net.loads)} loads"
            )
        if net.is_primary_input or net.is_constant or net.name in self._output_names:
            raise NetlistError(f"cannot remove primary/constant net {net.name!r}")
        del self._nets[net.name]
        self._bump_generation()

    def remove_cell(self, cell: Cell, keep_output_nets: bool = False) -> None:
        """Delete a cell whose outputs are no longer read.

        Every output net must be load-free (use :meth:`replace_net_uses`
        first).  Output nets that end up fully disconnected are removed too,
        unless ``keep_output_nets`` is set or the net is a primary output —
        re-drive such nets with :meth:`add_cell` ``outputs=`` bindings.
        Input nets are never removed, only unlinked.
        """
        if self._cells.get(cell.name) is not cell:
            raise NetlistError(f"cell {cell.name!r} does not belong to netlist {self.name!r}")
        loaded = [net.name for net in cell.outputs.values() if net.loads]
        if loaded:
            raise NetlistError(
                f"cannot remove cell {cell.name!r}: outputs {loaded} still have loads"
            )
        for port, net in cell.inputs.items():
            net.loads = [entry for entry in net.loads if entry != (cell, port)]
        output_names = set()
        for net in cell.outputs.values():
            net.driver = None
            output_names.add(net.name)
        del self._cells[cell.name]
        self._bump_generation()
        if not keep_output_nets:
            for name in output_names:
                net = self._nets.get(name)
                if net is not None:
                    self.discard_net_if_disconnected(net)

    def replace_net_uses(self, old: Net, new: Net) -> int:
        """Rewire every cell input reading ``old`` to read ``new`` instead.

        Primary-output membership is *not* transferred: a primary-output net
        keeps its identity, so a pass that removes its driver must re-drive
        it (typically with a ``BUF``) via ``add_cell(..., outputs=...)``.
        Returns the number of rewired cell input ports.
        """
        if self._nets.get(old.name) is not old:
            raise NetlistError(f"net {old.name!r} does not belong to netlist {self.name!r}")
        if self._nets.get(new.name) is not new:
            raise NetlistError(f"net {new.name!r} does not belong to netlist {self.name!r}")
        if old is new:
            return 0
        moved = 0
        for cell, port in list(old.loads):
            cell.inputs[port] = new
            new.loads.append((cell, port))
            moved += 1
        old.loads = []
        if moved:
            self._bump_generation()
        return moved

    def rebind_input(self, cell: Cell, port: str, new: Net) -> Net:
        """Rewire one input port of ``cell`` to read ``new`` instead.

        Returns the previously bound net.  This is the single-port
        counterpart of :meth:`replace_net_uses`, used by passes that
        retarget one reader without touching the rest of a net's fanout.
        """
        if self._cells.get(cell.name) is not cell:
            raise NetlistError(f"cell {cell.name!r} does not belong to netlist {self.name!r}")
        if self._nets.get(new.name) is not new:
            raise NetlistError(f"net {new.name!r} does not belong to netlist {self.name!r}")
        if port not in cell.inputs:
            raise NetlistError(f"cell {cell.name!r} has no input port {port!r}")
        old = cell.inputs[port]
        if old is new:
            return old
        old.loads = [entry for entry in old.loads if entry != (cell, port)]
        cell.inputs[port] = new
        new.loads.append((cell, port))
        self._bump_generation()
        return old

    def is_primary_output(self, net: Net) -> bool:
        """True when ``net`` is registered as a primary output (O(1))."""
        return net.name in self._output_names and self._nets.get(net.name) is net

    def discard_net_if_disconnected(self, net: Net) -> bool:
        """Remove ``net`` when it is fully disconnected and role-free.

        Returns True when the net was removed; nets with a driver, loads or
        an interface role (primary input/output, constant) are left alone.
        This is the lenient counterpart of the strict :meth:`remove_net`
        and the single definition of "safe to sweep" shared by cell removal
        and dead-net elimination.
        """
        if (
            self._nets.get(net.name) is net
            and net.driver is None
            and not net.loads
            and not net.is_primary_input
            and not net.is_constant
            and net.name not in self._output_names
        ):
            del self._nets[net.name]
            self._bump_generation()
            return True
        return False

    # ---------------------------------------------------------------- outputs
    def set_output(self, net: Net) -> None:
        """Mark a net as a primary output (idempotent)."""
        if self._nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} does not belong to netlist {self.name!r}")
        if net not in self._outputs:
            self._outputs.append(net)
            self._bump_generation()
        self._output_names.add(net.name)

    def set_output_bus(self, bus: Bus, name: Optional[str] = None) -> Bus:
        """Register a bus as the (or an) output word of the netlist."""
        bus_name = name or bus.name
        for net in bus.nets:
            self.set_output(net)
        registered = Bus(bus_name, bus.nets)
        self.output_buses[bus_name] = registered
        return registered

    # ------------------------------------------------------------- traversal
    def topological_cells(self) -> List[Cell]:
        """Cells in topological (fanin-before-fanout) order.

        The order is computed once per generation (see
        :meth:`derived_views`), so analysis engines that sweep an unchanged
        netlist repeatedly — the packed simulator replaying chunks, per-pass
        re-analysis at a fixpoint, timing/power/stats in one flow — pay for
        exactly one sort.  The returned list is the memo entry itself: treat
        it as read-only (it is safe to keep iterating a reference across
        mutations; the snapshot simply goes stale).

        Raises :class:`NetlistError` if the netlist contains a combinational
        cycle.
        """
        views = self.derived_views()
        order = views.get("topological_cells")
        if order is None:
            order = views["topological_cells"] = self._topological_sort()
        return order  # type: ignore[return-value]

    def _topological_sort(self) -> List[Cell]:
        # keyed by cell object (identity hash), not by name; only the
        # initial ready set is sorted, by name, which fixes the order
        cells = self._cells.values()
        indegree: Dict[Cell, int] = {}
        dependents: Dict[Cell, List[Cell]] = {cell: [] for cell in cells}
        for cell in cells:
            count = 0
            for net in cell.inputs.values():
                driver = net.driver
                if driver is not None:
                    dependents[driver[0]].append(cell)
                    count += 1
            indegree[cell] = count

        # a FIFO queue: the loop reaches every cell appended behind it
        order = sorted(
            (cell for cell, deg in indegree.items() if not deg), key=attrgetter("name")
        )
        for cell in order:
            for dependent in dependents[cell]:
                left = indegree[dependent] - 1
                indegree[dependent] = left
                if not left:
                    order.append(dependent)
        if len(order) != len(self._cells):
            raise NetlistError(
                f"netlist {self.name!r} contains a combinational cycle "
                f"({len(self._cells) - len(order)} cells unreachable)"
            )
        return order

    def transitive_fanin(self, nets: Iterable[Net]) -> List[Cell]:
        """All cells in the transitive fanin cone of the given nets."""
        seen: Dict[str, Cell] = {}
        frontier = [net for net in nets]
        while frontier:
            net = frontier.pop()
            if net.driver is None:
                continue
            cell = net.driver[0]
            if cell.name in seen:
                continue
            seen[cell.name] = cell
            frontier.extend(cell.inputs.values())
        return list(seen.values())

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-able structural snapshot (see :mod:`repro.netlist.serialize`)."""
        from repro.netlist.serialize import netlist_to_dict

        return netlist_to_dict(self)

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep structural copy.

        Built by direct object construction (same names, same creation
        order, same attributes as the serialization round-trip produces, but
        without paying for per-cell port validation on a graph that is
        already known valid).  The copy starts with an empty view memo.
        """
        duplicate = Netlist(self.name if name is None else name)
        nets = duplicate._nets
        for net in self._nets.values():
            twin = Net(net.name)
            twin.is_primary_input = net.is_primary_input
            twin.const_value = net.const_value
            if net.attributes:
                twin.attributes = dict(net.attributes)
            nets[net.name] = twin
        for value, net in self._const_nets.items():
            duplicate._const_nets[value] = nets[net.name]
        duplicate._inputs = [nets[net.name] for net in self._inputs]
        for cell in self._cells.values():
            twin_cell = Cell(
                cell.name,
                cell.cell_type,
                {port: nets[net.name] for port, net in cell.inputs.items()},
                {port: nets[net.name] for port, net in cell.outputs.items()},
            )
            if cell.attributes:
                twin_cell.attributes = dict(cell.attributes)
            duplicate._cells[cell.name] = twin_cell
            for port, net in twin_cell.inputs.items():
                net.loads.append((twin_cell, port))
            for port, net in twin_cell.outputs.items():
                net.driver = (twin_cell, port)
        duplicate._outputs = [nets[net.name] for net in self._outputs]
        duplicate._output_names = set(self._output_names)
        for bus_name, bus in self.input_buses.items():
            duplicate.input_buses[bus_name] = Bus(
                bus_name, [nets[net.name] for net in bus.nets]
            )
        for bus_name, bus in self.output_buses.items():
            duplicate.output_buses[bus_name] = Bus(
                bus_name, [nets[net.name] for net in bus.nets]
            )
        duplicate._bump_generation()
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, cells={len(self._cells)}, nets={len(self._nets)}, "
            f"inputs={len(self._inputs)}, outputs={len(self._outputs)})"
        )
