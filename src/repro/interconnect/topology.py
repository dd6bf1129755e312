"""PCIe fabric topology: root complex, switches, endpoint devices.

The fabric is a tree (standard PCIe): the root complex (CPU socket) at the
top, switches below it, endpoints (accelerators, DRXs, standalone DRX
cards) at the leaves. Every edge is a :class:`~repro.interconnect.pcie.PCIeLink`.

Routing is the unique tree path. A transfer is cut-through: it holds
every link on the path at once, pays serialization once at the
narrowest link, and pays the switch port-to-port latency (110 ns per
the PEX switch datasheet figure the paper cites) at every switch it
traverses. Peer-to-peer transfers between two endpoints under
the same switch therefore never touch the shared upstream link — the
mechanism behind Bump-in-the-Wire DRX's scaling advantage.

Bump-in-the-wire DRXs additionally sit on an *internal multiplexer* with
their host accelerator: accelerator↔local-DRX traffic uses a dedicated
:class:`PCIeLink` that bypasses the switch entirely (Fig. 10 step 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..sim import Simulator
from .pcie import LinkConfig, PCIeLink

__all__ = ["Node", "Fabric", "SWITCH_PORT_LATENCY_S"]

# Port-to-port latency tax through a PCIe switch (Sec. VII-B cites 110 ns).
SWITCH_PORT_LATENCY_S = 110e-9

#: ``(links crossed, switch hops)`` between two fabric nodes.
Route = Tuple[Tuple[PCIeLink, ...], int]

#: A route priced for cut-through transfers: ``(distinct links in
#: acquisition order, bottleneck bandwidth, propagation sum, switch
#: hops)``.
PricedRoute = Tuple[Tuple[PCIeLink, ...], float, float, int]


@dataclass
class Node:
    """A vertex in the PCIe tree."""

    name: str
    kind: str  # "root" | "switch" | "endpoint"
    parent: Optional["Node"] = None
    uplink: Optional[PCIeLink] = None  # link to parent
    children: List["Node"] = field(default_factory=list)
    mux_peers: Dict[str, PCIeLink] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)

    def ancestors(self) -> List["Node"]:
        out = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out


class Fabric:
    """Builds and routes over a PCIe tree.

    Example
    -------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> fabric = Fabric(sim)
    >>> sw = fabric.add_switch("sw0")
    >>> a = fabric.add_endpoint("accel0", sw)
    >>> b = fabric.add_endpoint("accel1", sw)
    >>> [l.name for l in fabric.path("accel0", "accel1")[0]]
    ['accel0.up', 'accel1.up']
    """

    def __init__(
        self,
        sim: Simulator,
        link_config: Optional[LinkConfig] = None,
        upstream_config: Optional[LinkConfig] = None,
        switch_latency_s: float = SWITCH_PORT_LATENCY_S,
    ):
        if not switch_latency_s >= 0:
            raise ValueError("switch_latency_s must be non-negative (not NaN)")
        self.sim = sim
        self.link_config = link_config or LinkConfig()
        # The upstream port of a switch uses a single x8 link (Sec. VII-B).
        self.upstream_config = upstream_config or self.link_config
        self.switch_latency_s = switch_latency_s
        self.root = Node("root", "root")
        self.nodes: Dict[str, Node] = {"root": self.root}
        self.links: List[PCIeLink] = []
        # Memoized routes and their prices per (src, dst): the tree only
        # changes while it is being built, and every construction method
        # clears both memos.
        self._routes: Dict[Tuple[str, str], Route] = {}
        self._priced: Dict[Tuple[str, str], PricedRoute] = {}

    # -- construction --------------------------------------------------------

    def _add_node(
        self, name: str, kind: str, parent: Node, config: LinkConfig
    ) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")
        link = PCIeLink(self.sim, config, name=f"{name}.up")
        node = Node(name, kind, parent=parent, uplink=link)
        parent.children.append(node)
        self.nodes[name] = node
        self.links.append(link)
        self._routes.clear()
        self._priced.clear()
        return node

    def add_switch(self, name: str, parent: Optional[Node] = None) -> Node:
        """Attach a switch under ``parent`` (root by default)."""
        return self._add_node(name, "switch", parent or self.root, self.upstream_config)

    def add_endpoint(
        self,
        name: str,
        parent: Node,
        config: Optional[LinkConfig] = None,
    ) -> Node:
        """Attach an endpoint device under a switch (or the root)."""
        if parent.kind == "endpoint":
            raise ValueError(f"cannot attach under endpoint {parent.name!r}")
        return self._add_node(name, "endpoint", parent, config or self.link_config)

    def add_inline(
        self,
        name: str,
        host: str,
        mux_config: Optional[LinkConfig] = None,
    ) -> Node:
        """Attach a bump-in-the-wire device in front of endpoint ``host``.

        The inline device sits *on* the host's uplink wire: traffic
        between it and the rest of the fabric shares the host's physical
        link, while device↔host traffic uses a private internal
        multiplexer that never reaches the switch (Fig. 10 step 10).
        """
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")
        host_node = self.nodes[host]
        if host_node.kind != "endpoint":
            raise ValueError(f"inline device must front an endpoint, not "
                             f"{host_node.kind}")
        node = Node(name, "endpoint", parent=host_node.parent,
                    uplink=host_node.uplink)
        host_node.parent.children.append(node)
        self.nodes[name] = node
        self.add_mux_pair(name, host, mux_config)  # clears the route memo
        return node

    def add_mux_pair(
        self,
        a: str,
        b: str,
        config: Optional[LinkConfig] = None,
    ) -> PCIeLink:
        """Create a bump-in-the-wire internal multiplexer between two endpoints.

        Transfers between the pair use this private link and skip the
        switch path entirely.
        """
        node_a, node_b = self.nodes[a], self.nodes[b]
        link = PCIeLink(self.sim, config or self.link_config, name=f"{a}<->{b}.mux")
        node_a.mux_peers[b] = link
        node_b.mux_peers[a] = link
        self.links.append(link)
        self._routes.clear()
        self._priced.clear()
        return link

    def endpoints(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "endpoint"]

    # -- routing -------------------------------------------------------------

    def path(self, src: str, dst: str) -> Route:
        """Links crossed and switches traversed from ``src`` to ``dst``.

        Returns ``(links, switch_hops)`` with ``links`` a tuple, memoized
        per pair. Uses the private mux link when one exists between the
        pair.
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self._walk(src, dst)
        return route

    def _walk(self, src: str, dst: str) -> Route:
        if src == dst:
            return (), 0
        a, b = self.nodes[src], self.nodes[dst]
        if b.name in a.mux_peers:
            return (a.mux_peers[b.name],), 0

        # Unique tree path: climb both to the lowest common ancestor.
        a_chain = [a] + a.ancestors()
        b_chain = [b] + b.ancestors()
        b_set = {n.name for n in b_chain}
        lca = next(n for n in a_chain if n.name in b_set)

        links: List[PCIeLink] = []
        switch_hops = 0
        node = a
        while node is not lca:
            links.append(node.uplink)
            node = node.parent
            if node.kind == "switch" and node is not lca:
                switch_hops += 1
        down: List[PCIeLink] = []
        node = b
        while node is not lca:
            down.append(node.uplink)
            node = node.parent
            if node.kind == "switch" and node is not lca:
                switch_hops += 1
        # The LCA itself is traversed (port in, port out) when it is a
        # switch; the root complex is an endpoint of the transfer, not a hop.
        if lca.kind == "switch":
            switch_hops += 1
        links.extend(reversed(down))
        return tuple(links), switch_hops

    def _price(self, src: str, dst: str) -> PricedRoute:
        """Price the ``src`` -> ``dst`` route once (memoized per pair).

        An inline device shares its host's physical link, so the route's
        links are deduplicated; the propagation sum keeps their
        first-crossed order, and acquisition uses a canonical global
        order (by name), so concurrent transfers over overlapping paths
        queue without deadlock.
        """
        links, switch_hops = self.path(src, dst)
        unique = list({id(link): link for link in links}.values())
        priced = self._priced[(src, dst)] = (
            tuple(sorted(unique, key=lambda link: link.name)),
            # inf for an empty route (src == dst), which is never timed.
            min((link.bandwidth for link in unique), default=float("inf")),
            sum(link.config.propagation_latency_s for link in unique),
            switch_hops,
        )
        return priced

    def _cut_through(self, priced: PricedRoute, nbytes: int) -> float:
        """PCIe transfers are cut-through: TLPs stream across every link on
        the path simultaneously, so the serialization time is paid once (at
        the narrowest link), plus per-link propagation and per-switch
        port-to-port latency. (``nbytes / min(bw)`` is ``max(nbytes / bw)``
        for ``nbytes >= 0``: correctly rounded division is monotone.)"""
        _, bottleneck_bw, propagation, switch_hops = priced
        return (
            nbytes / bottleneck_bw + propagation
            + switch_hops * self.switch_latency_s
        )

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Process: move ``nbytes`` from ``src`` to ``dst`` over the fabric.

        Occupies every link on the path for the cut-through duration
        (links are acquired in a canonical global order, so concurrent
        transfers over overlapping paths queue without deadlock). Returns
        the total elapsed time.

        Interruption-safe: a watchdog interrupting the transfer mid-flight
        releases every held link and withdraws the in-flight acquisition,
        so a timed-out transfer never wedges the fabric.
        """
        start = self.sim.now
        priced = self._priced.get((src, dst)) or self._price(src, dst)
        links = priced[0]
        if not links:
            return 0.0
        duration = self._cut_through(priced, nbytes)
        held = []
        pending = None
        try:
            for link in links:
                request = link.acquire()
                pending = (link, request)
                yield request
                pending = None
                held.append((link, request))
            yield self.sim.timeout(duration)
        except BaseException:
            if pending is not None:
                pending[0].relinquish(pending[1])
            for link, request in held:
                link.release(request)
            raise
        for link, request in held:
            link.release(request)
            link.bytes_moved += nbytes
        return self.sim.now - start

    def unloaded_latency(self, src: str, dst: str, nbytes: int) -> float:
        """Contention-free transfer latency, for analytical estimates."""
        priced = self._priced.get((src, dst)) or self._price(src, dst)
        if not priced[0]:
            return 0.0
        return self._cut_through(priced, nbytes)

    def total_bytes_moved(self) -> int:
        """Total bytes crossing any link — the data-movement metric."""
        return sum(link.bytes_moved for link in self.links)
