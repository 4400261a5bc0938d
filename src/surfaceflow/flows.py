"""Fractional multiflows: LP solving, decomposition, feasibility.

A ``DCycle`` is a simple cycle containing exactly one demand edge; the
maximum multiflow LP assigns non-negative values to D-cycles subject to
edge capacities.  Solving works on the compact per-demand edge-flow
formulation (two directed variables per supply edge per demand plus one
variable on the demand edge itself), which an exact flow decomposition then
converts into a D-cycle multiflow of support at most ``|D| * |E|``.

The LP dual's capacity prices form a fractional multicut: every D-cycle has
total price at least 1.  ``solve_fractional`` verifies this exactly via
shortest paths and returns the prices as an optimality certificate.

The LP answers in ints (``lp.LPResult``), and so do the layers here and
after: the edge flows, the multicut check and the decomposition run on int
numerators over the LP's denominators, and a ``Multiflow`` holds int
numerators over one denominator.  A ``QQ`` is made only where a value
leaves: the multicut's cost, ``Multiflow.value``, the witness of a failed
check, and ``from_wire``'s parse of outside input; ``rational.rat_str``
writes a value as ``"p/q"`` from its ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InternalInvariantError, PreconditionError
from .instances import Instance, is_int
from .lp import LPResult, solve_lp
from .rational import QQ, ZERO, rat, rat_str
from .surface import cycle_vertices


def canonical_darts(darts: Sequence[int]) -> tuple:
    """Lexicographically minimal representative over rotations and reversal.

    The darts of a cycle are distinct, so the least rotation of each
    direction starts at that direction's smallest dart.
    """
    fwd = tuple(darts)
    rev = tuple(d ^ 1 for d in reversed(fwd))
    i, j = fwd.index(min(fwd)), rev.index(min(rev))
    return min(fwd[i:] + fwd[:i], rev[j:] + rev[:j])


class DCycle:
    """A simple cycle through exactly one demand edge, as a dart sequence.

    Stored canonically (minimal over rotation and reversal), so equal cycles
    compare and hash equal regardless of traversal; equality and the hash,
    computed once, read ``darts`` and ``demand`` only.  The record carries
    what every layer asks of a cycle: ``edges``, in dart order; ``mask``,
    with bit ``e`` set for each edge ``e``; and ``least``, their least
    capacity in the instance that made the cycle, valid there only.
    ``DCycle(...)`` takes its fields as given; ``from_darts`` validates.
    No field is assigned after construction.
    """

    __slots__ = ("darts", "demand", "edges", "mask", "least", "_hash")

    def __init__(self, darts: tuple, demand: int, mask: int, least: int):
        self.darts = darts
        self.demand = demand
        self.edges = tuple([d >> 1 for d in darts])
        self.mask = mask
        self.least = least
        self._hash = hash((darts, demand))

    @staticmethod
    def from_darts(instance: Instance, darts: Sequence[int]) -> "DCycle":
        """A simple cycle (``surface.cycle_vertices``) through one demand."""
        cycle_vertices(instance.graph, darts)
        demands = [d >> 1 for d in darts if instance.is_demand(d >> 1)]
        if len(demands) != 1:
            raise PreconditionError(
                "a D-cycle must contain exactly one demand edge, got %d"
                % len(demands))
        edges = [d >> 1 for d in darts]
        # a simple cycle uses each edge once, so the sum is the OR
        return DCycle(canonical_darts(darts), demands[0],
                      sum([1 << e for e in edges]),
                      min([instance.caps[e] for e in edges]))

    def __eq__(self, other):
        return other.__class__ is DCycle and self.darts == other.darts \
            and self.demand == other.demand

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.darts)

    def __repr__(self):
        return "DCycle(darts=%r, demand=%r)" % (self.darts, self.demand)


def edge_loads(amounts: dict) -> dict:
    """Per-edge sum of a ``{DCycle: amount}`` dict: int amounts (a cycle
    multiset, or a ``Multiflow``'s numerators) give int loads, ``QQ``
    amounts ``QQ`` loads."""
    loads: dict = {}
    for c, v in amounts.items():
        for e in c.edges:
            loads[e] = loads.get(e, 0) + v
    return loads


@dataclass
class Multiflow:
    """Values on D-cycles: int numerators over one positive denominator.

    ``values[c] / denom`` is the flow on cycle ``c``; a cycle with value 0
    has no entry.  ``total`` is the value's numerator over ``denom``, and
    the layers compare and sum these ints; ``value`` is the one ``QQ``, for
    readers outside the package.
    """

    instance: Instance
    values: dict = field(default_factory=dict)
    denom: int = 1

    def __post_init__(self):
        if type(self.denom) is not int or self.denom < 1:
            raise PreconditionError("a flow's denominator must be a "
                                    "positive int, got %r" % (self.denom,))
        if any(type(v) is not int for v in self.values.values()):
            raise TypeError("flow numerators must be ints")

    @staticmethod
    def from_rationals(instance: Instance, amounts: dict) -> "Multiflow":
        """The flow ``{DCycle: rational}`` over the least common
        denominator of its values."""
        amounts = {c: rat(v) for c, v in amounts.items()}
        denom = lcm(*(v.denominator for v in amounts.values()))
        flow = Multiflow(instance, {}, denom)
        for c, v in amounts.items():
            flow.add(c, v.numerator * (denom // v.denominator))
        return flow

    def add(self, cycle: DCycle, num: int) -> None:
        """Add ``num / denom`` to the value of ``cycle``."""
        if type(num) is not int:
            raise TypeError("flow numerators must be ints, got %s %r"
                            % (type(num).__name__, num))
        num += self.values.get(cycle, 0)
        if num < 0:
            raise PreconditionError("flow values must be non-negative")
        if num:
            self.values[cycle] = num
        else:
            self.values.pop(cycle, None)

    @property
    def total(self) -> int:
        """The flow value's numerator over ``denom``."""
        return sum(self.values.values())

    @property
    def value(self):
        """The flow value, as a ``QQ``."""
        return QQ(self.total, self.denom)

    def support(self) -> list:
        """Cycles with positive value, in a deterministic order."""
        return sorted(self.values, key=lambda c: c.darts)

    def restrict(self, keep: Iterable[DCycle]) -> "Multiflow":
        keep = set(keep)
        return Multiflow(self.instance,
                         {c: v for c, v in self.values.items() if c in keep},
                         self.denom)

    def verify_feasible(self) -> None:
        """Raise if any capacity is exceeded: every edge load, an int over
        ``denom``, is compared with ``cap * denom``."""
        caps, denom = self.instance.caps, self.denom
        for e, load in edge_loads(self.values).items():
            if load > caps[e] * denom:
                load = QQ(load, denom)
                raise InternalInvariantError(
                    "edge %d overloaded: %s > %d" % (e, load, caps[e]),
                    witness=(e, load))

    def to_wire(self) -> list:
        return [{"cycle": list(c.darts), "demand": c.demand,
                 "value": rat_str(v, self.denom)} for c, v in
                sorted(self.values.items(), key=lambda kv: kv[0].darts)]

    @staticmethod
    def from_wire(instance: Instance, data: list) -> "Multiflow":
        """Parse cycle records; the values of a repeated cycle add up."""
        amounts: dict = {}
        for rec in data:
            if not is_int(rec["demand"]):
                raise PreconditionError(
                    "cycle record demand must be an int: %r" % (rec,))
            cycle = DCycle.from_darts(instance, rec["cycle"])
            if cycle.demand != rec["demand"]:
                raise PreconditionError(
                    "cycle record demand mismatch: %r" % (rec,))
            value = amounts.get(cycle, ZERO) + rat(rec["value"])
            if value < 0:
                raise PreconditionError("flow values must be non-negative")
            if value:
                amounts[cycle] = value
            else:
                amounts.pop(cycle, None)
        return Multiflow.from_rationals(instance, amounts)


def cycle_lp(cycle_edges: Sequence[Sequence[int]],
             caps: Sequence[int]) -> tuple[LPResult, list]:
    """The cycle-formulation LP, solved by ``solve_lp``.

    One unit column per cycle (``cycle_edges`` gives each cycle's edges,
    each once) and one capacity row per used edge, in edge order: the used
    edges are numbered once, and each column lists its edges' rows.  The
    LP has no arcs.  Returns the LP result and the edge of each row.
    """
    row_edges = sorted(set(chain.from_iterable(cycle_edges)))
    row_of = {e: i for i, e in enumerate(row_edges)}.__getitem__
    lp = solve_lp([1] * len(cycle_edges),
                  [tuple(map(row_of, edges)) for edges in cycle_edges],
                  [caps[e] for e in row_edges])
    return lp, row_edges


@dataclass
class EdgeFlowSolution:
    """Optimal compact-LP solution: per-demand signed edge flows.

    The flows are the LP's int numerators over its denominator ``denom``:
    ``flow[d][e] / denom`` is the net flow of demand ``d`` on supply edge
    ``e``, positive in slot0 -> slot1 direction, and
    ``demand_value[d] / denom`` the amount routed.  ``multicut`` maps every
    edge to the int numerator of its dual price over ``dy``, the LP's dual
    denominator (a fractional multicut).  ``multicut_value``, its
    capacity-weighted cost checked equal to ``value``, and ``value`` are
    the ``QQ``s the report prints.
    """

    flow: dict
    demand_value: dict
    denom: int
    multicut: dict
    dy: int
    multicut_value: object
    value: object
    engine: str


def solve_fractional(instance: Instance) -> EdgeFlowSolution:
    """Exact maximum fractional multiflow with a multicut certificate."""
    g = instance.graph
    demands = instance.demand_edges
    supply = instance.supply_edges
    if not demands:
        return EdgeFlowSolution({}, {}, 1, {e: 0 for e in supply}, 1, ZERO,
                                ZERO, engine="trivial")

    # variable layout: demand di's x+ and x- on the k-th supply edge are
    # columns di * per + 2k and di * per + 2k + 1; the w_d follow at n_flow
    per = 2 * len(supply)
    n_flow = len(demands) * per
    # int data throughout, and an int answer
    c = [0] * n_flow + [1] * len(demands)
    # capacity rows: the supply edges, then the demand edges
    rows = [(k,) for k in range(len(supply) + len(demands))]
    cols = [rows[k] for k in range(len(supply)) for _ in (0, 1)] \
        * len(demands) + rows[len(supply):]
    b_ub = [instance.caps[e] for e in supply + demands]

    # one conservation row per demand and vertex, in that order, except
    # for the vertices that neither a flow column nor the demand edge
    # touches, and for s: its row is redundant, and leaving it out makes s
    # the root of the arcs, whose spanning forest is both engines' start.
    # x+ runs from slot0 to slot1, x- back; a supply loop can never lie on
    # a simple D-cycle, so its columns have no arc
    ends = [g.edges[e] for e in supply]
    touched = {v for a, b in ends if a != b for v in (a, b)}
    head, tail, w_tail = [], [], []
    m_eq = 0
    for d in demands:
        s, t = g.edges[d]
        row = [-1] * g.n
        for v in range(g.n):
            if v != s and (v == t or v in touched):
                row[v] = m_eq
                m_eq += 1
        for a, b in ends:
            ra, rb = (row[a], row[b]) if a != b else (-1, -1)
            head += (rb, ra)
            tail += (ra, rb)
        # the demand edge carries w_d from t back to s
        w_tail.append(row[t])
    head += [-1] * len(demands)
    tail += w_tail

    res = solve_lp(c, cols, b_ub, (head, tail, m_eq))

    X = res.X
    flow = {}
    demand_value = {}
    for di, d in enumerate(demands):
        lo = di * per
        flow[d] = {e: plus - minus for e, plus, minus in
                   zip(supply, X[lo:lo + per:2], X[lo + 1:lo + per:2])
                   if plus != minus}
        demand_value[d] = X[n_flow + di]
    prices = dict(zip(supply + demands, res.Y_ub))
    multicut_value = _verify_multicut(instance, prices, res.dy, res.value)
    return EdgeFlowSolution(flow, demand_value, res.dx, prices, res.dy,
                            multicut_value, res.value, res.engine)


def _verify_multicut(instance: Instance, prices: dict, denom: int, value):
    """The dual prices ``prices[e] / denom`` (int numerators over one
    positive denominator) must cover every D-cycle with weight >= 1 and
    have total capacity-weighted cost equal to the flow value (strong
    duality).

    The covering test is ``dist + prices[d] >= denom`` in ints, with
    ``dist`` from Dijkstra; a negative price is refused.  Returns the cost.
    """
    g = instance.graph
    total = QQ(sum(instance.caps[e] * p for e, p in prices.items()), denom)
    if total != value:
        raise InternalInvariantError(
            "multicut certificate cost %s != flow value %s"
            % (total, value), witness=(prices, denom))
    if min(prices.values(), default=0) < 0:
        raise InternalInvariantError(
            "multicut certificate has a negative price",
            witness=(prices, denom))
    for d in instance.demand_edges:
        s, t = g.edges[d]
        dist = shortest_path_length(instance, s, t, prices)
        if dist is not None and dist + prices[d] < denom:
            raise InternalInvariantError(
                "multicut certificate misses a D-cycle through demand %d" % d,
                witness=(d, QQ(dist, denom)))
    return total


def shortest_path_length(instance: Instance, s: int, t: int,
                         weights: Mapping[int, int]):
    """Dijkstra over the supply edges, with non-negative int weights (an
    edge missing from ``weights`` weighs 0); ``None`` if ``t`` is not
    reachable from ``s``."""
    g = instance.graph
    adj = [[] for _ in range(g.n)]
    for e in instance.supply_edges:
        a, b = g.edges[e]
        w = weights.get(e, 0)
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = {s: 0}
    heap = [(0, s)]
    while heap:
        du, u = heappop(heap)
        if u == t:
            return du
        if du > dist[u]:
            continue  # a stale entry: u was reached more cheaply since
        for v, w in adj[u]:
            dv = du + w
            if v not in dist or dv < dist[v]:
                dist[v] = dv
                heappush(heap, (dv, v))
    return None


def decompose(instance: Instance, sol: EdgeFlowSolution) -> Multiflow:
    """Exact flow decomposition of the compact solution into D-cycles.

    Per demand, repeatedly extracts a shortest (fewest edges, then smallest
    dart ids) positive-flow path from ``s`` to ``t`` and peels off its
    bottleneck.  Cycles in the flow that avoid the demand edge are discarded;
    they carry no objective value.  The peeling runs on the solution's int
    numerators, and the flow keeps them over ``sol.denom``.
    """
    g = instance.graph
    flow = Multiflow(instance, {}, sol.denom)
    for d in instance.demand_edges:
        s, t = g.edges[d]
        remaining = sol.demand_value.get(d, 0)
        nets = dict(sol.flow.get(d, {}))
        demand_dart = 2 * d + 1  # attached to t, pointing back to s
        guard = 0
        while remaining > 0:
            guard += 1
            if guard > 4 * len(g.edges) + 8:
                raise InternalInvariantError(
                    "flow decomposition failed to terminate", witness=d)
            path = _shortest_positive_path(instance, nets, s, t)
            if path is None:
                raise InternalInvariantError(
                    "conservation violated: no residual path for demand %d"
                    % d, witness=nets)
            bottleneck = remaining
            for dart in path:
                e = dart >> 1
                avail = nets[e] if (dart & 1) == 0 else -nets[e]
                if avail < bottleneck:
                    bottleneck = avail
            for dart in path:
                e = dart >> 1
                nets[e] -= bottleneck if (dart & 1) == 0 else -bottleneck
                if nets[e] == 0:
                    del nets[e]
            remaining -= bottleneck
            cycle = DCycle.from_darts(instance, list(path) + [demand_dart])
            flow.add(cycle, bottleneck)
    return flow


def _shortest_positive_path(instance: Instance, nets: dict, s: int, t: int):
    """BFS over residual arcs; deterministic smallest-dart tie-breaks.

    Arcs: edge e with net > 0 goes slot0 -> slot1 (traversal dart ``2e``),
    net < 0 the other way (dart ``2e+1``); ``nets`` holds no zero.  Each
    vertex lists its darts in edge order, which is dart order.
    """
    g = instance.graph
    adj: dict[int, list] = {}
    for e, net in sorted(nets.items()):
        dart = 2 * e if net > 0 else 2 * e + 1
        adj.setdefault(g.head(dart), []).append(dart)
    parent = {s: None}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for dart in adj.get(v, ()):
                w = g.tail(dart)
                if w not in parent:
                    parent[w] = dart
                    if w == t:
                        path = []
                        x = t
                        while parent[x] is not None:
                            path.append(parent[x])
                            x = g.head(parent[x])
                        return tuple(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return None


def solve_and_decompose(instance: Instance):
    """Convenience wrapper: returns ``(multiflow, edge_solution)``.

    Checks the decomposition reproduces the LP value exactly and respects
    the support bound ``|D| * |E|``.
    """
    sol = solve_fractional(instance)
    flow = decompose(instance, sol)
    if flow.total * sol.value.denominator \
            != sol.value.numerator * flow.denom:
        raise InternalInvariantError(
            "decomposition lost value: %s != %s" % (flow.value, sol.value))
    bound = len(instance.demand_edges) * max(1, len(instance.graph.edges))
    if len(flow.values) > bound:
        raise InternalInvariantError(
            "decomposition support exceeds |D||E|",
            witness=len(flow.values))
    flow.verify_feasible()
    return flow, sol
