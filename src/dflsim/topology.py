"""Silo connectivity graphs, link delays, tour-based overlays, and mixing weights.

A connectivity graph lists silos (with per-update compute times) and directed
communication links (latency + bandwidth).  The overlay used for weight
exchange is a Hamiltonian cycle found by Christofides' algorithm on the
symmetrized, shortest-path-completed delay metric; the consensus matrix over
that overlay uses Metropolis-Hastings weights, which are symmetric and doubly
stochastic on any overlay with symmetric neighbor sets.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

BUNDLED_TOPOLOGIES = ("gaia11", "nws22")

# Exact minimum-weight matching is exponential in the number of odd-degree
# vertices; above this size a greedy nearest-pair matching is used instead.
EXACT_MATCHING_LIMIT = 16

BRUTE_FORCE_LIMIT = 12


class TopologyError(ValueError):
    """Raised for malformed topology files or invalid graph operations."""


@dataclass(frozen=True)
class SiloRecord:
    id: int
    compute_time_s: float


@dataclass(frozen=True)
class LinkRecord:
    src: int
    dst: int
    latency_s: float
    bandwidth_Bps: float


@dataclass(frozen=True)
class DelayParams:
    """Per-run delay inputs: model size in bytes and local steps per round."""

    model_size_bytes: float
    local_steps: int = 1

    def __post_init__(self):
        if self.model_size_bytes <= 0:
            raise TopologyError(f"model_size_bytes must be > 0, got {self.model_size_bytes}")
        if self.local_steps < 1:
            raise TopologyError(f"local_steps must be >= 1, got {self.local_steps}")


@dataclass(frozen=True)
class ConnectivityGraph:
    """Validated silo graph. ``links`` holds directed entries (undirected
    inputs are mirrored on load)."""

    silos: tuple[SiloRecord, ...]
    links: tuple[LinkRecord, ...]
    undirected: bool = True
    _link_map: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        _validate_graph(self)
        object.__setattr__(self, "_link_map", {(l.src, l.dst): l for l in self.links})

    @property
    def n(self) -> int:
        return len(self.silos)

    def compute_time(self, i: int) -> float:
        return self.silos[i].compute_time_s

    def link(self, i: int, j: int) -> LinkRecord:
        try:
            return self._link_map[(i, j)]
        except KeyError:
            raise TopologyError(f"no link {i}->{j} in connectivity graph") from None

    def has_link(self, i: int, j: int) -> bool:
        return (i, j) in self._link_map


@dataclass(frozen=True)
class Overlay:
    """Spanning, strongly connected sub-graph used for weight exchange.

    Tour overlays carry the Hamiltonian cycle order, both directed
    orientations of each tour edge, and for every directed edge the
    real-link path it expands to (identity for direct links).
    ``metric_weight`` is the tour weight in the symmetrized closure metric.
    """

    parent: ConnectivityGraph | None
    tour: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    in_neighbors: tuple[tuple[int, ...], ...]
    out_neighbors: tuple[tuple[int, ...], ...]
    paths: dict
    metric_weight: float

    @property
    def n(self) -> int:
        return len(self.in_neighbors)


@dataclass(frozen=True)
class ConsensusMatrix:
    """Nonnegative row-stochastic mixing weights over an overlay."""

    a: np.ndarray

    @property
    def order(self) -> int:
        return self.a.shape[0]


def _validate_graph(g: ConnectivityGraph) -> None:
    ids = [s.id for s in g.silos]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise TopologyError(f"duplicate silo id(s): {dup}")
    if sorted(ids) != list(range(len(ids))):
        raise TopologyError(f"non-contiguous silo ids: {sorted(ids)}")
    if len(ids) < 2:
        raise TopologyError(f"need at least 2 silos, got {len(ids)}")
    for s in g.silos:
        if s.compute_time_s < 0:
            raise TopologyError(f"silo {s.id}: compute_time_s must be >= 0, got {s.compute_time_s}")
    seen = set()
    for l in g.links:
        if l.src == l.dst:
            raise TopologyError(f"self-loop on silo {l.src}")
        if l.src not in set(ids) or l.dst not in set(ids):
            raise TopologyError(f"link {l.src}->{l.dst}: dangling endpoint")
        if (l.src, l.dst) in seen:
            raise TopologyError(f"duplicate link {l.src}->{l.dst}")
        seen.add((l.src, l.dst))
        if l.latency_s < 0:
            raise TopologyError(f"link {l.src}->{l.dst}: latency_s must be >= 0, got {l.latency_s}")
        if l.bandwidth_Bps <= 0:
            raise TopologyError(f"link {l.src}->{l.dst}: bandwidth_Bps must be > 0, got {l.bandwidth_Bps}")
    # connectivity in the undirected sense
    n = len(ids)
    adj = [set() for _ in range(n)]
    for l in g.links:
        adj[l.src].add(l.dst)
        adj[l.dst].add(l.src)
    seen_nodes = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen_nodes:
                seen_nodes.add(v)
                stack.append(v)
    if len(seen_nodes) != n:
        missing = sorted(set(range(n)) - seen_nodes)
        raise TopologyError(f"graph is disconnected; unreachable silos: {missing}")


def fixture_path(name: str) -> Path:
    """Path of a bundled topology file ('gaia11' or 'nws22')."""
    if name not in BUNDLED_TOPOLOGIES:
        raise TopologyError(f"unknown bundled topology {name!r}; have {BUNDLED_TOPOLOGIES}")
    return Path(__file__).parent / "fixtures" / f"{name}.json"


def load_topology(path) -> ConnectivityGraph:
    """Load and validate a topology JSON file.

    Undirected files store each link once; both directed orientations are
    materialized here.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise TopologyError(f"topology file {path}: invalid JSON ({e})") from e
    except OSError as e:
        raise TopologyError(f"topology file {path}: {e}") from e
    if not isinstance(raw, dict):
        raise TopologyError(f"topology file {path}: top level must be a JSON object")
    for key in ("silos", "links", "undirected"):
        if key not in raw:
            raise TopologyError(f"topology file {path}: missing key {key!r}")
    try:
        silos = tuple(SiloRecord(int(s["id"]), float(s["compute_time_s"])) for s in raw["silos"])
        entries = [
            LinkRecord(int(l["src"]), int(l["dst"]), float(l["latency_s"]), float(l["bandwidth_Bps"]))
            for l in raw["links"]
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise TopologyError(f"topology file {path}: malformed record ({e})") from e
    undirected = bool(raw["undirected"])
    if undirected:
        mirrored = []
        for l in entries:
            mirrored.append(l)
            mirrored.append(LinkRecord(l.dst, l.src, l.latency_s, l.bandwidth_Bps))
        entries = mirrored
    return ConnectivityGraph(silos=silos, links=tuple(entries), undirected=undirected)


def link_delay(g: ConnectivityGraph, i: int, j: int, p: DelayParams) -> float:
    """One-link delay: local compute for ``local_steps`` updates at the
    source, plus link latency, plus transfer time of the model payload."""
    l = g.link(i, j)
    return p.local_steps * g.compute_time(i) + l.latency_s + p.model_size_bytes / l.bandwidth_Bps


def path_delay(g: ConnectivityGraph, path: tuple[int, ...], p: DelayParams) -> float:
    """Delay of a multi-hop relay path: the source computes once, every hop
    then adds latency and transfer time (relays forward, they do not train)."""
    if len(path) < 2:
        return 0.0
    total = p.local_steps * g.compute_time(path[0])
    for u, v in zip(path, path[1:]):
        l = g.link(u, v)
        total += l.latency_s + p.model_size_bytes / l.bandwidth_Bps
    return total


def symmetrized_weights(g: ConnectivityGraph, p: DelayParams) -> tuple[np.ndarray, list]:
    """Complete symmetric delay metric over all silo pairs.

    Per-link delays are symmetrized by averaging the two directions, then the
    graph is completed by shortest paths (which guarantees the triangle
    inequality).  Returns the weight matrix and, for every ordered pair, the
    node sequence of the underlying real-link path.
    """
    n = g.n
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for l in g.links:
        if g.has_link(l.dst, l.src):
            sym = 0.5 * (link_delay(g, l.src, l.dst, p) + link_delay(g, l.dst, l.src, p))
        else:
            sym = link_delay(g, l.src, l.dst, p)
        w[l.src, l.dst] = min(w[l.src, l.dst], sym)
    # Floyd-Warshall with path reconstruction; strict improvement keeps the
    # result deterministic under ties.
    nxt = [[j if math.isfinite(w[i][j]) and i != j else -1 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if w[i, k] == np.inf:
                continue
            for j in range(n):
                cand = w[i, k] + w[k, j]
                if cand < w[i, j]:
                    w[i, j] = cand
                    nxt[i][j] = nxt[i][k]
    paths = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                paths[i][j] = (i,)
                continue
            seq = [i]
            u = i
            while u != j:
                u = nxt[u][j]
                seq.append(u)
            paths[i][j] = tuple(seq)
    return w, paths


def _overlay_from_tour(g: ConnectivityGraph, tour: list[int], paths, weight: float) -> Overlay:
    n = g.n
    tour = _canonical_tour(tour)
    edges = []
    for a, b in zip(tour, tour[1:] + tour[:1]):
        edges.append((a, b))
        edges.append((b, a))
    if n == 2:
        edges = [(0, 1), (1, 0)]
    edges = tuple(sorted(set(edges)))
    ins: list[set] = [set() for _ in range(n)]
    outs: list[set] = [set() for _ in range(n)]
    for a, b in edges:
        outs[a].add(b)
        ins[b].add(a)
    expand = {(a, b): paths[a][b] for a, b in edges}
    return Overlay(
        parent=g,
        tour=tuple(tour),
        edges=edges,
        in_neighbors=tuple(tuple(sorted(s)) for s in ins),
        out_neighbors=tuple(tuple(sorted(s)) for s in outs),
        paths=expand,
        metric_weight=float(weight),
    )


def _canonical_tour(tour) -> list[int]:
    """Rotate to start at silo 0 and fix the orientation so the second
    element is the smaller of the two possible neighbors."""
    tour = list(tour)
    k = tour.index(0)
    tour = tour[k:] + tour[:k]
    if len(tour) > 2 and tour[-1] < tour[1]:
        tour = [tour[0]] + tour[:0:-1]
    return tour


def _tour_weight(w: np.ndarray, tour) -> float:
    return float(sum(w[a, b] for a, b in zip(tour, list(tour[1:]) + [tour[0]])))


def _minimum_spanning_tree(w: np.ndarray) -> list[tuple[int, int]]:
    """Prim's algorithm on the complete weight matrix, lowest-id tie-breaks."""
    n = w.shape[0]
    in_tree = [False] * n
    in_tree[0] = True
    best_cost = w[0].copy()
    best_from = [0] * n
    edges = []
    for _ in range(n - 1):
        u = -1
        for v in range(n):
            if not in_tree[v] and (u == -1 or best_cost[v] < best_cost[u]):
                u = v
        edges.append((min(best_from[u], u), max(best_from[u], u)))
        in_tree[u] = True
        for v in range(n):
            if not in_tree[v] and w[u, v] < best_cost[v]:
                best_cost[v] = w[u, v]
                best_from[v] = u
    return edges


def _exact_min_matching(odd: list[int], w: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-weight perfect matching, bitmask DP over subsets."""
    m = len(odd)
    full = (1 << m) - 1

    @lru_cache(maxsize=None)
    def solve(mask: int) -> tuple[float, tuple]:
        if mask == full:
            return 0.0, ()
        lo = next(i for i in range(m) if not (mask >> i) & 1)
        best = (math.inf, ())
        for j in range(lo + 1, m):
            if (mask >> j) & 1:
                continue
            sub_cost, sub_pairs = solve(mask | (1 << lo) | (1 << j))
            cost = w[odd[lo], odd[j]] + sub_cost
            if cost < best[0]:
                best = (cost, ((odd[lo], odd[j]),) + sub_pairs)
        return best

    result = list(solve(0)[1])
    solve.cache_clear()
    return result


def _greedy_matching(odd: list[int], w: np.ndarray) -> list[tuple[int, int]]:
    """Nearest-pair greedy matching; fallback beyond the exact DP limit."""
    remaining = sorted(odd)
    pairs = []
    while remaining:
        u = remaining.pop(0)
        best = min(remaining, key=lambda v: (w[u, v], v))
        remaining.remove(best)
        pairs.append((u, best))
    return pairs


def _eulerian_circuit(n: int, multi_edges: list[tuple[int, int]]) -> list[int]:
    """Hierholzer's algorithm; neighbors visited in ascending id order."""
    adj: list[list] = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(multi_edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    for lst in adj:
        lst.sort(key=lambda t: (t[0], t[1]))
    used = [False] * len(multi_edges)
    start = 0
    stack = [start]
    circuit = []
    ptr = [0] * n
    while stack:
        u = stack[-1]
        while ptr[u] < len(adj[u]) and used[adj[u][ptr[u]][1]]:
            ptr[u] += 1
        if ptr[u] == len(adj[u]):
            circuit.append(stack.pop())
        else:
            v, idx = adj[u][ptr[u]]
            used[idx] = True
            stack.append(v)
    circuit.reverse()
    return circuit


def build_overlay_christofides(g: ConnectivityGraph, p: DelayParams) -> Overlay:
    """Hamiltonian-cycle overlay via Christofides' algorithm.

    Runs on the symmetrized shortest-path delay metric; the cycle spans every
    silo and both directed orientations of each tour edge enter the overlay.
    For 2 silos the single bidirectional link is returned as a degenerate
    cycle.  The 1.5x approximation bound, which needs that metric, holds only
    while the spanning tree has at most EXACT_MATCHING_LIMIT odd-degree
    vertices, which are then matched exactly; above that limit they are
    matched greedily and the tour carries no bound.  The bundled nws22
    topology sits exactly at the limit.
    """
    n = g.n
    w, paths = symmetrized_weights(g, p)
    if n == 2:
        return _overlay_from_tour(g, [0, 1], paths, _tour_weight(w, [0, 1]) / 2.0)
    if n == 3:
        tour = [0, 1, 2]
        return _overlay_from_tour(g, tour, paths, _tour_weight(w, tour))

    mst = _minimum_spanning_tree(w)
    degree = [0] * n
    for a, b in mst:
        degree[a] += 1
        degree[b] += 1
    odd = sorted(v for v in range(n) if degree[v] % 2 == 1)
    if len(odd) <= EXACT_MATCHING_LIMIT:
        matching = _exact_min_matching(odd, w)
    else:
        matching = _greedy_matching(odd, w)

    circuit = _eulerian_circuit(n, mst + matching)
    seen = set()
    tour = []
    for v in circuit:
        if v not in seen:
            seen.add(v)
            tour.append(v)
    return _overlay_from_tour(g, tour, paths, _tour_weight(w, tour))


@lru_cache(maxsize=6)
def _perm_table(n: int) -> np.ndarray:
    # cached only for n <= 10; the table would be gigabytes at n = 12
    return np.array(list(itertools.permutations(range(1, n))), dtype=np.int64)


def _batched_perms(n: int, batch: int = 200_000):
    if n <= 10:
        yield _perm_table(n)
        return
    it = itertools.permutations(range(1, n))
    while chunk := list(itertools.islice(it, batch)):
        yield np.array(chunk, dtype=np.int64)


def brute_force_tsp(g: ConnectivityGraph, p: DelayParams) -> Overlay:
    """Exact minimum-weight Hamiltonian cycle by exhaustive enumeration.

    Shares the symmetrized-closure weights with the Christofides builder so
    the two are directly comparable.  Rejected above 12 silos; near that
    limit the enumeration streams in bounded-memory batches.
    """
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise TopologyError(f"brute_force_tsp limited to {BRUTE_FORCE_LIMIT} silos, got {n}")
    w, paths = symmetrized_weights(g, p)
    if n == 2:
        return _overlay_from_tour(g, [0, 1], paths, _tour_weight(w, [0, 1]) / 2.0)
    best_cost = math.inf
    best_tour = None
    for perms in _batched_perms(n):
        costs = w[0, perms[:, 0]] + w[perms[:, -1], 0]
        for k in range(perms.shape[1] - 1):
            costs = costs + w[perms[:, k], perms[:, k + 1]]
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_tour = [0] + perms[idx].tolist()
    return _overlay_from_tour(g, best_tour, paths, best_cost)


def cycle_time(o: Overlay, p: DelayParams) -> float:
    """Synchronous round duration: the slowest directed overlay edge,
    with closure edges accounted over their expanded real-link paths."""
    if not o.edges:
        return 0.0
    return max(path_delay(o.parent, o.paths[e], p) for e in o.edges)


def consensus_matrix(o: Overlay) -> ConsensusMatrix:
    """Metropolis-Hastings mixing weights over the overlay.

    A[i][j] = 1/(1 + max(deg_i, deg_j)) for in-neighbors j, diagonal absorbs
    the remainder; symmetric neighbor sets make the result symmetric and
    doubly stochastic with positive diagonal.
    """
    n = o.n
    if tuple(map(tuple, o.in_neighbors)) != tuple(map(tuple, o.out_neighbors)):
        raise TopologyError("consensus matrix requires symmetric neighbor sets")
    deg = [len(nb) for nb in o.in_neighbors]
    a = np.zeros((n, n))
    for i in range(n):
        for j in o.in_neighbors[i]:
            a[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, i] = 1.0 - a[i].sum()
    return ConsensusMatrix(a=a)
