"""Spanner construction: normalization, level sampling, bunches, assembly.

The hierarchical build runs three phases over a normalized copy of the
host graph (weights scaled so the MST weighs exactly n):

  1. a nested net hierarchy plus its H_0 connector paths (nets module),
  2. random vertex levels A_0 = V >= A_1 >= ... >= A_k, where each level
     keeps vertices with probability n^(-1/k); every vertex u below the
     top connects to each member v of its bunch (the level-mates closer
     than half the distance to u's next-level pivot, shrunk by (1-eps)/2)
     through a shortest path to a net representative of v chosen at a
     scale proportional to eps * d(u, v),
  3. one shallow-light forest per sampled level, rooted at that level.

The union is returned as a Spanner whose edges reference the host graph.
Each edge carries the tag of the phase that added it first: H0, P2_REP,
P2_DIRECT, P2_TOP, or SLT.

The W_max variant (build_wmax_spanner) skips phases 2 and 3 entirely: it
takes one sqrt(n)-scale net and glues a shallow-light tree rooted at
every net member, which is enough when the heaviest edge is at least
sqrt(n) after normalization.

Construction mutates nothing it did not create; returned objects are
frozen and safe to verify from multiple threads.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, KeysView

from .errors import SamplingError, SpannerError
from .graph import BallScanner, WeightedGraph, distances, edges_connect, scan, subgraph_adjacency
from .graph import tag_forest_path, walk_parents
from .nets import NetHierarchy, build_net_hierarchy, check_eps, greedy_delta_net
from .trees import mst, slt_forest

PHASE_H0 = "H0"
PHASE_P2_REP = "P2_REP"
PHASE_P2_DIRECT = "P2_DIRECT"
PHASE_P2_TOP = "P2_TOP"
PHASE_SLT = "SLT"
PHASES = (PHASE_H0, PHASE_P2_REP, PHASE_P2_DIRECT, PHASE_P2_TOP, PHASE_SLT)

SAMPLING_RETRIES = 32


def normalize(g: WeightedGraph) -> tuple[WeightedGraph, float]:
    """Scale weights so the MST weighs exactly n; returns (graph, scale)."""
    if not g.m:
        raise ValueError("graph has no edges")
    scale = g.n / mst(g).total_weight
    return g.scaled(scale), scale


def scale_index(d: float, eps: float) -> int:
    """The unique j with eps*d/8 <= 2**j < eps*d/4; negative means 'connect directly'.

    The window spans an exact factor of two, so one power of two always
    fits. frexp keeps the boundary cases exact: d = 4/eps lands on
    j = -1, anything above lands on j = 0.
    """
    if not (d > 0):
        raise ValueError(f"scale_index needs a positive distance, got {d}")
    lo = eps * d / 8.0
    m, e = math.frexp(lo)  # lo = m * 2**e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


@dataclass(frozen=True)
class LevelSampling:
    """Nested random levels A_0 .. A_k with pivot distances.

    pivot_dist[i][v] is v's distance to its nearest member of A_i; level_of[v]
    is the highest level containing v. ``seed`` is as requested; ``effective_seed``
    is the one that produced nonempty levels (resampling bumps it by one each try).
    """

    k: int
    levels: tuple[frozenset[int], ...]
    level_of: tuple[int, ...]
    pivot_dist: tuple[tuple[float, ...], ...]
    seed: int
    effective_seed: int


def _sample_levels_once(n: int, k: int, p: float, rng: random.Random) -> list[list[int]]:
    """One promotion pass, no nonemptiness guarantee. Kept separate so its
    distribution stays plain binomial (the public wrapper conditions on
    nonempty levels, which would bias statistical tests run against it)."""
    levels = [list(range(n))]
    for _ in range(k):
        levels.append([v for v in levels[-1] if rng.random() < p])
    return levels


def _is_int(x) -> bool:
    return type(x) is int  # JSON true/false load as bool, a subclass of int


def _check_k_seed(k, seed) -> None:
    """The hierarchical build's rule for k and seed: each a plain int (not a
    bool or a float), and k >= 1."""
    if not (_is_int(k) and k >= 1):
        raise ValueError(f"k must be an integer k >= 1, got {k!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer seed, got {seed!r}")


def _is_real(x) -> bool:
    """A finite int or float (a float subclass too, a bool not); an int too
    large for a float is not one."""
    try:
        return (type(x) is int or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:
        return False


def sample_levels(g: WeightedGraph, k: int, seed: int) -> LevelSampling:
    _check_k_seed(k, seed)
    n = g.n
    if k > math.log2(max(n, 2)):
        warnings.warn(f"k={k} exceeds log2(n)={math.log2(n):.2f}; extra levels add no benefit")
    p = n ** (-1.0 / k)
    levels: list[list[int]] | None = None
    effective = seed
    for attempt in range(SAMPLING_RETRIES):
        effective = seed + attempt
        candidate = _sample_levels_once(n, k, p, random.Random(effective))
        if all(candidate[i] for i in range(1, k + 1)):
            levels = candidate
            break
    if levels is None:
        raise SamplingError(
            f"levels stayed empty after {SAMPLING_RETRIES} retries (n={n}, k={k}, seed={seed})"
        )

    level_of = [0] * n
    for i in range(1, k + 1):
        for v in levels[i]:
            level_of[v] = i

    # every vertex is in A_0, so its level-0 pivot distance is 0 by definition
    pivot_dists: list[tuple[float, ...]] = [(0.0,) * n]
    for i in range(1, k + 1):
        pivot_dists.append(tuple(distances(n, g.adj, levels[i])))

    return LevelSampling(
        k=k,
        levels=tuple(frozenset(lv) for lv in levels),
        level_of=tuple(level_of),
        pivot_dist=tuple(pivot_dists),
        seed=seed,
        effective_seed=effective,
    )


@dataclass(frozen=True)
class RepPathRecord:
    """One phase-2 connection: center u reached target (= rep of member at
    the recorded scale, or the member itself when scale < 0) at scan
    distance dist_target, along path (center first, target last)."""

    center: int
    center_level: int
    member: int
    scale: int
    target: int
    dist_target: float
    path: tuple[int, ...]


@dataclass(frozen=True)
class BuildInternals:
    """Construction state retained for lemma-level verification."""

    normalized: WeightedGraph
    hierarchy: NetHierarchy
    sampling: LevelSampling
    records: tuple[RepPathRecord, ...]


@dataclass(frozen=True)
class SpannerParams:
    """The parameters spanner.json records, checked on construction: both
    builders and ``spanner_from_json_dict`` make one, so a build accepts
    exactly the parameters its file can be loaded with."""

    eps: float
    k: int | None
    seed: int | None
    kind: str  # "hierarchical" or "wmax"

    def __post_init__(self) -> None:
        if self.kind not in ("hierarchical", "wmax"):
            raise ValueError(f"unknown spanner kind {self.kind!r}")
        if not (_is_real(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a positive number, got {self.eps!r}")
        if self.kind == "hierarchical":
            if not self.eps < 1:
                raise ValueError(f"hierarchical spanner needs eps < 1, got {self.eps!r}")
            _check_k_seed(self.k, self.seed)
        elif self.k is not None or self.seed is not None:
            raise ValueError(f"wmax spanner needs null k and seed, got k={self.k!r}, seed={self.seed!r}")


@dataclass(frozen=True)
class Spanner:
    """A subgraph of ``host``; phase_tag's keys (u < v) are its edge set."""

    host: WeightedGraph
    phase_tag: dict[tuple[int, int], str]
    params: SpannerParams
    scale: float
    internals: BuildInternals | None = None

    @property
    def edges(self) -> KeysView[tuple[int, int]]:
        return self.phase_tag.keys()

    @property
    def size(self) -> int:
        return len(self.phase_tag)

    def weight(self) -> float:
        # fsum is exact, so the total depends on the edge set alone and
        # equals verify_lightness's
        return math.fsum(w for _, _, w, _ in self.edge_rows())

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """The host's rows kept to the spanner's edges, sharing their entries."""
        return subgraph_adjacency(self.host.adj, self.phase_tag)

    def _phase_weights(self) -> dict[str, list[float]]:
        weights: dict[str, list[float]] = {tag: [] for tag in PHASES}
        for _, _, w, tag in self.edge_rows():
            weights[tag].append(w)
        return weights

    def per_phase(self) -> dict[str, tuple[int, float]]:
        return {tag: (len(ws), math.fsum(ws)) for tag, ws in self._phase_weights().items()}

    def edge_rows(self) -> Iterator[tuple[int, int, float, str]]:
        """(u, v, weight, tag) for every edge, in ascending (u, v), from one
        walk of the host's edges; a key that is no host edge raises
        ValueError (see ``WeightedGraph.edges_in``)."""
        return self.host.edges_in(self.phase_tag)

    def json_head(self, weights: dict[str, list[float]]) -> dict:
        """Every key of ``to_json_dict`` but its edge list, summed from
        ``weights``, each phase's list of edge weights in any order."""
        # fsum is exact, so the sums do not depend on the lists' order and equal weight()
        return {
            "schema": "spanner/v1",
            "kind": self.params.kind,
            "eps": self.params.eps,
            "k": self.params.k,
            "seed": self.params.seed,
            "scale": self.scale,
            "n": self.host.n,
            "size": self.size,
            "weight": math.fsum(w for ws in weights.values() for w in ws),
            "per_phase": {tag: {"count": len(ws), "weight": math.fsum(ws)} for tag, ws in sorted(weights.items())},
        }

    def to_json_dict(self) -> dict:
        """The payload of spanner.json, which ``spanner_from_json_dict`` reads back."""
        return {**self.json_head(self._phase_weights()), "edges": [list(row) for row in self.edge_rows()]}


_REQUIRED_KEYS = ("kind", "eps", "k", "seed", "scale", "n", "edges")


def spanner_from_json_dict(payload, host: WeightedGraph) -> Spanner:
    """Spanner from the dict ``Spanner.to_json_dict`` writes, checked against ``host``.

    Every schema problem raises SpannerError: a missing key, parameters
    ``SpannerParams`` refuses (with its message), a scale or n of the wrong
    type or out of range, and edges that are malformed, duplicated, or not
    host edges of the recorded weight. A malformed file is therefore an
    error, never a spanner that fails verification. A row
    that passes keeps no object of the payload: its key holds ids from one
    list of n ints made per load, and its tag is the ``PHASES`` constant.
    """
    if not isinstance(payload, dict):
        raise SpannerError(f"spanner payload must be a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != "spanner/v1":
        raise SpannerError(f"unrecognized spanner schema {payload.get('schema')!r}")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise SpannerError(f"spanner is missing {', '.join(missing)}")
    kind, eps, k, seed, scale, n, edges = (payload[key] for key in _REQUIRED_KEYS)
    try:
        params = SpannerParams(eps=eps, k=k, seed=seed, kind=kind)
    except ValueError as err:
        raise SpannerError(str(err)) from None
    if not (_is_real(scale) and scale > 0):
        raise SpannerError(f"scale must be a positive number, got {scale!r}")
    if not _is_int(n) or n != host.n:
        raise SpannerError(f"spanner built on n={n!r} but host graph has n={host.n}")
    if not isinstance(edges, list):
        raise SpannerError(f"spanner edges must be a list, got {type(edges).__name__}")
    tags: dict[tuple[int, int], str] = {}
    ids = list(range(n))
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SpannerError(f"spanner edge {entry!r} is not [u, v, weight, tag]")
        u, v, w, tag = entry
        if not (_is_int(u) and _is_int(v) and _is_real(w)):
            raise SpannerError(f"spanner edge {entry!r} needs integer endpoints and a finite weight")
        try:
            hw = host.weight_of(u, v)
        except ValueError:
            raise SpannerError(f"spanner edge ({u}, {v}) is not a host edge") from None
        key = (u, v) if u < v else (v, u)
        if key in tags:
            raise SpannerError(f"duplicate spanner edge ({key[0]}, {key[1]})")
        if abs(hw - w) > 1e-9 * max(abs(hw), abs(w)):
            raise SpannerError(f"edge ({u}, {v}) weight {w} does not match host weight {hw}")
        if tag not in PHASES:
            raise SpannerError(f"unknown phase tag {tag!r} on edge ({u}, {v})")
        tags[ids[key[0]], ids[key[1]]] = PHASES[PHASES.index(tag)]
    return Spanner(host=host, phase_tag=tags, params=params, scale=scale)


def phase2_paths(
    g: WeightedGraph,
    hierarchy: NetHierarchy,
    sampling: LevelSampling,
    eps: float,
    tags: dict[tuple[int, int], str],
    *,
    keep_records: bool = True,
) -> tuple[RepPathRecord, ...]:
    """Bunch connections for every vertex, tagged into ``tags``; returns the records.

    Each connection path is tagged into the build's table with
    tag_forest_path, so an edge already in ``tags`` (an H0 edge, or one an
    earlier path tagged) keeps its first tag. Each center u below the top
    level runs one truncated scan on the phase's one ``BallScanner``. Its
    bunch members lie closer than the radius r = (1-eps)/2 * pivot_dist.
    If r <= 4/eps, each member v has scale_index(d(u, v)) < 0 and is its
    own target, so the scan stops at r; otherwise it reaches (1 + eps/2) *
    r, which settles every representative target, since the detour to a
    representative of v costs at most that factor over d(u, v). A settled
    vertex's distance and parent do not depend on the radius, so both
    reaches tag the same paths. Top-level vertices connect to representatives
    of every other top vertex by the same rule, from full scans, last.
    """
    n = g.n
    k = sampling.k
    delta = 0.5 * (1.0 - eps)
    direct_radius = 4.0 / eps
    records: list[RepPathRecord] = []

    def connect(u, i, members, dist, parent, settled):
        """Connect center u of level i to each of its bunch members."""
        covered = {u}
        for v in members:
            if v == u:
                continue
            d_uv = dist[v]
            j = scale_index(d_uv, eps)
            if j < 0:
                target, tag = v, PHASE_P2_DIRECT
            elif j > hierarchy.i_max:
                raise SpannerError(
                    f"scale index {j} above hierarchy top {hierarchy.i_max} for d={d_uv}"
                )
            else:
                target, tag = hierarchy.rep(v, j), PHASE_P2_REP
            if not settled[target]:
                raise SpannerError(
                    f"representative {target} of ({u}, {v}) escaped the scan radius"
                )
            if i == k:
                tag = PHASE_P2_TOP
            tag_forest_path(parent, target, covered, tags, tag)
            if keep_records:
                records.append(RepPathRecord(u, i, v, j, target, dist[target], tuple(walk_parents(parent, target))))

    scanner = BallScanner(n)
    dist, parent, settled = scanner.dist, scanner.parent, scanner.settled
    for u in range(n):
        i = sampling.level_of[u]
        if i == k:
            continue
        radius = delta * sampling.pivot_dist[i + 1][u]
        if radius <= 0:
            raise SpannerError(f"vertex {u} has zero pivot distance at level {i + 1}")
        reach = radius if radius <= direct_radius else (1.0 + 0.5 * eps) * radius
        order = scanner.ball(g.adj, u, reach)
        level = sampling.levels[i]
        connect(u, i, sorted(v for v in order if dist[v] < radius and v in level), dist, parent, settled)

    top = sorted(sampling.levels[k])
    for u in top:
        dist_top, parent_top, _, _, settled_top, _ = scan(n, g.adj, (u,))
        connect(u, k, top, dist_top, parent_top, settled_top)

    return tuple(records)


def _assert_spans(n: int, edges: Iterable[tuple[int, int]]) -> None:
    if not edges_connect(n, edges):
        raise SpannerError("constructed spanner does not span the graph; this is a bug")


def build_spanner(
    g: WeightedGraph,
    eps: float,
    k: int,
    seed: int,
    *,
    unsafe_eps: bool = False,
    keep_internals: bool = True,
) -> Spanner:
    """Hierarchical near-additive spanner of the host graph g."""
    params = SpannerParams(eps=eps, k=k, seed=seed, kind="hierarchical")
    check_eps(eps, unsafe_eps)
    gn, scale = normalize(g)
    hierarchy = build_net_hierarchy(gn, eps, unsafe_eps=unsafe_eps)
    sampling = sample_levels(gn, k, seed)

    # the one tag table of the build: H0 first, in sorted order, then
    # phase 2 and SLT, each edge keeping the tag of the phase that added it first
    tags = dict.fromkeys(sorted(hierarchy.h0_edges), PHASE_H0)
    records = phase2_paths(gn, hierarchy, sampling, eps, tags, keep_records=keep_internals)

    for i in range(1, k + 1):
        for u, v, _ in slt_forest(gn, sampling.levels[i], eps).edges:
            tags.setdefault((u, v), PHASE_SLT)

    _assert_spans(g.n, tags.keys())
    internals = None
    if keep_internals:
        internals = BuildInternals(
            normalized=gn,
            hierarchy=hierarchy,
            sampling=sampling,
            records=records,
        )
    return Spanner(
        host=g,
        phase_tag=tags,
        params=params,
        scale=scale,
        internals=internals,
    )


def build_wmax_spanner(g: WeightedGraph, eps: float) -> Spanner:
    """Heavy-edge variant: one sqrt(n)-net, one shallow-light tree per member.

    Requires the normalized maximum edge weight to be at least sqrt(n);
    in that regime the additive error 2 * (1 + eps) * W_max absorbs the
    hop to the nearest net member.
    """
    params = SpannerParams(eps=eps, k=None, seed=None, kind="wmax")
    gn, scale = normalize(g)
    w_max = max(w for _, _, w in gn.iter_edges())
    threshold = math.sqrt(g.n)
    if w_max < threshold:
        raise ValueError(
            f"wmax construction needs max normalized edge weight >= sqrt(n) = {threshold:.6g}, "
            f"got {w_max:.6g}; use the hierarchical construction instead"
        )
    net = greedy_delta_net(gn, threshold)
    tags: dict[tuple[int, int], str] = {}
    for r in net.members:
        tree = slt_forest(gn, (r,), eps)
        for u, v, _ in tree.edges:
            tags.setdefault((u, v), PHASE_SLT)
    _assert_spans(g.n, tags.keys())
    return Spanner(
        host=g,
        phase_tag=tags,
        params=params,
        scale=scale,
    )
