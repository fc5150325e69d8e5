"""Seeded inputs, result digests and recorded reference answers.

Every graph the benchmark runs on is built here with the program's public
generators, from fixed generator seeds, and then presented to the program
under a relabelling drawn from the workload seed given on the command line:
vertex ``v`` becomes vertex ``perm[v]`` and the edges arrive in a shuffled
order.  Runs at different seeds therefore do the same work up to vertex
order, so the spread between them is the host's, not how much work one random
graph happens to hold; and every answer maps back through the permutation to
the recorded answer of its graph, so each run is checked exactly.

Seed 0 is the default and keeps every graph as generated: instance 0 of the
mining family at seed 0 is the registry graph of the ``dataset:enwiki-2021``
surrogate (generator seed 79).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import Graph
from repro.graph import generators

DEFAULT_SEED = 0
REFERENCES_PATH = Path(__file__).with_name("references.json")


def social_surrogate(seed: int, n: int, attachments: int, cliques: int) -> Graph:
    """Preferential attachment plus a ring of planted 8-cliques, bridged in.

    The same construction as the enwiki-2021 registry surrogate: clique ``c``
    starts at vertex ``n + 8c`` and is tied to social vertex ``c``.
    """
    base = generators.barabasi_albert(n, attachments, seed=seed)
    ring = generators.ring_of_cliques(cliques, 8)
    combined = generators.disjoint_union([base, ring])
    edges = list(combined.edges())
    edges.extend((clique % n, n + clique * 8) for clique in range(cliques))
    return Graph.from_edges(edges, vertices=range(combined.num_vertices))


def web_surrogate(seed: int, communities: int, size: int, rewire: float) -> Graph:
    """Relaxed caveman graph, as the web-crawl registry surrogates build it."""
    return generators.relaxed_caveman(
        communities, size, rewire_probability=rewire, seed=seed
    )


@dataclass(frozen=True)
class Relabelled:
    """A generated graph as the program receives it, and the way back."""

    graph: Graph
    #: Original label of each vertex of ``graph`` (indexed by its label).
    original: List[object]

    def original_labels(self, labels: Iterable[object]) -> Tuple[object, ...]:
        return tuple(self.original[label] for label in labels)


def relabel(graph: Graph, seed: int, salt: str) -> Relabelled:
    """``graph`` with its vertices renamed and its edges shuffled by ``seed``.

    Vertex ``v`` becomes ``perm[v]``, which is also its position in the new
    graph; at seed 0 the permutation is the identity and the edge order is
    kept, so the result equals ``graph``.
    """
    count = graph.num_vertices
    perm = list(range(count))
    edges = list(graph.edges())
    if seed != DEFAULT_SEED:
        shuffle = random.Random(f"{seed}:{salt}").shuffle
        shuffle(perm)
        shuffle(edges)
    original: List[object] = [None] * count
    for vertex, label in enumerate(perm):
        original[label] = graph.label(vertex)
    renamed = Graph.from_edges(
        ((perm[u], perm[v]) for u, v in edges), vertices=range(count)
    )
    return Relabelled(renamed, original)


@dataclass(frozen=True)
class Family:
    """A family of generated graphs mined at one ``(k, q)``.

    Graph ``i`` comes from generator seed ``base_seed + i``; the workload seed
    only relabels it (see :func:`relabel`).
    """

    name: str
    base_seed: int
    instances: int
    k: int
    q: int
    build: Callable[[int], Graph]

    def generator_seeds(self) -> List[int]:
        return [self.base_seed + index for index in range(self.instances)]

    def instance(self, generator_seed: int, seed: int) -> Relabelled:
        return relabel(self.build(generator_seed), seed, f"{self.name}:{generator_seed}")


ENWIKI = Family(
    name="enwiki",
    base_seed=79,
    instances=4,
    k=2,
    q=8,
    build=lambda seed: social_surrogate(seed, n=900, attachments=14, cliques=8),
)

# Tiny stand-ins with the same shapes, for the benchmark's own tests.
TINY_FAMILIES = {
    "enwiki": Family(
        name="enwiki-tiny",
        base_seed=79,
        instances=2,
        k=2,
        q=8,
        build=lambda seed: social_surrogate(seed, n=120, attachments=6, cliques=2),
    ),
}


def family_for(family: Family, tiny: bool) -> Family:
    return TINY_FAMILIES[family.name] if tiny else family


@dataclass(frozen=True)
class ServedGraph:
    """One catalog graph of ``serve-mixed`` and the spec its client asks for."""

    name: str
    k: int
    q: int
    build: Callable[[int], Graph]
    #: Whether a round on this graph also streams a job.
    streamed: bool = True


def _light(name: str) -> ServedGraph:
    return ServedGraph(name, 2, 10, lambda s: web_surrogate(s, 8, 16, 0.12))


def _heavy(name: str) -> ServedGraph:
    return ServedGraph(
        name, 3, 12, lambda s: web_surrogate(s, 5, 20, 0.15), streamed=False
    )


# Each client owns its graphs (disjoint ownership keeps every hit or miss a
# function of that client's own schedule) and visits them in this order: two
# light graphs (tens of ms per miss), then a heavy one whose spec returns over
# a thousand results, so encode and write show.  With one heavy visit in
# three, the medians sit inside the light population, never on the edge
# between light and heavy; both clients send the same mix.  Jobs stream only
# the light specs: a heavy stream would take most of a pass and add no sample
# the light ones lack.
SERVED_GRAPHS = (
    (_light("a-light-1"), _light("a-light-2"), _heavy("a-heavy")),
    (_light("b-light-1"), _light("b-light-2"), _heavy("b-heavy")),
)
TINY_SERVED_GRAPHS = (
    (ServedGraph("a-light-1", 2, 8, lambda s: web_surrogate(s, 4, 10, 0.12)),),
    (ServedGraph("b-light-1", 2, 8, lambda s: web_surrogate(s, 4, 10, 0.12)),),
)


def served_graph_seed(client: int, slot: int, version: int) -> int:
    """Generator seed of one version of one served graph (``version`` < 10)."""
    return 1000 + client * 100 + slot * 10 + version


def edge_list(graph: Graph) -> List[Tuple[object, object]]:
    """The graph as label pairs: what a client sends to ``POST /v1/graphs``."""
    return [(graph.label(u), graph.label(v)) for u, v in graph.edges()]


def result_digest(label_sets: Iterable[Iterable[object]]) -> str:
    """Order-independent digest of a result list (duplicates change it)."""
    rows = sorted(tuple(sorted(labels)) for labels in label_sets)
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


def load_references() -> Dict[str, str]:
    """Recorded digests, keyed ``"<family>:<generator seed>:k<k>q<q>"``."""
    with REFERENCES_PATH.open(encoding="ascii") as handle:
        return json.load(handle)


def reference_key(family: Family, generator_seed: int) -> str:
    return f"{family.name}:{generator_seed}:k{family.k}q{family.q}"


def recorded_reference(family: Family, generator_seed: int) -> Optional[str]:
    """The recorded digest of one generated graph, or ``None`` if none is."""
    return load_references().get(reference_key(family, generator_seed))


def plex_labels(kplexes: Sequence[object]) -> List[Tuple[object, ...]]:
    return [tuple(plex.labels) for plex in kplexes]
