"""ListPlex-style baseline.

ListPlex (Wang et al., WWW 2022) partitions the search space with the same
seed-subgraph / sub-task scheme the paper adopts, but branches with the
FaPlexen rule (the Eq (4)–(6) multi-branching) and applies **no**
upper-bound-based pruning and no vertex-pair pruning.  The baseline here is a
re-implementation with exactly that combination of techniques, obtained by
configuring the shared branch-and-bound engine accordingly; it therefore
returns identical result sets while exhibiting the cost profile the paper
attributes to ListPlex.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from ..core.config import BRANCHING_FAPLEXEN, EnumerationConfig
from ..core.enumerator import EnumerationResult, KPlexEnumerator
from ..core.kplex import KPlex
from ..graph import Graph


def listplex_config() -> EnumerationConfig:
    """Configuration matching the techniques used by ListPlex."""
    return EnumerationConfig(
        branching=BRANCHING_FAPLEXEN,
        use_upper_bound=False,
        use_seed_upper_bound=False,
        use_pair_pruning=False,
        use_seed_pruning=True,
    )


class ListPlexLike:
    """Baseline enumerator configured to mirror ListPlex's search strategy."""

    def __init__(self, graph: Graph, k: int, q: int) -> None:
        self.enumerator = KPlexEnumerator(graph, k, q, config=listplex_config())

    @property
    def statistics(self):
        """Search statistics of the underlying engine."""
        return self.enumerator.statistics

    def iter_results(self):
        """Lazily yield maximal k-plexes (delegates to the shared engine)."""
        return self.enumerator.iter_results()

    def run(self) -> EnumerationResult:
        """Enumerate all maximal k-plexes with at least ``q`` vertices."""
        return self.enumerator.run()


def listplex_maximal_kplexes(graph: Graph, k: int, q: int) -> List[KPlex]:
    """Functional wrapper returning the ListPlex-style baseline results."""
    return ListPlexLike(graph, k, q).run().kplexes


def listplex_vertex_sets(graph: Graph, k: int, q: int) -> Set[FrozenSet[int]]:
    """Return the baseline results as a set of frozensets (for tests)."""
    return {plex.as_set() for plex in listplex_maximal_kplexes(graph, k, q)}
