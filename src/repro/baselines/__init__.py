"""Baseline algorithms: brute force, Bron–Kerbosch, ListPlex-style, FP-style."""

from .bron_kerbosch import (
    BronKerboschKPlex,
    bron_kerbosch_maximal_kplexes,
    bron_kerbosch_vertex_sets,
)
from .brute_force import (
    MAX_BRUTE_FORCE_VERTICES,
    brute_force_maximal_kplexes,
    brute_force_vertex_sets,
)
from .fp import FPLike, build_fp_seed_context, fp_config, fp_maximal_kplexes, fp_vertex_sets
from .listplex import (
    ListPlexLike,
    listplex_config,
    listplex_maximal_kplexes,
    listplex_vertex_sets,
)

__all__ = [
    "BronKerboschKPlex",
    "bron_kerbosch_maximal_kplexes",
    "bron_kerbosch_vertex_sets",
    "MAX_BRUTE_FORCE_VERTICES",
    "brute_force_maximal_kplexes",
    "brute_force_vertex_sets",
    "FPLike",
    "fp_config",
    "fp_maximal_kplexes",
    "fp_vertex_sets",
    "build_fp_seed_context",
    "ListPlexLike",
    "listplex_config",
    "listplex_maximal_kplexes",
    "listplex_vertex_sets",
]
