"""Reading and writing graphs in the formats common in graph-mining papers.

The datasets the paper uses come from SNAP (whitespace edge lists with ``#``
comments) and LAW (distributed as WebGraph, conventionally converted to edge
lists).  Besides plain edge lists this module also supports the DIMACS and
METIS formats so that graphs produced by other k-plex tools can be loaded for
cross-checking.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from ..errors import FormatError
from .graph import Graph

PathLike = Union[str, Path]


def _open_text(path: PathLike) -> TextIO:
    """Open ``path`` for reading, transparently handling ``.gz`` files."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


# --------------------------------------------------------------------------- #
# Edge lists (SNAP style)
# --------------------------------------------------------------------------- #
def parse_edge_list(
    lines: Iterable[str],
    comments: Sequence[str] = ("#", "%"),
    delimiter: Optional[str] = None,
) -> Iterator[Tuple[str, str]]:
    """Yield ``(u, v)`` label pairs from edge-list lines.

    Lines that are empty or start with one of the ``comments`` prefixes are
    skipped.  Each remaining line must contain at least two tokens; additional
    tokens (weights, timestamps) are ignored, as is customary for SNAP files.
    """
    prefixes = tuple(comments)
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(prefixes):
            continue
        tokens = line.split(delimiter) if delimiter else line.split()
        if len(tokens) < 2:
            raise FormatError(f"line {line_number}: expected at least two tokens, got {line!r}")
        yield tokens[0], tokens[1]


def read_edge_list(
    path: PathLike,
    comments: Sequence[str] = ("#", "%"),
    delimiter: Optional[str] = None,
    as_int: bool = True,
) -> Graph:
    """Read an undirected graph from a SNAP-style edge list file."""
    with _open_text(path) as handle:
        pairs = list(parse_edge_list(handle, comments=comments, delimiter=delimiter))
    if as_int:
        try:
            pairs = [(int(u), int(v)) for u, v in pairs]  # type: ignore[assignment]
        except ValueError:
            pass
    return Graph.from_edges(pairs)


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as a whitespace edge list using the original labels."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# undirected graph: n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{graph.label(u)} {graph.label(v)}\n")


# --------------------------------------------------------------------------- #
# DIMACS
# --------------------------------------------------------------------------- #
def read_dimacs(path: PathLike) -> Graph:
    """Read a graph in DIMACS ``p edge`` format (1-based vertex ids)."""
    num_vertices = None
    edges: List[Tuple[int, int]] = []
    with _open_text(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if tokens[0] == "p":
                if len(tokens) < 4:
                    raise FormatError(f"line {line_number}: malformed problem line {line!r}")
                num_vertices = int(tokens[2])
            elif tokens[0] == "e":
                if len(tokens) < 3:
                    raise FormatError(f"line {line_number}: malformed edge line {line!r}")
                edges.append((int(tokens[1]) - 1, int(tokens[2]) - 1))
            else:
                raise FormatError(f"line {line_number}: unknown DIMACS record {tokens[0]!r}")
    if num_vertices is None:
        raise FormatError("missing DIMACS problem line ('p edge n m')")
    return Graph.from_edges(edges, vertices=range(num_vertices))


def write_dimacs(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` in DIMACS ``p edge`` format (1-based vertex ids)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"p edge {graph.num_vertices} {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"e {u + 1} {v + 1}\n")


# --------------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------------- #
def read_metis(path: PathLike) -> Graph:
    """Read a graph in METIS adjacency format (1-based vertex ids)."""
    with _open_text(path) as handle:
        lines = [line.strip() for line in handle if line.strip() and not line.startswith("%")]
    if not lines:
        raise FormatError("empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise FormatError("METIS header must contain at least 'n m'")
    num_vertices = int(header[0])
    if len(lines) - 1 < num_vertices:
        raise FormatError(
            f"METIS file declares {num_vertices} vertices but has {len(lines) - 1} adjacency lines"
        )
    edges: List[Tuple[int, int]] = []
    for vertex in range(num_vertices):
        for token in lines[1 + vertex].split():
            edges.append((vertex, int(token) - 1))
    return Graph.from_edges(edges, vertices=range(num_vertices))


def write_metis(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` in METIS adjacency format (1-based vertex ids)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for vertex in graph.vertices():
            line = " ".join(str(neighbour + 1) for neighbour in sorted(graph.neighbors(vertex)))
            handle.write(line + "\n")


# --------------------------------------------------------------------------- #
# Auto-detection
# --------------------------------------------------------------------------- #
_FORMAT_READERS = {
    "edgelist": read_edge_list,
    "dimacs": read_dimacs,
    "metis": read_metis,
}


def load_graph(path: PathLike, fmt: str = "auto") -> Graph:
    """Load a graph from ``path`` in the requested or auto-detected format.

    ``fmt`` may be ``"edgelist"``, ``"dimacs"``, ``"metis"`` or ``"auto"``.
    Auto-detection looks at the file extension first (``.dimacs``/``.col``,
    ``.metis``/``.graph``) and falls back to the edge-list reader.
    """
    if fmt != "auto":
        try:
            reader = _FORMAT_READERS[fmt]
        except KeyError as exc:
            raise FormatError(f"unknown graph format {fmt!r}") from exc
        return reader(path)
    suffixes = {suffix.lower() for suffix in Path(path).suffixes}
    if suffixes & {".dimacs", ".col", ".clq"}:
        return read_dimacs(path)
    if suffixes & {".metis", ".graph"}:
        return read_metis(path)
    return read_edge_list(path)
