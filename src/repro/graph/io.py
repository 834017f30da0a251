"""Serialization of CSR graphs.

Two formats:

* ``.npz`` — lossless round trip of all arrays (the native format).
* edge-list text — interoperability with SNAP-style ``src dst [weight]``
  files, so users with the real Table II datasets can load them directly.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

_NPZ_VERSION = 1
#: The first line :func:`save_edge_list` writes; it carries the vertex
#: count, which trailing isolated vertices would otherwise lose.
_HEADER = re.compile(r"# .*: (\d+) vertices, \d+ edges$")


def save_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Save a graph to a ``.npz`` archive (lossless)."""
    arrays: dict[str, np.ndarray] = {
        "version": np.array([_NPZ_VERSION], dtype=np.int64),
        "row_ptr": graph.row_ptr,
        "col": graph.col,
        "name": np.array([graph.name]),
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    if graph.edge_types is not None:
        arrays["edge_types"] = graph.edge_types
    if graph.vertex_types is not None:
        arrays["vertex_types"] = graph.vertex_types
    np.savez_compressed(Path(path), **arrays)


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph saved with :func:`save_npz`."""
    try:
        with np.load(Path(path), allow_pickle=False) as data:
            version = int(data["version"][0]) if "version" in data else -1
            if version != _NPZ_VERSION:
                raise GraphFormatError(
                    f"unsupported graph archive version {version} in {path}"
                )
            return CSRGraph(
                row_ptr=data["row_ptr"],
                col=data["col"],
                weights=data["weights"] if "weights" in data else None,
                edge_types=data["edge_types"] if "edge_types" in data else None,
                vertex_types=data["vertex_types"] if "vertex_types" in data else None,
                name=str(data["name"][0]) if "name" in data else "graph",
            )
    except (OSError, KeyError, ValueError) as exc:
        raise GraphFormatError(f"failed to load graph from {path}: {exc}") from exc


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a SNAP-style edge list: ``src dst [weight]`` per line.

    Each weight is written as its shortest exact decimal (``repr`` of the
    float), so :func:`load_edge_list` reads back the same weights bit for
    bit and a reloaded graph builds the same alias tables.
    """
    sources = np.repeat(np.arange(graph.num_vertices), graph.degrees()).tolist()
    targets = graph.col.tolist()
    with open(Path(path), "w", encoding="ascii") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        if graph.weights is None:
            handle.writelines(f"{s}\t{d}\n" for s, d in zip(sources, targets))
        else:
            handle.writelines(f"{s}\t{d}\t{w!r}\n"
                              for s, d, w in zip(sources, targets, graph.weights.tolist()))


def load_edge_list(
    path: str | os.PathLike,
    num_vertices: int | None = None,
    directed: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """Load a SNAP-style edge list (``#`` lines are comments).

    A third column, when present on every edge, is read as edge weights.
    Without ``num_vertices``, the vertex count is the one a
    :func:`save_edge_list` header declares, else one past the largest id.
    """
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    saw_weights = False
    with open(Path(path), "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line_number == 1 and num_vertices is None:
                header = _HEADER.match(line)
                if header:
                    num_vertices = int(header.group(1))
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{line_number}: expected 'src dst [weight]', got {line!r}"
                )
            try:
                sources.append(int(parts[0]))
                targets.append(int(parts[1]))
                if len(parts) == 3:
                    weights.append(float(parts[2]))
                    saw_weights = True
                elif saw_weights:
                    raise GraphFormatError(
                        f"{path}:{line_number}: mixed weighted and unweighted lines"
                    )
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{line_number}: {exc}") from exc
    if saw_weights and len(weights) != len(sources):
        raise GraphFormatError(f"{path}: mixed weighted and unweighted lines")
    edges = np.stack(
        [np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)], axis=1
    ) if sources else np.empty((0, 2), dtype=np.int64)
    try:
        return from_edges(
            edges,
            num_vertices=num_vertices,
            weights=np.asarray(weights) if saw_weights else None,
            directed=directed,
            name=name or Path(path).stem,
        )
    except GraphError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
