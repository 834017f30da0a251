"""Synthetic stand-ins for the paper's evaluation datasets (Table II).

The paper evaluates on six real-world graphs from SNAP and WebGraph:

=============  =====  ======  ======  =========  ===
Graph          |V|    |E|     Size    Category   d
=============  =====  ======  ======  =========  ===
web-Google     0.9M   5.1M    48MB    Web        21
cit-Patents    3.8M   16.5M   0.2GB   Citation   26
as-Skitter     1.7M   22.2M   0.2GB   Network    31
soc-LiveJ.     4.9M   69.0M   0.6GB   Social     28
arabic-2005    22.7M  0.6B    5.0GB   Web        133
uk-2005        39.6M  0.8B    6.7GB   Web        45
=============  =====  ======  ======  =========  ===

Those files are not available offline, and a pure-Python cycle simulator
could not traverse billion-edge graphs anyway.  Instead each dataset is
regenerated at reduced scale with the *structural statistics that matter
to a GRW accelerator* preserved:

* directedness (drives early termination, the scheduler's whole reason to
  exist — the paper notes ~80% of real graphs are directed);
* dangling-vertex fraction (walks die at zero-out-degree vertices);
* degree skew (power-law exponent — drives per-step service variance);
* mean degree (drives column-list footprint and alias table size);
* working-set size relative to on-chip SRAM (drives FastRW's cache cliff;
  the capacity threshold in the FastRW model is scaled identically, see
  :mod:`repro.baselines.fastrw`).

Paper-reported values are kept on each spec so Table II (``repro
experiment tab2``) prints both columns side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw
from repro.sampling.base import normalize_seed

#: Scale factor applied to |V| and |E| for the SNAP-class graphs.
DEFAULT_SCALE_DIVISOR = 100

#: ``SeedSequence((seed, tag))`` stream tags for the per-dataset child
#: streams.  The values keep the historical xor salts as names so the
#: streams stay recognizably distinct; the *mechanism* (spawn-key
#: tuples, not xor) is what RW102 requires.
_WEIGHT_STREAM_TAG = 0x7A3D
_SCHEMA_STREAM_TAG = 0x5EED


@dataclass(frozen=True)
class DatasetSpec:
    """Catalog entry describing one evaluation graph.

    ``paper_*`` fields echo Table II; the remaining fields parameterize the
    synthetic generator that produces the scaled stand-in.
    """

    name: str
    long_name: str
    category: str
    paper_vertices: int
    paper_edges: int
    paper_size: str
    paper_diameter: int
    directed: bool
    exponent: float
    dangling_fraction: float
    scaled_vertices: int
    scaled_edges: int

    def paper_size_bytes(self) -> int:
        """Table II's on-disk size parsed to bytes (cache-model input)."""
        text = self.paper_size.upper()
        if text.endswith("GB"):
            return int(float(text[:-2]) * 1e9)
        if text.endswith("MB"):
            return int(float(text[:-2]) * 1e6)
        raise GraphError(f"unparseable size {self.paper_size!r}")


#: The six Table II graphs, ordered by edge count as in the paper.
PAPER_DATASETS: dict[str, DatasetSpec] = {
    "WG": DatasetSpec(
        name="WG",
        long_name="web-Google",
        category="Web",
        paper_vertices=900_000,
        paper_edges=5_100_000,
        paper_size="48MB",
        paper_diameter=21,
        directed=True,
        exponent=2.2,
        dangling_fraction=0.12,
        scaled_vertices=9_000,
        scaled_edges=51_000,
    ),
    "CP": DatasetSpec(
        name="CP",
        long_name="cit-Patents",
        category="Citation",
        paper_vertices=3_800_000,
        paper_edges=16_500_000,
        paper_size="0.2GB",
        paper_diameter=26,
        directed=True,
        exponent=2.6,
        dangling_fraction=0.28,
        scaled_vertices=38_000,
        scaled_edges=165_000,
    ),
    "AS": DatasetSpec(
        name="AS",
        long_name="as-Skitter",
        category="Network",
        paper_vertices=1_700_000,
        paper_edges=22_200_000,
        paper_size="0.2GB",
        paper_diameter=31,
        directed=False,
        exponent=2.0,
        dangling_fraction=0.0,
        scaled_vertices=17_000,
        scaled_edges=111_000,  # undirected: mirrored to ~222k directed edges
    ),
    "LJ": DatasetSpec(
        name="LJ",
        long_name="soc-LiveJournal",
        category="Social",
        paper_vertices=4_900_000,
        paper_edges=69_000_000,
        paper_size="0.6GB",
        paper_diameter=28,
        directed=False,  # the paper attributes LJ's low imbalance to its
        # undirected structure (Section VIII-C1)
        exponent=2.1,
        dangling_fraction=0.0,
        scaled_vertices=49_000,
        scaled_edges=345_000,
    ),
    "AB": DatasetSpec(
        name="AB",
        long_name="arabic-2005",
        category="Web",
        paper_vertices=22_700_000,
        paper_edges=600_000_000,
        paper_size="5.0GB",
        paper_diameter=133,
        directed=True,
        exponent=1.9,
        dangling_fraction=0.18,
        scaled_vertices=12_000,
        scaled_edges=300_000,
    ),
    "UK": DatasetSpec(
        name="UK",
        long_name="uk-2005",
        category="Web",
        paper_vertices=39_600_000,
        paper_edges=800_000_000,
        paper_size="6.7GB",
        paper_diameter=45,
        directed=True,
        exponent=2.0,
        dangling_fraction=0.14,
        scaled_vertices=20_000,
        scaled_edges=400_000,
    ),
}

#: Table II row order.
DATASET_ORDER = ("WG", "CP", "AS", "LJ", "AB", "UK")


def dataset_names() -> tuple[str, ...]:
    """Names of the Table II datasets in paper order."""
    return DATASET_ORDER


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by its Table II abbreviation."""
    try:
        return PAPER_DATASETS[name]
    except KeyError:
        known = ", ".join(DATASET_ORDER)
        raise GraphError(f"unknown dataset {name!r}; known datasets: {known}") from None


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    weighted: bool = False,
) -> CSRGraph:
    """Generate the scaled synthetic stand-in for a Table II graph.

    Parameters
    ----------
    name:
        Table II abbreviation (``WG``, ``CP``, ``AS``, ``LJ``, ``AB``, ``UK``).
    scale:
        Multiplier on the already-scaled |V| and |E| (``1.0`` gives the
        default ~1/100 stand-in; tests use smaller values for speed).
    weighted:
        Attach ThunderRW-style random edge weights (see
        :func:`thunderrw_weights`), as the paper does for weighted GRWs.
    """
    spec = get_spec(name)
    if scale <= 0:
        raise GraphError(f"scale must be positive, got {scale}")
    n = max(16, int(round(spec.scaled_vertices * scale)))
    m = max(n, int(round(spec.scaled_edges * scale)))
    graph = powerlaw(
        num_vertices=n,
        num_edges=m,
        exponent=spec.exponent,
        dangling_fraction=spec.dangling_fraction if spec.directed else 0.0,
        directed=spec.directed,
        preferential=True,
        # Topology seeds are deliberately frozen on the historical
        # name-salt derivation: every recorded experiment table pins
        # these exact stand-in graphs, and the name-salt already gives
        # each dataset a distinct stream, so re-deriving would invalidate
        # all cross-PR comparisons for zero gain.
        # repro: allow[RW102] frozen topology streams; recorded experiment tables pin these graphs
        seed=seed ^ _stable_hash(name),
        name=name,
    )
    if weighted:
        graph = graph.with_weights(thunderrw_weights(graph, seed=seed))
    return graph


def thunderrw_weights(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Random edge weights following ThunderRW's generation method.

    ThunderRW (VLDB'21) assigns each edge an independent uniform random
    weight; the paper adopts the same procedure for its weighted GRW
    experiments.  We draw uniform reals in ``[1, 64)`` so weights span
    nearly two orders of magnitude, exercising the weighted samplers.

    The weight stream is a ``SeedSequence((seed, tag))`` child of the
    caller's seed (the tag keeps it disjoint from the topology stream),
    per the determinism contract (``repro lint`` RW102) — the previous
    ``seed ^ 0x7A3D`` xor-mix could collide with other derivations.
    """
    sequence = np.random.SeedSequence((normalize_seed(seed), _WEIGHT_STREAM_TAG))
    rng = np.random.default_rng(sequence)
    return rng.uniform(1.0, 64.0, size=graph.num_edges)


def assign_metapath_schema(
    graph: CSRGraph,
    num_types: int = 3,
    seed: int = 0,
) -> CSRGraph:
    """Attach a random vertex/edge type schema for MetaPath walks.

    Each vertex gets a type in ``[0, num_types)``; each edge is labeled
    with its *destination* vertex type, so a MetaPath pattern constrains
    which neighbors are admissible at every hop.  Walks terminate early
    when no admissible neighbor exists — the irregularity Figure 8d
    attributes MetaPath's larger scheduler win to.

    The schema stream is a ``SeedSequence((seed, tag))`` child of the
    caller's seed, replacing the historical ``seed ^ 0x5EED`` xor-mix
    (RW102: xor derivations can collide across call sites).
    """
    if num_types < 1:
        raise GraphError(f"num_types must be >= 1, got {num_types}")
    sequence = np.random.SeedSequence((normalize_seed(seed), _SCHEMA_STREAM_TAG))
    rng = np.random.default_rng(sequence)
    vertex_types = rng.integers(0, num_types, size=graph.num_vertices).astype(np.int16)
    edge_types = vertex_types[graph.col].astype(np.int16)
    return CSRGraph(
        row_ptr=graph.row_ptr,
        col=graph.col,
        weights=graph.weights,
        edge_types=edge_types,
        vertex_types=vertex_types,
        name=graph.name,
    )


def _stable_hash(text: str) -> int:
    """Deterministic small hash (Python's ``hash`` is salted per process)."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) & 0x7FFFFFFF
    return value
