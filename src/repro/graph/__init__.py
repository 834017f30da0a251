"""Graph substrate: CSR representation, generators, datasets, alias tables.

Public API::

    from repro.graph import (
        CSRGraph, from_edges, from_adjacency, from_adjacency_dict,
        rmat, powerlaw, erdos_renyi,
        load_dataset, dataset_names, get_spec,
        build_alias_table, AliasTable,
        degree_statistics, estimate_diameter,
    )
"""

from repro.graph.alias import (
    AliasTable,
    alias_expected_distribution,
    build_alias_rows,
    build_alias_slots,
    build_alias_table,
)
from repro.graph.builders import (
    from_adjacency,
    from_adjacency_dict,
    from_edges,
    paper_example_graph,
    validate_edge_weights,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_ORDER,
    PAPER_DATASETS,
    DatasetSpec,
    assign_metapath_schema,
    dataset_names,
    get_spec,
    load_dataset,
    thunderrw_weights,
)
from repro.graph.generators import (
    BALANCED_INITIATOR,
    GRAPH500_INITIATOR,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    powerlaw,
    rmat,
    star_graph,
)
from repro.graph.io import load_edge_list, load_npz, save_edge_list, save_npz
from repro.graph.properties import (
    DegreeStatistics,
    degree_statistics,
    estimate_diameter,
    gini_coefficient,
)

__all__ = [
    "AliasTable",
    "BALANCED_INITIATOR",
    "CSRGraph",
    "DATASET_ORDER",
    "DatasetSpec",
    "DegreeStatistics",
    "GRAPH500_INITIATOR",
    "PAPER_DATASETS",
    "alias_expected_distribution",
    "assign_metapath_schema",
    "build_alias_rows",
    "build_alias_slots",
    "build_alias_table",
    "complete_graph",
    "cycle_graph",
    "dataset_names",
    "degree_statistics",
    "erdos_renyi",
    "estimate_diameter",
    "from_adjacency",
    "from_adjacency_dict",
    "from_edges",
    "get_spec",
    "gini_coefficient",
    "load_dataset",
    "load_edge_list",
    "load_npz",
    "paper_example_graph",
    "path_graph",
    "powerlaw",
    "rmat",
    "save_edge_list",
    "save_npz",
    "star_graph",
    "thunderrw_weights",
    "validate_edge_weights",
]
