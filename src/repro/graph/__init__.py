"""Graph data structures: columnar tables, CSR attributed graphs, subgraphs.

This package is the reproduction's storage substrate: the
storage layer that the paper assumes as "a node table and an edge table" on a
distributed file system, plus the in-memory representation used by the
baseline in-memory systems and the dataset generators.
"""

from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.attributed import AttributedGraph
from repro.graph.subgraph import GraphFeature, merge_groups
from repro.graph.validate import GraphValidationError, validate_graph, validate_tables

__all__ = [
    "NodeTable",
    "EdgeTable",
    "AttributedGraph",
    "GraphFeature",
    "merge_groups",
    "GraphValidationError",
    "validate_graph",
    "validate_tables",
]
