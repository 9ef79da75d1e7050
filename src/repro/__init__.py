"""repro — a reproduction of Maier & Ullman, "Connections in Acyclic Hypergraphs".

The library has four layers:

* :mod:`repro.core` — the paper's hypergraph theory (Sections 1–6): Graham/GYO
  reduction with sacred nodes, tableaux and tableau reduction, canonical
  connections, independent trees and paths, and executable theorem checkers.
* :mod:`repro.relational` — the Section 7 substrate: an in-memory relational
  algebra, databases, the universal-relation interface, acyclic join
  processing (Yannakakis, semijoin full reducers) and the chase.
* :mod:`repro.queries` — conjunctive and tableau queries with the
  Aho–Sagiv–Ullman minimization machinery the paper builds on.
* :mod:`repro.generators` / :mod:`repro.analysis` / :mod:`repro.io` — the
  paper's figures, random workload generators, diagnostics and text formats.

Quickstart::

    from repro import Hypergraph, graham_reduce, canonical_connection, is_acyclic

    fig1 = Hypergraph.from_compact(["ABC", "CDE", "AEF", "ACE"], name="Fig. 1")
    assert is_acyclic(fig1)
    print(graham_reduce(fig1, {"A", "D"}))          # {A,C,E}, {C,D,E}
    print(canonical_connection(fig1, {"A", "D"}))   # the same partial edges
"""

from .core import (
    CanonicalConnection,
    ConnectingPath,
    ConnectingTree,
    Edge,
    GrahamResult,
    Hypergraph,
    IndependentPathCertificate,
    JoinTree,
    Node,
    NodeSet,
    RowMapping,
    Tableau,
    TableauReductionResult,
    acyclicity_report,
    build_join_tree,
    canonical_connection,
    canonical_connection_result,
    check_all,
    check_theorem_3_5,
    check_theorem_6_1,
    connection_nodes,
    connection_objects,
    find_independent_path,
    graham_reduce,
    graham_reduction,
    gyo_reduction,
    independent_path_exists,
    is_acyclic,
    is_acyclic_by_definition,
    is_acyclic_via_join_tree,
    is_berge_acyclic,
    is_beta_acyclic,
    is_independent_path,
    tableau_reduce,
    tableau_reduction,
)
from .exceptions import (
    CyclicHypergraphError,
    HypergraphError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data structures
    "Hypergraph", "Edge", "Node", "NodeSet", "Tableau", "RowMapping", "JoinTree",
    "GrahamResult", "TableauReductionResult", "CanonicalConnection",
    "ConnectingTree", "ConnectingPath", "IndependentPathCertificate",
    # reductions and connections
    "graham_reduction", "graham_reduce", "gyo_reduction",
    "tableau_reduction", "tableau_reduce",
    "canonical_connection", "canonical_connection_result",
    "connection_nodes", "connection_objects",
    # acyclicity
    "is_acyclic", "is_acyclic_by_definition", "is_acyclic_via_join_tree",
    "is_berge_acyclic", "is_beta_acyclic", "acyclicity_report", "build_join_tree",
    # independent paths / theorems
    "find_independent_path", "independent_path_exists", "is_independent_path",
    "check_theorem_3_5", "check_theorem_6_1", "check_all",
    # exceptions
    "ReproError", "HypergraphError", "CyclicHypergraphError",
]
