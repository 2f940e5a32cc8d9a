"""eclab: exact edge coalition computations on small graphs.

The library is organized in thin layers:

* :mod:`eclab.graphs`: immutable simple graphs with closed edge masks,
  line graphs, metrics, small-graph isomorphism, edge-list text I/O;
* :mod:`eclab.domination`: edge-dominating-set predicates and the exact
  edge/vertex domination numbers;
* :mod:`eclab.coalition`: coalition predicate, ec-partition verification
  with certificates, the exact EC solver, bound reports, coalition graphs;
* :mod:`eclab.families`: family generators, closed-form EC values, and
  structural recognizers;
* :mod:`eclab.oracle`: independent brute-force EC and exhaustive
  small-graph corpora;
* :mod:`eclab.theorems`: the reproduction suite behind ``eclab theorems``;
* :mod:`eclab.cli`: the command-line front end.
"""

from .coalition import (
    BoundEntry,
    BoundReport,
    EcCertificate,
    EcRejection,
    EcResult,
    FullEdgeSingleton,
    Partner,
    certificate_json,
    coalition_graph,
    coalition_partner_count,
    ec_bounds,
    edge_coalition_lower_bound,
    edge_coalition_number,
    forms_edge_coalition,
    is_ec_partition,
    is_self_edge_coalition_graph,
    is_singleton_ec_graph,
    singleton_partition,
    validate_partition,
)
from .domination import (
    DominationResult,
    edge_domination_number,
    is_edge_dominating_set,
    vertex_domination_number,
)
from .families import (
    FamilySpec,
    SmallEcClass,
    closed_form_ec,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_star,
    generate,
    path_graph,
    phi_recognizer,
    small_ec_classifier,
    star_graph,
    theta_recognizer,
)
from .graphs import (
    Graph,
    GraphMetrics,
    are_isomorphic,
    format_edge_list,
    graph_metrics,
    line_graph,
    parse_edge_list,
)
from .oracle import CorpusSpec, brute_force_ec, enumerate_corpus, export_corpus

__version__ = "0.1.0"

__all__ = [
    "BoundEntry",
    "BoundReport",
    "CorpusSpec",
    "DominationResult",
    "EcCertificate",
    "EcRejection",
    "EcResult",
    "FamilySpec",
    "FullEdgeSingleton",
    "Graph",
    "GraphMetrics",
    "Partner",
    "SmallEcClass",
    "are_isomorphic",
    "brute_force_ec",
    "certificate_json",
    "closed_form_ec",
    "coalition_graph",
    "coalition_partner_count",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "double_star",
    "ec_bounds",
    "edge_coalition_lower_bound",
    "edge_coalition_number",
    "edge_domination_number",
    "enumerate_corpus",
    "export_corpus",
    "forms_edge_coalition",
    "format_edge_list",
    "generate",
    "graph_metrics",
    "is_ec_partition",
    "is_edge_dominating_set",
    "is_self_edge_coalition_graph",
    "is_singleton_ec_graph",
    "line_graph",
    "parse_edge_list",
    "path_graph",
    "phi_recognizer",
    "singleton_partition",
    "small_ec_classifier",
    "star_graph",
    "theta_recognizer",
    "validate_partition",
    "vertex_domination_number",
]
