"""flowkit: exact-rational maximum flow and its higher-dimensional cousin.

Submodules:

* ``network``    networks, flows, cuts, residual graphs, DIMACS-style IO
* ``solvers``    shortest-augmenting-path, FIFO push-relabel, pseudoflow
* ``decompose``  path/cycle decomposition, min-cut extraction, flow recovery
* ``lp``         exact simplex, flow LP and dual, total unimodularity
* ``simplicial`` flows on oriented complexes, cuts, augmenting cycles
* ``apps``       matchings, cover-disjoint chains, image segmentation
* ``cli``        the `flowkit` command
"""

from .network import (  # noqa: F401
    Cut,
    FlowAssignment,
    build_network,
    cut_capacity,
    flow_across_cut,
    incidence_matrix,
    net_flow,
    read_dimacs,
    validate,
    write_dimacs,
)
from .solvers import (  # noqa: F401
    edmonds_karp,
    hochbaum_maxflow,
    max_blocking_cut,
    push_relabel,
)
from .simplicial import boundary_matrix  # noqa: F401
from .values import UNBOUNDED  # noqa: F401
