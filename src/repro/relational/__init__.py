"""Relational substrate for the Section 7 (universal relation) interpretation.

Everything here is an in-memory, from-scratch implementation: schemas and
relations, the relational algebra, databases, dependencies and the chase,
semijoin full reducers, Yannakakis' algorithm, and the universal-relation
query interface driven by canonical connections.
"""

from .algebra import (
    antijoin,
    cartesian_product,
    difference,
    intersection,
    join_all,
    natural_join,
    project,
    rename_relation,
    select,
    semijoin,
    union,
)
from .chase import ChaseSymbol, ChaseTableau, chase_join_dependency, decomposition_is_lossless
from .database import Database
from .dependencies import (
    FunctionalDependency,
    JoinDependency,
    MultivaluedDependency,
    fd_closure,
    implies_fd,
)
from .join_plans import (
    JoinStatistics,
    execute_plan,
    join_tree_plan,
    naive_join_plan,
)
from .maximal_objects import MaximalObject, MaximalObjectInterface, enumerate_maximal_objects
from .relation import Relation, Row
from .schema import Attribute, DatabaseSchema, RelationSchema
from .semijoin_reducer import (
    SemijoinProgram,
    SemijoinStep,
    apply_semijoin_program,
    full_reducer_program,
    fully_reduce,
    is_fully_reduced,
)
from .universal import UniversalRelationInterface, WindowResult
from .yannakakis import YannakakisResult, naive_join, yannakakis_join

__all__ = [
    # schema / data
    "Attribute", "RelationSchema", "DatabaseSchema", "Relation", "Row", "Database",
    # algebra
    "project", "select", "rename_relation", "natural_join", "join_all", "semijoin",
    "antijoin", "union", "difference", "intersection", "cartesian_product",
    # dependencies & chase
    "FunctionalDependency", "MultivaluedDependency", "JoinDependency",
    "fd_closure", "implies_fd",
    "ChaseTableau", "ChaseSymbol", "decomposition_is_lossless", "chase_join_dependency",
    # acyclic join processing
    "SemijoinStep", "SemijoinProgram", "full_reducer_program", "apply_semijoin_program",
    "fully_reduce", "is_fully_reduced",
    "YannakakisResult", "yannakakis_join", "naive_join",
    "JoinStatistics", "execute_plan", "join_tree_plan", "naive_join_plan",
    # universal relation
    "UniversalRelationInterface", "WindowResult",
    # maximal objects (the paper's pointer for cyclic schemas)
    "MaximalObject", "MaximalObjectInterface", "enumerate_maximal_objects",
]
