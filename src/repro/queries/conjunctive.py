"""Conjunctive queries over a database schema.

A conjunctive query is a head (a tuple of distinguished variables) plus a body
of atoms ``R(t_1, …, t_n)`` over the database's relations.  The query's
*hypergraph* has the body variables as nodes and, for every atom, the set of
variables it mentions as an edge — exactly the structure the paper's
acyclicity theory speaks about, which is why acyclic conjunctive queries admit
Yannakakis-style evaluation.

Provided here: evaluation against a :class:`~repro.relational.database.Database`
(naive join of atoms), homomorphisms, containment, equivalence, and
minimization (removal of redundant atoms — the query core), which is the
Aho–Sagiv–Ullman machinery the paper's tableau reduction specialises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.acyclicity import is_acyclic
from ..core.hypergraph import Hypergraph
from ..exceptions import QueryError
from ..relational.algebra import join_all, project, rename_relation, select
from ..relational.database import Database
from ..relational.relation import Relation, Row
from ..relational.schema import RelationSchema
from .terms import Constant, DistinguishedVariable, NondistinguishedVariable, Term, is_variable

__all__ = ["Atom", "ConjunctiveQuery", "find_query_homomorphism"]


@dataclass(frozen=True)
class Atom:
    """One body atom ``relation(term, …)``; terms are positional."""

    relation: str
    terms: Tuple[Term, ...]

    def variables(self) -> Tuple[Term, ...]:
        """The variable terms of the atom, in positional order (duplicates kept)."""
        return tuple(term for term in self.terms if is_variable(term))

    def variable_names(self) -> FrozenSet[str]:
        """The names of the variables the atom mentions."""
        return frozenset(term.name for term in self.terms if is_variable(term))

    def render(self) -> str:
        """``R(x, _y, 'c')``-style rendering."""
        inner = ", ".join(term.render() for term in self.terms)
        return f"{self.relation}({inner})"


class ConjunctiveQuery:
    """A conjunctive query ``head(x̄) :- atom_1, …, atom_m``."""

    def __init__(self, head: Sequence[DistinguishedVariable], atoms: Sequence[Atom],
                 name: str = "Q") -> None:
        self._head = tuple(head)
        self._atoms = tuple(atoms)
        self._name = name
        if not self._atoms:
            raise QueryError("a conjunctive query needs at least one atom")
        body_variables = {term.name for atom in self._atoms for term in atom.terms
                          if is_variable(term)}
        for variable in self._head:
            if not isinstance(variable, DistinguishedVariable):
                raise QueryError("head terms must be distinguished variables")
            if variable.name not in body_variables:
                raise QueryError(f"head variable {variable.name!r} does not occur in the body")
        for atom in self._atoms:
            for term in atom.terms:
                if isinstance(term, DistinguishedVariable) \
                        and term.name not in {v.name for v in self._head}:
                    raise QueryError(
                        f"variable {term.name!r} is marked distinguished but is not in the head")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_strings(cls, head: Sequence[str], atoms: Mapping[str, Sequence[Sequence[str]]]
                     = None, *, body: Sequence[Tuple[str, Sequence[Any]]] = (),
                     name: str = "Q") -> "ConjunctiveQuery":
        """Build a query from plain strings.

        ``head`` lists the distinguished variable names; ``body`` is a sequence
        of ``(relation name, terms)`` pairs where each term is a variable name
        (string) or a ``Constant``.  Variable names in ``head`` become
        distinguished, all others nondistinguished.
        """
        head_set = set(head)
        built_atoms: List[Atom] = []
        for relation_name, terms in body:
            converted: List[Term] = []
            for term in terms:
                if isinstance(term, Constant):
                    converted.append(term)
                elif isinstance(term, str) and term in head_set:
                    converted.append(DistinguishedVariable(term))
                elif isinstance(term, str):
                    converted.append(NondistinguishedVariable(term))
                else:
                    converted.append(Constant(term))
            built_atoms.append(Atom(relation=relation_name, terms=tuple(converted)))
        return cls([DistinguishedVariable(name_) for name_ in head], built_atoms, name=name)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The query's name (used in renderings)."""
        return self._name

    @property
    def head(self) -> Tuple[DistinguishedVariable, ...]:
        """The head (distinguished) variables, in output order."""
        return self._head

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """The body atoms."""
        return self._atoms

    def variables(self) -> FrozenSet[str]:
        """All variable names occurring in the body."""
        return frozenset(term.name for atom in self._atoms for term in atom.terms
                         if is_variable(term))

    def render(self) -> str:
        """``Q(x, y) :- R(x, _z), S(_z, y)``-style rendering."""
        head = ", ".join(variable.render() for variable in self._head)
        body = ", ".join(atom.render() for atom in self._atoms)
        return f"{self._name}({head}) :- {body}"

    # ------------------------------------------------------------------ #
    # Hypergraph view
    # ------------------------------------------------------------------ #
    def hypergraph(self) -> Hypergraph:
        """The query hypergraph: variables as nodes, per-atom variable sets as edges."""
        return Hypergraph([atom.variable_names() for atom in self._atoms],
                          nodes=self.variables(), name=self._name)

    def is_acyclic(self) -> bool:
        """``True`` when the query hypergraph is α-acyclic."""
        return is_acyclic(self.hypergraph())

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, database: Database, *, engine: str = "auto",
                 adaptive: bool = True) -> Relation:
        """Evaluate the query and project onto the head.

        Each atom is turned into a relation over its variable names (constants
        become selections, repeated variables become equality selections), the
        atom relations are joined, and the result is projected onto the head
        variables.  ``engine`` selects how the join is processed:

        * ``"naive"`` — natural-join the atom relations left to right (the
          original behaviour); an explicit opt-in, never chosen implicitly;
        * ``"yannakakis"`` — dispatch to the semijoin execution engine
          (:mod:`repro.engine`): full reduction along a join tree, then a
          bottom-up join projecting early onto the head variables.  Cyclic
          query hypergraphs dispatch to the cyclic subsystem
          (:mod:`repro.engine.cyclic`) instead: the cyclic core is covered
          by clusters, only the clusters are nested-loop joined, and the
          acyclic quotient goes through the same reducer;
        * ``"cyclic"`` — force the cyclic subsystem even for acyclic
          hypergraphs (its cover degenerates to all singletons);
        * ``"auto"`` (default) — ``"yannakakis"`` semantics.

        ``adaptive`` (default on) measures the database-derived atom
        relations into a :class:`~repro.engine.catalog.StatisticsCatalog`
        and passes it down both the acyclic and the cyclic dispatch paths,
        so the engine orders semijoins, fold steps and cluster joins by the
        atoms' actual cardinalities.  Either way the answers are identical;
        the engine only changes how large the intermediates get.

        Engine dispatch routes through the process-wide
        :func:`~repro.engine.session.default_session`: the query is
        prepared once (dispatch + structure plan, cached on the session) and
        repeated evaluations hit the session's warm path.
        """
        if engine not in ("auto", "naive", "yannakakis", "cyclic"):
            raise QueryError(f"unknown evaluation engine {engine!r}; "
                             "expected 'auto', 'naive', 'yannakakis' or 'cyclic'")
        head_names = [variable.name for variable in self._head]
        if engine == "naive":
            joined = join_all(self._atom_relations(database))
            return project(joined, head_names, name=self._name)
        from ..engine.session import default_session

        prepared = default_session().prepare(self, adaptive=adaptive,
                                             force_cyclic=(engine == "cyclic"))
        result = prepared.execute(database)
        # The engine already projected onto exactly the head attributes;
        # only the schema's declared order differs, and rows are
        # order-independent, so re-projection is unnecessary.
        return Relation.from_valid_rows(
            RelationSchema.of(self._name, dict.fromkeys(head_names)),
            result.relation.rows)

    def atom_relations(self, database: Database) -> List[Relation]:
        """One relation per body atom, over the atom's variable names.

        The public face of the atom-to-relation translation the engine
        session executes against (constants and repeated variables become
        selections, so the join downstream is a plain natural join).
        """
        return self._atom_relations(database)

    def _atom_relations(self, database: Database) -> List[Relation]:
        """One relation per body atom, over the atom's variable names.

        Constants become selections and repeated variables equality
        selections, so the downstream join only ever sees plain natural-join
        semantics.
        """
        atom_relations: List[Relation] = []
        for index, atom in enumerate(self._atoms):
            base = database.relation(atom.relation)
            if len(atom.terms) != base.schema.arity:
                raise QueryError(
                    f"atom {atom.render()} has arity {len(atom.terms)}, relation "
                    f"{atom.relation!r} has arity {base.schema.arity}")
            position_attributes = base.schema.attributes
            rows: List[Dict[str, Any]] = []
            for row in base.rows:
                binding: Dict[str, Any] = {}
                consistent = True
                for attribute, term in zip(position_attributes, atom.terms):
                    value = row[attribute]
                    if isinstance(term, Constant):
                        if value != term.value:
                            consistent = False
                            break
                    else:
                        if term.name in binding and binding[term.name] != value:
                            consistent = False
                            break
                        binding[term.name] = value
                if consistent:
                    rows.append(binding)
            variable_order = []
            for term in atom.terms:
                if is_variable(term) and term.name not in variable_order:
                    variable_order.append(term.name)
            schema = RelationSchema.of(f"atom{index}", variable_order)
            atom_relations.append(Relation(schema, rows))
        return atom_relations

    # ------------------------------------------------------------------ #
    # Containment, equivalence, minimization
    # ------------------------------------------------------------------ #
    def contains(self, other: "ConjunctiveQuery") -> bool:
        """``True`` when this query's answers always include ``other``'s.

        By the Chandra–Merlin theorem, ``Q1 ⊇ Q2`` iff there is a homomorphism
        from ``Q1`` to ``Q2``.
        """
        return find_query_homomorphism(self, other) is not None

    def is_equivalent_to(self, other: "ConjunctiveQuery") -> bool:
        """Mutual containment."""
        return self.contains(other) and other.contains(self)

    def minimize(self) -> "ConjunctiveQuery":
        """The query's core: repeatedly drop atoms while an endomorphism avoids them.

        The result is equivalent to the original query and has no redundant
        atoms; by Chandra–Merlin it is unique up to variable renaming.
        """
        atoms = list(self._atoms)
        changed = True
        while changed and len(atoms) > 1:
            changed = False
            for index in range(len(atoms)):
                candidate = atoms[:index] + atoms[index + 1:]
                try:
                    candidate_query = ConjunctiveQuery(self._head, candidate, name=self._name)
                except QueryError:
                    # Dropping this atom would orphan a head variable; it is
                    # certainly not redundant.
                    continue
                if find_query_homomorphism(self, candidate_query,
                                           restrict_targets_to_body=True) is not None:
                    atoms = candidate
                    changed = True
                    break
        return ConjunctiveQuery(self._head, atoms, name=self._name)


def find_query_homomorphism(source: ConjunctiveQuery, target: ConjunctiveQuery, *,
                            restrict_targets_to_body: bool = False
                            ) -> Optional[Dict[str, Term]]:
    """A homomorphism from ``source`` to ``target`` (variables → terms), or ``None``.

    Constants map to themselves and distinguished variables must map to the
    same distinguished variable (the queries are compared head-for-head).
    Every atom of ``source`` must map onto an atom of ``target`` with the same
    relation name.  ``restrict_targets_to_body`` is used by minimization where
    ``target``'s atom set is a subset of ``source``'s.
    """
    if len(source.head) != len(target.head):
        return None
    mapping: Dict[str, Term] = {}
    for source_variable, target_variable in zip(source.head, target.head):
        mapping[source_variable.name] = DistinguishedVariable(target_variable.name)

    source_atoms = list(source.atoms)
    target_atoms = list(target.atoms)

    def unify(atom: Atom, candidate: Atom, current: Dict[str, Term]) -> Optional[Dict[str, Term]]:
        if atom.relation != candidate.relation or len(atom.terms) != len(candidate.terms):
            return None
        extended = dict(current)
        for term, image in zip(atom.terms, candidate.terms):
            if isinstance(term, Constant):
                if not isinstance(image, Constant) or image.value != term.value:
                    return None
                continue
            bound = extended.get(term.name)
            if bound is None:
                if isinstance(term, DistinguishedVariable):
                    # Distinguished variables are pre-bound via the heads.
                    return None
                extended[term.name] = image
            else:
                if bound != image:
                    return None
        return extended

    def backtrack(index: int, current: Dict[str, Term]) -> Optional[Dict[str, Term]]:
        if index == len(source_atoms):
            return current
        atom = source_atoms[index]
        for candidate in target_atoms:
            extended = unify(atom, candidate, current)
            if extended is not None:
                result = backtrack(index + 1, extended)
                if result is not None:
                    return result
        return None

    # Distinguished variables must already be consistent with the head mapping;
    # verify that the pre-binding does not contradict constants in atoms later
    # (handled inside unify).
    return backtrack(0, mapping)
