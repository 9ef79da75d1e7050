"""Property tests: the in-place GYO kernel against its two oracles.

``graham_survivors`` must agree with the paper-faithful, trace-recording
``graham_reduction`` (verdict, and the surviving trimmed family mapped back to
original edges) and must return exactly the residual of the ear-removal scan
cover search used before the kernel existed — that scan is kept here, verbatim,
as the oracle, because which *original* edge stands for a trimmed set depends
on the schedule and cover search's candidates depend on it.  The bit-parallel
``masks_acyclic`` gives the verdict alone and must agree with both.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Hypergraph
from repro.core.acyclicity import is_acyclic, is_acyclic_gyo
from repro.core.graham import graham_reduction, reduces_to_nothing
from repro.core.graham_kernel import graham_survivors, masks_acyclic
from repro.core.hypergraph import Edge

from .strategies import edges

COMMON_SETTINGS = settings(max_examples=300, deadline=None)


def ear_removal(edge_list: Sequence[Edge]) -> Tuple[List[Edge], List[Edge]]:
    """The O(E³) ear scan deleted from ``engine/cyclic/covers.py``: (ears, stuck residual)."""
    remaining = list(edge_list)
    ears: List[Edge] = []
    changed = True
    while changed and len(remaining) > 1:
        changed = False
        for index, edge in enumerate(remaining):
            others = remaining[:index] + remaining[index + 1:]
            outside = frozenset().union(*others)
            shared = edge & outside
            if any(shared <= other for other in others):
                ears.append(remaining.pop(index))
                changed = True
                break
    return ears, remaining


@st.composite
def raw_hypergraphs(draw):
    """Up to seven edges over seven nodes: empty, nested, lone and disconnected ones included."""
    return Hypergraph(draw(st.lists(edges(min_size=0), min_size=0, max_size=7)))


@COMMON_SETTINGS
@given(hypergraph=raw_hypergraphs())
def test_verdict_matches_the_reference_reduction(hypergraph):
    reference = graham_reduction(hypergraph).hypergraph
    survivors = graham_survivors(hypergraph.edges)
    assert (len(survivors) <= 1) == reduces_to_nothing(reference)
    assert is_acyclic(hypergraph) == is_acyclic_gyo(hypergraph)


@COMMON_SETTINGS
@given(hypergraph=raw_hypergraphs())
def test_survivors_are_the_reference_residue_as_original_edges(hypergraph):
    reference = graham_reduction(hypergraph).hypergraph
    survivors = graham_survivors(hypergraph.edges)
    assert set(survivors) <= set(hypergraph.edges)
    if len(survivors) <= 1:
        return
    # Trimming each survivor to the nodes the reference kept gives the
    # reference's edges, one survivor per edge.
    alive = frozenset().union(*reference.edges)
    trimmed = [edge & alive for edge in survivors]
    assert len(set(trimmed)) == len(trimmed)
    assert set(trimmed) == set(reference.edges)


@COMMON_SETTINGS
@given(hypergraph=raw_hypergraphs())
def test_survivors_equal_the_ear_removal_residual(hypergraph):
    proper = [edge for edge in hypergraph.edges if edge]
    ears, residual = ear_removal(proper)
    survivors = graham_survivors(proper)
    assert list(survivors) == residual
    assert set(proper) - set(survivors) == set(ears)
    # An empty edge is inside every other edge: it goes first, changing nothing else.
    if proper:
        assert graham_survivors(hypergraph.edges) == survivors


@COMMON_SETTINGS
@given(hypergraph=raw_hypergraphs())
def test_duplicate_edges_absorb_each_other(hypergraph):
    doubled = list(hypergraph.edges) * 2
    assert (len(graham_survivors(doubled)) <= 1) == is_acyclic_gyo(hypergraph)


def _masks(edge_list: Sequence[Edge]) -> List[int]:
    """The edges as bitmasks over one numbering of their nodes."""
    bits: dict = {}
    return [sum(bits.setdefault(node, 1 << len(bits)) for node in edge)
            for edge in edge_list]


@COMMON_SETTINGS
@given(hypergraph=raw_hypergraphs())
def test_mask_verdict_matches_the_reference_and_the_kernel(hypergraph):
    verdict = masks_acyclic(_masks(hypergraph.edges))
    assert verdict == reduces_to_nothing(graham_reduction(hypergraph).hypergraph)
    assert verdict == (len(graham_survivors(hypergraph.edges)) <= 1)
    # Duplicates and any node numbering leave the verdict alone.
    assert masks_acyclic(_masks(list(reversed(hypergraph.edges))) * 2) == verdict
