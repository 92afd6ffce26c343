"""Join composition of machines over record alphabets.

Two machines over possibly different name sets synchronize on shared ports
and interleave otherwise.  A transition of the joined machine arises in one
of three ways:

1. both components move, on records that are compatible with respect to the
   two name sets; the label is the union of the component labels;
2. the left component moves alone, on a record whose domain the right
   machine's name set cannot see; the right component is frozen;
3. symmetrically, the right component moves alone.

The rules are read relationally: every instantiation contributes an edge,
and a record to which several rules apply (the invisible record, for one)
contributes the union of the produced edges.  For a union-labelled edge the
decomposition is unique (compatibility forces the left part to be the
restriction of the label to the left name set, and symmetrically), so rule 1
amounts to pairing component edges with compatible labels.
"""

from __future__ import annotations

from .automata import (
    Bar,
    Gba,
    Ltsr,
    Machine,
    _canonical_family,
    _component,
    degeneralize,
)
from .errors import DataSetMismatchError, TsrError
from .records import Record, comp, union


def product_state(left: str, right: str) -> str:
    """Deterministic token for a pair of component states.

    Distinct pairs get distinct tokens, whatever commas or parentheses the
    component names hold (see ``automata._component``).
    """
    return f"({_component(left)},{_component(right)})"


def _moves_by_label(m: Machine) -> dict:
    """label -> [(source, target)], labels in first-seen order."""
    moves = {}
    for p, r, q in m.transitions:
        moves.setdefault(r, []).append((p, q))
    return moves


def _joined_base(m1: Machine, m2: Machine) -> Ltsr:
    """The composed transition system, acceptance left out.

    Whether a move may go alone (rule 2 or 3) or with which partner (rule 1)
    depends only on the labels and the name sets, so it is decided once per
    label or label pair, and each joined label is built once.
    """
    if m1.data != m2.data:
        raise DataSetMismatchError(
            f"join requires one shared data set, got {sorted(m1.data)} and {sorted(m2.data)}"
        )
    n1, n2 = m1.names, m2.names
    pair = {(s1, s2): product_state(s1, s2) for s1 in m1.states for s2 in m2.states}
    moves1, moves2 = _moves_by_label(m1), _moves_by_label(m2)
    transitions = set()
    for r1, edges1 in moves1.items():
        if not r1.domain & n2:
            for p1, q1 in edges1:
                for s2 in m2.states:
                    transitions.add((pair[p1, s2], r1, pair[q1, s2]))
    for r2, edges2 in moves2.items():
        if not r2.domain & n1:
            for p2, q2 in edges2:
                for s1 in m1.states:
                    transitions.add((pair[s1, p2], r2, pair[s1, q2]))
    for r1, edges1 in moves1.items():
        for r2, edges2 in moves2.items():
            if comp(r1, n1, r2, n2):
                r = union(r1, r2)
                for p1, q1 in edges1:
                    for p2, q2 in edges2:
                        transitions.add((pair[p1, p2], r, pair[q1, q2]))
    states = frozenset(pair.values())
    initial = frozenset(pair[s1, s2] for s1 in m1.initial for s2 in m2.initial)
    return Ltsr(states, n1 | n2, m1.data, frozenset(transitions), initial)


def join(b1: Bar, b2: Bar) -> Gba:
    """Join two Buchi automata into a generalized Buchi automaton.

    The state space is the full Cartesian product (reachability is not
    pruned), and the final family has one member per component: pairs whose
    left state is left-final, and pairs whose right state is right-final.
    An accepting run must revisit both components' final states forever.
    """
    if not isinstance(b1, Bar) or not isinstance(b2, Bar):
        raise TsrError("join is defined on two Buchi automata; see join_lts for plain systems")
    joined = _joined_base(b1, b2)
    left_final = frozenset(
        product_state(f1, s2) for f1 in b1.final for s2 in b2.states
    )
    right_final = frozenset(
        product_state(s1, f2) for s1 in b1.states for f2 in b2.final
    )
    return Gba(**vars(joined), final_family=_canonical_family((left_final, right_final)))


def join_lts(m1: Machine, m2: Machine) -> Ltsr:
    """Join two transition systems, ignoring any acceptance structure."""
    return _joined_base(m1, m2)


def join_bar_flat(b1: Bar, b2: Bar) -> Bar:
    """Join two Buchi automata and collapse the result to a plain one.

    The collapse preserves the lasso language exactly; finite acceptance may
    gain prefixes of accepted infinite words (see degeneralize).
    """
    return degeneralize(join(b1, b2))


def fresh_name(taken, stem: str = "zz") -> str:
    """The first token stem0, stem1, ... not in ``taken``."""
    n = 0
    while f"{stem}{n}" in taken:
        n += 1
    return f"{stem}{n}"


def distinguishing_context(names1, names2, data) -> Bar:
    """One-state machine with a single self-loop on a fresh-port record.

    Joined with any machine over ``names1`` or ``names2``, it can always fire
    its own letter without constraining the other side, and its letter can
    never synchronize away: composing with it embeds the other machine's
    behaviour unchanged while adding an always-available private action.
    Machines that differ in finite or lasso language yield joins that differ
    on some lasso built from such a witness plus the private letter.
    """
    data = frozenset(data)
    if not data:
        raise TsrError("a distinguishing context needs a non-empty data set")
    port = fresh_name(frozenset(names1) | frozenset(names2))
    letter = Record.of({port: min(data)})
    return Bar.make(
        states=("c0",),
        names=(port,),
        data=data,
        transitions=(("c0", letter, "c0"),),
        initial=("c0",),
        final=("c0",),
    )
