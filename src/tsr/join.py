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
    _ids,
    _indexed,
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


def _joined_base(m1: Machine, m2: Machine) -> tuple:
    """The composed transition system, acceptance left out, and its names.

    Whether a move may go alone (rule 2 or 3) or with which partner (rule 1)
    depends only on the labels and the name sets, so it is decided once per
    label or label pair, and each joined label is built once.  Both sides
    are read from their ``_indexed`` tables; the returned ``pair[i][k]``
    names the pair of ids i and k.
    """
    if m1.data != m2.data:
        raise DataSetMismatchError(
            f"join requires one shared data set, got {sorted(m1.data)} and {sorted(m2.data)}"
        )
    n1, n2 = m1.names, m2.names
    table1, table2 = _indexed(m1), _indexed(m2)
    pair = [[product_state(s1, s2) for s2 in table2.order] for s1 in table1.order]
    moves1, moves2 = (
        {r: [(i, j) for i, row in enumerate(rows) for j in row] for r, rows in table.succ.items()}
        for table in (table1, table2)
    )
    transitions = set()
    for r1, edges1 in moves1.items():
        if not r1.domain & n2:
            for i, j in edges1:
                for p, q in zip(pair[i], pair[j]):
                    transitions.add((p, r1, q))
    for r2, edges2 in moves2.items():
        if not r2.domain & n1:
            for k, l in edges2:
                for row in pair:
                    transitions.add((row[k], r2, row[l]))
    for r1, edges1 in moves1.items():
        for r2, edges2 in moves2.items():
            if comp(r1, n1, r2, n2):
                r = union(r1, r2)
                for i, j in edges1:
                    source, target = pair[i], pair[j]
                    for k, l in edges2:
                        transitions.add((source[k], r, target[l]))
    states = frozenset(q for row in pair for q in row)
    initial = frozenset(pair[i][k] for i in _ids(table1.initial) for k in _ids(table2.initial))
    return Ltsr(states, n1 | n2, m1.data, frozenset(transitions), initial), pair


def join(b1: Bar, b2: Bar) -> Gba:
    """Join two Buchi automata into a generalized Buchi automaton.

    The state space is the full Cartesian product (reachability is not
    pruned), and the final family has one member per component: pairs whose
    left state is left-final, and pairs whose right state is right-final.
    An accepting run must revisit both components' final states forever.
    """
    if not isinstance(b1, Bar) or not isinstance(b2, Bar):
        raise TsrError("join is defined on two Buchi automata; see join_lts for plain systems")
    joined, pair = _joined_base(b1, b2)
    (final1,), (final2,) = _indexed(b1).finals, _indexed(b2).finals
    left_final = frozenset(q for i in _ids(final1) for q in pair[i])
    right_final = frozenset(row[k] for row in pair for k in _ids(final2))
    return Gba(**vars(joined), final_family=_canonical_family((left_final, right_final)))


def join_lts(m1: Machine, m2: Machine) -> Ltsr:
    """Join two transition systems, ignoring any acceptance structure."""
    return _joined_base(m1, m2)[0]


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
