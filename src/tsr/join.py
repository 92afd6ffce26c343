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
    _component,
    _degeneralized,
    _ids,
    _indexed,
    _kept,
    _named,
    _Table,
)
from .errors import DataSetMismatchError, TsrError
from .records import Record, comp, union


def product_state(left: str, right: str) -> str:
    """Deterministic token for a pair of component states.

    Distinct pairs get distinct tokens, whatever commas or parentheses the
    component names hold (see ``automata._component``).
    """
    return f"({_component(left)},{_component(right)})"


def _joined_table(m1: Machine, m2: Machine) -> _Table:
    """The ``_Table`` of the join of two machines, built from theirs.

    Whether a move may go alone (rule 2 or 3) or with which partner (rule 1)
    depends only on the labels and the name sets, so it is decided once per
    label or label pair, and each joined label is built once.  The pair of
    left id i and right id k is first numbered i*n2 + k, which makes each
    rule's successor mask an int product: a left mask spread to stride n2
    times a right mask.  Ids must follow the sorted product names, and
    ``(i, k)`` order does not when a component name holds a character below
    ``,`` or ``)``, such as ``!`` or ``(``, so ``_kept`` renumbers them by
    name; it keeps the table as built when they already follow.

    The final sets are those of both components, each spread over the other
    component's states: the join's family when both machines are Buchi
    automata (see ``join``).  ``join_lts`` passes machines of any kind, and
    ``_named`` drops their sets.
    """
    if m1.data != m2.data:
        raise DataSetMismatchError(
            f"join requires one shared data set, got {sorted(m1.data)} and {sorted(m2.data)}"
        )
    names1, names2 = m1.names, m2.names
    table1, table2 = _indexed(m1), _indexed(m2)
    n1, n2 = len(table1.order), len(table2.order)
    stride = [1 << (i * n2) for i in range(n1)]
    spread = lambda mask: sum(stride[i] for i in _ids(mask))
    wide1 = {r: list(map(spread, rows)) for r, rows in table1.masks.items()}
    masks2 = table2.masks
    masks = {}

    def add(r, rows):
        known = masks.get(r)
        masks[r] = rows if known is None else list(map(int.__or__, known, rows))

    for r1, wide in wide1.items():  # rule 2: the right id k stays put
        if names2.isdisjoint(r1.domain):
            add(r1, [w << k for w in wide for k in range(n2)])
    for r2, rows2 in masks2.items():  # rule 3: the left id i stays put
        if names1.isdisjoint(r2.domain):
            add(r2, [row * s for s in stride for row in rows2])
    for r1, wide in wide1.items():  # rule 1: both move
        for r2, rows2 in masks2.items():
            if comp(r1, names1, r2, names2):
                add(union(r1, r2), [w * row for w in wide for row in rows2])
    initial = spread(table1.initial) * table2.initial
    full1, full2 = sum(stride), (1 << n2) - 1
    finals = [spread(f) * full2 for f in table1.finals] + [full1 * f for f in table2.finals]

    # product_state's names, each component escaped once.
    right = [_component(q) for q in table2.order]
    order = [f"({left},{q})" for left in map(_component, table1.order) for q in right]
    by_name = sorted(range(n1 * n2), key=order.__getitem__)
    table = _kept(_Table(order, initial, masks, finals), by_name)
    # _canonical_family's order, which join keeps: ids follow the sorted names.
    finals = tuple(sorted(set(table.finals), key=lambda f: tuple(_ids(f))))
    return _Table(table.order, table.initial, table.masks, finals)


def _buchi_joined_table(b1: Bar, b2: Bar) -> _Table:
    """``_joined_table`` of two Buchi automata; any other kind is refused."""
    if not isinstance(b1, Bar) or not isinstance(b2, Bar):
        raise TsrError("join is defined on two Buchi automata; see join_lts for plain systems")
    return _joined_table(b1, b2)


def join(b1: Bar, b2: Bar) -> Gba:
    """Join two Buchi automata into a generalized Buchi automaton.

    The state space is the full Cartesian product (reachability is not
    pruned), and the final family has one member per component: pairs whose
    left state is left-final, and pairs whose right state is right-final.
    An accepting run must revisit both components' final states forever.
    The machine is ``_named`` from ``_joined_table``, which it keeps as its
    ``_indexed`` table.
    """
    return _named(_buchi_joined_table(b1, b2), Gba, b1.names | b2.names, b1.data)


def join_lts(m1: Machine, m2: Machine) -> Ltsr:
    """Join two transition systems, ignoring any acceptance structure.

    The machine is ``_named`` from ``_joined_table`` of the two machines'
    own tables, with the final sets dropped.
    """
    return _named(_joined_table(m1, m2), Ltsr, m1.names | m2.names, m1.data)


def join_bar_flat(b1: Bar, b2: Bar) -> Bar:
    """Join two Buchi automata and collapse the result to a plain one.

    The collapse preserves the lasso language exactly; finite acceptance may
    gain prefixes of accepted infinite words (see degeneralize).  It is
    ``degeneralize`` of ``join``, taken on the joined table.
    """
    return _degeneralized(_buchi_joined_table(b1, b2), b1.names | b2.names, b1.data)


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
