"""Labelled transition systems and Buchi automata over record alphabets.

Three machine kinds share one transition structure:

* ``Ltsr``    - plain transition system; its finite language is the set of
                traceable words and its infinite language the set of words
                with an infinite run.
* ``Bar``     - Buchi automaton: one final set, used both for finite
                acceptance (reach a final state) and infinite acceptance
                (visit the final set infinitely often).
* ``Gba``     - generalized Buchi automaton: a family of final sets; an
                infinite run accepts when it visits every member infinitely
                often, and a finite word is accepted when it can reach the
                intersection of the family.  Join composition produces these.

``Bar`` and ``Gba`` are ``Ltsr`` subclasses that add one field each, so every
machine is read the same way and ``_rebuilt`` replaces any of its fields.

Every walk reads a machine through ``_indexed``, its memoized id table.
``_named`` turns an id table into a machine of any kind, as the joins and
``degeneralize`` do, and is the memo's only other writer.  ``base_of``
forgets a machine's acceptance.

The invisible record is an ordinary letter here: no transition relation in
this module ever skips or inserts steps on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Iterable, Optional, Union

from .errors import InvalidRecordError
from .records import FiniteWord, Lasso, Record, check_token


@dataclass(frozen=True)
class Ltsr:
    """A labelled transition system over a record alphabet.

    ``names`` and ``data`` fix the alphabet; ``transitions`` is an explicit
    edge set, which keeps sparse machines small and makes no reachability or
    totality assumptions.
    """

    states: frozenset
    names: frozenset
    data: frozenset
    transitions: frozenset
    initial: frozenset

    @classmethod
    def make(cls, states, names, data, transitions, initial) -> "Ltsr":
        return cls(
            frozenset(states),
            frozenset(names),
            frozenset(data),
            frozenset(tuple(t) for t in transitions),
            frozenset(initial),
        )


def base_of(m: Machine) -> Ltsr:
    """The plain transition system of a machine, its acceptance forgotten.

    A Bar or Gba never compares equal to its plain system, so the caches
    keyed on machines keep the two apart.
    """
    if type(m) is Ltsr:
        return m
    return Ltsr(m.states, m.names, m.data, m.transitions, m.initial)


@dataclass(frozen=True)
class Bar(Ltsr):
    """A Buchi automaton: a transition system plus one final set."""

    final: frozenset

    @classmethod
    def make(cls, states, names, data, transitions, initial, final) -> "Bar":
        ltsr = Ltsr.make(states, names, data, transitions, initial)
        return cls(**vars(ltsr), final=frozenset(final))

    # perfbench/workloads.py reads ``Bar.base.{states,transitions,initial}``
    # and tells a Bar from a plain system by ``hasattr(m, "base")``, so a Bar
    # keeps this view and ``Ltsr`` must never gain the name.  The library
    # itself never reads it.
    base = property(base_of)


def _canonical_family(family) -> tuple:
    sets = {frozenset(f) for f in family}
    return tuple(sorted(sets, key=lambda f: tuple(sorted(f))))


@dataclass(frozen=True)
class Gba(Ltsr):
    """A generalized Buchi automaton with a (possibly empty) family of final sets.

    The family is stored deduplicated and sorted by member contents so equal
    automata always compare and serialize identically.  An empty family means
    every infinite run accepts; joins of machines with all-final components
    produce such families indirectly, so the case is allowed rather than
    rejected.
    """

    final_family: tuple

    @classmethod
    def make(cls, states, names, data, transitions, initial, final_family) -> "Gba":
        ltsr = Ltsr.make(states, names, data, transitions, initial)
        return cls(**vars(ltsr), final_family=_canonical_family(final_family))


Machine = Union[Ltsr, Bar, Gba]


@dataclass(frozen=True)
class Verdict:
    """Result of an equivalence check.

    ``witness`` is None when the machines are equal, otherwise a finite word
    or lasso accepted by exactly one of the two machines compared.
    """

    equal: bool
    witness: Optional[Union[FiniteWord, Lasso]] = None

    @property
    def witness_kind(self) -> Optional[str]:
        if self.witness is None:
            return None
        return "finite" if isinstance(self.witness, FiniteWord) else "lasso"


def validate(m: Machine) -> list:
    """All invariant violations of a machine, as human-readable strings.

    An empty list means the machine is well formed.  Validation is separate
    from construction so that malformed inputs can be loaded, inspected, and
    reported on instead of dying half-parsed.
    """
    out = []

    def tokens_ok(items, what):
        for it in sorted(items, key=_token_key):
            try:
                check_token(it, what)
            except InvalidRecordError as e:
                out.append(str(e))

    tokens_ok(m.states, "state id")
    tokens_ok(m.names, "port name")
    tokens_ok(m.data, "data value")
    if not m.states:
        out.append("machine must have at least one state")
    if not m.names:
        out.append("machine must declare a non-empty name set")
    if not m.initial:
        out.append("machine must have at least one initial state")
    if not m.initial <= m.states:
        out.append("initial states must be states of the machine")
    reports = []  # (report order, violations) of each transition that has some
    checked = {}  # the label violations of each distinct Record, found once
    states = m.states
    for t in m.transitions:
        if not (isinstance(t, tuple) and len(t) == 3):
            what = f"transition {t!r} is not a (source, label, target) triple"
            reports.append((_transition_key(t), [what]))
            continue
        src, label, dst = t
        if isinstance(label, Record):
            found = checked.get(label)
            if found is None:
                found = checked[label] = _label_violations(label, m.names, m.data)
        else:
            found = [f"transition label {label!r} is not a record"]
        if src not in states or dst not in states:
            found = [f"transition {src} -{label}-> {dst} uses undeclared states", *found]
        if found:
            reports.append((_transition_key(t), found))
    for _, found in sorted(reports):
        out += found
    if isinstance(m, Bar):
        if not m.final:
            out.append("final set must be non-empty")
        if not m.final <= m.states:
            out.append("final states must be states of the machine")
    if isinstance(m, Gba):
        for member in m.final_family:
            if not member <= m.states:
                out.append("every final-family member must be a set of states")
    return out


def _label_violations(label: Record, names: frozenset, data: frozenset) -> list:
    """What ``validate`` reports of a record label over ``names`` and ``data``."""
    found = []
    if not label.domain <= names:
        found.append(f"transition label {label} uses ports outside the name set")
    for _, value in label.entries:
        if value not in data:
            found.append(f"transition label {label} uses data outside the data set")
    return found


def _token_key(token) -> tuple:
    """``validate``'s order of tokens: strings among themselves, then any
    other value by its repr, so that it is reported instead of breaking the
    sort."""
    return (0, token) if isinstance(token, str) else (1, repr(token))


def _transition_key(t) -> tuple:
    """``validate``'s report order: by source, then label, then target.
    States sort as ``_token_key`` has them.  Records sort among themselves,
    then other labels by repr; transitions that are not triples go last."""
    if not (isinstance(t, tuple) and len(t) == 3):
        return ((2, repr(t)),)
    src, label, dst = t
    if isinstance(label, Record):
        return (_token_key(src), 0, label, _token_key(dst))
    return (_token_key(src), 1, repr(label), _token_key(dst))


def reach(m: Machine, from_states: Iterable[str], w: FiniteWord) -> frozenset:
    """States reachable from ``from_states`` by reading ``w`` symbol by symbol.

    A symbol outside the machine's alphabet matches no transition, so words
    over a larger name set are handled uniformly: they simply die here.  That
    convention is what lets machines with different name sets be compared over
    their union alphabet.  The empty word gives ``from_states`` back as they
    are; a longer one drops the start states the machine lacks.
    """
    current = frozenset(from_states)
    if not w.symbols:
        return current
    table = _indexed(m)
    start = sum(1 << i for i, q in enumerate(table.order) if q in current)
    return frozenset(table.order[i] for i in _ids(_read(table, start, w.symbols)))


def _read(table: _Table, mask: int, symbols) -> int:
    """The ids reached from the ids in ``mask`` by reading ``symbols``, as a
    bit mask stepped over the table's masks."""
    for r in symbols:
        if not mask:
            break
        mask = _step(table.masks.get(r), mask)
    return mask


def traceable(m: Machine, w: FiniteWord) -> bool:
    table = _indexed(m)
    return bool(_read(table, table.initial, w.symbols))


def _final_sets(m: Machine) -> tuple:
    """The final sets of a machine of any kind.

    An infinite run accepts when it visits every set infinitely often, and a
    finite word when it can end in all of them at once.  A Bar has its one
    final set and a Gba its family; an Ltsr, and a Gba whose family is empty,
    have one set holding every state, so they constrain nothing.
    """
    if isinstance(m, Bar):
        return (m.final,)
    if isinstance(m, Gba) and m.final_family:
        return m.final_family
    return (m.states,)


def _rebuilt(m: Machine, acc=None, **fields) -> Machine:
    """``m`` with ``fields`` replaced, of the same kind; when ``acc`` is
    given, each of its final sets is mapped by it too."""
    if acc is not None:
        if isinstance(m, Bar):
            fields["final"] = acc(m.final)
        elif isinstance(m, Gba):
            fields["final_family"] = _canonical_family(map(acc, m.final_family))
    return replace(m, **fields)


def finite_targets(m: Machine) -> frozenset:
    """The state set whose reachability defines finite acceptance: the
    intersection of the final sets (every state of an Ltsr, since finite
    acceptance is traceability there)."""
    return frozenset.intersection(*_final_sets(m))


def accepts_finite(m: Machine, w: FiniteWord) -> bool:
    table = _indexed(m)
    return bool(_read(table, table.initial, w.symbols) & table.targets)


def trap_states(m: Machine) -> frozenset:
    """States with no outgoing transition at all; runs entering them die."""
    table = _indexed(m)
    return frozenset(q for q, row in zip(table.order, table.moves) if not row)


class _Table:
    """A machine on dense state ids, as the library's walks read it.

    ``order`` lists the state names; a state's id is its position there, and
    ``_indexed`` tables list them sorted; ``_kept`` alone cuts or renumbers
    a table.  ``initial`` holds the initial states as a bit mask of ids.
    ``masks[letter][i]`` holds the ids reached from state ``i`` on that
    letter as a bit mask (letters that label no transition are absent).
    ``finals`` holds each final set as a bit mask of ids (``_final_sets``
    for an ``_indexed`` table), and ``targets``, derived from them, their
    AND: the ``finite_targets``.  ``succ[letter][i]`` and ``moves[i]`` hold
    the ids reached from state ``i``, lowest first, on that letter and on
    any letter, as tuples; they are built from the masks when first read,
    as most decisions step on the masks alone.  ``loops`` is ``_loop_ids``'
    memo: it maps the least rotation of a primitive period to one id mask
    per position.  It is the one part of a table that fills as periods are
    asked, and what it holds depends on the machine and the period alone,
    never on which caller asked first; it goes with its table.
    Tables are shared through the caches, so no caller changes one otherwise.
    """

    def __init__(self, order: list, initial: int, masks: dict, finals: tuple):
        self.order = order
        self.initial = initial
        self.masks = masks
        self.finals = finals
        self.targets = reduce(int.__and__, finals)
        self.loops = {}

    @cached_property
    def succ(self) -> dict:
        return {r: _id_rows(rows) for r, rows in self.masks.items()}

    @cached_property
    def moves(self) -> list:
        anywhere = [0] * len(self.order)
        for rows in self.masks.values():
            anywhere = list(map(int.__or__, anywhere, rows))
        return _id_rows(anywhere)


def _id_rows(rows) -> list:
    """Each mask of ``rows`` as the tuple of its ids, lowest first."""
    out = []
    for mask in rows:
        ids = []
        while mask:  # _ids inlined: rows are built for every state and letter
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        out.append(tuple(ids))
    return out


# _indexed's memo of the last _TABLES_KEPT tables, oldest first.  _named
# enters the table each machine is named from, so a join is never parsed
# back into ids.
_tables: dict = {}
_TABLES_KEPT = 512


def _indexed(m: Machine) -> _Table:
    """The ``_Table`` of a machine, built once per machine kept in the memo."""
    table = _tables.get(m)
    if table is None:
        table = _remember(m, _index(m))
    return table


_indexed.cache_clear = _tables.clear


def _remember(m: Machine, table: _Table) -> _Table:
    """Keep ``table`` as ``_indexed(m)``; it must equal what ``_index`` builds."""
    if len(_tables) >= _TABLES_KEPT:
        del _tables[next(iter(_tables))]
    _tables[m] = table
    return table


def _index(m: Machine) -> _Table:
    """The ``_Table`` of a machine, built in one pass over its transitions."""
    order = sorted(m.states)
    index = {q: i for i, q in enumerate(order)}
    masks = {}
    for src, label, dst in m.transitions:
        rows = masks.get(label)
        if rows is None:
            rows = masks[label] = [0] * len(order)
        rows[index[src]] |= 1 << index[dst]
    finals = tuple(_state_mask(index, f) for f in _final_sets(m))
    initial = _state_mask(index, m.initial)
    return _Table(order, initial, masks, finals)


def _kept(table: _Table, kept: list) -> _Table:
    """``table`` cut down to the ids in ``kept``, old id ``kept[i]`` renumbered
    to ``i``: every mask drops the other ids, and a letter left with no edge
    is dropped.  ``table`` itself when every id stays in place."""
    n = len(table.order)
    if len(kept) == n and all(map(int.__eq__, kept, range(n))):
        return table
    new = dict(zip(kept, range(len(kept))))
    cut = lambda mask: sum(1 << new[i] for i in _ids(mask) if i in new)
    masks = {}
    for r, rows in table.masks.items():
        rows = [cut(rows[i]) for i in kept]
        if any(rows):
            masks[r] = rows
    order = [table.order[i] for i in kept]
    return _Table(order, cut(table.initial), masks, tuple(map(cut, table.finals)))


def _named(table: _Table, kind, names, data, pad: str = "") -> Machine:
    """The machine of kind ``kind`` over ``names`` and ``data`` whose state
    ``i`` is named ``table.order[i]``.  A Gba's family, or a Bar's one final
    set, is ``table.finals``; a Bar with nothing final gets the fresh state
    ``pad`` (see ``_buchi``).  The table is kept as the machine's
    ``_indexed`` table when it is the one ``_index`` would build: no state
    was padded and the ids follow the sorted names.  A plain system keeps
    its ``_plain`` view."""
    order = table.order
    transitions = []
    for r, rows in table.masks.items():
        for source, mask in zip(order, rows):
            while mask:  # _ids inlined: a product has many edges to name
                low = mask & -mask
                transitions.append((source, r, order[low.bit_length() - 1]))
                mask ^= low
    initial = frozenset(order[p] for p in _ids(table.initial))
    m = Ltsr(frozenset(order), names, data, frozenset(transitions), initial)
    if kind is Ltsr:
        table = _plain(table)
    else:
        sets = tuple(frozenset(order[p] for p in _ids(f)) for f in table.finals)
        m = Gba(**vars(m), final_family=sets) if kind is Gba else _buchi(m, *sets, pad)
    if len(m.states) == len(order) and all(map(str.__lt__, order, order[1:])):
        _remember(m, table)
    return m


def _plain(table: _Table) -> _Table:
    """``table`` with acceptance set aside: the same ids and masks, and one
    final set holding every state, as ``_index`` builds for a plain system.
    ``table`` itself when that is its one final set already."""
    every = (1 << len(table.order)) - 1
    if table.finals == (every,):
        return table
    return _Table(table.order, table.initial, table.masks, (every,))


def _state_mask(index: dict, states) -> int:
    """The indexed states among ``states``, as a bit mask of their ids."""
    return sum(1 << index[q] for q in states if q in index)


def _ids(mask: int):
    """The ids in a bit mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _flags_mask(flags) -> int:
    """The positions of the set entries of a list of flags, as a bit mask.
    Read as a binary numeral, highest position first, which takes time linear
    in the length where adding up the bits one by one does not."""
    return int(b"0" + bytes(reversed(flags)).translate(_BINARY_DIGITS), 2)


def _step(rows, mask: int) -> int:
    """The ids reached from the ids in ``mask`` over one letter's rows of
    ``_indexed``'s masks; ``None``, the rows of a letter that labels no
    transition, reaches nothing."""
    out = 0
    if rows is not None:
        while mask:  # _ids inlined: this loop is the finite-word searches' hot path
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
    return out


def _sccs(succ, roots=None) -> list:
    """Tarjan's strongly connected components of the graph on ``0..len(succ)-1``.

    ``succ[v]`` lists the successors of node ``v``.  Roots are taken in the
    order of ``roots``, by default every id in id order, and successors in
    list order, so only the nodes reachable from ``roots`` are split into
    components; components come out in reverse topological order, each
    listing its members in the order they leave the stack.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n) if roots is None else roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for child in it:
                if index[child] < 0:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(succ[child])))
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
    return sccs


def _cycles(succ, roots=None) -> list:
    """``_sccs``'s components that hold a cycle: two members, or a self-loop."""
    return [scc for scc in _sccs(succ, roots) if len(scc) > 1 or scc[0] in succ[scc[0]]]


def _reached(succ, roots) -> list:
    """Per node of ``_sccs``'s graph, whether it is reachable from ``roots``."""
    seen = [False] * len(succ)
    for v in roots:
        seen[v] = True
    frontier = list(roots)
    while frontier:
        for child in succ[frontier.pop()]:
            if not seen[child]:
                seen[child] = True
                frontier.append(child)
    return seen


def _explore(roots, edges) -> tuple:
    """Breadth-first discovery of a graph from ``roots``, as ``(found, rows)``.

    ``found`` lists the nodes in the order they are found, roots first, and
    ``rows[i]`` the ``(label, id)`` pairs of ``edges(found[i])`` in the order
    given, each node named by its position in ``found``.
    """
    found = list(dict.fromkeys(roots))
    ids = {node: i for i, node in enumerate(found)}
    rows = []
    for node in found:  # grows while it is read
        row = []
        for label, child in edges(node):
            i = ids.get(child)
            if i is None:
                i = ids[child] = len(found)
                found.append(child)
            row.append((label, i))
        rows.append(row)
    return found, rows


def _live_ids(succ, *accepting) -> list:
    """Per node of ``_sccs``'s graph, whether a cycle through a node of every
    ``accepting`` list is reachable from it (node ``v`` belongs to a list when
    the list's ``v``-th entry is set); with no list, any cycle will do.

    Such cycles lie exactly in the components that hold a cycle and a member
    of every list; the live nodes are their members and every node that can
    reach one.  Each such cycle runs through a node of the first list, so it
    stays inside that list's forward closure: only that closure, found by
    starting Tarjan's search from the list's members, is split into
    components.
    """
    roots = [v for v, hit in enumerate(accepting[0]) if hit] if accepting else None
    components = _cycles(succ, roots)
    for acc in accepting:
        components = [scc for scc in components if any(map(acc.__getitem__, scc))]
    cycles = [v for scc in components for v in scc]
    return _reached(_reversed(succ), cycles)


def _reversed(succ) -> list:
    """``_sccs``'s graph with every edge turned around, in id order."""
    preds = [[] for _ in succ]
    for v, row in enumerate(succ):
        for child in row:
            preds[child].append(v)
    return preds


def strongly_connected_components(nodes, succ) -> list:
    """Tarjan's SCCs over an explicit node list and a successor function.

    Roots are taken in ``nodes`` order; nodes reached outside the list join
    the search too.  Components come out in reverse topological order.
    """
    order, rows = _explore(nodes, lambda node: ((None, child) for child in succ(node)))
    return [[order[i] for i in scc] for scc in _sccs([[j for _, j in row] for row in rows])]


def _loop_ids(table: _Table, period) -> int:
    """The ids of a machine's table from which reading ``period`` forever can
    accept, as a bit mask: some run over it visits every final set infinitely
    often.

    Decided on the finite product of the machine with a period's positions
    rather than by following runs, because with nondeterminism an accepting
    run may have to make different choices on different passes through the
    period.  A period reads as its primitive root does, and every rotation of
    the root reads the same product from another position.  So the product is
    built and searched once per table, for ``key``, the least rotation of the
    root: node ``i*n + q`` is state ``q`` about to read ``key[i]``, and after
    the last symbol the position wraps back to 0.  The table's ``loops`` keeps
    the answer as one id mask per position, and the period's answer is the
    mask at the position where its root starts.
    """
    k = len(period)
    d = next(d for d in range(1, k + 1) if not k % d and period == period[:d] * (k // d))
    root = tuple(period[:d])
    s = min(range(d), key=lambda i: root[i:] + root[:i])
    key = root[s:] + root[:s]
    masks = table.loops.get(key)
    if masks is None:
        succ, n = table.succ, len(table.order)
        rows = []
        for i, r in enumerate(key):
            shift = ((i + 1) % d) * n
            letter_rows = succ.get(r)
            if letter_rows is None:
                rows.extend([()] * n)
            elif shift:
                rows.extend([v + shift for v in row] for row in letter_rows)
            else:
                rows.extend(letter_rows)
        accepting = ([f >> q & 1 for q in range(n)] * d for f in table.finals)
        live = _live_ids(rows, *accepting)
        masks = table.loops[key] = [_flags_mask(live[i * n:(i + 1) * n]) for i in range(d)]
    return masks[-s % d]


def accepts_lasso(m: Machine, l: Lasso) -> bool:
    """Acceptance of an ultimately periodic word by a machine of any kind.

    Some infinite run over the lasso must visit every final set infinitely
    often, so a plain system accepts every lasso it has an infinite run on.
    The prefix is read like a finite word; the lasso is accepted when it
    leads to a state from which reading the period forever can accept.
    """
    table = _indexed(m)
    current = _read(table, table.initial, l.prefix)
    if not current:
        return False
    return bool(current & _loop_ids(table, l.period))


gba_accepts_lasso = accepts_lasso


_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def _component(name: str) -> str:
    """A state name as it appears inside a composite name such as ``(p,q)``.

    A name is kept verbatim when it cannot blur the composite's commas: it
    has no backslash, its parentheses nest properly, and each of its commas
    sits inside parentheses.  Plain names and the names earlier joins made
    have that shape, so they read as before.  Any other name has each of
    ``\\ , ( )`` escaped with a backslash, which keeps distinct component
    tuples on distinct composite names.
    """
    depth = 0
    for c in name:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                break
        elif c == "\\" or (c == "," and not depth):
            break
    else:
        if not depth:
            return name
    return name.translate(_ESCAPES)


def degeneralize(g: Gba) -> Bar:
    """Counter construction collapsing a final-set family into one final set.

    One copy of the state space per family member; the counter advances past
    copy ``i`` whenever the source state lies in member ``i``, so a run that
    cycles through all copies forever meets every member infinitely often.
    The family is ordered by sorted member contents to keep output canonical;
    an empty family is one member holding every state (see ``_final_sets``).

    Final marking: states whose underlying state lies in the intersection of
    the family are final in every copy, which preserves finite acceptance of
    the family intersection exactly.  Additionally the first member's states
    are final in copy one, restricted to states lying on a reachable cycle;
    that restriction keeps lasso acceptance exact while adding no finite
    acceptances beyond prefixes of accepted infinite words.  (No single final
    set can preserve both languages in general: an automaton whose final set
    is seen infinitely often also accepts, finitely, infinitely many prefixes
    of every accepted infinite word.)
    """
    return _degeneralized(_indexed(g), g.names, g.data)


def _degeneralized(table: _Table, names, data) -> Bar:
    """``degeneralize`` on the id table of a machine over ``names`` and ``data``."""
    order, finals = table.order, table.finals
    n, k = len(order), len(finals)
    # Node c*n + v is state v in copy c + 1.  A move from it goes on to copy
    # nxt[c][v] + 1, the next copy when v lies in member c, so its row is v's
    # row shifted into that copy.
    nxt = [[(c + 1) % k if f >> v & 1 else c for v in range(n)] for c, f in enumerate(finals)]
    masks = {
        r: [rows[v] << nxt[c][v] * n for c in range(k) for v in range(n)]
        for r, rows in table.masks.items()
    }
    rows = [[nxt[c][v] * n + j for j in table.moves[v]] for c in range(k) for v in range(n)]
    final = sum(table.targets << c * n for c in range(k))
    for scc in _cycles(rows, list(_ids(table.initial))):
        final |= sum(1 << v for v in scc if v < n and finals[0] >> v & 1)
    # Every state is (q,i) with i >= 1, and i holds no comma, so none reads
    # as the padding state (pad,0).
    copies = [f"({q},{c})" for c in range(1, k + 1) for q in order]
    return _named(_Table(copies, table.initial, masks, (final,)), Bar, names, data, "(pad,0)")


def _buchi(m: Ltsr, final: frozenset, pad: str) -> Bar:
    """``m`` as a Buchi automaton with final set ``final``.

    When nothing is final, the fresh state ``pad`` is added as the one final
    state: a Buchi automaton needs a non-empty final set, and a state that
    nothing reaches changes neither language.  ``pad`` must name no state of
    ``m``.
    """
    if not final:
        m, final = replace(m, states=m.states | {pad}), frozenset({pad})
    return Bar(**vars(m), final=final)


def without_invisible_edges(m: Machine) -> Machine:
    """Drop every transition labelled with the invisible record."""
    return _rebuilt(m, transitions=frozenset(t for t in m.transitions if not t[1].is_invisible))


def with_idle_loops(m: Machine) -> Machine:
    """Give every state an invisible self-loop (and drop other invisible edges).

    Machines of this shape can always let time pass without observable effect.
    The class is closed under join, and on it the reach set of a join
    factorizes exactly into the component reach sets on restricted visible
    words, which is what the componentwise language formulas assume.
    """
    from .records import TAU

    kept = {t for t in m.transitions if not t[1].is_invisible}
    kept |= {(q, TAU, q) for q in m.states}
    return _rebuilt(m, transitions=frozenset(kept))
