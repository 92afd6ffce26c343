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
machine is read the same way and ``_rebuilt`` replaces any of its fields;
``base_of`` forgets a machine's acceptance.

The invisible record is an ordinary letter here: no transition relation in
this module ever skips or inserts steps on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
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
    for t in m.transitions:
        src, label, dst = t
        found = []
        if src not in m.states or dst not in m.states:
            found.append(f"transition {src} -{label}-> {dst} uses undeclared states")
        if not isinstance(label, Record):
            found.append(f"transition label {label!r} is not a record")
        else:
            if not label.domain <= m.names:
                found.append(f"transition label {label} uses ports outside the name set")
            for _, value in label.entries:
                if value not in m.data:
                    found.append(f"transition label {label} uses data outside the data set")
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


def _token_key(token) -> tuple:
    """``validate``'s order of tokens: strings among themselves, then any
    other value by its repr, so that it is reported instead of breaking the
    sort."""
    return (0, token) if isinstance(token, str) else (1, repr(token))


def _transition_key(t) -> tuple:
    """``validate``'s report order: by source, then label, then target.
    States sort as ``_token_key`` has them.  Records sort among themselves;
    a label that is not one sorts after them, by its repr."""
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
    order = _indexed(m)[0]
    return frozenset(order[i] for i in _ids(_read(m, current, w.symbols)))


def _read(m: Machine, states, symbols) -> int:
    """The ids reached from the named ``states`` by reading ``symbols``, as a
    bit mask stepped over ``_masks``; states the machine lacks are dropped."""
    masks = _masks(m)
    mask = _state_mask(_indexed(m)[1], states)
    for r in symbols:
        if not mask:
            break
        mask = _step(masks, mask, r)
    return mask


def traceable(m: Machine, w: FiniteWord) -> bool:
    return bool(_read(m, m.initial, w.symbols))


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


@lru_cache(maxsize=512)
def _targets_mask(m: Machine) -> int:
    """``finite_targets`` as a bit mask of ``_indexed`` ids."""
    return _state_mask(_indexed(m)[1], finite_targets(m))


def accepts_finite(m: Machine, w: FiniteWord) -> bool:
    return bool(_read(m, m.initial, w.symbols) & _targets_mask(m))


def trap_states(m: Machine) -> frozenset:
    """States with no outgoing transition at all; runs entering them die."""
    alive = {src for src, _, _ in m.transitions}
    return frozenset(m.states - alive)


@lru_cache(maxsize=512)
def _indexed(m: Machine) -> tuple:
    """The machine on dense state ids, as ``(order, index, succ, moves)``.

    ``order`` lists the states sorted, ``index`` maps a state to its position
    there, and ``succ[letter][i]`` lists the ids reached from state ``i`` on
    that letter (letters that label no transition are absent).  ``moves[i]``
    lists the ids reached from state ``i`` on any letter.
    """
    order = sorted(m.states)
    index = {q: i for i, q in enumerate(order)}
    succ: dict = {}
    moves = [[] for _ in order]
    for src, label, dst in m.transitions:
        i, j = index[src], index[dst]
        rows = succ.get(label)
        if rows is None:
            rows = succ[label] = [[] for _ in order]
        rows[i].append(j)
        moves[i].append(j)
    return order, index, succ, moves


@lru_cache(maxsize=512)
def _masks(m: Machine) -> dict:
    """Per letter, ``_indexed``'s successor rows as bit masks of ids.

    Built apart from ``_indexed`` so that only machines whose state sets are
    stepped pay for it; complements are only searched for cycles.
    """
    return {r: [sum(1 << j for j in row) for row in rows] for r, rows in _indexed(m)[2].items()}


def _state_mask(index: dict, states) -> int:
    """The indexed states among ``states``, as a bit mask of their ids."""
    return sum(1 << index[q] for q in states if q in index)


def _ids(mask: int):
    """The ids in a bit mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _step(masks: dict, mask: int, r) -> int:
    """The ids reached on the letter ``r`` from the ids in ``mask``, over a
    ``_masks`` table; a letter that labels no transition reaches nothing."""
    rows = masks.get(r)
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


def _cyclic(scc, succ) -> bool:
    """Whether a component holds a cycle: two members, or one with a self-loop."""
    return len(scc) > 1 or scc[0] in succ[scc[0]]


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
    given, each node named by its position in ``found``.  A node's first
    appearance in the rows is the edge that found it.
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
    components = [scc for scc in _sccs(succ, roots) if _cyclic(scc, succ)]
    for acc in accepting:
        components = [scc for scc in components if any(map(acc.__getitem__, scc))]
    cycles = [v for scc in components for v in scc]
    preds = [[] for _ in succ]
    for v, row in enumerate(succ):
        for child in row:
            preds[child].append(v)
    return _reached(preds, cycles)


def _positions_product(m: Machine, syms, loop_start: int) -> list:
    """Successor rows of the machine x word-position graph, on dense ids.

    Node ``i*n + q`` is state ``q`` of ``_indexed(m)`` about to read
    ``syms[i]``; after the last symbol the position goes back to
    ``loop_start``.
    """
    order, _, succ, _ = _indexed(m)
    n = len(order)
    rows = []
    for i, r in enumerate(syms):
        shift = (i + 1 if i + 1 < len(syms) else loop_start) * n
        letter_rows = succ.get(r)
        if letter_rows is None:
            rows.extend([()] * n)
        elif shift:
            rows.extend([d + shift for d in row] for row in letter_rows)
        else:
            rows.extend(letter_rows)
    return rows


def strongly_connected_components(nodes, succ) -> list:
    """Tarjan's SCCs over an explicit node list and a successor function.

    Roots are taken in ``nodes`` order; nodes reached outside the list join
    the search too.  Components come out in reverse topological order.
    """
    order, rows = _explore(nodes, lambda node: ((None, child) for child in succ(node)))
    return [[order[i] for i in scc] for scc in _sccs([[j for _, j in row] for row in rows])]


def _loop_ids(m: Machine, period) -> list:
    """Per ``_indexed`` id, whether reading ``period`` forever from that state
    can accept: some run over it visits every final set infinitely often.

    Decided on the finite product of the machine with the period's positions
    rather than by following runs, because with nondeterminism an accepting
    run may have to make different choices on different passes through the
    period.
    """
    order = _indexed(m)[0]
    accepting = ([q in f for q in order] * len(period) for f in _final_sets(m))
    return _live_ids(_positions_product(m, period, 0), *accepting)[: len(order)]


def accepts_lasso(m: Machine, l: Lasso) -> bool:
    """Acceptance of an ultimately periodic word by a machine of any kind.

    Some infinite run over the lasso must visit every final set infinitely
    often, so a plain system accepts every lasso it has an infinite run on.
    The prefix is read like a finite word; the lasso is accepted when it
    leads to a state from which reading the period forever can accept.
    """
    current = _read(m, m.initial, l.prefix)
    if not current:
        return False
    loop = _loop_ids(m, l.period)
    return any(loop[i] for i in _ids(current))


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
    The family is ordered by sorted member contents to keep output canonical.

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
    family = list(g.final_family) if g.final_family else [frozenset(g.states)]
    k = len(family)

    def cname(q: str, i: int) -> str:
        return f"({q},{i})"

    states = frozenset(cname(q, i) for q in g.states for i in range(1, k + 1))
    transitions = set()
    # The cycle search below runs on ids: node (i-1)*n + index[q] is (q, i).
    order = list(g.states)
    index = {q: v for v, q in enumerate(order)}
    n = len(order)
    rows = [[] for _ in range(n * k)]
    for src, label, dst in g.transitions:
        for i in range(1, k + 1):
            j = (i % k) + 1 if src in family[i - 1] else i
            transitions.add((cname(src, i), label, cname(dst, j)))
            rows[(i - 1) * n + index[src]].append((j - 1) * n + index[dst])
    initial = frozenset(cname(q, 1) for q in g.initial)

    core = frozenset(g.states)
    for member in family:
        core = core & member
    final = {cname(q, i) for q in core for i in range(1, k + 1)}

    for scc in _sccs(rows, [index[q] for q in g.initial]):
        if _cyclic(scc, rows):
            final.update(cname(order[v], 1) for v in scc if v < n and order[v] in family[0])

    if not final:
        # Nothing accepts, but a Buchi automaton needs a non-empty final set;
        # an unreachable padding state changes neither language.  The name is
        # always free: every other state is (q,i) with i >= 1, and i holds no
        # comma, so none reads as (pad,0).
        states = states | {"(pad,0)"}
        final = {"(pad,0)"}

    return Bar(states, g.names, g.data, frozenset(transitions), initial, frozenset(final))


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
