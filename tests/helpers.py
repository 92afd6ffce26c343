"""Test-side builders and independent oracles.

Everything here is deliberately naive: oracles re-derive expected results
straight from the definitions, by exhaustive enumeration where possible, so
they share no shortcuts with the library code they check.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product

from tsr.automata import Bar, Gba, Ltsr, _canonical_family, base_of, finite_targets, reach
from tsr.join import product_state
from tsr.records import TAU, FiniteWord, Record, enumerate_alphabet, restrict


def rec(assignments=None, **kw):
    return Record.of(assignments, **kw)


def lts(states, names, data, transitions, initial):
    return Ltsr.make(states, names, data, transitions, initial)


def bar(states, names, data, transitions, initial, final):
    return Bar.make(states, names, data, transitions, initial, final)


def gba(states, names, data, transitions, initial, family):
    return Gba.make(states, names, data, transitions, initial, family)


def lts_to_bar(m):
    """View a transition system as a Buchi automaton with every state final.

    Finite acceptance then coincides with traceability and infinite acceptance
    with the existence of an infinite run.
    """
    return Bar(**vars(m), final=m.states)


def words_up_to(letters, max_len):
    """Every finite word over ``letters`` of length at most ``max_len``."""
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (r,) for w in layer for r in letters]
        out.extend(layer)
    return out


def lassos_up_to(letters, max_prefix, max_period):
    out = []
    for pre in words_up_to(letters, max_prefix):
        for per in words_up_to(letters, max_period):
            if per:
                out.append((pre, per))
    return out


def step(m, current, r):
    """The states ``current`` moves to on the one letter ``r``, by ``reach``."""
    return reach(m, current, FiniteWord((r,), r.domain))


def naive_reach(m, start, symbols):
    """Reach set by direct transition-table scanning, one letter at a time."""
    base = base_of(m)
    current = set(start)
    for r in symbols:
        current = {
            dst for src, label, dst in base.transitions if src in current and label == r
        }
    return frozenset(current)


@dataclass
class Dfa:
    """Deterministic view of a machine's finite-word language.

    States are canonical tokens for subsets of the source machine's states;
    the transition map is total over the declared alphabet (the empty subset
    acts as the explicit dead state).
    """

    states: frozenset
    alphabet: tuple
    transitions: dict
    initial: str
    accepting: frozenset


def _subset_token(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def determinize(b) -> Dfa:
    """Subset construction over the machine's whole alphabet."""
    base = base_of(b)
    letters = tuple(sorted(enumerate_alphabet(base.names, base.data)))
    targets = finite_targets(b)
    start = frozenset(base.initial)
    subsets = {start}
    transitions = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for r in letters:
            nxt = naive_reach(b, current, (r,))
            transitions[(_subset_token(current), r)] = _subset_token(nxt)
            if nxt not in subsets:
                subsets.add(nxt)
                queue.append(nxt)
    return Dfa(
        states=frozenset(_subset_token(s) for s in subsets),
        alphabet=letters,
        transitions=transitions,
        initial=_subset_token(start),
        accepting=frozenset(_subset_token(s) for s in subsets if s & targets),
    )


def dfa_accepts(d: Dfa, w) -> bool:
    state = d.initial
    for r in w.symbols:
        key = (state, r)
        if key not in d.transitions:
            return False
        state = d.transitions[key]
    return state in d.accepting


def naive_join_edges(base1, base2):
    """The three composition rules, written out as plain triple loops."""
    n1, n2 = base1.names, base2.names
    edges = set()
    for (l, a, l2), (r, b, r2) in product(base1.transitions, base2.transitions):
        if a.domain & n2 == b.domain & n1 and all(
            a.get(p) == b.get(p) for p in a.domain & b.domain
        ):
            merged = dict(a.entries)
            merged.update(dict(b.entries))
            edges.add((product_state(l, r), Record.of(merged), product_state(l2, r2)))
    for (l, a, l2) in base1.transitions:
        if not (a.domain & n2):
            for r in base2.states:
                edges.add((product_state(l, r), a, product_state(l2, r)))
    for (r, b, r2) in base2.transitions:
        if not (b.domain & n1):
            for l in base1.states:
                edges.add((product_state(l, r), b, product_state(l, r2)))
    return edges


def restricted_visible(symbols, names):
    """vis(w restricted to names), computed directly."""
    out = []
    for r in symbols:
        kept = restrict(r, names)
        if not kept.is_invisible:
            out.append(kept)
    return tuple(out)


def rename_machine(m, mapping):
    """Apply a state bijection, preserving the machine's kind."""
    base = base_of(m)
    new_base = Ltsr(
        frozenset(mapping[q] for q in base.states),
        base.names,
        base.data,
        frozenset((mapping[s], r, mapping[d]) for s, r, d in base.transitions),
        frozenset(mapping[q] for q in base.initial),
    )
    if isinstance(m, Bar):
        return Bar(**vars(new_base), final=frozenset(mapping[q] for q in m.final))
    if isinstance(m, Gba):
        family = (frozenset(mapping[q] for q in member) for member in m.final_family)
        return Gba(**vars(new_base), final_family=_canonical_family(family))
    return new_base


def walk_words(letters, max_len, root, extend):
    """Depth-first tree walk over all words up to ``max_len``.

    ``extend(node_state, letter) -> child_state`` carries whatever
    incremental state the caller needs and performs the caller's checks;
    the root's own check is the caller's job.  Returns the node count,
    root included.
    """
    count = 0
    stack = [(root, 0)]
    while stack:
        state, depth = stack.pop()
        count += 1
        if depth == max_len:
            continue
        for r in letters:
            stack.append((extend(state, r), depth + 1))
    return count


def naive_profile_compose(a, b):
    """Relational composition of two profiles given as sets of state pairs.

    A profile is (reach, fins): reach holds the pairs (p, q) that the word
    can drive p to q, and fins holds one set per final set F_j, the pairs
    for which some such path visits F_j.  The product reads ``a`` then
    ``b``; any number of final sets, none included, is allowed.
    """
    reach_a, fins_a = a
    reach_b, fins_b = b

    def compose(x, y):
        return frozenset((p, q) for (p, i) in x for (j, q) in y if i == j)

    fins = tuple(
        compose(fin_a, reach_b) | compose(reach_a, fin_b)
        for fin_a, fin_b in zip(fins_a, fins_b)
    )
    return (compose(reach_a, reach_b), fins)


def reachable_from(succ, v) -> set:
    """Nodes reachable from ``v`` in one step or more; ``succ[w]`` lists the
    successors of node ``w``."""
    seen = set()
    frontier = list(succ[v])
    while frontier:
        w = frontier.pop()
        if w not in seen:
            seen.add(w)
            frontier.extend(succ[w])
    return seen


def reachable_states(m):
    """States reachable from the initial ones, by a plain graph search."""
    base = base_of(m)
    succ = {q: [] for q in base.states}
    for src, _, dst in base.transitions:
        succ[src].append(dst)
    return set(base.initial).union(*(reachable_from(succ, q) for q in base.initial))


def states_reaching_accepting_cycles(m):
    """States with a path to a final state that can return to itself.

    Plain graph searches from every state, written straight from the
    definition.
    """
    succ = {}
    for src, _, dst in m.base.transitions:
        succ.setdefault(src, set()).add(dst)

    def reachable(sources):
        seen = set(sources)
        frontier = list(sources)
        while frontier:
            for child in succ.get(frontier.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    on_cycle = {f for f in m.final if f in reachable(succ.get(f, ()))}
    return {q for q in m.base.states if reachable([q]) & on_cycle}


def naive_live_ids(succ, lists):
    """Per node ``v`` of the id graph ``succ``, whether some node reachable
    from ``v`` lies on a cycle that meets every list of ``lists`` (node
    ``w`` meets a list when the list's ``w``-th entry is set); with no
    list, any cycle will do.

    Plain searches from every node, written straight from the definition: a
    cycle through ``u`` can visit exactly the nodes that ``u`` reaches and
    that reach ``u`` back.
    """
    reach_of = [reachable_from(succ, v) for v in range(len(succ))]
    on_cycle = set()
    for u, ahead_u in enumerate(reach_of):
        loop = {w for w in ahead_u if u in reach_of[w]}
        if u in loop and all(any(acc[w] for w in loop) for acc in lists):
            on_cycle.add(u)
    return [bool(({v} | ahead_v) & on_cycle) for v, ahead_v in enumerate(reach_of)]


def naive_lasso_accepts(m, family, lasso):
    """Whether some run over ``lasso`` visits every set of ``family``
    infinitely often.

    Plain searches on the machine x lasso-position graph, written straight
    from the definition: the run reaches a node on a cycle, and the nodes
    that node can reach and be reached back from meet every set.
    """
    base = base_of(m)
    syms = lasso.prefix + lasso.period

    def succ(node):
        q, i = node
        nxt = i + 1 if i + 1 < len(syms) else len(lasso.prefix)
        return {(d, nxt) for s, r, d in base.transitions if s == q and r == syms[i]}

    def reachable(sources):
        seen = set(sources)
        frontier = list(sources)
        while frontier:
            for child in succ(frontier.pop()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    for v in reachable({(q, 0) for q in base.initial}):
        ahead = reachable(succ(v))
        if v not in ahead:
            continue
        cycle = {u for u in ahead if v in reachable({u})}
        if all(any(q in f for q, _ in cycle) for f in family):
            return True
    return False

A0 = rec(A="0")
B0 = rec(B="0")
TAU_ = TAU
