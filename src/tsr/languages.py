"""Language-level decision procedures for machines over record alphabets.

Finite-word languages are compared by a synchronized subset search, which is
the product of the two determinizations explored lazily and breadth-first,
so a reported witness is always a shortest distinguishing word.

Lasso (omega) languages are compared through transition profiles: the profile
of a finite word records, for every state pair (p, q), whether the word can
drive p to q, and whether it can do so through a final state.  Profiles form
a finite monoid under relational composition, two ultimately periodic words
with the same prefix and period profiles are indistinguishable to a machine,
and every omega-regular inequality is exposed by a pair (prefix profile,
idempotent period profile).  That gives an exact equivalence check and a
complementation construction that never ranks runs: the complement guesses a
split of the input into a prefix and an infinite sequence of blocks whose
profiles multiply out to a non-accepting idempotent pair.  The equivalence
check first tries direct simulation in both directions, which settles most
equal pairs without building any monoid; otherwise it scans the monoid as it
is built and stops at the first idempotent class on which the machines
disagree.

Machines with different name sets are compared over the union alphabet.  A
record outside one machine's name set matches no transition of that machine,
so words using foreign ports are simply absent from its languages; no
special error is raised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Tuple, Union

from .automata import (
    Bar,
    Gba,
    Machine,
    Verdict,
    _component,
    _cyclic,
    _explore,
    _final_sets,
    _ids,
    _indexed,
    _live_ids,
    _loop_ids,
    _masks,
    _reached,
    _rebuilt,
    _sccs,
    _state_mask,
    _step,
    accepts_finite,
    accepts_lasso,
    base_of,
    finite_targets,
    traceable,
)
from .errors import (
    AlphabetMismatchError,
    DataSetMismatchError,
    SizeBoundError,
    TsrError,
)
from .records import (
    FiniteWord,
    Lasso,
    Record,
    enumerate_alphabet,
    restrict_lasso,
    restrict_word,
    vis,
    vis_lasso,
)

DEFAULT_COMPLEMENT_STATE_LIMIT = 8
DEFAULT_MONOID_LIMIT = 20000
COMPLEMENT_MONOID_LIMIT = 4000
PAIR_SEARCH_LIMIT = 500000


@dataclass(frozen=True)
class LassoWitness:
    """A lasso together with which machine of an analysis accepts it."""

    lasso: Lasso
    accepted_by: str


# ---------------------------------------------------------------------------
# Finite-word languages


def _union_letters(x1: Machine, x2: Machine) -> Tuple[frozenset, List[Record]]:
    if x1.data != x2.data:
        raise DataSetMismatchError(
            "finite/omega language comparison requires one shared data set, "
            f"got {sorted(x1.data)} and {sorted(x2.data)}"
        )
    names = x1.names | x2.names
    return names, sorted(enumerate_alphabet(names, x1.data))


def _subset_pairs(masks1, masks2, start, letters):
    """Breadth-first search over the product of two subset constructions.

    Each side is a bit mask of ids stepped over its own ``_masks`` table.
    Yields every joint pair reachable from ``start`` once, with a shortest
    word reaching it, in the order the pairs are found; letters are tried in
    the order given, so the first pair with a property carries a shortest,
    deterministic word.  The pair whose sides are both empty is yielded but
    not expanded: it only steps to itself.
    """
    yield start, ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        if not (s1 or s2):
            continue
        for r in letters:
            pair = (_step(masks1, s1, r), _step(masks2, s2, r))
            if pair not in seen:
                seen.add(pair)
                found = (pair, word + (r,))
                yield found
                queue.append(found)


def _pair_search(x1: Machine, x2: Machine, stop) -> Optional[FiniteWord]:
    """The first word of ``_subset_pairs`` over the union alphabet at which
    ``stop``, given the pair of acceptance flags, returns True: a shortest
    witness."""
    names, letters = _union_letters(x1, x2)
    index1, index2 = _indexed(x1)[1], _indexed(x2)[1]
    t1, t2 = _state_mask(index1, finite_targets(x1)), _state_mask(index2, finite_targets(x2))
    start = (_state_mask(index1, x1.initial), _state_mask(index2, x2.initial))
    for (s1, s2), word in _subset_pairs(_masks(x1), _masks(x2), start, letters):
        if stop(bool(s1 & t1), bool(s2 & t2)):
            return FiniteWord(word, names)
    return None


def finite_equiv(x1: Machine, x2: Machine) -> Verdict:
    """Decide equality of finite-word languages.

    For plain transition systems the finite-word language is the traceable
    words, so this doubles as the finite-trace equivalence on those.  The
    witness, when present, is a shortest word in exactly one language.
    """
    witness = _pair_search(x1, x2, lambda a1, a2: a1 != a2)
    if witness is None:
        return Verdict(True)
    return Verdict(False, witness)


def shortest_accept_difference(x1: Machine, x2: Machine) -> Optional[FiniteWord]:
    """Shortest finite word accepted by x1 but not x2, if any."""
    return _pair_search(x1, x2, lambda a1, a2: a1 and not a2)


def _reachable(b: Union[Bar, Gba]) -> Union[Bar, Gba]:
    """Restrict a (generalized) Buchi automaton to states reachable from its initial set.

    Language-preserving, and essential before profile construction: joins
    carry every state pair, so distinct behaviour on dead states would
    otherwise multiply the monoid.  A ``Gba`` has every family member
    restricted.
    """
    order, index, _, moves = _indexed(b)
    seen = _reached(moves, [index[q] for q in b.initial])
    if all(seen):
        return b
    states = frozenset(q for q, keep in zip(order, seen) if keep)
    kept = frozenset(t for t in b.transitions if t[0] in states)
    return _rebuilt(b, lambda final: final & states, states=states, transitions=kept)


# ---------------------------------------------------------------------------
# Transition profiles

# A profile of an n-state machine with final sets F_0 .. F_{k-1} is a pair
# (R, F) of ints.  R is an n-by-n bit matrix packed row by row: bit p*n + q
# says some path drives p to q over the word.  F packs one such matrix per
# final set, member j's at offset j*n*n: its bit p*n + q says some path from
# p to q also visits F_j (endpoints included).  Each member's matrix is a
# submask of R.  A Buchi automaton has k = 1, so F is one n-by-n matrix; a
# generalized one has one member per family set, and an empty family counts
# as one member holding every state.  Composition is relational join with
# best-flag semantics, member by member:
#   (A*B).R[p]   = OR of B.R[i] over the i in A.R[p],
#   (A*B).F_j[p] = OR of B.F_j[i] over the i in A.R[p], and of B.R[i] over
#                  the i in A.F_j[p].
# Column i of A, shifted down to the lowest bit of each row, is
# (A >> i) & COL, where COL has bit p*n set for every p; for F the mask is
# FCOL, COL repeated at every member offset.  Row i of B's F packs row i of
# every member at stride n*n.  Multiplying a column by a row copies the row
# into every selected row of the product at once and cannot carry: the
# selected bits of a column lie n apart, and the members of a row n*n apart.
# So a product costs one multiply per non-zero row of B, whatever k is.

Profile = Tuple[int, int]
Rows = Tuple[Tuple[int, int, int], ...]  # (i, R row i, F rows i), non-zero R rows only


def _mult_columns(cols, rows: Rows) -> Profile:
    """The product of a profile, given as its columns, with one given as rows."""
    cols_r, cols_f = cols
    r = f = 0
    for i, br, bf in rows:
        cr = cols_r[i]
        if cr:
            r |= cr * br
            f |= cr * bf
        cf = cols_f[i]
        if cf:
            f |= cf * br
    return (r, f)


def _rows(b: Profile, n: int, frow: int) -> Rows:
    """Row i of R and of every F member, for each i whose R row is not empty."""
    br, bf = b
    full = (1 << n) - 1
    out = []
    for i in range(n):
        r = (br >> (i * n)) & full
        if r:
            out.append((i, r, (bf >> (i * n)) & frow))
    return tuple(out)


@dataclass
class _ProfileSpace:
    n: int
    members: int           # bit j*n*n set for every final-set member j
    col: int               # bit p*n set for every state p
    fcol: int              # col at every member offset
    frow: int              # the low n bits at every member offset
    unit: Profile
    letters: dict          # Record -> Profile
    letter_rows: dict      # Record -> Rows of that profile
    initial_mask: int

    def columns(self, a: Profile):
        """Column i of R and of every F member, each shifted down to bit p*n of row p."""
        ar, af = a
        col, fcol = self.col, self.fcol
        span = range(self.n)
        return [(ar >> i) & col for i in span], [(af >> i) & fcol for i in span]

    def mult(self, a: Profile, b: Profile) -> Profile:
        return _mult_columns(self.columns(a), _rows(b, self.n, self.frow))

    def successors(self, a: Profile, letters) -> list:
        """a*r for each letter r, cutting a's columns only once."""
        cols = self.columns(a)
        return [_mult_columns(cols, self.letter_rows[r]) for r in letters]

    def loop_entries(self, rho: Profile) -> int:
        """States from which reading the idempotent rho forever can accept.

        These are the states p that rho drives to some q which rho can take
        back to itself through every final set: q has the diagonal bit of
        every member.  Those loops may take different paths; running them
        one after another is still a run over rho's word repeated, because
        rho is idempotent.  A linked pair (sigma, rho) accepts exactly when
        sigma drives some initial state into this set.
        """
        n = self.n
        r, f = rho
        members = self.members
        diag = 0
        for q in range(n):
            bits = members << (q * n + q)
            if f & bits == bits:
                diag |= 1 << q
        out = 0
        if diag:
            for p in range(n):
                if (r >> (p * n)) & diag:
                    out |= 1 << p
        return out


def _profile_space(b: Union[Bar, Gba], letters: Iterable[Record]) -> _ProfileSpace:
    order, index, _, _ = _indexed(b)
    n = len(order)
    nn = n * n
    fmasks = [_state_mask(index, final) for final in _final_sets(b)]  # one per member of F
    members = sum(1 << (j * nn) for j in range(len(fmasks)))
    col = 0
    unit_r = unit_f = 0
    for p in range(n):
        col |= 1 << (p * n)
        unit_r |= 1 << (p * n + p)
        for j, fmask in enumerate(fmasks):
            if (fmask >> p) & 1:
                unit_f |= 1 << (j * nn + p * n + p)
    masks = _masks(b)
    letter_profiles = {}
    for r in letters:
        lr = lf = 0
        for p, mask in enumerate(masks.get(r, ())):
            lr |= mask << (p * n)
            for j, fmask in enumerate(fmasks):
                lf |= (mask if (fmask >> p) & 1 else mask & fmask) << (j * nn + p * n)
        letter_profiles[r] = (lr, lf)
    frow = ((1 << n) - 1) * members
    return _ProfileSpace(
        n,
        members,
        col,
        col * members,
        frow,
        (unit_r, unit_f),
        letter_profiles,
        {r: _rows(x, n, frow) for r, x in letter_profiles.items()},
        _state_mask(index, b.initial),
    )


def _joint_closure(spaces, letters, limit):
    """BFS closure of the joint profile monoid, shortest words first.

    Yields each element that a non-empty word realizes once, with its
    shortest such word, in shortlex order of those words; every element but
    the unit is among them, and period profiles must come from them (the
    unit may only be realized by the empty word).  Raises ``SizeBoundError``
    once the monoid, unit included, would pass ``limit`` elements, so a
    caller that stops early may decide before the bound trips.
    """
    unit = tuple(s.unit for s in spaces)
    seen = {unit}
    unit_found = False
    queue = deque([(unit, ())])
    while queue:
        elem, word = queue.popleft()
        steps = zip(*(s.successors(e, letters) for s, e in zip(spaces, elem)))
        for r, nxt in zip(letters, steps):
            if nxt not in seen:
                if len(seen) >= limit:
                    raise SizeBoundError(
                        f"profile monoid exceeded {limit} elements; "
                        "reduce machine size or raise the bound"
                    )
                seen.add(nxt)
                queue.append((nxt, word + (r,)))
                yield nxt, word + (r,)
            elif not unit_found and nxt == unit:
                unit_found = True
                yield nxt, word + (r,)


def _idempotent(spaces, e) -> bool:
    return all(s.mult(x, x) == x for s, x in zip(spaces, e))


def _simulated(a: Union[Bar, Gba], b: Union[Bar, Gba]) -> bool:
    """Whether ``b`` directly simulates ``a`` from every initial state of
    ``a``, which proves that ``b`` accepts every lasso ``a`` accepts (Dill,
    Hu and Wong-Toi, CAV 1991).

    A state q of ``b`` simulates a state p of ``a`` when q lies in each
    final set of ``b`` whose stand-in among ``a``'s final sets holds p, and
    every move of p is matched by a move of q on the same letter to a state
    that simulates p's target.  Every map from ``b``'s final sets j to
    stand-ins i(j) among ``a``'s is tried: a run of ``a`` that visits each
    of its sets infinitely often is then shadowed by a run of ``b`` that
    meets set j whenever ``a``'s run meets set i(j).  Per map, ``sim[p]`` is
    the bit mask of the ids of ``b`` that simulate p, refined from that
    acceptance seed to the greatest fixpoint.
    """
    index_a, index_b = _indexed(a)[1], _indexed(b)[1]
    masks_b = _masks(b)
    # moves[p]: per letter p moves on, b's successor rows and p's targets.
    stuck = [0] * len(index_b)
    moves = [
        [(masks_b.get(r, stuck), row[p]) for r, row in _masks(a).items() if row[p]]
        for p in range(len(index_a))
    ]
    finals_a = [_state_mask(index_a, f) for f in _final_sets(a)]
    finals_b = [_state_mask(index_b, f) for f in _final_sets(b)]
    starts_a = list(_ids(_state_mask(index_a, a.initial)))
    start_b = _state_mask(index_b, b.initial)
    every_b = (1 << len(index_b)) - 1
    for stand_in in product(range(len(finals_a)), repeat=len(finals_b)):
        sim = []
        for p in range(len(index_a)):
            allowed = every_b
            for j, i in enumerate(stand_in):
                if finals_a[i] >> p & 1:
                    allowed &= finals_b[j]
            sim.append(allowed)
        changed = True
        while changed:
            changed = False
            for p, row in enumerate(moves):
                keep = sim[p]
                for rows_b, targets in row:
                    for t in _ids(targets):
                        target = sim[t]
                        keep = sum(1 << q for q in _ids(keep) if rows_b[q] & target)
                if keep != sim[p]:
                    sim[p] = keep
                    changed = True
        if all(sim[p] & start_b for p in starts_a):
            return True
    return False


def buchi_equiv(
    b1: Union[Bar, Gba], b2: Union[Bar, Gba], monoid_limit: int = DEFAULT_MONOID_LIMIT
) -> Verdict:
    """Decide equality of lasso (omega) languages of two (generalized) Buchi automata.

    Each side is first trimmed to its reachable states.  When each side
    directly simulates the other (see ``_simulated``), the languages are
    equal and no monoid is built, so the call cannot refuse; this settles
    most comparisons of a machine with a language-preserving mate.

    Otherwise every ultimately periodic word is classified by a linked
    profile pair (prefix profile sigma, idempotent period profile rho with
    sigma*rho = sigma), and two machines agree on all infinite words exactly
    when every linked pair of the joint monoid is accepting for both or
    neither.  Every linked pair has the shape (m*rho, rho), and whether
    (m*rho, rho) accepts depends on m only through the states reachable from
    the initial sets under a word realizing m, so the scan pairs period
    idempotents with joint subset-construction states instead of whole
    monoid elements.  It runs while the monoid is built: idempotents are
    met in shortlex order of their shortest words, each new class of them
    is scanned against every prefix state pair at once, and the first
    disagreement ends the call, so unequal machines can be told apart
    before the closure would pass ``monoid_limit``.  The witness lasso is
    built from shortest realizing words and is accepted by exactly one
    machine.

    Each side may be a ``Bar`` or a ``Gba``, so joins are compared as they
    are, never degeneralized.  A ``Gba``'s profiles carry one packed final
    matrix per family member, and an idempotent period accepts from a state
    exactly when it leads to a state whose diagonal bit is set in every
    member (the AND of the member diagonals).
    """
    if not isinstance(b1, (Bar, Gba)) or not isinstance(b2, (Bar, Gba)):
        raise TsrError("buchi_equiv compares two Buchi or generalized Buchi automata")
    b1 = _reachable(b1)
    b2 = _reachable(b2)
    names, letters = _union_letters(b1, b2)
    if _simulated(b1, b2) and _simulated(b2, b1):
        return Verdict(True)
    spaces = (_profile_space(b1, letters), _profile_space(b2, letters))
    start = (spaces[0].initial_mask, spaces[1].initial_mask)
    pairs = list(_subset_pairs(_masks(b1), _masks(b2), start, letters))

    # A period matters only through the states from which reading it forever
    # accepts, so one idempotent per such pair of state sets is scanned: the
    # one with the shortest word, which the closure meets first.  The pairs
    # come in shortlex order of their words too, so the witness is the least
    # prefix for the least period class on which the machines disagree.
    classes = set()
    for e, period in _joint_closure(spaces, letters, monoid_limit):
        if not _idempotent(spaces, e):
            continue
        entries1, entries2 = (s.loop_entries(x) for s, x in zip(spaces, e))
        if (entries1, entries2) in classes:
            continue
        classes.add((entries1, entries2))
        for (mask1, mask2), word in pairs:
            if bool(mask1 & entries1) != bool(mask2 & entries2):
                return Verdict(False, Lasso(tuple(word), tuple(period), names))
    return Verdict(True)


def buchi_complement(b: Bar) -> Bar:
    """Complement a Buchi automaton over its own alphabet.

    The complement accepts an infinite word exactly when the input does not.
    Construction: a deterministic reader tracks the profile of the consumed
    prefix; at any point the run may commit to a linked, non-accepting pair
    (sigma, rho), sigma being the profile read so far, and from then on
    must cut the rest of the input into blocks whose profiles are each
    exactly rho, visiting a final cut marker at every block boundary.  Words
    in the input's language admit no such split; words outside it admit one
    by Ramsey-style factorization, which is what makes the result complete.

    States are named by monoid element ids, in the closure's breadth-first
    order: reader ``r<sigma>``, block ``b<rho>_<profile so far>`` and cut
    ``c<rho>``.  Only the initial reader and the reachable states that can
    still reach an accepting cycle are kept.  The trim keeps the lasso
    language, whose accepting runs stay among such states.  It keeps the
    finite-word language too: the final states are the cuts, each cut
    ``c<rho>`` lies on a cycle because rho is realized by a non-empty word,
    so every state that can reach a final state can reach an accepting cycle.
    When no cut is reachable, a lone final state ``never`` pads the result.
    """
    if not isinstance(b, Bar):
        raise TsrError("buchi_complement takes a Buchi automaton")
    b = _reachable(b)
    if len(b.states) > DEFAULT_COMPLEMENT_STATE_LIMIT:
        raise SizeBoundError(
            f"complementation is limited to {DEFAULT_COMPLEMENT_STATE_LIMIT} states, "
            f"got {len(b.states)}"
        )
    letters = sorted(enumerate_alphabet(b.names, b.data))
    space = _profile_space(b, letters)
    nonempty = dict(_joint_closure((space,), letters, COMPLEMENT_MONOID_LIMIT))

    # Work on single profiles indexed by element id; ids follow the closure
    # order after the unit, which is id 0.
    order = [space.unit] + [e[0] for e in nonempty if e[0] != space.unit]
    ids = {x: i for i, x in enumerate(order)}
    succ = [[ids[y] for y in space.successors(x, letters)] for x in order]
    first = [ids[space.letters[r]] for r in letters]

    # reach[id of sigma]: the states sigma drives the initial states to, found
    # by stepping along the closure, which reaches every element from the unit.
    # rhos[id of sigma]: the ids of the periods rho such that (sigma, rho) is
    # a linked, non-accepting pair.
    masks = _masks(b)
    reach = {0: space.initial_mask}
    for x, row in enumerate(succ):
        for r, y in zip(letters, row):
            if y not in reach:
                reach[y] = _step(masks, reach[x], r)
    columns = [space.columns(x) for x in order]
    rhos = {}
    for e in nonempty:
        if not _idempotent((space,), e):
            continue
        rho = e[0]
        entries = space.loop_entries(rho)
        rows = _rows(rho, space.n, space.frow)
        for sigma_id, sigma in enumerate(order):
            if reach[sigma_id] & entries or _mult_columns(columns[sigma_id], rows) != sigma:
                continue
            rhos.setdefault(sigma_id, []).append(ids[rho])

    def start_block(rho_id):
        for k, r in enumerate(letters):
            yield r, ("b", rho_id, first[k])
            if first[k] == rho_id:
                yield r, ("c", rho_id)

    def edges(state):
        if state[0] == "r":
            x = state[1]
            for k, r in enumerate(letters):
                yield r, ("r", succ[x][k])
            for rho_id in rhos.get(x, ()):
                yield from start_block(rho_id)
        elif state[0] == "b":
            _, rho_id, x = state
            for k, r in enumerate(letters):
                y = succ[x][k]
                yield r, ("b", rho_id, y)
                if y == rho_id:
                    yield r, ("c", rho_id)
        else:
            yield from start_block(state[1])

    # The initial reader is id 0 and is always kept.
    found, rows = _explore([("r", 0)], edges)
    live = _live_ids([[j for _, j in row] for row in rows], [q[0] == "c" for q in found])
    live[0] = True

    def name(state):
        if state[0] == "r":
            return f"r{state[1]}"
        if state[0] == "b":
            return f"b{state[1]}_{state[2]}"
        return f"c{state[1]}"

    names = [name(q) if keep else None for q, keep in zip(found, live)]
    states = frozenset(q for q in names if q is not None)
    transitions = frozenset(
        (names[i], r, names[j])
        for i, row in enumerate(rows) if live[i]
        for r, j in row if live[j]
    )
    final = frozenset(names[i] for i, q in enumerate(found) if live[i] and q[0] == "c")
    if not final:
        states = states | {"never"}
        final = frozenset({"never"})
    return Bar(states, b.names, b.data, transitions, frozenset({names[0]}), final)


def buchi_intersect(b1: Bar, b2: Bar) -> Bar:
    """Standard two-copy intersection of Buchi automata over one alphabet.

    A state ``(p,q,c)`` pairs a state of each machine with a copy ``c``:
    copy 1 waits for a final state of ``b1`` and copy 2 for one of ``b2``,
    and the final states are copy 1's with a final left state.  Only the
    part reachable from the initial pairs in copy 1 is built; the lasso and
    finite-word languages are those of the full product.  When no reachable
    state is final, a lone unreachable final state ``never`` pads the result.
    """
    if not (isinstance(b1, Bar) and isinstance(b2, Bar)):
        raise TsrError("buchi_intersect takes two Buchi automata")
    if b1.names != b2.names or b1.data != b2.data:
        raise AlphabetMismatchError(
            "intersection requires identical alphabets (same names and data)"
        )
    final1, final2 = b1.final, b2.final
    left = {}
    for (p1, r, q1) in b1.transitions:
        left.setdefault(p1, []).append((r, q1))
    right = {}
    for (p2, r, q2) in b2.transitions:
        right.setdefault(p2, {}).setdefault(r, []).append(q2)

    def edges(state):
        p1, p2, copy = state
        if copy == 1 and p1 in final1:
            nxt = 2
        elif copy == 2 and p2 in final2:
            nxt = 1
        else:
            nxt = copy
        moves = right.get(p2)
        if moves:
            for r, q1 in left.get(p1, ()):
                for q2 in moves.get(r, ()):  # synchronize on equal labels
                    yield r, (q1, q2, nxt)

    roots = [(q1, q2, 1) for q1 in b1.initial for q2 in b2.initial]
    found, rows = _explore(roots, edges)
    names = [f"({_component(q1)},{_component(q2)},{copy})" for q1, q2, copy in found]
    states = frozenset(names)
    transitions = frozenset((names[i], r, names[j]) for i, row in enumerate(rows) for r, j in row)
    initial = frozenset(names[: len(roots)])
    final = frozenset(name for name, (q1, _, copy) in zip(names, found) if copy == 1 and q1 in final1)
    if not final:
        states = states | {"never"}
        final = frozenset({"never"})
    return Bar(states, b1.names, b1.data, transitions, initial, final)


def buchi_empty(b: Bar) -> Optional[LassoWitness]:
    """None when the lasso language is empty, else a witness lasso.

    A witness exists exactly when some final state is reachable and lies on a
    cycle; the returned lasso follows a shortest path to the least such state
    and a shortest cycle back to it.
    """
    if not isinstance(b, Bar):
        raise TsrError("buchi_empty takes a Buchi automaton")
    out = {}
    for (src, r, dst) in b.transitions:
        out.setdefault(src, []).append((r, dst))
    for src in out:
        out[src].sort()
    edges = lambda q: out.get(q, ())

    roots = sorted(b.initial)
    found, rows = _explore(roots, edges)
    succ = [[j for _, j in row] for row in rows]
    looping = [
        v for scc in _sccs(succ) if _cyclic(scc, succ) for v in scc if found[v] in b.final
    ]
    if not looping:
        return None
    f = min(looping, key=found.__getitem__)
    prefix = _labels_to(rows, len(roots), f)
    # Only members of f's component can reach f again, so the first edge back
    # into f from f closes a shortest cycle that stays inside the component.
    back = _explore([found[f]], edges)[1]
    last, r = next((i, r) for i, row in enumerate(back) for r, j in row if j == 0)
    period = _labels_to(back, 1, last) + [r]
    return LassoWitness(Lasso(tuple(prefix), tuple(period), b.names), "machine")


def _labels_to(rows, roots: int, node: int) -> list:
    """The labels along the edges of ``_explore``'s ``rows`` that found
    ``node``, from one of the first ``roots`` ids.  The edge that found a
    node is its first appearance in the rows, and leaves a lower id."""
    found_by = {}
    for i, row in enumerate(rows):
        for r, j in row:
            found_by.setdefault(j, (i, r))
    labels = []
    while node >= roots:
        node, r = found_by[node]
        labels.append(r)
    labels.reverse()
    return labels


def accepting_loop_states(b: Bar, period: Tuple[Record, ...]) -> frozenset:
    """States from which reading the period forever can accept.

    A lasso (u, v) is accepted exactly when some state reached on u lies in
    accepting_loop_states(b, v); batching many prefixes against one period
    this way avoids rebuilding the same product graph per lasso.
    """
    if not isinstance(b, Bar):
        raise TsrError("accepting_loop_states takes a Buchi automaton")
    if not period:
        raise TsrError("period must be non-empty")
    order = _indexed(b)[0]
    return frozenset(q for q, keep in zip(order, _loop_ids(b, period)) if keep)


# ---------------------------------------------------------------------------
# Infinite traceability

def _productive(m: Machine) -> tuple:
    """``_masks`` cut down to the productive states, those starting some
    infinite run, and the productive initial states as a mask."""
    _, index, _, moves = _indexed(m)
    keep = sum(1 << i for i, live in enumerate(_live_ids(moves)) if live)
    masks = {r: [row & keep for row in rows] for r, rows in _masks(m).items()}
    return masks, _state_mask(index, m.initial) & keep


def _extend_to_lasso(prefix_word, mask, masks, names) -> Lasso:
    """Continue from the lowest id in ``mask``, along the least letter and
    then the lowest id it reaches, until a state repeats; peel the cycle.
    Ids follow the sorted state names, so this is the least (letter, name)
    edge each time."""
    letters = sorted(masks)
    q = next(_ids(mask))
    visited = {q: 0}
    labels = []
    while True:
        r = next(r for r in letters if masks[r][q])
        labels.append(r)
        dst = next(_ids(masks[r][q]))
        if dst in visited:
            i = visited[dst]
            return Lasso(prefix_word + tuple(labels[:i]), tuple(labels[i:]), names)
        visited[dst] = len(labels)
        q = dst


def infinite_traceable_equiv(m1: Machine, m2: Machine) -> Verdict:
    """Decide equality of the infinite-trace languages of two systems.

    An infinite word is traceable exactly when all its finite prefixes keep a
    run alive among productive states (states with some infinite run ahead);
    the finitely-branching run tree then contains an infinite branch.  So the
    two languages differ exactly when the synchronized subset search over the
    pruned machines reaches a pair where one side is dead and the other
    alive, and any infinite continuation of the live side is a witness.
    """
    names, letters = _union_letters(m1, m2)
    (masks1, start1), (masks2, start2) = _productive(m1), _productive(m2)
    live = 0  # pairs with both sides alive; the all-dead pair is not counted
    for (s1, s2), word in _subset_pairs(masks1, masks2, (start1, start2), letters):
        if bool(s1) != bool(s2):
            lasso = _extend_to_lasso(word, s1 or s2, masks1 if s1 else masks2, names)
            return Verdict(False, lasso)
        if s1:
            live += 1
            if live > PAIR_SEARCH_LIMIT:
                raise SizeBoundError("infinite-trace comparison exceeded the pair search limit")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Componentwise membership formulas for joins

def componentwise_traceable(w: FiniteWord, m1: Machine, m2: Machine) -> bool:
    """Membership formula for finite traces of a join of two systems.

    A word over the union alphabet is traceable in the join exactly when each
    component can trace the visible part of the word restricted to its own
    ports.  Exact for machines that can always idle invisibly in place.
    """
    return traceable(m1, vis(restrict_word(w, m1.names))) and traceable(
        m2, vis(restrict_word(w, m2.names))
    )


def componentwise_lasso_traceable(l: Lasso, m1: Machine, m2: Machine) -> bool:
    """Membership formula for infinite traces of a join of two systems.

    Restricting a lasso to one component's ports and dropping invisible
    records leaves either a finite word (the component eventually only
    idles: membership is finite traceability) or a lasso (membership is
    infinite traceability).  Exact for trapless idle-capable machines.
    """
    for m in (m1, m2):
        part = vis_lasso(restrict_lasso(l, m.names))
        if isinstance(part, FiniteWord):
            ok = traceable(m, part)
        else:
            ok = accepts_lasso(base_of(m), part)
        if not ok:
            return False
    return True


def componentwise_accepts_finite(w: FiniteWord, b1: Bar, b2: Bar) -> bool:
    """Membership formula for the finite-word language of a join of Bars."""
    return accepts_finite(b1, vis(restrict_word(w, b1.names))) and accepts_finite(
        b2, vis(restrict_word(w, b2.names))
    )
