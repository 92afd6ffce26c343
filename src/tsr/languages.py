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

Machines are compared over the labels that occur in them: words range over
the union of the two name sets, but the searches step only on records that
label some transition of either machine.  A letter that no transition
carries is dead on both sides.  In the subset search it steps every pair to
the all-empty pair, which is never expanded; in the monoid it gives the zero
profile, which never links to an accepting loop.  So leaving such letters
out keeps every verdict and every shortest witness, and no comparison
enumerates the alphabet; only complementation, which needs an edge on every
letter, does.  A record outside one machine's name set matches no transition
of that machine, so words using foreign ports are simply absent from its
languages; no special error is raised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, count, product
from typing import Iterable, List, Optional, Tuple, Union

from .automata import (
    Bar,
    Gba,
    Ltsr,
    Machine,
    Verdict,
    _accepts,
    _buchi,
    _component,
    _cycles,
    _explore,
    _ids,
    _indexed,
    _kept,
    _live_ids,
    _loop_ids,
    _plain,
    _read,
    _reached,
    _reversed,
    _step,
    _Table,
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
    _check_records,
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


# ---------------------------------------------------------------------------
# Finite-word languages


def _union_names(x1: Machine, x2: Machine) -> frozenset:
    """The union of the two name sets, over which witnesses are words; the
    machines must share one data set."""
    if x1.data != x2.data:
        raise DataSetMismatchError(
            "finite/omega language comparison requires one shared data set, "
            f"got {sorted(x1.data)} and {sorted(x2.data)}"
        )
    return x1.names | x2.names


def _union_letters(table1: _Table, table2: _Table) -> List[Record]:
    """The labels that occur in either table, sorted: the letters the
    decisions step on."""
    return sorted(table1.masks.keys() | table2.masks.keys())


def _subset_pairs(table1: _Table, table2: _Table, letters):
    """Breadth-first search over the product of two subset constructions.

    Each side is a bit mask of ids stepped over its own table's per-letter
    masks, whose rows for each letter are looked up once per search.  Yields
    every joint pair reachable from the two initial masks once, with a
    shortest word reaching it, in the order the pairs are found; letters are
    tried in the order given, so the first pair with a property carries a
    shortest, deterministic word.  The pair whose sides are both empty is
    yielded but not expanded: it only steps to itself.
    """
    start = (table1.initial, table2.initial)
    yield start, ()
    steps = [(r, table1.masks.get(r), table2.masks.get(r)) for r in letters]
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        if not (s1 or s2):
            continue
        for r, rows1, rows2 in steps:
            pair = (_step(rows1, s1), _step(rows2, s2))
            if pair not in seen:
                seen.add(pair)
                found = (pair, word + (r,))
                yield found
                queue.append(found)


def _pair_search(table1: _Table, table2: _Table, names, stop) -> Optional[FiniteWord]:
    """The first word of ``_subset_pairs`` over the occurring labels at which
    ``stop``, given the pair of acceptance flags, returns True: a shortest
    witness, over the name set ``names``."""
    t1, t2 = table1.targets, table2.targets
    letters = _union_letters(table1, table2)
    for (s1, s2), word in _subset_pairs(table1, table2, letters):
        if stop(bool(s1 & t1), bool(s2 & t2)):
            return FiniteWord(word, names)
    return None


def finite_equiv(x1: Machine, x2: Machine) -> Verdict:
    """Decide equality of finite-word languages.

    For plain transition systems the finite-word language is the traceable
    words, so this doubles as the finite-trace equivalence on those.  The
    witness, when present, is a shortest word in exactly one language.
    """
    names = _union_names(x1, x2)
    witness = _pair_search(_indexed(x1), _indexed(x2), names, lambda a1, a2: a1 != a2)
    return Verdict(witness is None, witness)


def finite_trace_equiv(x1: Machine, x2: Machine) -> Verdict:
    """Decide equality of finite-trace languages: ``finite_equiv`` on the
    plain views of the machines' tables, where every state is final.  The
    witness, when present, is a shortest word traceable in exactly one."""
    tables = (_plain(_indexed(x1)), _plain(_indexed(x2)))
    witness = _pair_search(*tables, _union_names(x1, x2), lambda a1, a2: a1 != a2)
    return Verdict(witness is None, witness)


def shortest_accept_difference(x1: Machine, x2: Machine) -> Optional[FiniteWord]:
    """Shortest finite word accepted by x1 but not x2, if any."""
    names = _union_names(x1, x2)
    return _pair_search(_indexed(x1), _indexed(x2), names, lambda a1, a2: a1 and not a2)


def _reachable(table: _Table) -> _Table:
    """A table restricted to the states reachable from its initial ones.

    Language-preserving, and essential before profile construction: joins
    carry every state pair, so distinct behaviour on dead states would
    otherwise multiply the monoid.  The states keep their relative order,
    so ids still follow the sorted state names.
    """
    seen = _reached(table.moves, list(_ids(table.initial)))
    return _kept(table, [i for i, keep in enumerate(seen) if keep])


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
    letter_rows: dict      # Record -> Rows of that profile

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


def _profile_space(table: _Table, letters: Iterable[Record]) -> _ProfileSpace:
    n = len(table.order)
    nn = n * n
    fmasks = table.finals  # one per member of F
    members = sum(1 << (j * nn) for j in range(len(fmasks)))
    col = 0
    unit_r = unit_f = 0
    for p in range(n):
        col |= 1 << (p * n)
        unit_r |= 1 << (p * n + p)
        for j, fmask in enumerate(fmasks):
            if (fmask >> p) & 1:
                unit_f |= 1 << (j * nn + p * n + p)
    frow = ((1 << n) - 1) * members
    letter_rows = {}
    for r in letters:
        lr = lf = 0
        for p, mask in enumerate(table.masks.get(r, ())):
            lr |= mask << (p * n)
            for j, fmask in enumerate(fmasks):
                lf |= (mask if (fmask >> p) & 1 else mask & fmask) << (j * nn + p * n)
        letter_rows[r] = _rows((lr, lf), n, frow)
    return _ProfileSpace(
        n,
        members,
        col,
        col * members,
        frow,
        (unit_r, unit_f),
        letter_rows,
    )


def _joint_closure(spaces, letters, limit):
    """BFS closure of the joint profile monoid, shortest words first.

    Returns lists indexed by element id, in discovery order with the unit as
    id 0, and a lazy iterator that fills them: ``elements``; ``words``, a
    shortest word realizing each, a non-empty one for the unit once found;
    and ``succ``, the Cayley graph, the id of each expanded element times
    each letter.  The iterator yields the id of each element that a
    non-empty word realizes once, in shortlex order of those words: period
    profiles must come from them.  It raises ``SizeBoundError`` once the
    monoid, unit included, would pass ``limit`` elements, so a caller that
    stops early may decide before the bound trips.
    """
    unit = tuple(s.unit for s in spaces)
    elements, words, succ = [unit], [()], []

    def closure():
        ids = {unit: 0}
        for x, elem in enumerate(elements):  # grows while it is read
            word, row = words[x], []
            succ.append(row)
            steps = zip(*(s.successors(e, letters) for s, e in zip(spaces, elem)))
            for r, nxt in zip(letters, steps):
                y = ids.get(nxt, len(elements))
                row.append(y)
                if y == len(elements):
                    if y >= limit:
                        raise SizeBoundError(
                            f"profile monoid exceeded {limit} elements; "
                            "reduce machine size or raise the bound"
                        )
                    ids[nxt] = y
                    elements.append(nxt)
                    words.append(word + (r,))
                    yield y
                elif not (y or words[0]):
                    words[0] = word + (r,)
                    yield y

    return elements, words, succ, closure()


def _simulated(table_a: _Table, table_b: _Table) -> bool:
    """Whether machine ``b`` directly simulates machine ``a``, given their id
    tables, from every initial state of ``a``, which proves that ``b``
    accepts every lasso ``a`` accepts (Dill, Hu and Wong-Toi, CAV 1991).

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
    n_a, n_b = len(table_a.order), len(table_b.order)
    # moves[p]: per letter p moves on, b's successor rows and p's targets.
    stuck = [0] * n_b
    moves = [
        [(table_b.masks.get(r, stuck), row[p]) for r, row in table_a.masks.items() if row[p]]
        for p in range(n_a)
    ]
    finals_a, finals_b = table_a.finals, table_b.finals
    starts_a = list(_ids(table_a.initial))
    start_b = table_b.initial
    every_b = (1 << n_b) - 1
    for stand_in in product(range(len(finals_a)), repeat=len(finals_b)):
        sim = []
        for p in range(n_a):
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
                    while targets and keep:  # _ids inlined: this is the kernel's hot path
                        bit = targets & -targets
                        target = sim[bit.bit_length() - 1]
                        targets ^= bit
                        left = keep
                        while left:
                            low = left & -left
                            if not rows_b[low.bit_length() - 1] & target:
                                keep ^= low
                            left ^= low
                if keep != sim[p]:
                    sim[p] = keep
                    changed = True
            # sim only shrinks, so a start of a that lost every start of b stays lost.
            if not all(sim[p] & start_b for p in starts_a):
                break
        else:
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
    is scanned against the prefix state pairs, found only as far as the
    scan needs them, and the first disagreement ends the call, so unequal
    machines can be told apart before the closure would pass
    ``monoid_limit``.  The witness lasso is built from shortest realizing
    words and is accepted by exactly one machine.

    Each side may be a ``Bar`` or a ``Gba``, so joins are compared as they
    are, never degeneralized.  A ``Gba``'s profiles carry one packed final
    matrix per family member, and an idempotent period accepts from a state
    exactly when it leads to a state whose diagonal bit is set in every
    member (the AND of the member diagonals).
    """
    if not isinstance(b1, (Bar, Gba)) or not isinstance(b2, (Bar, Gba)):
        raise TsrError("buchi_equiv compares two Buchi or generalized Buchi automata")
    names = _union_names(b1, b2)
    table1, table2 = _reachable(_indexed(b1)), _reachable(_indexed(b2))
    letters = _union_letters(table1, table2)
    if _simulated(table1, table2) and _simulated(table2, table1):
        return Verdict(True)
    spaces = (_profile_space(table1, letters), _profile_space(table2, letters))
    pairs = []  # the prefix pairs found so far
    unfound = _subset_pairs(table1, table2, letters)

    def found():
        for pair in unfound:
            pairs.append(pair)
            yield pair

    # A period matters only through the states from which reading it forever
    # accepts, so one idempotent per such pair of state sets is scanned: the
    # one with the shortest word, which the closure meets first.  The pairs
    # come in shortlex order of their words too, so the witness is the least
    # prefix for the least period class on which the machines disagree.  A
    # class with no entry on either side agrees at every pair, so it is not
    # scanned, and the pairs are found only as far as a scan needs them.
    classes = set()
    elements, words, _, closure = _joint_closure(spaces, letters, monoid_limit)
    for e in closure:
        joint = elements[e]
        if any(s.mult(x, x) != x for s, x in zip(spaces, joint)):
            continue  # not idempotent
        entries1, entries2 = (s.loop_entries(x) for s, x in zip(spaces, joint))
        if not (entries1 or entries2) or (entries1, entries2) in classes:
            continue
        classes.add((entries1, entries2))
        for (mask1, mask2), word in chain(pairs, found()):
            if bool(mask1 & entries1) != bool(mask2 & entries2):
                return Verdict(False, Lasso(tuple(word), words[e], names))
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
    A commitment and a cut each start a block at the unit, so their edges are
    those of a block whose profile so far is the unit.

    States are named by monoid element ids, in the closure's breadth-first
    order: reader ``r<sigma>``, block ``b<rho>_<profile so far>`` and cut
    ``c<rho>``.  Only the initial reader and the reachable states that can
    still reach an accepting cycle are built.  The trim keeps the lasso
    language, whose accepting runs stay among such states.  It keeps the
    finite-word language too: the final states are the cuts, each cut
    ``c<rho>`` lies on a cycle because rho is realized by a non-empty word,
    so every state that can reach a final state can reach an accepting cycle.
    They are found on the reversed Cayley graph before exploring: block
    ``b<rho>_x`` is live when x reaches rho, and reader ``r<x>`` when x
    reaches a reader with a commitment.  The monoid closure records that
    graph, so no product is computed twice: rho is idempotent when its word,
    walked from rho, comes back to rho, and the sigmas linked to rho are the
    fixed points of x -> x*rho, built for every x by composing the letters'
    columns along that word.
    When no cut is reachable, a lone final state ``never`` pads the result.
    """
    if not isinstance(b, Bar):
        raise TsrError("buchi_complement takes a Buchi automaton")
    table = _reachable(_indexed(b))
    if len(table.order) > DEFAULT_COMPLEMENT_STATE_LIMIT:
        raise SizeBoundError(
            f"complementation is limited to {DEFAULT_COMPLEMENT_STATE_LIMIT} states, "
            f"got {len(table.order)}"
        )
    letters = enumerate_alphabet(b.names, b.data)
    space = _profile_space(table, letters)
    elements, words, succ, closure = _joint_closure((space,), letters, COMPLEMENT_MONOID_LIMIT)
    periods = list(closure)  # the ids a non-empty word realizes, in the closure's order
    column = dict(zip(letters, zip(*succ)))  # letter -> the id of x times it, per id x

    # reach[sigma]: the states sigma drives the initial states to; rhos[sigma]:
    # the periods rho such that (sigma, rho) is a linked, non-accepting pair.
    n, full = space.n, (1 << space.n) - 1
    reach = [_step([x >> p * n & full for p in range(n)], table.initial) for (x, _), in elements]
    rhos = {}
    for rho in periods:
        path = [column[r] for r in words[rho]]
        x = rho
        for col in path:
            x = col[x]
        if x != rho:
            continue
        entries = space.loop_entries(elements[rho][0])
        times_rho = range(len(elements))
        for col in path:
            times_rho = [col[x] for x in times_rho]
        for sigma, x in enumerate(times_rho):
            if x == sigma and not reach[sigma] & entries:
                rhos.setdefault(sigma, []).append(rho)

    # Every predecessor of a live state is live, so exploring only live
    # states finds them all.  The initial reader, id 0, is kept regardless.
    preds = _reversed(succ)
    committed = {rho_id for row in rhos.values() for rho_id in row}
    block_live = {rho_id: _reached(preds, [rho_id]) for rho_id in committed}
    reader_live = _reached(preds, list(rhos))
    reader_live[0] = True

    def edges(state):
        # Blocks are nearly every state, so they take the first branch; a
        # commitment and a cut have the edges of the block at the unit, id 0.
        if state[0] == "b":
            _, rho_id, x = state
            live = block_live[rho_id]
            for r, y in zip(letters, succ[x]):
                if live[y]:
                    yield r, ("b", rho_id, y)
                if y == rho_id:
                    yield r, ("c", rho_id)
        elif state[0] == "r":
            x = state[1]
            for r, y in zip(letters, succ[x]):
                if reader_live[y]:
                    yield r, ("r", y)
            for rho_id in rhos.get(x, ()):
                yield from edges(("b", rho_id, 0))
        else:
            yield from edges(("b", state[1], 0))

    found, rows = _explore([("r", 0)], edges)
    names = [q[0] + "_".join(map(str, q[1:])) for q in found]  # r<sigma>, b<rho>_<x>, c<rho>
    final = frozenset(names[i] for i, q in enumerate(found) if q[0] == "c")
    return _buchi(_named_rows(names, rows, 1, b), final, "never")


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
    table1, table2 = _indexed(b1), _indexed(b2)
    (final1,), (final2,) = table1.finals, table2.finals
    # Per letter both machines move on, each one's successor rows: the pair
    # synchronizes on equal labels.
    steps = [(r, rows, table2.succ[r]) for r, rows in table1.succ.items() if r in table2.succ]

    def edges(state):
        p1, p2, copy = state
        if copy == 1 and final1 >> p1 & 1:
            nxt = 2
        elif copy == 2 and final2 >> p2 & 1:
            nxt = 1
        else:
            nxt = copy
        for r, rows1, rows2 in steps:
            targets2 = rows2[p2]
            if targets2:
                for q1 in rows1[p1]:
                    for q2 in targets2:
                        yield r, (q1, q2, nxt)

    roots = [(q1, q2, 1) for q1 in _ids(table1.initial) for q2 in _ids(table2.initial)]
    found, rows = _explore(roots, edges)
    names1, names2 = ([_component(q) for q in table.order] for table in (table1, table2))
    names = [f"({names1[q1]},{names2[q2]},{copy})" for q1, q2, copy in found]
    final = frozenset(
        name for name, (q1, _, copy) in zip(names, found) if copy == 1 and final1 >> q1 & 1
    )
    return _buchi(_named_rows(names, rows, len(roots), b1), final, "never")


def _named_rows(names: list, rows: list, roots: int, m: Machine) -> Ltsr:
    """The transition system over ``m``'s alphabet whose state ``i`` is
    ``names[i]`` and whose edges are ``_explore``'s ``rows``, started from
    its first ``roots`` states."""
    transitions = frozenset((names[i], r, names[j]) for i, row in enumerate(rows) for r, j in row)
    return Ltsr(frozenset(names), m.names, m.data, transitions, frozenset(names[:roots]))


def buchi_empty(b: Bar) -> Optional[Lasso]:
    """None when the lasso language is empty, else a witness lasso.

    A witness exists exactly when some final state is reachable and lies on a
    cycle; the returned lasso follows ``_labels_into``'s shortest path to the
    least such state and its shortest cycle back to it.
    """
    if not isinstance(b, Bar):
        raise TsrError("buchi_empty takes a Buchi automaton")
    table = _indexed(b)
    (final,) = table.finals
    moves, roots = table.moves, list(_ids(table.initial))
    cycles = [v for scc in _cycles(moves, roots) for v in scc]
    looping = [v for v in cycles if final >> v & 1]
    if not looping:
        return None
    f = min(looping)
    # Edges in (letter, id) order; ids follow the sorted state names.
    steps = sorted(table.masks.items())
    prefix = () if table.initial >> f & 1 else _labels_into(steps, roots, f)
    return Lasso(prefix, _labels_into(steps, [f], f), b.names)


def _labels_into(steps, roots: list, goal: int) -> tuple:
    """The labels along the first path of one or more edges from ``roots``
    into ``goal``, which must be reachable, breadth first from the roots in
    the order given, over each node's edges in the order of ``steps``, a
    table's ``(letter, rows)`` pairs, then of ids: a least shortest path."""
    paths = {v: () for v in roots}  # the labels of the path that found each node
    queue = list(paths)
    for node in queue:  # grows while it is read
        for r, rows in steps:
            for j in _ids(rows[node]):
                if j == goal:
                    return paths[node] + (r,)
                if j not in paths:
                    paths[j] = paths[node] + (r,)
                    queue.append(j)


def accepting_loop_states(b: Bar, period: Tuple[Record, ...]) -> frozenset:
    """States from which reading the period forever can accept.

    A lasso (u, v) is accepted exactly when some state reached on u lies in
    accepting_loop_states(b, v); batching many prefixes against one period
    this way avoids rebuilding the same product graph per lasso.  The
    batching also spans periods: every rotation and power of one primitive
    period reads the product built for the first of them asked of ``b``.
    A symbol that is not a Record raises ``InvalidRecordError``; a record
    over ports ``b`` lacks is a letter it never reads.
    """
    if not isinstance(b, Bar):
        raise TsrError("accepting_loop_states takes a Buchi automaton")
    if not period:
        raise TsrError("period must be non-empty")
    _check_records(period)
    table = _indexed(b)
    return frozenset(table.order[i] for i in _ids(_loop_ids(table, period)))


# ---------------------------------------------------------------------------
# Infinite traceability

def _productive(table: _Table) -> _Table:
    """A table cut down to its productive states, those starting some
    infinite run, in their relative order: ids follow the sorted names."""
    live = _live_ids(table.moves)
    return _kept(table, [i for i, keep in enumerate(live) if keep])


def _extend_to_lasso(word: FiniteWord, table: _Table) -> Lasso:
    """Continue ``word`` from the lowest id it reaches in ``table``, along the
    least letter and then the lowest id it reaches, until a state repeats; peel
    the cycle.  Ids follow the sorted names: the least (letter, name) edge."""
    letters = sorted(table.masks)
    q = next(_ids(_read(table, table.initial, word.symbols)))
    visited = {q: 0}
    labels = []
    while True:
        r = next(r for r in letters if table.masks[r][q])
        labels.append(r)
        dst = next(_ids(table.masks[r][q]))
        if dst in visited:
            i = visited[dst]
            return Lasso(word.symbols + tuple(labels[:i]), tuple(labels[i:]), word.names)
        visited[dst] = len(labels)
        q = dst


def infinite_traceable_equiv(m1: Machine, m2: Machine) -> Verdict:
    """Decide equality of the infinite-trace languages of two systems.

    An infinite word is traceable exactly when all its finite prefixes keep a
    run alive among productive states (states with some infinite run ahead);
    the finitely-branching run tree then contains an infinite branch.  So the
    two languages differ exactly when ``_pair_search`` over the productive
    plain tables meets a pair where one side is dead and the other alive,
    and any infinite continuation of the live side is a witness.
    """
    names = _union_names(m1, m2)
    table1, table2 = (_plain(_productive(_indexed(m))) for m in (m1, m2))
    live = count(1)  # numbers the pairs with both sides alive; the all-dead pair is not one

    def apart(a1, a2):
        if a1 and a2 and next(live) > PAIR_SEARCH_LIMIT:
            raise SizeBoundError("infinite-trace comparison exceeded the pair search limit")
        return a1 != a2

    witness = _pair_search(table1, table2, names, apart)
    if witness is None:
        return Verdict(True)
    alive = table1 if _accepts(table1, witness) else table2
    return Verdict(False, _extend_to_lasso(witness, alive))


# ---------------------------------------------------------------------------
# Componentwise membership formulas for joins

def componentwise_traceable(w: FiniteWord, m1: Machine, m2: Machine) -> bool:
    """Membership formula for finite traces of a join of two systems.

    A word over the union alphabet is traceable in the join exactly when each
    component can trace the visible part of the word restricted to its own
    ports.  Exact for machines that can always idle invisibly in place.
    """
    return all(_accepts(_plain(_indexed(m)), vis(restrict_word(w, m.names))) for m in (m1, m2))


def componentwise_lasso_traceable(l: Lasso, m1: Machine, m2: Machine) -> bool:
    """Membership formula for infinite traces of a join of two systems.

    Restricting a lasso to one component's ports and dropping invisible
    records leaves either a finite word (the component eventually only
    idles: membership is finite traceability) or a lasso (membership is
    infinite traceability); ``_accepts`` on the plain view reads either.
    Exact for trapless idle-capable machines.
    """
    return all(
        _accepts(_plain(_indexed(m)), vis_lasso(restrict_lasso(l, m.names))) for m in (m1, m2)
    )


def componentwise_accepts_finite(w: FiniteWord, b1: Bar, b2: Bar) -> bool:
    """Membership formula for the finite-word language of a join of Bars."""
    return all(_accepts(_indexed(b), vis(restrict_word(w, b.names))) for b in (b1, b2))
