"""Equivalence relations on machines and the congruence-check protocol.

Four relations are supported, named by short ids:

* ``ft`` - finite-trace equality of transition systems;
* ``it`` - infinite-trace equality of transition systems (trapless inputs);
* ``f``  - finite-word language equality of Buchi automata;
* ``b``  - lasso (omega) language equality of Buchi automata.

A relation is a congruence for join when equivalent machines stay equivalent
after joining both with an arbitrary third machine.  This holds for ft, f,
and it (on trapless systems) and fails for b: the built-in counterexample is
a pair of two-state cycles accepting the same single infinite word but
finite words of opposite parity, which a one-state context with a private
letter tells apart.

The fuzzer generates a random machine, derives a provably equivalent mate by
a verified language-preserving mutation, picks a random context, and checks
that the joins stay equivalent.  Trials whose premise fails verification are
counted as vacuous, never as passes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Tuple, Union

from .automata import (
    Bar,
    Ltsr,
    Machine,
    Verdict,
    _indexed,
    _plain,
    _rebuilt,
    accepts_lasso,
    trap_states,
)
from .errors import AlphabetLimitError, SizeBoundError, TrapStateError, TsrError
from .join import distinguishing_context, fresh_name, join, join_lts
from .languages import (
    _pair_search,
    _union_names,
    buchi_equiv,
    finite_equiv,
    infinite_traceable_equiv,
    shortest_accept_difference,
)
from .records import FiniteWord, Lasso, Record, enumerate_alphabet

RELATIONS = ("ft", "it", "f", "b")
TRANSITION_DENSITY = 0.3  # chance of each (state, letter, state) edge
FINAL_DENSITY = 0.5  # chance that a state is final


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random machine generator.

    The name and data pools become the generated machine's declared name and
    data sets; overlap between two machines' pools is therefore chosen by the
    caller.  Generation is a pure function of the seed.
    """

    max_states: int = 3
    name_pool: frozenset = frozenset({"A", "B"})
    data_pool: frozenset = frozenset({"0"})
    trapless: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.max_states < 1:
            raise TsrError("max_states must be at least 1")
        if not self.name_pool or not self.data_pool:
            raise TsrError("name and data pools must be non-empty")


@dataclass(frozen=True)
class CongruenceInstance:
    """One checked congruence instance.

    ``witness`` is present exactly when the premise held but the conclusion
    failed; it is then a word or lasso on which exactly one of the two joins
    accepts, re-checkable against the joined machines.  ``joins`` holds those
    two joins, the left machine's first; an instance built by hand may leave
    it empty.
    """

    relation: str
    left: Machine
    right: Machine
    context: Machine
    premise_holds: bool
    conclusion_holds: bool
    witness: Optional[Union[FiniteWord, Lasso]] = None
    joins: tuple = ()


@dataclass(frozen=True)
class FuzzReport:
    relation: str
    trials: int
    passed: int
    vacuous: int
    failed: int
    failures: tuple
    join_traps_observed: int = 0


def random_machine(params: GenParams, kind: str = "bar") -> Machine:
    """Random machine over the full name/data pools, deterministic in seed."""
    if kind not in ("bar", "lts"):
        raise TsrError(f"unknown machine kind {kind!r}")
    rng = random.Random(f"machine:{params.seed}")
    n = rng.randint(1, params.max_states)
    states = tuple(f"q{i}" for i in range(n))
    letters = enumerate_alphabet(params.name_pool, params.data_pool)
    transitions = set()
    for src in states:
        for r in letters:
            for dst in states:
                if rng.random() < TRANSITION_DENSITY:
                    transitions.add((src, r, dst))
    initial = {states[0]}
    for q in states[1:]:
        if rng.random() < 0.25:
            initial.add(q)
    if params.trapless:
        with_out = {src for src, _, _ in transitions}
        for q in states:
            if q not in with_out:
                transitions.add((q, rng.choice(letters), q))
    # Field-wise construction: the transition triples are hashed once, here.
    fields = (frozenset(states), frozenset(params.name_pool), frozenset(params.data_pool),
              frozenset(transitions), frozenset(initial))
    if kind == "lts":
        return Ltsr(*fields)
    final = {q for q in states if rng.random() < FINAL_DENSITY}
    if not final:
        final = {rng.choice(states)}
    return Bar(*fields, frozenset(final))


# The last verdict is kept: a fuzz trial decides its premise right after
# language_preserving_mutate has judged the same pair equal.
@lru_cache(maxsize=1)
def relation_equiv(rel: str, a: Machine, b: Machine) -> Verdict:
    """Decide ``a ~ b`` for one of the relations ``ft``, ``f``, ``it``, ``b``."""
    if rel == "ft":
        tables = (_plain(_indexed(a)), _plain(_indexed(b)))
        witness = _pair_search(*tables, _union_names(a, b), lambda a1, a2: a1 != a2)
        return Verdict(witness is None, witness)
    if rel == "f":
        return finite_equiv(a, b)
    if rel == "it":
        return infinite_traceable_equiv(a, b)
    if rel == "b":
        return buchi_equiv(a, b)
    raise TsrError(f"unknown relation {rel!r}")


def _rename_states(m: Machine, rng: random.Random) -> Machine:
    order = sorted(m.states)
    targets = list(range(len(order)))
    rng.shuffle(targets)
    mapping = {q: f"s{t}" for q, t in zip(order, targets)}
    return _rebuilt(
        m,
        lambda final: frozenset(mapping[q] for q in final),
        states=frozenset(mapping.values()),
        transitions=frozenset((mapping[s], r, mapping[d]) for (s, r, d) in m.transitions),
        initial=frozenset(mapping[q] for q in m.initial),
    )


def _duplicate_state(m: Machine, rng: random.Random) -> Machine:
    # Add a twin of one state: same outgoing edges, incoming edges split
    # between the original and the twin. The twin simulates the original
    # exactly, so every language is preserved.
    victim = rng.choice(sorted(m.states))
    twin = fresh_name(m.states, "dup")
    edges = sorted(m.transitions)
    transitions = set()
    for (src, r, dst) in edges:
        keep_target = dst
        if dst == victim and rng.random() < 0.5:
            keep_target = twin
        transitions.add((src, r, keep_target))
    for (src, r, dst) in edges:
        if src == victim:
            transitions.add((twin, r, dst))
    initial = set(m.initial)
    if victim in initial and rng.random() < 0.5:
        initial.add(twin)
    return _rebuilt(
        m,
        lambda final: final | {twin} if victim in final else final,
        states=m.states | {twin},
        transitions=frozenset(transitions),
        initial=frozenset(initial),
    )


def _add_unreachable(m: Machine, rng: random.Random) -> Optional[Machine]:
    # The new state's loop letter is drawn from the whole alphabet; above the
    # enumeration limit there is no candidate, as when no cycle can be shifted.
    extra = fresh_name(m.states, "u")
    try:
        letters = enumerate_alphabet(m.names, m.data)
    except AlphabetLimitError:
        return None
    return _rebuilt(
        m,
        states=m.states | {extra},
        transitions=m.transitions | {(extra, rng.choice(letters), extra)},
    )


def _shift_final_along_cycle(m: Bar, rng: random.Random) -> Optional[Bar]:
    # Move final markers one step along an even-length cycle. Such a shift
    # keeps every infinite run's count of final visits intact on that cycle,
    # so it often preserves the lasso language while changing the finite one;
    # the caller re-verifies and discards shifts that change both.
    succ = {}
    for (src, _, dst) in m.transitions:
        succ.setdefault(src, set()).add(dst)
    cycle = None
    for start in sorted(m.states):
        # Breadth-first over (state, parity); an even cycle through start
        # exists when (start, even) is re-reachable in at least two steps.
        # Not _explore: this search stops reading a state's successors at its
        # first even return to start, whether that cycle qualifies or not, and
        # a search that reads every edge picks other cycles, so other mates.
        back = {}
        queue = deque([(start, 0)])
        seenp = {(start, 0)}
        while queue and cycle is None:
            q, par = queue.popleft()
            for dst in sorted(succ.get(q, ())):
                node = (dst, 1 - par)
                if dst == start and node[1] == 0:
                    path = [start]
                    cur = (q, par)
                    while cur != (start, 0):
                        path.append(cur[0])
                        cur = back[cur]
                    path.reverse()
                    if len(path) >= 2 and m.final & set(path):
                        cycle = path
                    break
                if node not in seenp:
                    seenp.add(node)
                    back[node] = (q, par)
                    queue.append(node)
        if cycle:
            break
    if not cycle:
        return None
    shifted = set(m.final).difference(cycle)
    for q, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        if q in m.final:
            shifted.add(nxt)
    if not shifted or frozenset(shifted) == m.final:
        return None
    return replace(m, final=frozenset(shifted))


def language_preserving_mutate(m: Machine, seed, relation: str = "f") -> Machine:
    """A machine equivalent to ``m`` under the given relation.

    Mutations are structural (rename, twin a state, add an unreachable
    state when the alphabet can be enumerated, and for the lasso relation a
    final-marker shift along an even cycle); each candidate is re-verified with the relation's decision
    procedure and discarded on failure.  A renaming, which cannot change any
    language, is always among them, so ``TsrError`` is raised when every
    candidate fails: the decision procedure is then broken.
    """
    rng = random.Random(f"mutate:{relation}:{seed}")
    ops = [_rename_states, _duplicate_state, _add_unreachable]
    if relation == "b" and isinstance(m, Bar):
        ops.append(_shift_final_along_cycle)
    rng.shuffle(ops)
    for op in ops:
        candidate = op(m, rng)
        if candidate is None:
            continue
        if relation_equiv(relation, m, candidate).equal:
            return candidate
    # Every op was tried, a renaming among them, and none was judged equal.
    raise TsrError("renaming was judged non-equivalent; the decision procedure is broken")


def check_instance(rel: str, a: Machine, b: Machine, c: Machine) -> CongruenceInstance:
    """Check one congruence instance: does a ~ b imply a|>c ~ b|>c?

    Join is commutative up to renaming, so composing on one side suffices.
    For the infinite-trace relation all three machines must be trapless; the
    joins themselves may still contain traps, which the infinite-trace
    decision handles by pruning.  The joins keep the id tables they were
    named from, so the conclusion reads those without parsing the joins.
    """
    if rel == "it":
        for label, machine in (("left", a), ("right", b), ("context", c)):
            traps = trap_states(machine)
            if traps:
                raise TrapStateError(
                    f"{label} machine has trap states {sorted(traps)}; "
                    "the infinite-trace congruence claim assumes trapless inputs"
                )
    if rel in ("f", "b") and not (isinstance(a, Bar) and isinstance(b, Bar) and isinstance(c, Bar)):
        raise TsrError(f"relation {rel!r} applies to Buchi automata")
    premise = relation_equiv(rel, a, b)
    # Joined acceptors stay generalized: finite_equiv reads their finite
    # language off the intersection of the family and buchi_equiv tracks
    # every member. Flattening first would perturb the finite language.
    compose = join_lts if rel in ("ft", "it") else join
    joins = (compose(a, c), compose(b, c))
    conclusion = relation_equiv(rel, *joins)
    witness = conclusion.witness if premise.equal and not conclusion.equal else None
    return CongruenceInstance(
        relation=rel,
        left=a,
        right=b,
        context=c,
        premise_holds=premise.equal,
        conclusion_holds=conclusion.equal,
        witness=witness,
        joins=joins,
    )


def parity_bars() -> Tuple[Bar, Bar]:
    """Two trapless automata with the same lasso language.

    Both walk a two-state cycle on one letter; one accepts finite words of
    odd length, the other of even length, so their finite-word languages are
    disjoint while the only infinite word either accepts is the same.
    """
    a = Record.of({"A": "0"})
    edges = (("q0", a, "q1"), ("q1", a, "q0"))
    left = Bar.make(("q0", "q1"), ("A",), ("0",), edges, ("q0",), ("q1",))
    right = Bar.make(("q0", "q1"), ("A",), ("0",), edges, ("q0",), ("q0",))
    return left, right


def buchi_counterexample() -> CongruenceInstance:
    """The canonical witness that lasso equivalence is not a congruence.

    The parity pair agrees on infinite words; joined with a one-state
    private-letter context, the word (one shared letter, then the private
    letter forever) is accepted by exactly one join, because the context
    letter freezes the component at the state reached by the finite prefix
    and the joined acceptance then asks whether that state was final.
    """
    left, right = parity_bars()
    found = distinguish_by_context(left, right)
    if found is None:
        raise TsrError("parity pair lost its distinguishing context; bug")
    context, witness = found
    return replace(check_instance("b", left, right, context), witness=witness)


def distinguish_by_context(b1: Bar, b2: Bar) -> Optional[Tuple[Bar, Lasso]]:
    """A context and lasso separating the joins, when the languages differ.

    Any operand that is not a ``Bar`` is refused first.  Machines equal in
    both finite and lasso language return None: no witness is constructed
    (the general all-contexts claim is only ever supported by fuzzing, not
    decided).  Otherwise the private-letter context is built and a witness
    lasso is derived from a finite or lasso difference, then re-verified
    against both joins; candidates that fail fall back to a direct
    comparison of the two joins.  None is also returned when that finds the
    joins equal, as it can when an invisible step blurs a finite difference:
    the step fires together with the context's letter.
    """
    if not (isinstance(b1, Bar) and isinstance(b2, Bar)):
        raise TsrError("distinguish compares two Buchi automata")
    fin = finite_equiv(b1, b2)
    buc = buchi_equiv(b1, b2)
    if fin.equal and buc.equal:
        return None
    context = distinguishing_context(b1.names, b2.names, b1.data)
    loop_letter = next(iter(context.transitions))[1]
    j1, j2 = join(b1, context), join(b2, context)
    names = j1.names | j2.names

    candidates = []
    if not fin.equal:  # else no finite word is accepted by just one of them
        for first, second in ((b1, b2), (b2, b1)):
            w = shortest_accept_difference(first, second)
            if w is not None:
                candidates.append(Lasso(tuple(w.symbols), (loop_letter,), names))
    if not buc.equal and buc.witness is not None:
        candidates.append(
            Lasso(tuple(buc.witness.prefix), tuple(buc.witness.period), names)
        )
    for lasso in candidates:
        if accepts_lasso(j1, lasso) != accepts_lasso(j2, lasso):
            return context, lasso
    direct = buchi_equiv(j1, j2)
    if not direct.equal and direct.witness is not None:
        return context, direct.witness
    return None


def _trial_inputs(rel: str, params: GenParams, t: int) -> tuple:
    """The machines a, b and c of trial ``t`` of ``fuzz_congruence``: a
    random machine, its verified mate under ``rel`` and a random context.
    Trial 0 of the lasso relation is the built-in counterexample."""
    if rel == "b" and t == 0:
        a, b = parity_bars()
        return a, b, distinguishing_context(a.names, b.names, a.data)
    kind = "lts" if rel in ("ft", "it") else "bar"
    master = random.Random(f"fuzz:{rel}:{params.seed}:{t}")
    a = random_machine(replace(params, seed=master.getrandbits(64)), kind)
    b = language_preserving_mutate(a, master.getrandbits(64), rel)
    roll = master.random()
    if roll < 1 / 3:
        context_names = frozenset({f"cx{master.getrandbits(8) % 2}"})
    elif roll < 2 / 3:
        context_names = params.name_pool
    else:
        context_names = frozenset({min(params.name_pool), "cx0"})
    c = random_machine(
        replace(params, seed=master.getrandbits(64), name_pool=context_names), kind
    )
    return a, b, c


def fuzz_congruence(rel: str, params: GenParams, trials: int) -> FuzzReport:
    """Randomized congruence checking for one relation.

    Each trial builds (a, b = verified equivalent mate, c = random context)
    and runs check_instance.  For the lasso relation the first trial is the
    built-in counterexample, so expected violations surface deterministically.
    The infinite-trace relation forces trapless generation, matching its
    precondition; whether the joins acquire traps is recorded as an
    observation, not assumed either way.
    """
    if rel not in RELATIONS:
        raise TsrError(f"unknown relation {rel!r}")
    if trials < 0:
        raise TsrError("trials must be non-negative")
    if rel == "it":
        params = replace(params, trapless=True)
    passed = vacuous = failed = 0
    failures = []
    join_traps = 0
    for t in range(trials):
        a, b, c = _trial_inputs(rel, params, t)
        try:
            instance = check_instance(rel, a, b, c)
        except SizeBoundError:
            # The joined machines' profile monoid outgrew its bound; the
            # trial produced no evidence either way.
            vacuous += 1
            continue
        if rel == "it":
            join_traps += sum(1 for j in instance.joins if trap_states(j))
        if not instance.premise_holds:
            vacuous += 1
        elif instance.conclusion_holds:
            passed += 1
        else:
            failed += 1
            failures.append(instance)
    return FuzzReport(
        relation=rel,
        trials=trials,
        passed=passed,
        vacuous=vacuous,
        failed=failed,
        failures=tuple(failures),
        join_traps_observed=join_traps,
    )
