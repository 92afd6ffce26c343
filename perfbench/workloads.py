"""The four workloads: their inputs, their op, and the checks on every op.

Each workload builds a catalogue of op inputs from the benchmark seed during
set-up, then runs it in whole passes.  ``run`` is the timed op.  ``check``
runs untimed after every op and raises ``WrongResult`` on a wrong verdict;
the first time an item runs it gets the full check, and every later pass must
reproduce the first pass's outcome exactly.

All library calls go through module attributes (``lib.languages.buchi_equiv``
and so on) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import replace
from itertools import product


class WrongResult(Exception):
    """The library returned a wrong verdict or an output that does not check."""


def _require(condition, message):
    if not condition:
        raise WrongResult(message)


# ---------------------------------------------------------------------------
# The fuzz trial recipe, as tsr.congruence.fuzz_congruence runs it


def trial_inputs(lib, rel, seed, t):
    """The (left, right, context) machines of trial ``t`` of fuzz_congruence."""
    cong = lib.congruence
    params = cong.GenParams(seed=seed)
    if rel == "it":
        params = replace(params, trapless=True)
    kind = "lts" if rel in ("ft", "it") else "bar"
    master = random.Random(f"fuzz:{rel}:{params.seed}:{t}")
    if rel == "b" and t == 0:
        a, b = cong.parity_bars()
        return a, b, lib.join.distinguishing_context(a.names, b.names, a.data)
    a = cong.random_machine(replace(params, seed=master.getrandbits(64)), kind)
    b = cong.language_preserving_mutate(a, master.getrandbits(64), rel)
    roll = master.random()
    if roll < 1 / 3:
        context_names = frozenset({f"cx{master.getrandbits(8) % 2}"})
    elif roll < 2 / 3:
        context_names = params.name_pool
    else:
        context_names = frozenset({min(params.name_pool), "cx0"})
    c = cong.random_machine(
        replace(params, seed=master.getrandbits(64), name_pool=context_names), kind
    )
    return a, b, c


def run_trial(lib, rel, seed, t):
    a, b, c = trial_inputs(lib, rel, seed, t)
    return lib.congruence.check_instance(rel, a, b, c)


def trial_outcome(instance):
    """"passed", "vacuous" or "failed", as fuzz_congruence counts a trial."""
    if not instance.premise_holds:
        return "vacuous"
    return "passed" if instance.conclusion_holds else "failed"


def _repeat_check(state, key, outcome):
    """True on an item's first run; later passes must reproduce its outcome."""
    if key not in state:
        state[key] = outcome
        return True
    _require(state[key] == outcome, f"{key}: outcome {outcome!r} differs from the first pass")
    return False


# ---------------------------------------------------------------------------


class FuzzSmall:
    name = "fuzz-small"
    trials = 1500
    relations = ("ft", "f", "it")

    def setup(self, lib, seed, workdir):
        return [(self.relations[i % 3], seed, i // 3) for i in range(self.trials)]

    def run(self, lib, item):
        return run_trial(lib, *item)

    def check(self, lib, item, result, error, state):
        _require(error is None, f"trial {item} raised {error!r}")
        outcome = trial_outcome(result)
        _require(outcome != "failed", f"congruence failure for relation {item[0]} at {item}")
        _repeat_check(state, item, outcome)

    def summary(self, state):
        return dict(Counter(f"{item[0]} {outcome}" for item, outcome in state.items()))


class FuzzB:
    name = "fuzz-b"
    # The cost of a b trial is heavy-tailed: over 60 s, fuzz seed 1 ran 168
    # trials and seed 2 ran 119, with worst trials of 10 s and 18 s.  No
    # seed-drawn sample that fits in one run is steady, so the catalogue is
    # fixed and does not depend on the benchmark seed.  The first 16 trials
    # of fuzz seeds 1-3 hold the three parity counterexamples, a monoid-bound
    # refusal (seed 3, trial 10) and trials of 0.5 to 2.3 s.
    fuzz_seeds = (1, 2, 3)
    trials = 16

    def setup(self, lib, seed, workdir):
        return [("b", s, t) for s in self.fuzz_seeds for t in range(self.trials)]

    def run(self, lib, item):
        return run_trial(lib, *item)

    def check(self, lib, item, result, error, state):
        if error is not None:
            _repeat_check(state, item, f"raised {type(error).__name__}")
            return
        outcome = trial_outcome(result)
        if not _repeat_check(state, item, outcome):
            return
        t = item[2]
        if t == 0:
            _require(outcome == "failed", f"trial {item} lost the parity counterexample")
            left = lib.join.join(result.left, result.context)
            right = lib.join.join(result.right, result.context)
            accepts = lib.automata.gba_accepts_lasso
        elif outcome == "failed":
            left = lib.join.join_bar_flat(result.left, result.context)
            right = lib.join.join_bar_flat(result.right, result.context)
            accepts = lib.automata.accepts_lasso
        else:
            return
        w = result.witness
        _require(w is not None, f"failed trial {item} has no witness")
        _require(accepts(left, w) != accepts(right, w), f"witness of {item} does not re-verify")

    def summary(self, state):
        return dict(Counter(state.values()))


class Complement:
    name = "complement"
    # C9's machine family.  The first twelve machines reach complements from
    # 4 to 11,100 states; the next ones reach 31,920, 49,896 and, at family
    # seed 27, 146,223 states and 2.7 GB, which no run here can afford.  As
    # for fuzz-b, a seed-drawn sample would not be steady, so the machines are
    # fixed; the benchmark seed picks the lassos that are also decided directly.
    family = range(12)
    names = frozenset({"A"})
    data = frozenset({"0", "1"})
    word_len = 2

    def setup(self, lib, seed, workdir):
        params = lib.congruence.GenParams(
            max_states=5, name_pool=self.names, data_pool=self.data
        )
        items = [(s, lib.congruence.random_machine(replace(params, seed=s), "bar"))
                 for s in self.family]
        letters = lib.records.enumerate_alphabet(self.names, self.data)
        self.words = [w for n in range(self.word_len + 1) for w in product(letters, repeat=n)]
        self.periods = [w for w in self.words if w]
        # A few lassos are also decided directly, as a check on the batch method.
        self.spot = random.Random(f"perfbench:complement-lassos:{seed}").sample(
            [(u, v) for u in self.words for v in self.periods], 3
        )
        self.live = {}
        return items

    def run(self, lib, item):
        langs = lib.languages
        b = item[1]
        c = langs.buchi_complement(b)
        empty = langs.buchi_empty(langs.buchi_intersect(b, c))
        loops_b = [langs.accepting_loop_states(b, p) for p in self.periods]
        loops_c = [langs.accepting_loop_states(c, p) for p in self.periods]
        return c, empty, loops_b, loops_c

    def check(self, lib, item, result, error, state):
        _require(error is None, f"machine {item[0]} raised {error!r}")
        c, empty, loops_b, loops_c = result
        digest = (len(c.base.states), len(c.base.transitions), empty is None,
                  tuple(map(len, loops_b)), tuple(map(len, loops_c)))
        if not _repeat_check(state, item[0], digest):
            return
        b = item[1]
        auto = lib.automata
        _require(empty is None, f"machine {item[0]}: machine and complement intersect")
        _require(auto.validate(c) == [], f"machine {item[0]}: complement does not validate")
        for u in self.words:
            word = lib.records.FiniteWord(u, self.names)
            in_b = auto.reach(b, b.base.initial, word)
            in_c = auto.reach(c, c.base.initial, word)
            for v, lb, lc in zip(self.periods, loops_b, loops_c):
                _require(bool(in_b & lb) != bool(in_c & lc),
                         f"machine {item[0]}: lasso {u}{v}^w in both or neither")
        for u, v in self.spot:
            lasso = lib.records.Lasso(u, v, self.names)
            _require(auto.accepts_lasso(b, lasso) != auto.accepts_lasso(c, lasso),
                     f"machine {item[0]}: lasso {u}{v}^w in both or neither")
        self.live[item[0]] = (live_state_count(lib, c), len(c.base.states))

    def summary(self, state):
        sizes = sorted(size for size, *_ in state.values())
        live = sum(v[0] for v in self.live.values()) / sum(v[1] for v in self.live.values())
        return {"machines": len(sizes), "complement_states_min": sizes[0],
                "complement_states_max": sizes[-1], "live_state_ratio": round(live, 4)}


def live_state_count(lib, m):
    """States from which some accepting cycle can be reached."""
    base = m.base
    succ = {}
    for src, _, dst in base.transitions:
        succ.setdefault(src, set()).add(dst)
    good = set()
    for scc in lib.automata.strongly_connected_components(
        sorted(base.states), lambda q: succ.get(q, ())
    ):
        members = set(scc)
        cyclic = len(scc) > 1 or scc[0] in succ.get(scc[0], ())
        if cyclic and members & m.final:
            good |= members
    preds = {}
    for src, dsts in succ.items():
        for dst in dsts:
            preds.setdefault(dst, []).append(src)
    frontier = list(good)
    while frontier:
        for p in preds.get(frontier.pop(), ()):
            if p not in good:
                good.add(p)
                frontier.append(p)
    return len(good)


# ---------------------------------------------------------------------------


class CliFiles:
    name = "cli-files"
    sets = 12
    states = 6
    density = 0.15
    names = ("A", "B")
    data = ("0", "1")

    def _machine(self, lib, rng, final):
        letters = lib.records.enumerate_alphabet(self.names, self.data)
        states = [f"s{i}" for i in range(self.states)]
        edges = {(p, r, q) for p in states for r in letters for q in states
                 if rng.random() < self.density}
        for p in states:  # trapless, so the it relation applies
            if not any(src == p for src, _, _ in edges):
                edges.add((p, rng.choice(letters), rng.choice(states)))
        initial = ["s0"]
        if final:
            chosen = [q for q in states if rng.random() < 0.4] or ["s0"]
            return lib.automata.Bar.make(states, self.names, self.data, edges, initial, chosen)
        return lib.automata.Ltsr.make(states, self.names, self.data, edges, initial)

    def _perturbed(self, lib, rng, m):
        # Move one transition to another target: usually changes every language.
        base = m.base if hasattr(m, "base") else m
        src, label, dst = rng.choice(sorted(base.transitions, key=repr))
        moved = (src, label, rng.choice(sorted(base.states - {dst})))
        transitions = (base.transitions - {(src, label, dst)}) | {moved}
        if hasattr(m, "base"):
            return lib.automata.Bar.make(base.states, base.names, base.data, transitions,
                                         base.initial, m.final)
        return lib.automata.Ltsr.make(base.states, base.names, base.data, transitions,
                                      base.initial)

    def setup(self, lib, seed, workdir):
        ser = lib.serialize
        rng = random.Random(f"perfbench:cli-files:{seed}")
        letters = lib.records.enumerate_alphabet(self.names, self.data)
        items = []
        self.workdir = workdir

        def write(name, obj):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(ser.dumps_canonical(obj))
            return path

        for k in range(self.sets):
            la = self._machine(lib, rng, final=False)
            ba = self._machine(lib, rng, final=True)
            files = {
                "La": la,
                "Lb": lib.congruence.language_preserving_mutate(la, rng.getrandbits(32), "ft"),
                "Lc": self._perturbed(lib, rng, la),
                "Ba": ba,
                "Bb": lib.congruence.language_preserving_mutate(ba, rng.getrandbits(32), "f"),
                "Bc": self._perturbed(lib, rng, ba),
            }
            p = {key: write(f"{key}{k}.json", ser.machine_to_json(m)) for key, m in files.items()}
            word = [rng.choice(letters) for _ in range(4)]
            lasso = lib.records.Lasso(tuple(rng.choice(letters) for _ in range(2)),
                                      tuple(rng.choice(letters) for _ in range(2)),
                                      frozenset(self.names))
            p["w"] = write(f"w{k}.json", [ser.record_to_json(r) for r in word])
            p["l"] = write(f"l{k}.json", ser.lasso_to_json(lasso))
            flat = os.path.join(workdir, f"flat{k}.json")

            def equiv(rel, left, right):
                # The "b" machines are verified mates, expected equal.  The it
                # pairs are trapless, so a finite-trace difference is also an
                # infinite-trace difference.
                expect = (files[left], files[right], rel == "f", right.endswith("b"))
                return ("equiv", expect, ["equiv", "--relation", rel, p[left], p[right]])

            items += [
                ("validate", None, ["validate", p["Ba"]]),
                ("validate", None, ["validate", p["Lc"]]),
                ("join", None, ["join", p["La"], p["Lc"]]),
                ("join", None, ["join", p["Ba"], p["Bc"]]),
                ("join-o", flat, ["join", "--flatten", p["Ba"], p["Bc"], "-o", flat]),
                equiv("ft", "La", "Lb"),
                equiv("ft", "La", "Lc"),
                equiv("it", "La", "Lb"),
                equiv("it", "La", "Lc"),
                equiv("f", "Ba", "Bb"),
                equiv("f", "Ba", "Bc"),
                ("member", None, ["member", "--word", p["w"], p["Ba"]]),
                ("member", None, ["member", "--word", p["w"], p["La"]]),
                ("member", None, ["member", "--lasso", p["l"], p["Ba"]]),
            ]
        return items

    @staticmethod
    def _main(lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def run(self, lib, item):
        return self._main(lib, item[2])

    def check(self, lib, item, result, error, state):
        kind, extra, argv = item
        _require(error is None, f"{argv} raised {error!r}")
        code, stdout = result
        if kind == "join-o":
            with open(extra, encoding="utf-8") as handle:
                stdout = handle.read()
        if not _repeat_check(state, tuple(argv), (code, stdout)):
            return
        if kind == "validate":
            _require(code == 0 and stdout.startswith("valid "), f"{argv}: {code} {stdout!r}")
        elif kind in ("join", "join-o"):
            _require(code == 0, f"{argv} exited {code}")
            m = lib.serialize.machine_from_json(json.loads(stdout))
            _require(lib.automata.validate(m) == [], f"{argv}: output does not validate")
        elif kind == "equiv":
            verdict = json.loads(stdout)
            _require(code == (0 if verdict["equal"] else 1), f"{argv}: exit {code} vs {verdict}")
            left, right, accepting, mate = extra
            if mate:
                _require(verdict["equal"], f"{argv}: a verified mate was judged different")
            elif short_word_differs(left, right, accepting):
                _require(not verdict["equal"], f"{argv}: machines that differ were judged equal")
            if not verdict["equal"]:
                self._confirm_witness(lib, argv, verdict)
        else:
            _require((code, stdout) in ((0, "true\n"), (1, "false\n")),
                     f"{argv}: {code} {stdout!r}")

    def summary(self, state):
        return dict(Counter(f"{argv[0]} exit {code}" for argv, (code, _) in state.items()))

    def _confirm_witness(self, lib, argv, verdict):
        flag = "--word" if verdict["witness_kind"] == "finite" else "--lasso"
        path = os.path.join(self.workdir, "witness.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(verdict["witness"], handle)
        codes = [self._main(lib, ["member", flag, path, m])[0] for m in argv[-2:]]
        _require(sorted(codes) == [0, 1], f"{argv}: witness not accepted by exactly one side")


def short_word_differs(m1, m2, accepting, length=3):
    """Whether some word of at most ``length`` letters separates the machines.

    Traces when ``accepting`` is false, accepted words when it is true.  The
    walk reads the transition sets directly, sharing no code with the library.
    """
    def parts(m):
        base = getattr(m, "base", m)
        step = {}
        for src, label, dst in base.transitions:
            step.setdefault((src, label), set()).add(dst)
        return step, frozenset(base.initial), (m.final if accepting else base.states)

    (step1, init1, good1), (step2, init2, good2) = parts(m1), parts(m2)
    letters = {label for _, label in step1} | {label for _, label in step2}
    frontier = {(init1, init2)}
    for depth in range(length + 1):
        if any(bool(s1 & good1) != bool(s2 & good2) for s1, s2 in frontier):
            return True
        if depth < length:
            frontier = {
                (frozenset(d for q in s1 for d in step1.get((q, r), ())),
                 frozenset(d for q in s2 for d in step2.get((q, r), ())))
                for s1, s2 in frontier for r in letters
            }
    return False


WORKLOADS = {w.name: w for w in (FuzzSmall, FuzzB, Complement, CliFiles)}
