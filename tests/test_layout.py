"""Source layout: every module-level private name of the library is used,
no module of the library or the tests imports a name it never reads, the
library never reads ``base``, no private function takes a parameter that
every caller sets to the same literal, of the language decisions only
complementation enumerates the alphabet, the joins and the language
decisions read a machine's edges, initial states and final sets through its
id table, only the period products and the intersection read the table's
tuple rows, only the join builders hand a table to ``_indexed``'s memo,
only graphs with no id table are explored with ``_explore``, only the
monoid closure steps profiles by letters, only ``_index``, ``_kept``, the
join and the degeneralization build a table, only ``_cycles`` and
``strongly_connected_components`` split a graph into components with
``_sccs``, only the pair search and ``buchi_equiv``'s prefix scan walk
``_subset_pairs``, only ``_accepts`` and ``accepting_loop_states`` read
``_loop_ids``, no decision reads ``base_of``, and ``congruence.py`` reads
none of the decision layer's searches and views (``_pair_search``,
``_plain``, ``_indexed``, ``_union_names``)."""

import argparse
import ast
from pathlib import Path

import tsr
from tsr import cli

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tsr"


def _defined(stmt) -> list:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt) -> set:
    """The names a statement reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _statements(src: Path):
    """Each top-level statement of the package, with its module's file name."""
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.name, stmt


def _unread(src: Path, wanted) -> list:
    """Module-level names for which ``wanted`` holds that no statement of
    the package reads outside the one defining them.  Imports do not count
    as reads, so a name only imported somewhere is still reported."""
    statements = [(module, stmt, _referenced(stmt)) for module, stmt in _statements(src)]
    out = []
    for module, stmt, _ in statements:
        for name in _defined(stmt):
            if not wanted(name):
                continue
            if not any(name in refs for _, other, refs in statements if other is not stmt):
                out.append(f"{module}:{stmt.lineno} {name}")
    return out


def unreferenced_private_names(src: Path) -> list:
    """Module-level private names (dunders excepted) that nothing reads."""
    return _unread(src, lambda name: name.startswith("_") and not name.startswith("__"))


def unexported_public_names(src: Path, exported) -> list:
    """Module-level public names that are not in ``exported`` and that
    nothing reads: library code that only tests or outside tools call."""
    return _unread(src, lambda name: not name.startswith("_") and name not in exported)


def _off_table(node: ast.Attribute) -> bool:
    """Whether an attribute is read off an id table: off a name that starts
    with ``table``, or off a call of ``_indexed``."""
    obj = node.value
    if isinstance(obj, ast.Call):
        return isinstance(obj.func, ast.Name) and obj.func.id == "_indexed"
    return isinstance(obj, ast.Name) and obj.id.startswith("table")


def readers_in(path: Path, name: str, attribute: bool = False) -> list:
    """The top-level statements of one module that read ``name``, each by
    the first name it defines, or by its line when it defines none.  With
    ``attribute``, only reads of ``name`` as an attribute of a machine, such
    as ``m.transitions``, count; reads off an id table, such as
    ``table.initial``, do not."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if attribute:
        reads = lambda stmt: any(
            isinstance(node, ast.Attribute) and node.attr == name and not _off_table(node)
            for node in ast.walk(stmt)
        )
    else:
        reads = lambda stmt: name in _referenced(stmt)
    return [(_defined(stmt) or [f"line {stmt.lineno}"])[0] for stmt in tree.body if reads(stmt)]


def _holders(src: Path, holds) -> list:
    """The top-level statements of the package for which ``holds`` is true,
    each by the first name it defines, or by its line when it defines none."""
    return [
        (_defined(stmt) or [f"line {stmt.lineno}"])[0] for _, stmt in _statements(src) if holds(stmt)
    ]


def attribute_readers(src: Path, name: str) -> list:
    """The top-level statements of the package that read ``name`` as an
    attribute of anything."""
    return _holders(src, lambda stmt: any(
        isinstance(node, ast.Attribute) and node.attr == name for node in ast.walk(stmt)
    ))


def name_readers(src: Path, name: str) -> list:
    """The top-level statements of the package that read ``name``, as a
    bare name or as an attribute; importing it does not count."""
    return _holders(src, lambda stmt: name in _referenced(stmt))


def callers(src: Path, name: str) -> list:
    """The top-level statements of the package that call ``name`` by its
    bare name."""
    return _holders(src, lambda stmt: any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        for node in ast.walk(stmt)
    ))


def _passed_literal(call, param, position):
    """The source of the literal ``call`` passes as ``param``, by keyword or
    at ``position`` (None for a keyword-only parameter); None when it passes
    something else or nothing that can be seen."""
    given = {k.arg: k.value for k in call.keywords if k.arg is not None}
    if param in given:
        node = given[param]
    elif position is not None and position < len(call.args):
        if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
            return None
        node = call.args[position]
    else:
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def constant_arguments(src: Path) -> list:
    """Parameters of module-level private functions that every call in the
    package passes as the same literal, by position or by keyword.  A
    function that is never called, or that is read other than by calling
    it, is skipped: its callers cannot all be seen."""
    statements = list(_statements(src))
    functions = {
        stmt.name: (module, stmt)
        for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    }
    nodes = [node for _, stmt in statements for node in ast.walk(stmt)]
    calls = {name: [] for name in functions}
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in calls:
            calls[node.func.id].append(node)
    callees = {id(call.func) for found in calls.values() for call in found}
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in calls and id(node) not in callees:
            calls[node.id] = []
    out = []
    for name, (module, stmt) in functions.items():
        positional = [a.arg for a in stmt.args.posonlyargs + stmt.args.args]
        for position, param in enumerate(positional + [a.arg for a in stmt.args.kwonlyargs]):
            if position >= len(positional):
                position = None
            passed = {_passed_literal(call, param, position) for call in calls[name]}
            if len(passed) == 1 and None not in passed:
                out.append(f"{module}:{stmt.lineno} {name}({param}={passed.pop()})")
    return out


def unused_imports(paths) -> list:
    """The names each file imports but never reads.  A name listed in
    ``__all__`` counts as read; ``from __future__`` imports are skipped."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if "__all__" in _defined(stmt):
                read |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
        out += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    return out


def test_every_private_module_name_is_referenced():
    assert unreferenced_private_names(SRC) == []


def test_a_leftover_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _leftover():\n    return _leftover()\n\n\n"
        "_TABLE = {}\n\n\n"
        "def public():\n    return _used() + len(_TABLE)\n"
    )
    (tmp_path / "b.py").write_text("from .a import _leftover\n")
    assert unreferenced_private_names(tmp_path) == ["a.py:5 _leftover"]


def dispatched_commands() -> set:
    """``cmd_<name>`` for each subcommand of the CLI's parser: ``cli.main``
    looks these up by name, so no statement reads them."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {f"cmd_{name}" for name in sub.choices}


def test_every_public_module_name_is_exported_or_read():
    # perfbench counts live complement states with strongly_connected_components;
    # it moves to tests/helpers.py once the benchmark stops calling it.
    exempt = set(tsr.__all__) | {"strongly_connected_components"} | dispatched_commands()
    assert unexported_public_names(SRC, exempt) == []


def test_an_unexported_unread_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n\n"
        "def exported():\n    return helper() + LIMIT\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def leftover():\n    return leftover()\n"
    )
    (tmp_path / "b.py").write_text("from .a import leftover\n")
    assert unexported_public_names(tmp_path, {"exported"}) == ["a.py:12 leftover"]


def test_no_library_statement_reads_base():
    # Bar.base is kept only for perfbench, which reads it; the library reads
    # machine fields directly and forgets acceptance with _plain, so the
    # alias can go once the benchmark stops reading it.
    assert name_readers(SRC, "base") == []


def test_a_read_of_base_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Bar:\n    base = property(lambda self: self)\n\n\n"
        "def states(m):\n    return m.base.states\n"
    )
    assert name_readers(tmp_path, "base") == ["states"]


def test_only_complementation_enumerates_the_alphabet():
    # Comparisons step on the labels that occur in the machines; only the
    # complement needs an edge on every letter.
    assert readers_in(SRC / "languages.py", "enumerate_alphabet") == ["buchi_complement"]


def test_a_stray_enumeration_is_reported(tmp_path):
    path = tmp_path / "languages.py"
    path.write_text(
        "from .records import enumerate_alphabet\n\n\n"
        "def buchi_complement(b):\n    return enumerate_alphabet(b.names, b.data)\n\n\n"
        "def _union_letters(x1, x2):\n    return records.enumerate_alphabet(x1.names, x1.data)\n\n\n"
        "def finite_equiv(x1, x2):\n    return _union_letters(x1, x2)\n\n\n"
        "print(enumerate_alphabet(['A'], ['0']))\n"
    )
    assert readers_in(path, "enumerate_alphabet") == ["buchi_complement", "_union_letters", "line 16"]


def test_walks_read_edges_and_final_sets_through_the_id_table():
    # _index is the one place that turns a machine's transitions and final
    # sets into ids, and finite_targets is the set form of the table's targets.
    assert readers_in(SRC / "join.py", "transitions", attribute=True) == []
    assert readers_in(SRC / "languages.py", "transitions", attribute=True) == []
    readers = [r for path in sorted(SRC.glob("*.py")) for r in readers_in(path, "_final_sets")]
    assert sorted(readers) == ["_index", "finite_targets"]


def test_walks_start_from_the_id_table():
    # Every walk starts from the table's initial mask, and trap_states and
    # degeneralize read the table's masks and moves; in automata.py only
    # validation, base_of, _index and the two edge filters read a machine's
    # edges.
    for module in ("join.py", "languages.py"):
        assert readers_in(SRC / module, "initial", attribute=True) == []
    assert readers_in(SRC / "automata.py", "transitions", attribute=True) == [
        "base_of",
        "validate",
        "_index",
        "without_invisible_edges",
        "with_idle_loops",
    ]


def test_a_stray_read_of_initial_states_is_reported(tmp_path):
    path = tmp_path / "languages.py"
    path.write_text(
        "def _pair_search(x1, x2):\n"
        "    table1, table2 = _indexed(x1), _indexed(x2)\n"
        "    return (table1.initial, _indexed(x2).initial)\n\n\n"
        "def _reachable(b):\n    table = _indexed(b)\n    return [q for q in b.initial]\n\n\n"
        "def trap_states(m):\n    t = _indexed(m)\n    return t.initial, m.transitions\n\n\n"
        "START = machine.initial\n"
    )
    assert readers_in(path, "initial", attribute=True) == ["_reachable", "trap_states", "START"]
    assert readers_in(path, "transitions", attribute=True) == ["trap_states"]


def test_a_stray_read_of_edges_or_final_sets_is_reported(tmp_path):
    path = tmp_path / "join.py"
    path.write_text(
        "def _joined_base(m1, m2):\n"
        "    transitions = set()\n    return Ltsr(transitions=frozenset(transitions))\n\n\n"
        "def _moves_by_label(m):\n    return [(p, q) for p, _, q in m.transitions]\n\n\n"
        "def _finals(m):\n    return _final_sets(m)\n\n\n"
        "EDGES = len(machine.transitions)\n"
    )
    assert readers_in(path, "transitions", attribute=True) == ["_moves_by_label", "EDGES"]
    assert readers_in(path, "transitions") == ["_joined_base", "_moves_by_label", "EDGES"]
    assert readers_in(path, "_final_sets") == ["_finals"]


def test_only_period_products_and_the_intersection_read_the_tables_tuple_rows():
    # Walks step on the masks; degeneralize shifts mask rows into its copies.
    # The period product and the intersection's edge lists read succ's tuples.
    assert attribute_readers(SRC, "succ") == ["_loop_ids", "buchi_intersect"]


def test_a_stray_read_of_tuple_rows_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _loop_ids(table):\n    return table.succ\n\n\n"
        "def _sccs(succ):\n    return len(succ)\n\n\n"
        "def _degeneralized(t):\n    return _indexed(t).succ.items()\n"
    )
    (tmp_path / "b.py").write_text("ROWS = table.succ\n")
    assert attribute_readers(tmp_path, "succ") == ["_loop_ids", "_degeneralized", "ROWS"]


def test_only_the_monoid_closure_steps_profiles():
    # One breadth-first search builds the profile monoid and records its
    # Cayley graph; equivalence and complementation both read that search.
    assert attribute_readers(SRC, "successors") == ["_joint_closure"]


def test_a_second_monoid_search_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class _ProfileSpace:\n    def successors(self, a, letters):\n        return [a]\n\n\n"
        "def _joint_closure(spaces, letters):\n"
        "    return [s.successors(s.unit, letters) for s in spaces]\n\n\n"
        "def buchi_complement(space, letters):\n    return space.successors(space.unit, letters)\n"
    )
    (tmp_path / "b.py").write_text("STEP = _ProfileSpace.successors\n")
    assert attribute_readers(tmp_path, "successors") == ["_joint_closure", "buchi_complement", "STEP"]


def test_only_discovered_graphs_are_explored():
    # A machine's own graph is its id table; _explore discovers the graphs
    # that have none yet: the complement, the intersection and the graph
    # handed to strongly_connected_components.
    assert sorted(name_readers(SRC, "_explore")) == [
        "buchi_complement",
        "buchi_intersect",
        "strongly_connected_components",
    ]


def test_a_stray_exploration_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _explore(roots, edges):\n    return roots\n\n\n"
        "def buchi_intersect(b1, b2):\n    return _explore([b1], b2)\n\n\n"
        "def _explore_twice(x):\n    return x\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _explore\n\n\n"
        "def buchi_empty(b):\n    table = _indexed(b)\n    return _explore, table\n\n\n"
        "WALK = automata._explore\n"
    )
    assert name_readers(tmp_path, "_explore") == ["buchi_intersect", "buchi_empty", "WALK"]


def test_only_cycles_and_the_public_wrapper_split_components():
    # Lasso emptiness, liveness and the copy-one finals of degeneralization
    # ask only which components hold a cycle, and _cycles answers that;
    # strongly_connected_components hands every component out.
    assert sorted(name_readers(SRC, "_sccs")) == ["_cycles", "strongly_connected_components"]


def test_a_stray_component_split_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _sccs(succ, roots=None):\n    return [list(succ)]\n\n\n"
        "def _cycles(succ, roots=None):\n    return [c for c in _sccs(succ, roots) if c[1:]]\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _cycles, _sccs\n\n\n"
        "def buchi_empty(b):\n    return [v for scc in _sccs(b) for v in scc], _cycles\n\n\n"
        "SPLIT = automata._sccs\n"
    )
    assert name_readers(tmp_path, "_sccs") == ["_cycles", "buchi_empty", "SPLIT"]


def test_only_the_pair_search_and_the_prefix_scan_walk_subset_pairs():
    # ft, f and it decide through _pair_search on views of the machines'
    # tables; buchi_equiv pairs its idempotents with the same walk's pairs.
    assert sorted(name_readers(SRC, "_subset_pairs")) == ["_pair_search", "buchi_equiv"]


def test_a_second_subset_walk_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _subset_pairs(table1, table2, letters):\n    yield (table1, table2), ()\n\n\n"
        "def _pair_search(t1, t2, stop):\n    return next(_subset_pairs(t1, t2, []))\n\n\n"
        "def infinite_traceable_equiv(m1, m2):\n    return list(_subset_pairs(m1, m2, []))\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _subset_pairs\n\n\nWALK = languages._subset_pairs\n"
    )
    found = name_readers(tmp_path, "_subset_pairs")
    assert found == ["_pair_search", "infinite_traceable_equiv", "WALK"]


def test_only_the_membership_reader_and_the_batched_loop_states_read_period_products():
    # Every test of whether a machine accepts a lasso goes through _accepts,
    # which builds no product for a dead prefix; accepting_loop_states hands
    # the product's answer out for many prefixes at once.
    assert sorted(name_readers(SRC, "_loop_ids")) == ["_accepts", "accepting_loop_states"]


def test_a_second_lasso_reader_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _loop_ids(table, period):\n    return 0\n\n\n"
        "def _accepts(table, w):\n    return _loop_ids(table, w.period)\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _loop_ids\n\n\n"
        "def componentwise_lasso_traceable(l, table):\n"
        "    return _read(table, l.prefix) & _loop_ids(table, l.period)\n\n\n"
        "READ = _loop_ids\n"
    )
    found = name_readers(tmp_path, "_loop_ids")
    assert found == ["_accepts", "componentwise_lasso_traceable", "READ"]


def test_no_decision_reads_base_of():
    # A decision forgets acceptance with _plain, a view of the machine's own
    # table; base_of builds a machine that would be indexed again.
    for module in ("congruence.py", "languages.py"):
        assert readers_in(SRC / module, "base_of") == []


def test_a_decision_reading_base_of_is_reported(tmp_path):
    path = tmp_path / "languages.py"
    path.write_text(
        "from .automata import base_of\n\n\n"
        "def finite_equiv(x1, x2):\n    return _pair_search(_plain(_indexed(x1)), x2)\n\n\n"
        "def relation_equiv(rel, a, b):\n    return finite_equiv(*map(base_of, (a, b)))\n\n\n"
        "PLAIN = automata.base_of\n"
    )
    assert readers_in(path, "base_of") == ["relation_equiv", "PLAIN"]


def test_congruence_decides_through_the_public_decisions():
    # relation_equiv calls finite_trace_equiv, finite_equiv,
    # infinite_traceable_equiv and buchi_equiv by name, so the decision
    # layer's searches and views stay inside languages.py.
    for name in ("_pair_search", "_plain", "_indexed", "_union_names"):
        assert readers_in(SRC / "congruence.py", name) == []


def test_a_search_inside_congruence_is_reported(tmp_path):
    path = tmp_path / "congruence.py"
    path.write_text(
        "from .languages import _pair_search, _union_names, finite_equiv\n\n\n"
        "def relation_equiv(rel, a, b):\n    return finite_equiv(a, b)\n\n\n"
        "def _ft(a, b):\n    return _pair_search(_plain(_indexed(a)), _union_names(a, b))\n\n\n"
        "SEARCH = languages._pair_search\n"
    )
    found = {name: readers_in(path, name) for name in ("_pair_search", "_plain", "_union_names")}
    assert found == {"_pair_search": ["_ft", "SEARCH"], "_plain": ["_ft"], "_union_names": ["_ft"]}


def test_tables_are_built_only_by_indexing_cutting_joining_and_degeneralizing():
    # Any other table is one of these cut down or renumbered by _kept, or
    # _plain's view of one with every state final, which a plain join keeps.
    assert sorted(callers(SRC, "_Table")) == [
        "_degeneralized",
        "_index",
        "_joined_table",
        "_kept",
        "_plain",
    ]


def test_a_stray_table_build_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class _Table:\n    pass\n\n\n"
        "def _kept(table: _Table, kept) -> _Table:\n    return _Table()\n\n\n"
        "def _reachable(table: _Table) -> _Table:\n    return _kept(table, [])\n"
    )
    (tmp_path / "b.py").write_text(
        "def _productive(table):\n    return _Table(table.order, 0, {}, ())\n\n\n"
        "EMPTY = _Table([], 0, {}, (0,))\n"
    )
    assert callers(tmp_path, "_Table") == ["_kept", "_productive", "EMPTY"]


def test_only_the_join_builders_hand_a_table_to_the_memo():
    # A kept table must be the one _index would build from the machine, which
    # test_joined_table_is_the_id_table_of_the_named_join checks for joins.
    # Every join builder names its machine through _named, which keeps it;
    # _indexed keeps the tables it builds.
    readers = {path.name: readers_in(path, "_remember") for path in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in readers.items() if r} == {
        "automata.py": ["_indexed", "_named"]
    }


def test_no_private_function_takes_a_constant_argument():
    assert constant_arguments(SRC) == []


def test_a_constant_argument_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _walk(rows, start, limit=None):\n    return rows[start:limit]\n\n\n"
        "def _sorted(xs, key):\n    return sorted(xs, key=key)\n\n\n"
        "def _unused(flag):\n    return flag\n\n\n"
        "def _spread(a, b):\n    return a + b\n\n\n"
        "def _passed(x):\n    return x\n\n\n"
        "def first(rows):\n    return _walk(rows, 0, limit=-1) + _sorted(rows, None)\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _passed, _spread, _walk\n\n\n"
        "def last(rows, n):\n"
        "    return _walk(rows, 0, -1) + _walk(rows, start=0, limit=-1) + _spread(*rows)\n\n\n"
        "def keys(rows):\n    return _sorted(rows, key=len) + _passed(1) + list(map(_passed, rows))\n"
    )
    assert constant_arguments(tmp_path) == ["a.py:1 _walk(start=0)", "a.py:1 _walk(limit=-1)"]


def test_every_import_is_read():
    assert unused_imports(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))) == []


def test_an_unused_import_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from .b import exported\n\n"
        "__all__ = [\"exported\"]\n\n\n"
        "def f():\n    return parse(os.path.sep)\n"
    )
    assert unused_imports([tmp_path / "a.py"]) == ["a.py:3 dumps"]
