"""Per-layer metrics of the traced run, and what each is predicted to move.

``per_layer_metrics`` turns the tracer's per-function counters into the named
metrics reported by ``--trace 1``.  ``LAYER_TABLE`` records, before any
optimisation is measured, which end-to-end metric each group of layer
metrics should move, on which workloads, and where it should stay flat.
"""

from __future__ import annotations

# (layer metrics, end-to-end metrics they move, moved on, predicted flat on)
LAYER_TABLE = (
    (
        "records.check_token.calls records.comp.calls records.union.calls records.self_s",
        "ops_per_s op_ms_p50", "fuzz-small cli-files", "complement",
    ),
    (
        "join.calls join.self_s join.states_out join.transitions_out",
        "ops_per_s; op_ms_p90 on fuzz-b (join size feeds the monoid)",
        "fuzz-small fuzz-b", "complement",
    ),
    (
        "automata.degeneralize.self_s automata.degeneralize.states_out",
        "op_ms_p90 op_ms_max failed_ratio", "fuzz-b", "fuzz-small",
    ),
    (
        "automata.validate.self_s automata.lasso_accept.self_s",
        "op_ms_p50", "cli-files", "complement",
    ),
    (
        "languages.finite_equiv.{calls,self_s} languages.infinite_traceable_equiv.{calls,self_s}",
        "ops_per_s op_ms_p50", "fuzz-small cli-files", "complement",
    ),
    (
        "languages.buchi_equiv.{calls,self_s,refused}",
        "op_ms_p90 op_ms_max failed_ratio decided_in_limit_ratio",
        "fuzz-b", "fuzz-small cli-files",
    ),
    (
        "languages.buchi_complement.{self_s,states_out,live_state_ratio} "
        "languages.accepting_loop_states.self_s languages.buchi_intersect.{self_s,states_out} "
        "languages.buchi_empty.self_s",
        "ops_per_s op_ms_max peak_rss_mb", "complement", "fuzz-small fuzz-b cli-files",
    ),
    (
        "congruence.random_machine.self_s congruence.language_preserving_mutate.self_s "
        "congruence.check_instance.self_s",
        "ops_per_s setup_s", "fuzz-small", "complement cli-files",
    ),
    (
        "serialize.load.self_s serialize.dump.self_s serialize.bytes_out",
        "op_ms_p50 ops_per_s", "cli-files", "fuzz-small fuzz-b complement",
    ),
    ("cli.self_s cli.main.self_s", "op_ms_p50", "cli-files", "fuzz-small fuzz-b complement"),
)

# Groups of functions reported under one name.
SERIALIZE_LOAD = ("load_json", "load_machine", "machine_from_json", "record_from_json",
                  "word_from_json", "lasso_from_json")
SERIALIZE_DUMP = ("dumps_canonical", "machine_to_json", "record_to_json", "word_to_json",
                  "lasso_to_json", "witness_to_json", "verdict_to_json",
                  "instance_to_json", "report_to_json")

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("records.check_token.calls", "count"),
    ("records.comp.calls", "count"),
    ("records.union.calls", "count"),
    ("records.self_s", "s"),
    ("join.calls", "count"),
    ("join.self_s", "s"),
    ("join.states_out", "count"),
    ("join.transitions_out", "count"),
    ("automata.self_s", "s"),
    ("automata.degeneralize.self_s", "s"),
    ("automata.degeneralize.states_out", "count"),
    ("automata.validate.self_s", "s"),
    ("automata.lasso_accept.self_s", "s"),
    ("languages.self_s", "s"),
    ("languages.finite_equiv.calls", "count"),
    ("languages.finite_equiv.self_s", "s"),
    ("languages.infinite_traceable_equiv.calls", "count"),
    ("languages.infinite_traceable_equiv.self_s", "s"),
    ("languages.buchi_equiv.calls", "count"),
    ("languages.buchi_equiv.self_s", "s"),
    ("languages.buchi_equiv.refused", "count"),
    ("languages.buchi_complement.self_s", "s"),
    ("languages.buchi_complement.states_out", "count"),
    ("languages.buchi_complement.live_state_ratio", "ratio"),
    ("languages.accepting_loop_states.self_s", "s"),
    ("languages.buchi_intersect.self_s", "s"),
    ("languages.buchi_intersect.states_out", "count"),
    ("languages.buchi_empty.self_s", "s"),
    ("congruence.self_s", "s"),
    ("congruence.random_machine.self_s", "s"),
    ("congruence.language_preserving_mutate.self_s", "s"),
    ("congruence.check_instance.self_s", "s"),
    ("serialize.load.self_s", "s"),
    ("serialize.dump.self_s", "s"),
    ("serialize.bytes_out", "count"),
    ("cli.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _sum(stats, keys, counter):
    return sum(stats.get(key, {}).get(counter, 0.0) for key in keys)


def per_layer_metrics(stats, live_states, complement_states):
    """Named layer metrics for one traced pass.

    ``stats`` maps "module.function" to its counters.  The live-state counts
    come from the complement workload's checks, which walk each returned
    complement once; elsewhere they are zero.
    """
    def module_total(layer, counter):
        prefix = layer + "."
        return sum((v.get(counter, 0.0) for k, v in stats.items() if k.startswith(prefix)), 0.0)

    def fn(key, counter):
        return stats.get(key, {}).get(counter, 0.0)

    joins = ("join.join", "join.join_lts")
    out = {
        "join.calls": _sum(stats, joins, "calls"),
        "join.states_out": _sum(stats, joins, "states_out"),
        "join.transitions_out": _sum(stats, joins, "transitions_out"),
        "automata.lasso_accept.self_s": _sum(
            stats, ("automata.accepts_lasso", "automata.gba_accepts_lasso"), "self_s"),
        "languages.buchi_complement.live_state_ratio":
            live_states / complement_states if complement_states else 0.0,
        "serialize.load.self_s": _sum(
            stats, tuple(f"serialize.{n}" for n in SERIALIZE_LOAD), "self_s"),
        "serialize.dump.self_s": _sum(
            stats, tuple(f"serialize.{n}" for n in SERIALIZE_DUMP), "self_s"),
        "serialize.bytes_out": fn("serialize.dumps_canonical", "bytes_out"),
    }
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_ratio":
            continue
        head, _, counter = name.rpartition(".")
        if "." in head:
            out[name] = fn(head, counter)
        else:
            out[name] = module_total(head, counter)
    return out
