(** Rule-driven hash blocking over a pair of tuple arrays.

    The identity-rule well-formedness condition means every identity
    rule's predicates already imply attribute-value equality on the
    attributes they mention ({!Rules.Identity.blocking_key}); such a rule
    can only fire on tuple pairs with identical non-NULL values on those
    attributes. Instead of evaluating each rule on all |R|×|S| pairs,
    this module hash-partitions both sides on the rule's blocking key and
    evaluates the rule only within matching buckets — the standard
    blocking move of scalable entity-resolution systems. Rules that imply
    no equality (and rules whose blocking attributes are missing from a
    schema, which can then never fire) keep, respectively, the
    nested-loop fallback and a constant-time skip.

    The result is the {e set} of pairs on which some rule fires, byte-
    identical to what the nested loop computes, addressed by positional
    indices into the input arrays. *)

type pairset

(** [mem set i j] — did some rule fire on (r.(i), s.(j)), in either
    orientation? *)
val mem : pairset -> int -> int -> bool

val cardinality : pairset -> int

(** [row_lists set ~nr] — the fired pairs as an array of [nr] ascending
    [j]-index lists, one per [i]. Lets callers enumerate all pairs in
    row-major order against the set with integer comparisons instead of
    a hash lookup per pair. *)
val row_lists : pairset -> nr:int -> int list array

(** [min_conflict a b] — the row-major-minimal pair present in both
    pairsets, or [None] when they are disjoint. This is the pair on
    which a serial row-major scan would first see both an identity and
    a distinctness rule fire, so the parallel partition engine can
    reproduce the serial [Inconsistent] witness without scanning.
    @raise Invalid_argument if the pairsets index different S sides. *)
val min_conflict : pairset -> pairset -> (int * int) option

(** How to block and evaluate one rule kind. [applies] is tried in both
    orientations, as rules state symmetric facts about (e1, e2).
    [compile] is the schema-resolved form used in the probe loops; it
    must satisfy [compile rule s1 s2 t1 t2 = applies rule s1 t1 s2 t2]
    (see {!Rules.Identity.compile}). [equality_only] must return [true]
    only when the rule is a conjunction of same-attribute equalities
    ({!Rules.Identity.equality_only}) — its blocking buckets then
    {e cover} it: every co-bucketed pair fires, and the per-pair
    evaluation is skipped entirely. [rule_name] labels per-rule
    telemetry counters. *)
type 'rule spec = {
  rule_name : 'rule -> string;
  blocking_key : 'rule -> string list option;
  equality_only : 'rule -> bool;
  applies :
    'rule ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Value.truth;
  compile :
    'rule ->
    Relational.Schema.t ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Tuple.t ->
    Relational.Value.truth;
}

(** [fired ?jobs spec rules sr rt ss st] — all pairs some rule fires
    on. A rule with a usable blocking key probes hash buckets over its
    key columns; a rule with none falls back to a nested loop. With
    [jobs > 1] each rule's probe loop is chunked over R's rows on pool
    domains ({!Parallel.map_chunks}); newly fired pairs are accumulated
    privately per chunk and merged between scans, so the resulting set —
    a pure function of the inputs — is identical to the serial one.
    [jobs = 1] (the default) is the serial reference path.

    [telemetry] (default {!Telemetry.off}) records, under
    ["blocking.<label>"] (or plain ["blocking"] when [label] is empty):
    [.buckets] (hash buckets built, summed over keyed rules),
    [.candidates] (pairs actually proposed for evaluation — compare
    with |R|×|S|), [.fired] (final pairset cardinality), and
    [.rule.<name>.fired] per rule (pairs first recorded by that rule, in
    rule order). All of these are identical for every [jobs] value;
    chunk bodies accumulate into {!Telemetry.local}s merged at join. The
    execution-configuration counter [parallel.chunks] lives in the
    [parallel.*] namespace excluded from {!Telemetry.counters_stable}. *)
val fired :
  ?jobs:int ->
  ?telemetry:Telemetry.t ->
  ?label:string ->
  'rule spec ->
  'rule list ->
  Relational.Schema.t ->
  Relational.Tuple.t array ->
  Relational.Schema.t ->
  Relational.Tuple.t array ->
  pairset
