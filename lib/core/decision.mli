(** The entity-identification function: a three-valued decision for a
    tuple pair given identity and distinctness rules (Section 3.2).

    "true" only if some identity rule applies; "false" only if some
    distinctness rule applies; "unknown" otherwise. If both apply, the
    rule base is inconsistent with the consistency constraint — reported
    rather than silently resolved. *)

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;  (** the rule that fired, if any *)
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

(** The blocking index claimed both an identity and a distinctness rule
    fire on this pair, but re-running the decision function did not
    raise {!Inconsistent} — an engine-internal invariant breach (only
    reachable when the two are genuinely desynchronised, e.g. through
    {!partition}'s [decide] fault-injection hook). Carries the offending
    tuple pair as the witness, mirroring {!Ilfd.Apply.Conflict_found}. *)
exception Blocking_desync of {
  r_tuple : Relational.Tuple.t;
  s_tuple : Relational.Tuple.t;
}

(** [decide ~identity ~distinctness s1 t1 s2 t2].
    @raise Inconsistent when both an identity and a distinctness rule
    apply to the same pair. *)
val decide :
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  verdict

(** [partition ~identity ~distinctness r s] — every (r,s) pair classified:
    [(matching, not_matching, undetermined)] with the witnessing tuples.
    This is the Figure 3 partition, materialised.

    Rules that imply attribute-value equality (every well-formed identity
    rule; distinctness rules with [=]-atoms) are evaluated with hash
    blocking ({!Blocking}) instead of the |R|×|S| nested loop; rules with
    no equality atoms fall back per rule. The partition — including which
    pair raises {!Inconsistent}, and with which witnessing rules — is
    identical to {!partition_naive}'s.

    The partition is {!partition_stream}'s verdicts bucketed by tag: the
    row walk tags each pair against the row's sorted fired lists — never
    a per-pair decision over the full cross product. A pair in both fired
    sets (an inconsistent rule base) is detected up front from the sets
    themselves: the engine raises from the row-major-minimal conflicting
    pair ({!Blocking.min_conflict}) with the same witnessing rules the
    naive serial scan reports; the conflict pre-scan is skipped when
    either fired set is empty.

    [telemetry] (default {!Telemetry.off}) records the
    [partition.block.identity] / [partition.block.distinctness] /
    [partition.merge] spans, the [partition.pairs_naive] (theoretical
    |R|×|S|) and [partition.pairs_considered] (candidate pairs the
    blocking passes actually proposed) counters, the
    [partition.matched] / [partition.distinct] / [partition.undetermined]
    counters and the per-kind blocking counters ({!Blocking.fired}).

    [decide] (default {!decide} over the given rules) is what the
    both-fired arms re-run to reproduce the naive engine's
    {!Inconsistent} witness. It is a fault-injection hook for the
    correctness harness: substituting a decision function that disagrees
    with the blocking index makes {!partition} raise {!Blocking_desync}
    with the offending pair instead of crashing on an assertion.
    @raise Blocking_desync when the blocking index reports a conflict on
    a pair for which [decide] does not raise. *)
val partition :
  ?telemetry:Telemetry.t ->
  ?decide:
    (Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    verdict) ->
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list

(** [partition_stream ?telemetry ?decide ~identity ~distinctness
    ~init ~f r s] — the streaming form of {!partition}: folds [f] over
    {e every} (r, s) pair in strict row-major (ascending R row,
    ascending S row within it) order, each tagged with its
    {!Match_result.t} verdict, without materialising the three lists.
    Bucketing the stream by tag reproduces {!partition}'s three lists
    byte-for-byte — including which pair raises {!Inconsistent} or
    {!Blocking_desync}.

    Verdicts stream straight off the row walk — zero verdict buffering.
    [telemetry] records what {!partition} records. *)
val partition_stream :
  ?telemetry:Telemetry.t ->
  ?decide:
    (Relational.Schema.t ->
    Relational.Tuple.t ->
    Relational.Schema.t ->
    Relational.Tuple.t ->
    verdict) ->
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  init:'a ->
  f:
    ('a ->
    Match_result.t ->
    Relational.Tuple.t ->
    Relational.Tuple.t ->
    'a) ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  'a

(** [partition_naive] — the reference nested-loop implementation: one
    {!decide} per pair. Kept for agreement testing and benchmarking;
    {!partition} must produce byte-identical results. *)
val partition_naive :
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
