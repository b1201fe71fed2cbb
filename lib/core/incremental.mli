(** Incremental entity identification under federated updates.

    The paper (Sections 2 and 7): "participating database systems can
    continue to operate autonomously. Instance integration may have to be
    performed whenever updating is done on the participating databases"
    and "in processing a federated database query, entity identification
    has to be performed whenever the information about real-world
    entities exists in different databases". This engine maintains the
    matching table under tuple insertions without re-running the whole
    pipeline: each new tuple is extended once and probed against a hash
    index of the other side's extended relation.

    Each side's base relation is held as a
    {!Relational.Relation.Keyed.t}: rows in insertion order, a count and
    a persistent index per declared key. An insertion costs O(k log n)
    for k declared keys, plus the extension of the one new tuple and an
    O(log n) K_Ext probe; nothing on the insert path rebuilds a
    {!Relational.Relation.t}.

    The ILFD family is compiled ({!Ilfd.Apply.compile}) once per state
    and held in [t]: {!create} (and so {!add_ilfd}) and {!restore} build
    it, and every insertion — a live one or one replayed from a store's
    write-ahead log — reuses it, so an insert never recompiles the
    family. Its two plans, one per side, share the compiled family's
    tries, each built on the first insert that walks it. Neither the
    family nor its compiled form is part of a {!dump}.

    Equivalence with the batch pipeline ({!Identify.run} on the final
    relations) is a tested invariant. Adding an {e ILFD} invalidates
    derived attributes globally, so {!add_ilfd} recomputes — knowledge
    updates are rare; data updates are the hot path. *)

type t

(** [create ?mode ?telemetry ~r ~s ~key ilfds] — initial state from
    existing relations. [mode] (default [First_rule]) governs ILFD
    derivation for the initial run and every subsequent insertion; in
    [Check_conflicts] mode, an insertion whose derivations disagree
    raises {!Ilfd.Apply.Conflict_found} with the witness instead of
    silently taking the first rule.

    [telemetry] (default {!Telemetry.off}) is stored on the state: the
    initial batch run charges the {!Identify.run} counters, and every
    subsequent insertion charges the [incremental.insert] span plus —
    unless it is an exact duplicate — the [incremental.inserts] /
    [incremental.pairs_added] / [incremental.null_key] counters. *)
val create :
  ?mode:Ilfd.Apply.mode ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  t

(** [insert_r t tuple] — add a tuple (of R's original schema) to R.
    Returns the new state and the matching-table entries the insertion
    created (possibly none). Set semantics as {!Relational.Relation.add}:
    an exact duplicate of a stored row returns [(t, [])] unchanged — not
    extended and not counted.
    @raise Relational.Relation.Key_violation if the tuple breaks one of
    R's declared keys (checked before the extension, so this wins over a
    derivation conflict).
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode when the
    tuple's derivations disagree. *)
val insert_r : t -> Relational.Tuple.t -> t * Matching_table.entry list

val insert_s : t -> Relational.Tuple.t -> t * Matching_table.entry list

(** [add_ilfd t ilfd] — extend the knowledge base; recomputes extended
    relations, the matching table and the compiled family (monotone: the
    previous matches are preserved — {!Monotonic} has the property-level
    statement). *)
val add_ilfd : t -> Ilfd.t -> t

(** [entries t] — the matched pairs' entries, in derivation order. *)
val entries : t -> Matching_table.entry list

val matching_table : t -> Matching_table.t

(** [explain t entry] — the ILFD chains behind the stored rows whose
    primary keys are [entry]'s, derived through the state's plans
    ({!Explain.of_rows}), or [None] when either key names no stored row.
    It does not check that the rows match: the caller picks the pair.
    O(log n) plus the two derivations. *)
val explain : t -> Matching_table.entry -> Explain.explanation option

(** [r t] — R as a {!Relational.Relation.t}, built on each call in
    O(n) ({!Relational.Relation.Keyed.to_relation}: the rows are not
    checked again). For reports, {!add_ilfd} and tests; hot paths read
    {!r_base}. *)
val r : t -> Relational.Relation.t

val s : t -> Relational.Relation.t

(** [r_base t] — R's base rows as held: schema, declared keys,
    cardinality and primary-key probes in O(1) or O(log n). *)
val r_base : t -> Relational.Relation.Keyed.t

val s_base : t -> Relational.Relation.Keyed.t

(** [ilfds t] — the ILFD family in force, already parsed, in family
    order. *)
val ilfds : t -> Ilfd.t list

(** [unmatched_r t] — extended R tuples whose K_Ext projection still
    carries a NULL, maintained incrementally as tuples arrive (same
    accounting as {!Identify.outcome}'s [unmatched_r], in insertion
    order). These are the tuples the extended-key join can never match;
    [incremental.null_key] counts them when telemetry is live. *)
val unmatched_r : t -> Relational.Tuple.t list

val unmatched_s : t -> Relational.Tuple.t list

(** [violations t] — uniqueness violations accumulated so far; a sound
    configuration keeps this empty as data arrives. *)
val violations : t -> Matching_table.violation list

(** [outcome t] — the equivalent batch view, for reporting. Its R′ and
    S′ joined by {!Identify.collect} give the row-index result that
    {!Integrate.integrated_table} and {!Fusion.fuse} take. *)
val outcome : t -> Identify.outcome

(** {2 Snapshot state}

    A {!dump} is the identification state as pure data — no closures,
    interned codes or compiled rules — safe to [Marshal] to disk and
    back across processes. It holds the keyed base relations with their
    built key maps and the K_Ext indexes, so [restore] takes them back
    as they are: it re-runs no ILFD derivation, rebuilds no map and
    touches no row, and compiles only the family's plans. The family
    itself is not part of the dump: the caller passes it to [restore]. *)

type dump

val dump : t -> dump

(** [restore ?telemetry ~ilfds d] — the state [d] was dumped from, with
    a fresh telemetry sink. [ilfds] must be
    the family the state was built under, in family order (a store
    guards this with the hash of its configuration). *)
val restore : ?telemetry:Telemetry.t -> ilfds:Ilfd.t list -> dump -> t
