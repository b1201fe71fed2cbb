(** Incremental entity identification under federated updates.

    The paper (Sections 2 and 7): "participating database systems can
    continue to operate autonomously. Instance integration may have to be
    performed whenever updating is done on the participating databases"
    and "in processing a federated database query, entity identification
    has to be performed whenever the information about real-world
    entities exists in different databases". This engine maintains the
    matching table under tuple insertions without re-running the whole
    pipeline: each new tuple is extended once and probed against the
    K_Ext table of the other side's extended relation.

    The state is the batch engine's representation ({!Identify.matched}),
    grown one row at a time. Each side holds its base rows in a
    {!Relational.Relation.builder}, whose key tables check every insert
    ({!Relational.Relation.append}: {!Relational.Relation.add}'s
    semantics); R′ as {!Relational.Intern} code columns, in another
    builder with the base's declared keys; and a chained
    {!Relational.Code_table} on R′'s K_Ext match codes, the table
    {!Identify.fold_pairs} builds. The matched pairs are two growable
    arrays of (R′ row, S′ row) indices. An insertion costs one probe per
    declared key, the extension of the one new tuple and one K_Ext
    probe, and updates the state in place; nothing on the insert path
    builds a {!Relational.Relation.t}.

    The ILFD family is compiled ({!Ilfd.Apply.compile}) once per state
    and held in [t]: {!create} (and so {!add_ilfd}) and {!restore} build
    it, and every insertion — a live one or one replayed from a store's
    write-ahead log — reuses it, so an insert never recompiles the
    family. Its two plans, one per side, share the compiled family's
    tries ({!create} takes those {!Identify.matched} built), each built
    on the first insert that walks it. Neither the family nor its
    compiled form is part of a {!dump}.

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

    The state takes R′'s and S′'s code columns and the pair arrays of
    {!Identify.matched} as they are, decoding no row. With no declared
    key, R′ may hold fewer rows than R: {!Relational.Relation.extend}
    collapses rows derivation made equal, and so does every insert.

    [telemetry] (default {!Telemetry.off}) is stored on the state: the
    initial batch run charges the {!Identify.matched} counters, and every
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

(** [insert_r t tuple] — add a tuple (of R's original schema) to R, in
    place. Returns the matching-table entries the insertion created
    (possibly none), its partners in S's insertion order, each key
    decoded from its codes: a cell reads as the first spelling
    {!Relational.Intern} saw of its value ([0.] and [-0.] are one).
    Set semantics as {!Relational.Relation.add}: an exact duplicate of
    a stored row returns [[]] and changes nothing — not extended and
    not counted.

    The arity and every key are checked first, probing without adding
    and interning nothing; then the tuple is extended; only then is
    anything added. So an insert that raises leaves the state as it was
    (a key rejection interns nothing), and a row that breaks a key and
    has disagreeing derivations reports the key violation.
    @raise Relational.Tuple.Arity_mismatch on a tuple of the wrong width.
    @raise Relational.Relation.Key_violation if the tuple breaks one of
    R's declared keys: the first in declaration order.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode when the
    tuple's derivations disagree. *)
val insert_r : t -> Relational.Tuple.t -> Matching_table.entry list

val insert_s : t -> Relational.Tuple.t -> Matching_table.entry list

(** [add_ilfd t ilfd] — a fresh state with the knowledge base extended:
    it recomputes the extended relations, the matching table and the
    compiled family, and leaves [t] as it was (monotone: the previous
    matches are preserved — {!Monotonic} has the property-level
    statement). *)
val add_ilfd : t -> Ilfd.t -> t

(** [entries t] — the matched pairs' entries, in derivation order. *)
val entries : t -> Matching_table.entry list

val matching_table : t -> Matching_table.t

(** [explain t entry] — the ILFD chains behind the stored rows whose
    primary keys are [entry]'s, derived through the state's plans
    ({!Explain.of_rows}), or [None] when either key names no stored row.
    It does not check that the rows match: the caller picks the pair.
    One key probe per side ({!Relational.Relation.find_key}, which
    interns nothing) plus the two derivations. *)
val explain : t -> Matching_table.entry -> Explain.explanation option

(** [r t] — R as a {!Relational.Relation.t}, built on each call in
    O(n) ({!Relational.Relation.build} of the base rows: the rows are not
    checked again). For reports, {!add_ilfd} and tests; hot paths read
    {!r_base}. *)
val r : t -> Relational.Relation.t

val s : t -> Relational.Relation.t

(** [r_base t] — R's base rows as held, for reading only: their schema
    ({!Relational.Relation.builder_schema}), count
    ({!Relational.Relation.kept}) and primary-key probes
    ({!Relational.Relation.find_key}), each in O(1). Adding to it
    desynchronises the state. *)
val r_base : t -> Relational.Relation.builder

val s_base : t -> Relational.Relation.builder

(** [ilfds t] — the ILFD family in force, already parsed, in family
    order. *)
val ilfds : t -> Ilfd.t list

(** [unmatched_r t] — extended R tuples whose K_Ext projection still
    carries a NULL (same accounting as {!Identify.outcome}'s
    [unmatched_r], in insertion order), found on R′'s match codes and
    decoded. These are the tuples the extended-key join can never match;
    [incremental.null_key] counts the inserted ones when telemetry is
    live. *)
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
    no compiled rules and no {!Relational.Intern} code — safe to
    [Marshal] to disk and back across processes. It holds each distinct
    value the base and R′ columns use, once; the columns as indices into
    that table; the schemas and declared keys; and the pairs as row
    indices. It shares nothing with the state it was taken from, so a
    state restored from it is independent of that one. The family
    itself is not part of the dump: the caller passes it to [restore]. *)

type dump

val dump : t -> dump

(** [restore ?telemetry ~ilfds d] — the state [d] was dumped from, with
    a fresh telemetry sink: each value of the table interned once, in
    whatever process, the columns mapped through the codes it got, and
    the key and K_Ext tables rebuilt over them. It runs no ILFD
    derivation and compiles the family once, for the two plans. [ilfds]
    must be the family the state was built under, in family order (a
    store guards this with the hash of its configuration). *)
val restore : ?telemetry:Telemetry.t -> ilfds:Ilfd.t list -> dump -> t
