(** The references the production engines are held to: the ILFD
    per-tuple scan ({!Ilfd.Apply.extend_tuple_compiled}) mapped over a
    relation, the tuple-based set-semantics pass and the cell-by-cell
    encode the relation builder is held to, the tuple-based matching
    table the coded one is held to, the attribute stratum the
    seeded derivation-order fault sorts by, and the paper's three-valued
    entity-identification function (Section 3.2) with the nested-loop
    Figure 3 partition built from it. Nothing outside the checker, its
    tests and the benches calls them. *)

(** [extend_relation ?mode r ~target ilfds] maps
    {!Ilfd.Apply.extend_tuple} over a relation, serially and in row
    order; the result keeps [r]'s declared keys (still valid: original
    attributes are unchanged). The [fixpoint-agreement] oracle, the
    tests and the partition bench hold {!Ilfd.Fixpoint.extend_relation}
    to it.
    @raise Ilfd.Apply.Conflict_found (with the first conflicting row's
    witness) in [Check_conflicts] mode when some tuple has disagreeing
    derivations. *)
val extend_relation :
  ?mode:Ilfd.Apply.mode ->
  Relational.Relation.t ->
  target:Relational.Schema.t ->
  Ilfd.t list ->
  Relational.Relation.t

(** [set_semantics schema ~keys tuples] — the rows a relation over
    [schema] with the declared [keys] keeps, on tuples: exact duplicates
    ({!Relational.Tuple.compare}) collapse, the first copy kept in
    place; then each key in declaration order is checked over the
    distinct rows by a hash table of projections.
    @raise Relational.Schema.Unknown_attribute when a key names a
    missing attribute, checked as that key's turn comes.
    @raise Relational.Relation.Key_violation with the first distinct
    row whose projection on the first failing key holds a NULL or
    repeats an earlier row's. *)
val set_semantics :
  Relational.Schema.t ->
  keys:string list list ->
  Relational.Tuple.t list ->
  Relational.Tuple.t list

(** [encode schema rows] — the code columns of [rows] (tuples over
    [schema]), one {!Relational.Intern.code} per cell. *)
val encode :
  Relational.Schema.t -> Relational.Tuple.t array -> Relational.Columnar.t

(** The matching table on tuples: its entries in a list, compared
    with {!Relational.Tuple.equal} by scanning it, and [to_relation]
    sorting the concatenated keys with {!Relational.Tuple.compare}.
    Each function means what {!Entity_id.Matching_table}'s of the same
    name does (quadratically), and the tests hold the coded table to
    it. *)
module Matching_table : sig
  type t

  val make :
    r_key_attrs:string list ->
    s_key_attrs:string list ->
    Entity_id.Matching_table.entry list ->
    t

  val entries : t -> Entity_id.Matching_table.entry list
  val cardinality : t -> int
  val mem : t -> Entity_id.Matching_table.entry -> bool
  val add : t -> Entity_id.Matching_table.entry -> t
  val uniqueness_violations : t -> Entity_id.Matching_table.violation list
  val consistent : t -> t -> bool
  val to_relation : t -> Relational.Relation.t
end

(** [stratum ilfds] — each attribute's stratum under [ilfds]: [0] when no
    rule derives it, else one more than the deepest attribute any of its
    rules reads. An attribute met again while its own stratum is being
    computed counts as [0], so cyclic families get a stratum too. *)
val stratum : Ilfd.t list -> string -> int

(** {2 The entity-identification function}

    "true" only if some identity rule applies; "false" only if some
    distinctness rule applies; "unknown" otherwise. If both apply, the
    rule base is inconsistent with the consistency constraint — reported
    rather than silently resolved. The [figure3-agreement] oracle holds
    {!Entity_id.Monotonic.snapshot} and {!Entity_id.Negative.of_rules}
    to {!partition_naive}. *)

type verdict = {
  result : Match_result.t;
  identity : Rules.Identity.t option;  (** the rule that fired, if any *)
  distinctness : Rules.Distinctness.t option;
}

exception Inconsistent of {
  identity : Rules.Identity.t;
  distinctness : Rules.Distinctness.t;
}

(** [decide ~identity ~distinctness s1 t1 s2 t2]. Both rule kinds state
    symmetric facts about (e1, e2), so each rule is tried in both
    orientations.
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

(** [partition_naive ~identity ~distinctness r s] — every (r, s) pair
    classified by one {!decide}, in row-major order:
    [(matching, not_matching, undetermined)] with the witnessing tuples.
    This is the Figure 3 partition, materialised.
    @raise Inconsistent from the first pair, in row-major order, on
    which both an identity and a distinctness rule apply. *)
val partition_naive :
  identity:Rules.Identity.t list ->
  distinctness:Rules.Distinctness.t list ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
  * (Relational.Tuple.t * Relational.Tuple.t) list
