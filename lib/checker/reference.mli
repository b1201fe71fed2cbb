(** The ILFD references the production evaluators are held to: the
    per-tuple scan ({!Ilfd.Apply.extend_tuple_compiled}) mapped over a
    relation, and the strata the seeded derivation-order fault sorts
    by. Nothing outside the checker, its tests and the benches calls
    them. *)

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

(** [strata ilfds] — each attribute's stratum under [ilfds]: [0] when no
    rule derives it, else one more than the deepest attribute any of its
    rules reads. An attribute met again while its own stratum is being
    computed counts as [0], so cyclic families get a stratum too. *)
val strata : Ilfd.t list -> string -> int
