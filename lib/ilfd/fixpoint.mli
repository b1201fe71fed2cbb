(** Compiled semi-naive fixpoint evaluation of an ILFD family — the
    only production path for relation extension (Section 4.2's algebraic
    [IM(x̄,y)] construction made executable).

    Instead of re-running the recursive Armstrong engine per tuple,
    the evaluator
    - groups the relation's rows into {e derivation classes} (distinct
      {!Relational.Intern}-coded projections onto the attributes the
      family can read), one chase cell table for all rows of a class;
    - compiles each consequent attribute's rules into hash tables keyed
      by the match codes of their antecedent condition values
      (consecutive rules with one antecedent signature share a table,
      keep-first preserving First_rule priority);
    - stratifies the attribute dependency graph (an attribute's stratum
      is one more than the deepest attribute any of its rules reads) and
      chases stratum by stratum, seeding a delta with the base facts and
      visiting, for attributes whose rules can only fire on derived
      antecedents, only classes the previous rounds changed.

    On acyclic families with First_rule semantics this is provably the
    same function as the per-tuple reference {!Apply.extend_relation} —
    each stratum fixes exactly the values the recursive engine would
    look up — and the checker's [fixpoint-agreement] oracle holds it to
    byte-identical output. Where the chase is not exact — cyclic
    attribute dependencies, [Check_conflicts] mode, numeric rule values
    whose cross-type identity is ambiguous above 2⁵³ — every derivation
    class runs the recursive engine ({!Apply.extend_tuple_compiled}) on
    its representative row instead, as do single classes whose base
    cells carry such numerics. *)

(** Raised if the per-class recursive fallback ever reports a derivation
    conflict in [First_rule] mode, where conflicts are impossible by
    construction, so this exception marks an evaluator/plan
    desync — it carries the offending tuple and the conflicting rule (the
    same witness shape as {!Apply.Conflict_found}) rather than dying on
    an anonymous assertion. Matches the [Conflict_found] /
    [Blocking_desync] typed-witness pattern used across the engine. *)
exception
  Fallback_desync of {
    tuple : Relational.Tuple.t;
    conflict : Apply.conflict;
  }

(** Test-only fault injection: when the hook returns [Some conflict] for
    a tuple taking the per-class fallback path, the evaluator behaves as
    if the recursive engine had reported that conflict, so the
    {!Fallback_desync} arm can be exercised. Production value: a
    function returning [None] for every tuple. *)
val inject_fallback_conflict :
  (Relational.Tuple.t -> Apply.conflict option) ref

(** [supported ~source ~target ilfds] — whether the family's compiled
    chase is exact for this source/target pair ([false] means
    {!extend_relation} runs every class through the recursive
    engine). *)
val supported :
  source:Relational.Schema.t ->
  target:Relational.Schema.t ->
  Def.t list ->
  bool

(** [extend_relation ?mode ?jobs ?telemetry r ~target compiled] — the
    relation extension: same output and same exceptions as the reference
    {!Apply.extend_relation} over [Apply.compiled_rules compiled]. The
    family arrives already compiled ({!Apply.compile}) so a caller that
    extends several relations with one family — both sides of a batch
    run — compiles it once; only the per-source plan is built here.
    In [Check_conflicts] mode every class runs
    the recursive engine, since a conflict witness depends on its demand
    order; class ids follow first-row order, so the first class that
    conflicts holds the reference's first conflicting row and raises
    the same {!Apply.Conflict_found} witness. [jobs] (default [1]) > 1
    materialises row chunks on that many domains.

    [telemetry] records the [ilfd.extend] span and [ilfd.tuples],
    [ilfd.derivations], [ilfd.fixpoint.classes] (derivation classes),
    [ilfd.fixpoint.rounds] (strata chased; [0] when every class runs the
    recursive engine), [ilfd.fixpoint.delta_facts] (facts derived across
    classes, scratch intermediates included on the chase) and
    [ilfd.fixpoint.fallback_classes] — all class-level, hence identical
    for every [jobs] value.
    @raise Apply.Conflict_found in [Check_conflicts] mode.
    @raise Fallback_desync as described above. *)
val extend_relation :
  ?mode:Apply.mode ->
  ?jobs:int ->
  ?telemetry:Telemetry.t ->
  Relational.Relation.t ->
  target:Relational.Schema.t ->
  Apply.compiled ->
  Relational.Relation.t
