(** Compiled evaluation of an ILFD family — the only production path
    for relation extension and for per-tuple derivation (Section 4.2's
    [IM(x̄,y)] ILFD tables made executable).

    The compiled family ({!Apply.compile}) holds each consequent
    attribute's rules in groups, one trie per group keyed by the match
    codes of the antecedent condition values (consecutive rules with one
    antecedent signature form a group), each trie built from
    {!Relational.Code_table}s on its first walk. A {!plan} maps the
    family's columns onto one source/target schema pair and shares the
    family's tries with every other plan made from it. One evaluator
    reads them: it walks the tries in the recursive engine's demand
    order, from the storage codes of the cells the family reads, and so
    returns its derivation list, in its order, and its
    [Check_conflicts] witness.
    {!extend_tuple} runs it on one tuple; {!extend_relation} runs it once
    per {e derivation class} (distinct {!Relational.Intern}-coded
    projection onto the attributes the family can read), straight from
    the relation's columnar view.

    On acyclic families the evaluator is provably the same function as
    the per-tuple reference {!Apply.extend_tuple_compiled}, and the
    checker's [fixpoint-agreement] and [conflict-agreement] oracles hold
    it to it. Every value has one match class ({!Relational.Intern}), so
    trie matching is exact on every acyclic family; on a cyclic family
    every tuple takes that scan instead. *)

(** Raised if a class taking the scan in {!extend_relation} ever
    reports a derivation conflict in [First_rule] mode, where conflicts
    are impossible by construction, so this exception marks a scan/plan
    desync — it carries the offending tuple and the conflicting rule (the
    same witness shape as {!Apply.Conflict_found}) rather than dying on
    an anonymous assertion. *)
exception
  Fallback_desync of {
    tuple : Relational.Tuple.t;
    conflict : Apply.conflict;
  }

(** Test-only fault injection: when the hook returns [Some conflict] for
    a representative row taking the scan path of {!extend_relation}, the
    extension behaves as if the scan had reported that conflict, so the
    {!Fallback_desync} arm can be exercised. Production value: a
    function returning [None] for every tuple. *)
val inject_fallback_conflict :
  (Relational.Tuple.t -> Apply.conflict option) ref

(** A compiled family mapped onto one source/target schema pair, with
    the evaluator's scratch (a code per column, reset per tuple or
    class), so a derivation class allocates only its result. *)
type plan

(** [plan ~source ~target compiled] — [compiled] for tuples of [source]
    extended to [target] (a superset of [source]'s attributes, as for
    {!Apply.extend_tuple}). O(columns + target arity): it builds no
    group and no trie, and interns nothing. The groups and tries belong
    to [compiled], and every plan made from it shares them: each trie
    is built, interning its values, on the first walk of any of them.
    A caller that derives many
    tuples of one schema — a serve store, an explain report — builds
    one plan per side and keeps it. *)
val plan : source:Relational.Schema.t -> target:Relational.Schema.t ->
  Apply.compiled -> plan

val plan_target : plan -> Relational.Schema.t

(** [extend_tuple ?mode ?telemetry plan tuple] — exactly
    [Apply.extend_tuple_compiled ?mode source tuple ~target compiled]
    for the plan's schemas and family: the same extended tuple, the same
    derivations in the same order, and in [Check_conflicts] mode the
    same conflict witness. A derivation costs a few trie probes per
    rule group, whatever the number of rules in the group.

    On a cyclic family (see above) the tuple takes the scan;
    [telemetry] (default {!Telemetry.off}) counts it in
    [ilfd.fixpoint.fallback_classes]. *)
val extend_tuple :
  ?mode:Apply.mode ->
  ?telemetry:Telemetry.t ->
  plan ->
  Relational.Tuple.t ->
  (Relational.Tuple.t * Apply.derivation list, Apply.conflict) result

(** [extend_relation ?mode ?telemetry r ~target compiled] — the
    relation extension: the rows {!Apply.extend_tuple_compiled} gives
    for [r]'s rows, in row order, raising the first conflicting row's
    witness as {!Apply.Conflict_found} (the checker's
    [Reference.extend_relation]). The
    family arrives already compiled ({!Apply.compile}) so a caller that
    extends several relations with one family — both sides of a batch
    run — compiles it once, and its tries are built once for both; only
    the per-source plan is built here.
    Each class is derived once, in both modes: by the evaluator, from
    the class's key codes in [r]'s columnar view, or, when it takes the
    scan, from its representative row, the only row decoded. Class ids
    follow first-row order, so the first class that conflicts holds the
    reference's first conflicting row and raises the same
    {!Apply.Conflict_found} witness.

    The classes are grouped on [r]'s code columns by a
    {!Relational.Code_table}, and the rows are built by
    {!Relational.Relation.extend} from [r]'s and the classes' derived
    cells, as storage codes the tries' leaves already hold. When [r] has
    a declared key and [target] keeps every attribute of [r], the result
    inherits [r]'s set semantics and is held as code columns: its rows
    are distinct and key-valid by construction, no set-semantics pass
    runs, nothing is interned, and no row is decoded. Every [Identify],
    [Explain], [Cluster] and [Incremental] target keeps the source's
    attributes, and the CLI declares a key on both sides. Otherwise the
    code columns, written the same way, go through the relation
    builder, which collapses rows that derivation made equal.

    [telemetry] records the [ilfd.extend] span and [ilfd.tuples],
    [ilfd.derivations], [ilfd.fixpoint.classes] (derivation classes),
    [ilfd.fixpoint.delta_facts] (derivations made across classes,
    scratch intermediates included) and
    [ilfd.fixpoint.fallback_classes] (classes that took the scan: every
    class of a cyclic family, none of an acyclic one).
    @raise Apply.Conflict_found in [Check_conflicts] mode.
    @raise Fallback_desync as described above. *)
val extend_relation :
  ?mode:Apply.mode ->
  ?telemetry:Telemetry.t ->
  Relational.Relation.t ->
  target:Relational.Schema.t ->
  Apply.compiled ->
  Relational.Relation.t
