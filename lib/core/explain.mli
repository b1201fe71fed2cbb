(** Explanations: the audit trail behind each declared match.

    Soundness is the paper's non-negotiable property, and a DBA asked to
    act on a matching table (the dismissal scenario of Section 4) will
    want to see {e why} each pair was declared. An explanation lists, for
    each side, the chain of ILFD derivations that filled in missing
    extended-key attributes (including scratch intermediates like the
    county in the I7→I8 chain), the final agreed key values, and — on
    request — an Armstrong-axiom proof that each derived condition
    follows from the rule base. *)

type explanation = {
  entry : Matching_table.entry;
  key_values : (string * Relational.Value.t) list;
      (** the agreed extended-key values *)
  r_derivations : Ilfd.Apply.derivation list;
      (** derivation steps on the R side, in order *)
  s_derivations : Ilfd.Apply.derivation list;
}

(** One pair of an effective matching table: a pair the ILFDs derived,
    with its chains, or a pair a manual merge asserted, citing that
    merge's 1-based position in the store's merge log. *)
type item =
  | Derived of explanation
  | Manual of { entry : Matching_table.entry; record : int }

(** [of_rows ?mode ~key ~r_plan ~s_plan entry tr ts] — the explanation
    of [entry], whose base rows are [tr] and [ts]: both rows derived
    through their side's plan ({!Ilfd.Fixpoint.extend_tuple}), the
    agreed key values read off [tr]'s extension.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode when a
    row's derivations disagree. *)
val of_rows :
  ?mode:Ilfd.Apply.mode ->
  key:Extended_key.t ->
  r_plan:Ilfd.Fixpoint.plan ->
  s_plan:Ilfd.Fixpoint.plan ->
  Matching_table.entry ->
  Relational.Tuple.t ->
  Relational.Tuple.t ->
  explanation

(** [matches ?mode ~r ~s ~key compiled mt] — one explanation per pair
    of [mt], in its order: [mt] is {!Identify.matching_table} of the
    {!Identify.matched} run being explained and [compiled] that run's
    family, so the plans walk the tries its extension built and nothing
    is compiled again. Each pair's base rows are found by probing R's
    and S's primary-key code columns with [mt]'s key codes, one
    {!Relational.Code_table} per side (a pair naming no row is left
    out). [mode] (default [First_rule]) is the derivation mode,
    matching the run being explained.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode when a
    pair's tuple has derivations that disagree — the same witness the
    identification pipeline reports for that tuple. *)
val matches :
  ?mode:Ilfd.Apply.mode ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.Apply.compiled ->
  Matching_table.t ->
  explanation list

(** [prove_derivation ilfds source_tuple schema derivation] — an
    Armstrong proof that the derived condition follows from the ILFDs
    given the tuple's original values ([None] only if the derivation was
    not actually justified — impossible for engine output, tested). *)
val prove_derivation :
  Ilfd.t list ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Ilfd.Apply.derivation ->
  Proplogic.Armstrong.proof option

val pp_explanation : Format.formatter -> explanation -> unit

(** [render explanations] — a human-readable report: [render_items] of
    the explanations as [Derived] items. *)
val render : explanation list -> string

(** [render_items items] — one numbered entry per item. A derived pair's
    header reads [[i] match (r key) ~ (s key)], a manual pair's
    [[i] manual (r key) ~ (s key)], followed by its merge-log
    citation. *)
val render_items : item list -> string
