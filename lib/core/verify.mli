(** Soundness analysis (Sections 3.2 and 6.3).

    Soundness cannot be checked against the real world, but two kinds of
    evidence are available mechanically: (1) the uniqueness and
    consistency constraints on the tables (the prototype's [verify]
    step); (2) when a ground truth exists — synthetic workloads, or a
    DBA-audited sample — direct comparison of declared pairs against it.
    This module provides both, plus the Figure 2 diagnostic: detecting
    that attribute-value equivalence over-matches when two databases
    model different subsets of the domain, and the domain-attribute fix. *)

type report = {
  uniqueness : Matching_table.violation list;
  consistent_with_negative : bool;
}

(** [check ?negative mt] — constraint-level verification. *)
val check : ?negative:Matching_table.t -> Matching_table.t -> report

val is_sound_wrt_constraints : report -> bool

type truth_comparison = {
  true_matches : int;  (** declared matching, truly matching *)
  false_matches : int;  (** declared matching, truly distinct — soundness
                            violations *)
  missed_matches : int;  (** truly matching, not declared *)
  true_non_matches : int;
      (** declared non-matching (NMT), truly distinct *)
  false_non_matches : int;
      (** declared non-matching, truly matching — soundness violations *)
}

(** [against_truth ~truth ?negative mt] — [truth] is the set of truly
    matching key pairs, keyed as [mt] is. Each count is of entries
    found by {!Matching_table.mem}, so linear in the tables.
    @raise Relational.Tuple.Arity_mismatch on a [truth] entry of
    another width than [mt]'s keys. *)
val against_truth :
  truth:Matching_table.entry list ->
  ?negative:Matching_table.t ->
  Matching_table.t ->
  truth_comparison

(** [sound_wrt_truth c] — no false matches and no false non-matches. *)
val sound_wrt_truth : truth_comparison -> bool

(** [add_domain_attribute name value r] — Figure 2's fix: tag every tuple
    of [r] with a domain attribute recording its source database, so
    rules can reference the modelled subset of the domain. *)
val add_domain_attribute :
  string -> Relational.Value.t -> Relational.Relation.t ->
  Relational.Relation.t

val pp_report : Format.formatter -> report -> unit
val pp_truth_comparison : Format.formatter -> truth_comparison -> unit
