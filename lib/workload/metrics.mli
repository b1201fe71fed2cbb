(** Evaluation metrics against a known ground truth.

    The paper's headline property is {e soundness}: a sound matcher has
    precision 1 by definition. The benches report precision / recall /
    F1 for every technique, so the sound-vs-unsound contrast and the
    recall cost of incomplete knowledge are both visible. *)

type t = {
  precision : float;  (** 1.0 when no pairs are declared *)
  recall : float;
  f1 : float;
  declared : int;
  correct : int;
  truth_size : int;
}

(** [evaluate ~truth mt] — [mt]'s entries counted correct when the truth
    holds them ({!Entity_id.Matching_table.mem} on one table of [truth],
    keyed as [mt] is); [truth_size] is [truth]'s length.
    @raise Relational.Tuple.Arity_mismatch on a truth entry whose keys
    are not as wide as [mt]'s. *)
val evaluate :
  truth:Entity_id.Matching_table.entry list -> Entity_id.Matching_table.t -> t

(** [soundness_violations ~truth mt] — declared pairs not in the truth
    (= false matches; a sound technique yields zero). *)
val soundness_violations :
  truth:Entity_id.Matching_table.entry list ->
  Entity_id.Matching_table.t ->
  Entity_id.Matching_table.entry list

val pp : Format.formatter -> t -> unit
val to_row : t -> string list
(** [precision; recall; f1; declared; correct] as table cells. *)
