(** The integrated table T_RS = MT_RS ⋈ R′ ⟗ S′ (Section 4.1).

    Matching pairs merge into one row carrying both sides' attributes;
    tuples unmatched on either side appear padded with NULLs. Under the
    NULL interpretation the paper assigns to T_RS, a real-world entity may
    still be modelled by up to two tuples whose extended-key values do not
    conflict on non-NULL attributes.

    Everything here is built from the join's {!Identify.result}, in time
    linear in |R′| + |S′| + |MT| apart from the sort: a row is unmatched
    when its partner count is zero. *)

(** [integrated_table res] — columns in the paper's layout:
    [r_<kext…> s_<kext…> r_<rest…> s_<rest…>] (extended-key attributes
    of each side first, remaining attributes after), rows sorted with NULL
    ordered as the atom ["null"], exactly like the prototype's [setof]
    output: cells compare as their printed text ({!Relational.Value.to_string}),
    each code's text made once, and rows that tie keep the order of
    {!rows}. The cells are gathered from R′'s and S′'s code columns, and
    the result is held as code columns. *)
val integrated_table : Identify.result -> Relational.Relation.t

(** [rows res] — the rows of MT_RS ⋈ R′ ⟗ S′ as index pairs
    [(r_rows, s_rows)], [-1] standing for the NULL side: the matched
    pairs in pair order, then the unmatched R′ rows, then the unmatched
    S′ rows, each in row order. So |T_RS| = |MT| + |unmatched_r| +
    |unmatched_s|. *)
val rows : Identify.result -> int array * int array

(** [unmatched_r res] — the R′ tuples in no matched pair, in row order:
    those with no partner, which includes every NULL-keyed one. *)
val unmatched_r : Identify.result -> Relational.Tuple.t list

val unmatched_s : Identify.result -> Relational.Tuple.t list

(** [possibly_same ~key schema t1 t2] — the T_RS-level compatibility test:
    no conflicting non-NULL extended-key values between two integrated
    tuples. *)
val possibly_same :
  key:Extended_key.t ->
  Relational.Schema.t ->
  Relational.Tuple.t ->
  Relational.Tuple.t ->
  bool
