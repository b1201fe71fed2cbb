(** The matching table as a series of relational expressions
    (Section 4.2) — the paper's second, declarative construction:

    {v
    R_yi^j = π_{K_R, yi} (R ⋈ IM_(r;j,yi))     one per usable ILFD table
    R_yi   = ⋃_j R_yi^j
    R'     = R ⟕_{K_R} R_y1 ⟕ … ⟕ R_ym
    MT_RS  = π_{K_R, K_S} (R' ⋈_{K_Ext} S')
    v}

    ILFDs are first {!Ilfd.Theory.saturate}d so that chained derivations
    (the paper's derived I9) become tables over original attributes; a
    table is usable for a relation when its inputs are a subset of that
    relation's own attributes. The result provably coincides with the
    operational engine {!Identify} whenever no two usable tables disagree
    on a tuple (the engine's cut semantics and the union here then pick
    the same value) — the agreement is exercised by tests and the fig4
    bench. *)

type plan = {
  r_tables : Ilfd.Table.t list;  (** IM tables usable to extend R *)
  s_tables : Ilfd.Table.t list;
  r_prime : Relational.Relation.t;
  s_prime : Relational.Relation.t;
  matching_relation : Relational.Relation.t;
      (** MT_RS as a relation, attributes [r_<K_R>… s_<K_S>…] *)
}

(** [run ~r ~s ~key ilfds] — executes the expression series.
    @raise Ilfd.Table.Ill_formed if saturated ILFDs yield contradictory
    table rows. *)
val run :
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  plan

(** [matching_table plan ~r_key ~s_key] — [matching_relation] as a
    {!Matching_table.t} ({!Matching_table.of_relation}), for comparison
    with {!Identify}. *)
val matching_table :
  plan -> r_key:string list -> s_key:string list -> Matching_table.t

(** [agrees plan outcome] — same matched pairs as the direct engine. *)
val agrees : plan -> Identify.outcome -> bool
