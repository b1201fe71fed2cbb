(** Negative matching tables (NMT_RS).

    Distinct pairs are asserted by distinctness rules — either supplied
    directly or obtained from ILFDs via Proposition 1 (each ILFD {e is} a
    distinctness rule; Table 4 of the paper is produced this way). The
    paper observes NMTs are usually much larger than matching tables, so
    the integrated table never materialises them; this module computes
    them on demand for analysis and for the consistency check. *)

(** [of_rules ~r ~s rules] — entries for every R×S pair on which some
    rule applies, in either orientation, in row-major pair order. Rules
    are evaluated on the {e extended} relations if you pass them (any
    relation pair with compatible keys works).

    A rule whose [=]-atoms imply equality on some attributes
    ({!Rules.Distinctness.blocking_key}) is evaluated only on pairs
    sharing a hash bucket over those attributes, and a rule made only of
    [e1.A = e2.A] atoms is not evaluated at all: its buckets are its
    pairs. Any other rule is evaluated on all |R|×|S| pairs. That
    includes every Proposition 1 rule, whose atoms all compare an
    attribute with a constant. *)
val of_rules :
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  Rules.Distinctness.t list ->
  Matching_table.t

(** [of_ilfds ~r ~s ilfds] — Proposition 1 applied to each ILFD, then
    {!of_rules}. ILFDs with empty antecedents are skipped (their
    Prop-1 rule would be ill-formed). *)
val of_ilfds :
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  Ilfd.t list ->
  Matching_table.t

(** [distinctness_rules_of_ilfds ilfds] — the rules {!of_ilfds} uses. *)
val distinctness_rules_of_ilfds : Ilfd.t list -> Rules.Distinctness.t list
