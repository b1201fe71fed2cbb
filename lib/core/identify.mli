(** The matching-table construction of Section 4.2, operational form:

    + extend R to R′ (and S to S′) with the extended-key attributes each
      side is missing, deriving values with the available ILFDs and
      defaulting to NULL;
    + match every R′/S′ pair with identical {e non-NULL} values on all of
      K_Ext;
    + record the pair of original candidate-key values in MT_RS;
    + verify the result is sound in the uniqueness sense (the prototype
      prints "the extended key causes unsound matching result" when it is
      not — we return the witnesses).

    This is the whole Figure 4 pipeline apart from integration
    ({!Integrate}) and the negative table ({!Negative}). *)

type outcome = {
  r_extended : Relational.Relation.t;  (** R′ *)
  s_extended : Relational.Relation.t;  (** S′ *)
  matching_table : Matching_table.t;
  violations : Matching_table.violation list;
      (** uniqueness violations; empty = the extended key is verified *)
  pairs : (Relational.Tuple.t * Relational.Tuple.t) list;
      (** the matched pairs as full extended tuples, R′ × S′ *)
  unmatched_r : Relational.Tuple.t list;
      (** R′ tuples whose K_Ext projection contains a NULL even after
          ILFD extension — [non_null_eq] means the extended-key join can
          never match them, so they are excluded from matching (not
          merely unmatched so far, which is {!Integrate.unmatched_r}'s
          weaker notion). In relation order. *)
  unmatched_s : Relational.Tuple.t list;  (** the S′ counterpart *)
}

(** [run ?mode ?telemetry ~r ~s ~key ilfds] — [decode (matched …)]:
    the {!result} of the join, decoded into tuples.

    [telemetry] (default {!Telemetry.off}) records what {!matched}
    records.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val run :
  ?mode:Ilfd.Apply.mode ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  outcome

(** [run_stream ?mode ?telemetry ~r ~s ~key ~init ~f ilfds] — the
    streaming form of {!run}'s join: {!extend}, then {!fold_pairs} with
    each matched pair's rows decoded ({!Relational.Relation.row}; an R′
    row once for all its partners), so [f] sees every matched [(r', s')]
    pair of extended tuples in row-major order (ascending R′ row,
    ascending S′ partner within a row), {e without materialising the
    pair list} or buffering any verdict: peak memory is the join state,
    not the output. The fold observes exactly the pairs {!run}
    materialises, in the same order. [telemetry] records what {!run}
    records apart from the outcome counters.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val run_stream :
  ?mode:Ilfd.Apply.mode ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  init:'a ->
  f:('a -> Relational.Tuple.t -> Relational.Tuple.t -> 'a) ->
  Ilfd.t list ->
  'a

(** {2 The two phases}

    {!matched} and {!run_stream} are these two calls; a caller that
    renders the pairs itself (the CLI's [--stream-out] writer) makes
    them directly and reads R′'s and S′'s code columns. *)

(** [extend ?mode ?telemetry ~r ~s ~key ilfds] — [(R′, S′)]: each
    relation widened to its {!extension_schema} and ILFD-extended
    ({!Ilfd.Fixpoint.extend_relation}), the family compiled once for
    both, so its tries are built once for both. With a declared key on each side, R′ and S′ are held as code
    columns and no row is decoded. [telemetry] records the
    [identify.extend_r] / [identify.extend_s] spans and the ILFD
    extension counters.
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val extend :
  ?mode:Ilfd.Apply.mode ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  Relational.Relation.t * Relational.Relation.t

(** [fold_pairs ?telemetry ~key r' s' ~init ~f] — the K_Ext join of
    [r'] and [s'], folding [f] over the row indices [(i, j)] of every
    matched pair in row-major order (ascending [i], ascending [j] within
    it), straight out of the probe loop.

    A pair matches when its K_Ext cells are {!Relational.Value.non_null_eq}
    on every attribute ({!Relational.Tuple.agree}), so [Int 1] matches
    [Float 1.]. The join works on the code columns: S′ rows go into one
    {!Relational.Code_table} keyed on their K_Ext {!Relational.Intern}
    match codes, with equal rows chained in ascending order, and each R′
    row probes it and walks its chain: every value has a match code,
    and equal match codes are exactly [non_null_eq]. No row is decoded.
    [telemetry] records the [identify.join] span (which [f]'s own work
    falls in) and the [identify.join.buckets] counter. *)
val fold_pairs :
  ?telemetry:Telemetry.t ->
  key:Extended_key.t ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  init:'a ->
  f:('a -> int -> int -> 'a) ->
  'a

(** {2 The row-index result}

    Every materialised table is built from one result: the matched
    pairs as the row indices {!fold_pairs} yields, in its row-major
    order, with each row's number of partners. No pair is decoded to
    build it. The rows left unmatched are those with no partner, and
    the tables ({!matching_table}, {!Integrate.integrated_table},
    {!Fusion.fuse}) are gathered from R′'s and S′'s code columns. *)

type result = private {
  key : Extended_key.t;  (** the K_Ext the rows were joined on *)
  r_key : string list;
      (** R's candidate key: MT_RS's R columns, [Relation.primary_key r] *)
  s_key : string list;
  compiled : Ilfd.Apply.compiled;
      (** the family R′ and S′ were extended with, its tries as the
          extension built them: {!Explain.matches} derives the run's
          pairs again with it *)
  r_extended : Relational.Relation.t;  (** R′ *)
  s_extended : Relational.Relation.t;  (** S′ *)
  r_rows : int array;
      (** the R′ row of each matched pair, in row-major order (ascending
          R′ row, ascending S′ partner within it) *)
  s_rows : int array;  (** the S′ row of each matched pair *)
  r_partners : int array;  (** per R′ row, its number of S′ partners *)
  s_partners : int array;  (** per S′ row, its number of R′ partners *)
}

(** [matched ?mode ?telemetry ~r ~s ~key ilfds] — {!extend}, then
    {!collect} with R's and S's primary keys and the family {!extend}
    compiled.

    [telemetry] (default {!Telemetry.off}) records the
    [identify.extend_r] / [identify.extend_s] / [identify.join] spans,
    the [identify.pairs] / [identify.unmatched_r] / [identify.unmatched_s]
    / [identify.violations] / [identify.join.buckets] counters, and the
    ILFD extension counters ({!Ilfd.Fixpoint.extend_relation}).
    @raise Ilfd.Apply.Conflict_found in [Check_conflicts] mode. *)
val matched :
  ?mode:Ilfd.Apply.mode ->
  ?telemetry:Telemetry.t ->
  r:Relational.Relation.t ->
  s:Relational.Relation.t ->
  key:Extended_key.t ->
  Ilfd.t list ->
  result

(** [collect ?telemetry ~key ~r_key ~s_key ~compiled r' s'] —
    {!fold_pairs} over [r'] and [s'] into the result, MT_RS keyed on
    [r_key] and [s_key], [r'] and [s'] extended with [compiled].
    With a live sink it adds the outcome counters {!matched} lists:
    [identify.unmatched_r] counts R′ rows with a NULL K_Ext cell (the
    {!outcome}'s [unmatched_r]), [identify.violations] the rows with
    more than one partner. *)
val collect :
  ?telemetry:Telemetry.t ->
  key:Extended_key.t ->
  r_key:string list ->
  s_key:string list ->
  compiled:Ilfd.Apply.compiled ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  result

(** [decode res] — the {!outcome}: each pair's rows decoded (an R′ row
    once for all its partners), the {!matching_table}, its
    {!Matching_table.uniqueness_violations}, and the rows with a NULL
    K_Ext cell. *)
val decode : result -> outcome

(** [matching_table res] — MT_RS, entry [p] being pair [p]'s R and S
    keys: {!Matching_table.of_codes} over their codes, gathered from
    R′'s and S′'s key columns in pair order, so no pair is decoded. The
    CLI prints its {!Matching_table.to_relation} and the
    {!Verify.check} of it. *)
val matching_table : result -> Matching_table.t

(** [extension_schema relation key] — the relation's schema widened with
    its missing extended-key attributes (K_Ext−R, in key order). *)
val extension_schema :
  Relational.Relation.t -> Extended_key.t -> Relational.Schema.t

(** [is_verified o] — the prototype's acknowledge/warning distinction. *)
val is_verified : outcome -> bool
