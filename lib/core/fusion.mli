(** Attribute-value conflict resolution — the second instance-level
    problem of Section 2: "attribute value conflict resolution can be
    performed only after the entity-identification problem has been
    resolved". Given a verified matching, fuse each matched pair into a
    single tuple of the integrated schema and keep unmatched tuples as
    they are, producing the {e actually integrated} relation (as opposed
    to {!Integrate.integrated_table}, which keeps both sides' columns for
    the virtual view). *)

type policy =
  | Prefer_left  (** R's value wins when both are non-NULL and differ *)
  | Prefer_right
  | Prefer_non_null
      (** take whichever side is non-NULL; [Inconsistent] when both are
          non-NULL and differ *)
  | Resolve of (Relational.Value.t -> Relational.Value.t -> Relational.Value.t)
      (** custom resolution, called only when both sides are non-NULL
          and differ *)

exception Inconsistent of {
  attribute : string;
  left : Relational.Value.t;
  right : Relational.Value.t;
}

(** [fuse ?default ?overrides res] — one row per real-world entity,
    one per row of {!Integrate.rows}: matched pairs merge
    attribute-wise (extended-key attributes always agree by
    construction; other shared attributes resolve per policy —
    [default] applies unless [overrides] names the attribute),
    one-sided attributes pass through, unmatched tuples are padded with
    NULL. The result's schema is the union of both extended schemas
    (R′ order first); its rows are sorted on every column in schema
    order ({!Relational.Value.compare}), with exact duplicates dropped.
    It declares no key (the extended key may contain NULLs for
    unmatched tuples).

    The cells are resolved on R′'s and S′'s code columns (two non-NULL
    codes agree when their {!Relational.Intern.match_code}s do, which is
    [eq3]), so the work is linear in the rows apart from the sort, and
    the result is held as code columns; a [Resolve] result is interned.
    @raise Inconsistent under [Prefer_non_null] on a true conflict: the
    first pair's first conflicting attribute, in pair and schema
    order. *)
val fuse :
  ?default:policy ->
  ?overrides:(string * policy) list ->
  Identify.result ->
  Relational.Relation.t

(** [conflicts res] — the attribute-level conflicts a
    [Prefer_non_null] fusion would hit: (attribute, left, right, r-key)
    per matched pair, in pair order, and per differing shared attribute,
    in R′'s schema order. Empty means the databases are mutually
    consistent on the matched entities. *)
val conflicts :
  Identify.result ->
  (string * Relational.Value.t * Relational.Value.t * Relational.Tuple.t) list
