(** Matching tables (MT_RS) and negative matching tables (NMT_RS).

    An entry pairs the key values of an R-tuple with those of an S-tuple
    (Section 3.2). The same structure serves both tables; the
    {e uniqueness constraint} (no tuple matched to more than one tuple on
    the other side) applies to the matching table only, and the
    {e consistency constraint} relates the two. *)

type entry = { r_key : Relational.Tuple.t; s_key : Relational.Tuple.t }

(** One relation over [r_<key>… s_<key>…] held as
    {!Relational.Intern} code columns, row [i] being entry [i] in entry
    (first-seen) order. Every constructor drops exact duplicates
    through the relation builder; [mem] probes one
    {!Relational.Code_table} over the rows, [uniqueness_violations]
    groups a side's key codes ({!Relational.Code_table.classes}) when a
    key repeats there, and [to_relation] sorts on the codes. All are
    linear in the table but the sort. *)
type t

val r_key_attrs : t -> string list
val s_key_attrs : t -> string list

type violation =
  | R_tuple_matched_twice of { r_key : Relational.Tuple.t;
                               s_keys : Relational.Tuple.t list }
  | S_tuple_matched_twice of { s_key : Relational.Tuple.t;
                               r_keys : Relational.Tuple.t list }

(** [make ~r_key_attrs ~s_key_attrs entries] — exact duplicates
    ({!Relational.Value.equal} on both keys) collapse, the first copy
    kept; no constraint is checked here (checking is a separate,
    reportable step, as in the prototype's [verify]).
    @raise Relational.Tuple.Arity_mismatch on an entry whose key is not
    as wide as its attribute list. *)
val make :
  r_key_attrs:string list -> s_key_attrs:string list -> entry list -> t

(** [of_codes ~r_key_attrs ~s_key_attrs columns] — entry [i] holds the
    storage codes [columns.(k).(i)]: the R key's columns, then the S
    key's, already in pair order.
    @raise Invalid_argument unless there is one column per key
    attribute, all of one length, of codes {!Relational.Intern}
    returned. *)
val of_codes :
  r_key_attrs:string list -> s_key_attrs:string list -> int array array -> t

(** [of_relation ~r_key_attrs ~s_key_attrs rel] — {!of_codes} over
    [rel]'s columns [r_<key>… s_<key>…].
    @raise Relational.Schema.Unknown_attribute when [rel] lacks one. *)
val of_relation :
  r_key_attrs:string list -> s_key_attrs:string list ->
  Relational.Relation.t -> t

(** [key_codes t] — the R key's code columns and the S key's, row [i]
    being entry [i]'s. *)
val key_codes : t -> int array array * int array array

(** [entries t] — in entry order, with the values [make] was given (a
    coded table's decoded). *)
val entries : t -> entry list

val cardinality : t -> int

(** [mem t entry] — false for an entry of another width, or holding a
    value never interned. *)
val mem : t -> entry -> bool

(** [add t entry] — the paper allows a knowledgeable user to assert
    additional pairs directly. O(n): {!make} over [entries t] and
    [entry], unless [t] holds it.
    @raise Relational.Tuple.Arity_mismatch as {!make} does. *)
val add : t -> entry -> t

(** [uniqueness_violations t] — witnesses against the uniqueness
    constraint, empty when sound: one per R key with several partners,
    in the order the keys first appear, then one per such S key, each
    listing its partners in entry order. The prototype's [correct]
    predicate computes exactly this via bagof/setof cardinalities. *)
val uniqueness_violations : t -> violation list

val satisfies_uniqueness : t -> bool

(** [consistent mt nmt] — no pair appears in both tables (the consistency
    constraint). *)
val consistent : t -> t -> bool

(** [to_relation t] — as a relation with attributes [r_<key>… s_<key>…],
    sorted ({!Relational.Intern.compare_codes} column by column, that
    is {!Relational.Tuple.compare} on the rows), for display and
    set-algebraic use. *)
val to_relation : t -> Relational.Relation.t

val pp : Format.formatter -> t -> unit
val pp_violation : Format.formatter -> violation -> unit
