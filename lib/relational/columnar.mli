(** Column-major, int-coded views of tuple sets.

    A columnar view stores one {!Intern} storage code per cell, one
    array per attribute, so key probes, blocking buckets and hash joins
    compare small integer arrays instead of structural values. Code [0]
    is NULL ({!Intern.null_code}); storage-code equality is exactly
    {!Value.equal} on the decoded cells.

    Encoding interns every cell, so it must run on the loading domain
    (see {!Intern}); the resulting view is immutable and safe to read
    from any domain. *)

type t

(** [encode schema rows] — intern every cell of [rows] (tuples over
    [schema]) and return the column-major code view. *)
val encode : Schema.t -> Tuple.t array -> t

(** [make schema length columns] — the view whose column [a] is
    [columns.(a)], taken as is (not copied): codes the caller interned,
    one column of [length] codes per attribute of [schema].
    @raise Invalid_argument on any other shape. *)
val make : Schema.t -> int -> int array array -> t

val schema : t -> Schema.t

(** Number of rows. *)
val length : t -> int

(** [nth t a] — the code column of the attribute at position [a]. *)
val nth : t -> int -> int array

(** [column t name] — the code column of one attribute.
    @raise Schema.Unknown_attribute on an unknown name. *)
val column : t -> string -> int array

(** [columns t names] — the code columns of [names], in order. *)
val columns : t -> string list -> int array array

(** [equal a b] — same schema, same length, same code in every cell.
    Codes are process-global, so two views of equal rows are equal. *)
val equal : t -> t -> bool

(** How a row's key reads on match-code columns: [Null_key] when a cell
    is NULL, so it can never match; else [Unsafe_key] when a cell holds
    an ambiguous number (above 2⁵³, {!Intern.unsafe_match}), whose
    partners only {!Value.non_null_eq} can tell; else [Safe_key], whose
    partners are exactly the rows with equal match codes. *)
type key_kind = Null_key | Unsafe_key | Safe_key

(** [key_kind matches i] — row [i]'s key across [matches], columns of
    {!Intern.match_code}s. *)
val key_kind : int array array -> int -> key_kind
