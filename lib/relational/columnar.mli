(** Column-major, int-coded rows: the form every {!Relation.t} holds.

    A columnar view stores one {!Intern} storage code per cell, one
    array per attribute, so key probes, blocking buckets and hash joins
    compare small integer arrays instead of structural values. Code [0]
    is NULL ({!Intern.null_code}); storage-code equality is exactly
    {!Value.equal} on the decoded cells. *)

type t

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

(** [has_null cols i] — row [i] holds NULL ({!Intern.null_code}) in
    one of [cols], columns of storage or match codes: a key that can
    never match. *)
val has_null : int array array -> int -> bool
