(** Indexes over relations — point lookups on an attribute list without
    rescanning, used by the incremental identification engine.
    NULL-containing keys are not indexed (they can never satisfy a
    non-NULL equality lookup). Keys are stored as {!Intern} storage
    codes, so probes compare ints rather than structural values; lookup
    semantics (structural value equality) are unchanged. *)

type t

(** [build r attrs] — index [r] on [attrs].
    @raise Schema.Unknown_attribute for unknown attributes. *)
val build : Relation.t -> string list -> t

(** [of_tuples schema attrs tuples] — index [tuples] (conforming to
    [schema]) on [attrs], in list order.
    @raise Schema.Unknown_attribute for unknown attributes. *)
val of_tuples : Schema.t -> string list -> Tuple.t list -> t

val attributes : t -> string list

(** [lookup idx values] — all tuples whose (non-NULL) projection equals
    [values], in insertion order. NULLs in [values] find nothing. *)
val lookup : t -> Value.t list -> Tuple.t list

(** [lookup_tuple idx schema tuple] — project [tuple] on the index
    attributes (under [schema]) and look that up. *)
val lookup_tuple : t -> Schema.t -> Tuple.t -> Tuple.t list

(** [add idx tuple] — functional update used when a relation grows. *)
val add : t -> Schema.t -> Tuple.t -> t

val cardinality : t -> int
(** Indexed (non-NULL-key) tuples. *)
