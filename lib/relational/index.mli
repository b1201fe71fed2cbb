(** Indexes over relations — point lookups on an attribute list without
    rescanning, used by the incremental identification engine for its
    K_Ext probes. NULL-containing keys are not indexed (they can never
    satisfy a non-NULL equality lookup). A lookup finds the tuples whose
    key is {!Value.non_null_eq} to the probe on every attribute — the
    paper's K_Ext join condition ({!Tuple.agree}), under which [Int 1]
    and [Float 1.] match — as the batch join does.

    Keys are stored as the canonical representatives of their cells'
    match classes ({!Intern.canon}), compared with {!Value.compare}, so
    neither an insert nor a probe interns anything, and an index is pure
    data — no closures and no interned codes — that is safe to
    [Marshal] across processes. A key cell whose match class is
    ambiguous (a number above 2⁵³, {!Intern.is_unsafe}) has no
    representative: those tuples, and every tuple when the probe holds
    such a number, are tested with {!Value.non_null_eq}, in O(n). *)

type t

(** [build r attrs] — index [r] on [attrs].
    @raise Schema.Unknown_attribute for unknown attributes. *)
val build : Relation.t -> string list -> t

(** [of_tuples schema attrs tuples] — index [tuples] (conforming to
    [schema]) on [attrs], in list order. Tuples {!add}ed later conform
    to [schema] too: the index reads their key cells by position.
    @raise Schema.Unknown_attribute for unknown attributes. *)
val of_tuples : Schema.t -> string list -> Tuple.t list -> t

val attributes : t -> string list

(** [lookup idx values] — all tuples whose projection is
    {!Value.non_null_eq} to [values] on every attribute, in insertion
    order. NULLs in [values] find nothing. *)
val lookup : t -> Value.t list -> Tuple.t list

(** [lookup_tuple idx schema tuple] — project [tuple] on the index
    attributes (under [schema]) and look that up. *)
val lookup_tuple : t -> Schema.t -> Tuple.t -> Tuple.t list

(** [add idx tuple] — functional update used when a relation grows;
    [tuple] conforms to the schema [idx] was built over. *)
val add : t -> Tuple.t -> t

val cardinality : t -> int
(** Indexed (non-NULL-key) tuples. *)
