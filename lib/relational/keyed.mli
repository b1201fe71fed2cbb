(** Append-only relations with a persistent index per key: the
    O(k log n) form of {!Relation.add} (k declared keys), for a
    relation that grows one tuple at a time, like the incremental
    engine's base relations.

    Each declared key gets a persistent map from the key's projection to
    the tuple carrying it; with no declared key, one map over the whole
    schema holds the set membership. Values are persistent: [add]
    returns a new relation and leaves its argument usable.

    [add] has exactly {!Relation.add}'s semantics, which a property test
    holds it to:
    - an exact duplicate ({!Tuple.equal}) changes nothing;
    - a NULL in a declared key, or a second distinct tuple agreeing with
      a stored one on a declared key, raises {!Relation.Key_violation}
      with the first violated key in declaration order and the new
      tuple;
    - the rows keep insertion order.

    Key equality is {!Relation.check_key}'s structural equality:
    {!Value.compare} on the projected key, under which [Int 1] and
    [Float 1.] differ, [nan] equals [nan] and [0.] equals [-0.]. *)

type t

(** [empty schema ~keys] — no rows, with the given declared keys ([[]]
    for none). @raise Schema.Unknown_attribute if a key names a missing
    attribute. *)
val empty : Schema.t -> keys:string list list -> t

(** [of_relation r] — [r]'s rows and declared keys, in [r]'s order. *)
val of_relation : Relation.t -> t

(** [of_tuples schema ~keys tuples] — [tuples] added in order: the same
    rows {!Relation.of_tuples} keeps.
    @raise Relation.Key_violation on the first tuple that breaks a
    declared key. *)
val of_tuples : Schema.t -> keys:string list list -> Tuple.t list -> t

(** [add t tuple] — [Some] relation with [tuple] appended, or [None]
    when [tuple] is an exact duplicate of a stored row.
    @raise Relation.Key_violation as {!Relation.add} does. *)
val add : t -> Tuple.t -> t option

val schema : t -> Schema.t

(** The keys as declared; [[]] when none were. *)
val declared_keys : t -> string list list

(** The first declared key, or the whole schema when none was declared
    ({!Relation.primary_key}). *)
val primary_key : t -> string list

val cardinality : t -> int

(** [mem_key t values] — some row's projection on {!primary_key} equals
    [values], in {!primary_key} order. O(log n). *)
val mem_key : t -> Value.t array -> bool

(** The rows in insertion order. O(n). *)
val tuples : t -> Tuple.t list

(** [to_relation t] — the same rows as a {!Relation.t}, in insertion
    order. O(n log n): it re-checks the keys. *)
val to_relation : t -> Relation.t
