(** Tuples: immutable value arrays interpreted against a {!Schema.t}.

    A tuple does not carry its schema; the owning {!Relation.t} does. All
    positional accessors take the schema explicitly so that projection and
    concatenation stay cheap. *)

type t

exception Arity_mismatch of { expected : int; got : int }

(** [make schema values] checks arity.
    @raise Arity_mismatch on wrong length. *)
val make : Schema.t -> Value.t list -> t

(** [of_array schema values] is {!make} over an array, copied.
    @raise Arity_mismatch on wrong length. *)
val of_array : Schema.t -> Value.t array -> t
val arity : t -> int

(** [get schema tuple name] is the value of attribute [name].
    @raise Schema.Unknown_attribute if absent. *)
val get : Schema.t -> t -> string -> Value.t

val get_opt : Schema.t -> t -> string -> Value.t option
val nth : t -> int -> Value.t
val values : t -> Value.t list
val to_array : t -> Value.t array

(** [set schema tuple name v] is a copy with attribute [name] set to [v]. *)
val set : Schema.t -> t -> string -> Value.t -> t

(** [project schema tuple names] keeps the named attributes in the given
    order (the resulting tuple is over [Schema.project schema names]). *)
val project : Schema.t -> t -> string list -> t

(** Compiled projection plans: attribute names resolved to positional
    indices once, so per-tuple projection inside hot loops (hash joins,
    blocking buckets, rule evaluation) costs array reads instead of a
    hashtable lookup per attribute per tuple. *)
type plan

(** [plan schema names] resolves [names] against [schema] in order.
    @raise Schema.Unknown_attribute exactly when {!Schema.index_of}
    would on any of the names. *)
val plan : Schema.t -> string list -> plan

val plan_arity : plan -> int

(** [project_with p t = project schema t names] for [p = plan schema
    names], for every [t] conforming to [schema]. *)
val project_with : plan -> t -> t

(** [nth_with p t k] — the value of the [k]-th planned attribute. *)
val nth_with : plan -> t -> int -> Value.t

(** [agree_with pa pb a b = agree sa a sb b names] for [pa = plan sa
    names] and [pb = plan sb names].
    @raise Invalid_argument if the plans have different arities. *)
val agree_with : plan -> plan -> t -> t -> bool

(** [concat a b] appends values of [b] after those of [a]. *)
val concat : t -> t -> t

(** Structural equality with [Null] equal to [Null] (set semantics). *)
val equal : t -> t -> bool

val compare : t -> t -> int
val hash : t -> int

(** [has_null tuple] holds if any attribute is [Null]. *)
val has_null : t -> bool

(** [agree schema_a a schema_b b names] holds when [a] and [b] have
    non-NULL equal values on every attribute in [names] — the paper's
    extended-key join condition ([non_null_eq] on each K_Ext attribute). *)
val agree : Schema.t -> t -> Schema.t -> t -> string list -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
