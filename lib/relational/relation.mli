(** Relations: immutable sets of tuples over a schema, with candidate keys.

    Following the paper, every relation is expected to carry one or more
    candidate keys; if none is supplied the whole attribute set is treated
    as the key. Relations have set semantics: exact duplicate tuples are
    silently collapsed, but two {e distinct} tuples agreeing on a candidate
    key raise {!Key_violation}. *)

type t

exception Key_violation of { key : string list; tuple : Tuple.t }

(** [create schema ~keys rows] builds a relation.
    @raise Schema.Unknown_attribute if a key names a missing attribute.
    @raise Key_violation on a candidate-key violation (including a NULL in
    a key attribute).
    @raise Tuple.Arity_mismatch on a row of the wrong width. *)
val create : Schema.t -> ?keys:string list list -> Value.t list list -> t

(** [of_tuples schema ~keys tuples] is {!create} over prebuilt tuples. *)
val of_tuples : Schema.t -> ?keys:string list list -> Tuple.t list -> t

val empty : Schema.t -> ?keys:string list list -> unit -> t

val schema : t -> Schema.t

(** [columnar r] — the relation's column-major {!Intern}-coded view,
    built on first use and cached (interning runs on the calling domain;
    see {!Intern} for the domain discipline). *)
val columnar : t -> Columnar.t

(** Candidate keys; never empty (defaults to the full attribute set). Only
    {e declared} keys are validated — the defaulted whole-schema key is a
    convention from the paper (footnote 1), not an enforced constraint. *)
val keys : t -> string list list

(** The keys as declared at construction; [[]] when none were given. *)
val declared_keys : t -> string list list

(** The first candidate key. *)
val primary_key : t -> string list

val cardinality : t -> int
val is_empty : t -> bool
val tuples : t -> Tuple.t list
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool
val find_opt : (Tuple.t -> bool) -> t -> Tuple.t option
val mem : t -> Tuple.t -> bool

(** [add r tuple] is [r] plus [tuple]: an exact duplicate leaves [r]
    as it is. O(n) — it rebuilds the relation and re-checks every key —
    so bulk paths should use {!create}, and a relation that grows one
    tuple at a time should be a {!Keyed.t}, whose [add] has these
    semantics in O(log n) and is tested against this one.
    @raise Key_violation as for {!create}. *)
val add : t -> Tuple.t -> t

(** [get schema-lookup] sugar: [value r tuple name]. *)
val value : t -> Tuple.t -> string -> Value.t

(** [key_of r tuple] projects [tuple] on the primary key. *)
val key_of : t -> Tuple.t -> Tuple.t

(** [with_keys r keys] re-validates [r] under new candidate keys. *)
val with_keys : t -> string list list -> t

(** [check_key schema key rows] is [Ok ()] or the first offending tuple. *)
val check_key :
  Schema.t -> string list -> Tuple.t list -> (unit, Tuple.t) result

(** Structural equality: same schema (names and types, in order) and same
    tuple set. Declared keys are not compared. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
