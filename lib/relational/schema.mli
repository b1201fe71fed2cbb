(** Relation schemas: an ordered list of attribute names.

    Attribute names within a schema are unique. Synonym resolution (mapping
    semantically equivalent attributes in two databases to a common name) is
    assumed done at schema-integration time, as in the paper; the entity-id
    layer therefore addresses attributes purely by name. *)

type t

exception Duplicate_attribute of string
exception Unknown_attribute of string

(** [of_names names] builds a schema. @raise Duplicate_attribute on
    repeats. *)
val of_names : string list -> t

val names : t -> string list
val arity : t -> int
val mem : t -> string -> bool

(** [index_of s name] is the position of [name].
    @raise Unknown_attribute if absent. *)
val index_of : t -> string -> int

val index_of_opt : t -> string -> int option

(** [project s names] is the sub-schema in the order of [names].
    @raise Unknown_attribute if any is absent. *)
val project : t -> string list -> t

(** [concat a b] appends the attributes of [b] to [a].
    @raise Duplicate_attribute on a name clash. *)
val concat : t -> t -> t

(** [rename s mapping] renames attributes per the association list; names
    absent from [mapping] are kept.
    @raise Unknown_attribute if a source name is absent.
    @raise Duplicate_attribute if renaming creates a clash. *)
val rename : t -> (string * string) list -> t

(** [restrict_away s names] drops the given attributes. *)
val restrict_away : t -> string list -> t

(** [common a b] lists attribute names present in both, in [a]'s order. *)
val common : t -> t -> string list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
