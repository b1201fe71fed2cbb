(** Relations: immutable sets of tuples over a schema, with candidate keys.

    Following the paper, every relation is expected to carry one or more
    candidate keys; if none is supplied the whole attribute set is treated
    as the key. Relations have set semantics: exact duplicate tuples are
    silently collapsed, but two {e distinct} tuples agreeing on a candidate
    key raise {!Key_violation}.

    Set semantics are established once, when a relation is constructed,
    and every constructor establishes them: {!of_tuples} (the general
    constructor) by a pass over the rows, {!build} on {!Intern} storage
    codes as the rows arrive, {!extend} by inheriting them from its
    source under a precondition it checks, and {!Keyed.to_relation} by
    handing over rows that {!Keyed.add} checked one at a time.

    A relation holds its rows as tuples, as {!Intern} code columns
    ({!columnar}), or both. The coded constructors ({!build} and an
    {!extend} that inherits set semantics) hold only the code columns:
    such a relation decodes its tuples on first use of {!tuples} (or
    {!iter}, {!fold}, …) and keeps them, and {!row} decodes one row
    without decoding the others. A relation built from tuples encodes
    its code columns on first use of {!columnar}. Either way the rows
    and the columns describe the same tuples. *)

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

(** {2 Coded construction}

    A relation assembled one row of {!Intern} storage codes at a time.
    Storage codes partition cells exactly as {!Value.equal} does, so
    deduplicating and key-checking on codes keeps exactly the rows
    {!of_tuples} keeps and raises exactly what it raises: the builder
    hashes row indices over its code columns, with one table per
    declared key (key 0's table also finds exact duplicates) or, with no
    declared key, one table over the whole row. *)

type builder

(** [builder schema ~keys] — an empty builder for a relation over
    [schema] with the declared [keys] ([[]] for none). Never raises: key
    problems surface in {!build}. *)
val builder : Schema.t -> keys:string list list -> builder

(** [add_codes b codes] — offer the row whose cell [a] has storage code
    [codes.(a)] (read, not kept). An exact duplicate of a kept row is
    dropped, so the first copy wins.
    @raise Invalid_argument on a row of the wrong arity. *)
val add_codes : builder -> int array -> unit

(** [build b] — the relation of the rows kept, in first-seen order,
    held as the code columns it was built from: its tuples are decoded
    on first use (at once when [schema] has a typed attribute, whose
    check a decode makes).
    Raises what {!of_tuples} over the offered rows raises, in the same
    order: for each declared key in declaration order,
    {!Schema.Unknown_attribute} if it names a missing attribute, then
    {!Key_violation} carrying the first distinct row that breaks it.
    @raise Invalid_argument on a code {!Intern} never returned. *)
val build : builder -> t

(** {2 Extension} *)

(** [extend r target ~classes ~derived] — the paper's R′ over
    [target] (Section 4.2): row [i] is row [i] of [r] with every
    attribute of [target] that [r] lacks NULL, then each [(p, code)] of
    [derived.(classes.(i))] written at position [p] of [target]. A
    derived cell may only fill a NULL cell. The result's declared keys
    are [r]'s.

    When [r] has a declared key and [target] keeps every attribute of
    [r] — checked in O(arity) — the rows are distinct and key-valid by
    construction: a derived cell lands on a NULL, checked in O(1) per
    write, and declared-key cells are never NULL. No set-semantics pass
    runs, and the result holds only code columns, made from [r]'s
    ({!columnar}): untouched columns are shared, derived cells are
    written as their codes from [derived], and no tuple is built (a
    typed [target] decodes each row once, for its check). Otherwise the
    rows go through {!of_tuples}, which may collapse rows that
    derivation made equal.
    @raise Invalid_argument when [classes] does not have one entry per
    row, when a derived cell lands on a non-NULL cell, or on a row that
    breaks a type of [target].
    @raise Key_violation or Schema.Unknown_attribute as {!of_tuples}
    does, on the fallback. *)
val extend :
  t ->
  Schema.t ->
  classes:int array ->
  derived:(int * int) list array ->
  t

val schema : t -> Schema.t

(** [columnar r] — the relation's column-major {!Intern}-coded view. The
    coded constructors ({!build}, {!extend}) hold it from the start;
    otherwise it is built on first use and cached (interning runs on
    the calling domain; see {!Intern} for the domain discipline). *)
val columnar : t -> Columnar.t

(** [row r i] — row [i] (from 0, in relation order): [List.nth (tuples
    r) i]. A relation held as code columns decodes that row alone, each
    call, and keeps nothing.
    @raise Invalid_argument when [i] is not a row. *)
val row : t -> int -> Tuple.t

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

(** {2 Append-only keyed relations} *)

(** Append-only relations with a persistent index per key: the
    O(k log n) form of {!add} (k declared keys), for a relation that
    grows one tuple at a time, like the incremental engine's base
    relations.

    Each declared key gets a persistent map from the key's projection to
    the tuple carrying it; with no declared key, one map over the whole
    schema holds the set membership. Values are persistent: [Keyed.add]
    returns a new relation and leaves its argument usable. A value is
    pure data — rows, schema and maps, no closures and no interned
    codes — so it is safe to [Marshal] across processes with its maps
    built.

    [Keyed.add] has exactly {!add}'s semantics, which a property test
    holds it to:
    - an exact duplicate ({!Tuple.equal}) changes nothing;
    - a NULL in a declared key, or a second distinct tuple agreeing with
      a stored one on a declared key, raises {!Key_violation} with the
      first violated key in declaration order and the new tuple;
    - the rows keep insertion order.

    Key equality is {!check_key}'s structural equality: {!Value.compare}
    on the projected key, under which [Int 1] and [Float 1.] differ,
    [nan] equals [nan] and [0.] equals [-0.].

    It lives in this module so that [Keyed.to_relation] can hand over
    the rows [Keyed.add] already holds distinct and key-valid, in O(n),
    without checking them again. *)
module Keyed : sig
  type relation := t
  type t

  (** [empty schema ~keys] — no rows, with the given declared keys
      ([[]] for none). @raise Schema.Unknown_attribute if a key names a
      missing attribute. *)
  val empty : Schema.t -> keys:string list list -> t

  (** [of_relation r] — [r]'s rows and declared keys, in [r]'s order. *)
  val of_relation : relation -> t

  (** [of_tuples schema ~keys tuples] — [tuples] added in order: the
      same rows {!Relation.of_tuples} keeps.
      @raise Key_violation on the first tuple that breaks a declared
      key. *)
  val of_tuples : Schema.t -> keys:string list list -> Tuple.t list -> t

  (** [add t tuple] — [Some] relation with [tuple] appended, or [None]
      when [tuple] is an exact duplicate of a stored row.
      @raise Key_violation as {!Relation.add} does. *)
  val add : t -> Tuple.t -> t option

  val schema : t -> Schema.t

  (** The keys as declared; [[]] when none were. *)
  val declared_keys : t -> string list list

  (** The first declared key, or the whole schema when none was
      declared ({!Relation.primary_key}). *)
  val primary_key : t -> string list

  val cardinality : t -> int

  (** [mem_key t values] — some row's projection on {!primary_key}
      equals [values], in {!primary_key} order. O(log n). *)
  val mem_key : t -> Value.t array -> bool

  (** [find_key t values] — the row {!mem_key} finds, if any. O(log n). *)
  val find_key : t -> Value.t array -> Tuple.t option

  (** The rows in insertion order. O(n). *)
  val tuples : t -> Tuple.t list

  (** [to_relation t] — the same rows as a relation, in insertion
      order. O(n): [add] already holds them distinct and key-valid, so
      they are handed over without a second check. *)
  val to_relation : t -> relation
end
