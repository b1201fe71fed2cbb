(** Relations: immutable sets of tuples over a schema, with candidate keys.

    Following the paper, every relation is expected to carry one or more
    candidate keys; if none is supplied the whole attribute set is treated
    as the key. Relations have set semantics: exact duplicate tuples are
    silently collapsed, but two {e distinct} tuples agreeing on a candidate
    key raise {!Key_violation}.

    Every relation holds its rows as {!Intern} code columns
    ({!columnar}), and every constructor establishes set semantics the
    same way: it offers the rows' codes to a {!builder} and {!build}s it.
    The one exception is an {!extend} that inherits set semantics from
    its source under a precondition it checks.

    Tuples are a cache: {!tuples} (or {!iter}, {!fold}, …) decodes
    every row on first use and keeps them, and {!row} decodes one row
    without decoding the others. {!of_tuples} keeps the tuples it was
    given for the rows it keeps, so {!tuples} returns them as given. *)

type t

exception Key_violation of { key : string list; tuple : Tuple.t }

(** [create schema ~keys rows] builds a relation: {!of_tuples} over
    [rows] made tuples.
    @raise Schema.Unknown_attribute if a key names a missing attribute.
    @raise Key_violation on a candidate-key violation (including a NULL in
    a key attribute).
    @raise Tuple.Arity_mismatch on a row of the wrong width. *)
val create : Schema.t -> ?keys:string list list -> Value.t list list -> t

(** [of_tuples schema ~keys tuples] — each tuple's cells interned and
    offered, in order, to a {!builder}, then {!build}: an exact
    duplicate is dropped (the first copy wins), and a key problem raises
    what {!build} raises.
    @raise Tuple.Arity_mismatch on a tuple of the wrong width, as it is
    offered. *)
val of_tuples : Schema.t -> ?keys:string list list -> Tuple.t list -> t

val empty : Schema.t -> ?keys:string list list -> unit -> t

(** {2 Coded construction}

    A relation assembled one row of {!Intern} storage codes at a time:
    the one place set semantics are established. Storage codes partition
    cells exactly as {!Value.equal} does, so the builder keeps the
    distinct rows under {!Value.equal}, first seen first. It hashes row
    indices over its code columns, with one table per declared key (key
    0's table also finds exact duplicates) or, with no declared key, one
    table over the whole row. *)

type builder

(** [builder ~rows schema ~keys] — an empty builder for a relation over
    [schema] with the declared [keys] ([[]] for none), its code columns
    and key tables sized for [rows] rows: up to that many rows nothing
    regrows, and when exactly [rows] are kept, {!build} takes the
    columns without copying them. Past [rows], the columns double as
    needed. Never raises: key problems surface in {!build}. *)
val builder : rows:int -> Schema.t -> keys:string list list -> builder

(** [add_codes b codes] — offer the row whose cell [a] has storage code
    [codes.(a)] (read, not kept). An exact duplicate of a kept row is
    dropped, so the first copy wins.
    @raise Invalid_argument on a row of the wrong arity. *)
val add_codes : builder -> int array -> unit

(** [build b] — the relation of the rows kept, in first-seen order,
    held as the code columns it was built from: its tuples are decoded
    on first use.
    For each declared key in declaration order, raises
    {!Schema.Unknown_attribute} if it names a missing attribute, then
    {!Key_violation} carrying the first distinct row that breaks it (a
    NULL in the key breaks it too), decoded from its codes.
    @raise Invalid_argument on a code {!Intern} never returned. *)
val build : builder -> t

(** [of_columnar c] — the relation of [c]'s rows, in [c]'s order, with
    no declared key: {!builder} and {!build} over each row's codes, so
    an exact duplicate is dropped (the first copy wins) and the result
    is held as code columns. *)
val of_columnar : Columnar.t -> t

(** {2 Extension} *)

(** [extend r target ~classes ~derived] — the paper's R′ over
    [target] (Section 4.2): row [i] is row [i] of [r] with every
    attribute of [target] that [r] lacks NULL, then each [(p, code)] of
    [derived.(classes.(i))] written at position [p] of [target]. A
    derived cell may only fill a NULL cell. The result's declared keys
    are [r]'s.

    The code columns are made from [r]'s ({!columnar}): untouched
    columns are shared, derived cells are written as their codes from
    [derived], and no tuple is built. When [r] has a declared key and
    [target] keeps every attribute of [r] — checked in O(arity) — the
    rows are distinct and key-valid by construction: a derived cell
    lands on a NULL, checked in O(1) per write, and declared-key cells
    are never NULL, so no set-semantics pass runs. Otherwise the rows go
    through a {!builder}, which may collapse rows that derivation made
    equal.
    @raise Invalid_argument when [classes] does not have one entry per
    row, or when a derived cell lands on a non-NULL cell.
    @raise Key_violation or Schema.Unknown_attribute as {!build} does,
    when the rows go through a builder. *)
val extend :
  t ->
  Schema.t ->
  classes:int array ->
  derived:(int * int) list array ->
  t

val schema : t -> Schema.t

(** [columnar r] — the relation's rows, as the column-major
    {!Intern}-coded view it holds. *)
val columnar : t -> Columnar.t

(** [row r i] — row [i] (from 0, in relation order): [List.nth (tuples
    r) i]. Until {!tuples} has decoded every row, it decodes that row
    alone, each call, and keeps nothing.
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
    as it is. O(n) — it rebuilds the relation through {!of_tuples} and
    re-checks every key — so bulk paths should use {!create}, and a
    relation that grows one tuple at a time should be a {!Keyed.t},
    whose [add] has these semantics in O(log n) and is tested against
    this one.
    @raise Key_violation as for {!create}. *)
val add : t -> Tuple.t -> t

(** [get schema-lookup] sugar: [value r tuple name]. *)
val value : t -> Tuple.t -> string -> Value.t

(** [key_of r tuple] projects [tuple] on the primary key. *)
val key_of : t -> Tuple.t -> Tuple.t

(** [with_keys r keys] re-validates [r] under new candidate keys, through
    {!of_tuples}. *)
val with_keys : t -> string list list -> t

(** Structural equality: same schema (names, in order) and same tuple
    set under {!Value.equal}, compared on storage codes. Declared keys
    are not compared. *)
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

    Key equality is the builder's: {!Value.compare} on the projected
    key, which is 0 exactly when {!Value.equal} holds, so [Int 1] and
    [Float 1.] differ, [nan] equals [nan] and [0.] equals [-0.]. *)
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
      order: {!Relation.of_tuples} over {!tuples}. *)
  val to_relation : t -> relation
end
