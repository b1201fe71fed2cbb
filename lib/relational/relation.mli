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

(** [add_rows b cols n] — {!add_codes} of rows [0 .. n-1] of the code
    columns [cols], in order. *)
val add_rows : builder -> int array array -> int -> unit

(** {3 One row at a time}

    A builder that grows by {!append} keeps a relation that grows one
    tuple at a time, like a serve store's base relations, with {!add}'s
    semantics at the cost of one probe per declared key, and {!build}
    can be taken again after more rows are added. *)

(** [check b tuple] — [true] when {!append} would keep [tuple], [false]
    when it is an exact duplicate ({!Value.equal} on every cell) of a
    kept row. Interns nothing and changes nothing: a cell never interned
    is in no kept row.
    @raise Tuple.Arity_mismatch on a tuple of the wrong width.
    @raise Key_violation carrying [tuple] and the first declared key, in
    declaration order, that it breaks: a NULL in it, or a kept row that
    agrees with it there and differs elsewhere.
    @raise Schema.Unknown_attribute or Key_violation as {!build} would,
    first, when the rows offered so far already fail. *)
val check : builder -> Tuple.t -> bool

(** [append b tuple] — {!check}, then, when it holds, [tuple]'s cells
    interned and the row kept, last: {!Relation.add}'s semantics. An
    exact duplicate returns [false] and changes nothing, and a tuple
    that raises interns nothing and leaves [b] as it was. *)
val append : builder -> Tuple.t -> bool

val builder_schema : builder -> Schema.t

(** The number of rows kept so far. *)
val kept : builder -> int

(** [kept_code b i a] — the storage code of kept row [i] at attribute
    position [a].
    @raise Invalid_argument when [i] is not a kept row. *)
val kept_code : builder -> int -> int -> int

(** [kept_row b i] — kept row [i], decoded.
    @raise Invalid_argument when [i] is not a kept row. *)
val kept_row : builder -> int -> Tuple.t

(** [find_key b values] — the kept row whose cells on the first declared
    key (on every attribute when none is declared) are [values], in key
    order, compared with {!Value.equal}; [None] when there is none or
    [values] has another width. One probe; it interns nothing. *)
val find_key : builder -> Value.t array -> int option

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
    relation that grows one tuple at a time should be a {!builder} that
    grows by {!append}, which has these semantics in one probe per key
    and is tested against this one.
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
