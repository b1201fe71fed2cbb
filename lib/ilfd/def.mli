(** Instance-level functional dependencies (ILFDs).

    An ILFD is a semantic constraint on real-world entities of the form
    [(E.A1 = a1) ∧ … ∧ (E.An = an) → (E.B = b)] (paper, Section 4.1).
    Unlike an FD, it relates specific {e values}; checking a violation
    involves a single tuple; and it is used to {e derive} new properties
    of entities — the missing extended-key values.

    A [condition] is one [(attribute = value)] pair. *)

type condition = { attribute : string; value : Relational.Value.t }

type t = private { antecedent : condition list; consequent : condition list }

exception Ill_formed of string

val condition : string -> Relational.Value.t -> condition

(** [make ante cons] — antecedent and consequent conditions. Conditions
    are normalised (sorted by attribute).
    @raise Ill_formed on an empty consequent, a duplicated attribute with
    conflicting values within one side, or a NULL value (NULL means
    {e unknown}, it cannot appear in a semantic constraint). *)
val make : condition list -> condition list -> t

(** [make1 ante attr v] — sugar for a single-condition consequent. *)
val make1 : condition list -> string -> Relational.Value.t -> t

val antecedent : t -> condition list
val consequent : t -> condition list

(** [is_trivial i] — every consequent condition already appears in the
    antecedent (holds in any entity set). *)
val is_trivial : t -> bool

(** [attributes i] — all attributes mentioned. *)
val attributes : t -> string list

(** [antecedent_holds schema tuple i] — every antecedent condition is
    satisfied with a non-NULL equal value. *)
val antecedent_holds : Relational.Schema.t -> Relational.Tuple.t -> t -> bool

(** [satisfies schema tuple i] — the tuple does not violate the ILFD:
    antecedent holds ⇒ every consequent attribute present in the schema
    carries the stated (non-NULL) value. A NULL consequent cell counts as
    a violation only in [strict] mode; by default NULL means "not yet
    derived", which is how the prototype treats missing information. *)
val satisfies :
  ?strict:bool -> Relational.Schema.t -> Relational.Tuple.t -> t -> bool

(** [satisfied_by_relation ?strict r i] — no tuple violates it. *)
val satisfied_by_relation : ?strict:bool -> Relational.Relation.t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** Parse the concrete syntax used by rule files and the CLI:
    ["speciality = Mughalai -> cuisine = Indian"], with [&] separating
    antecedent conditions and [,] separating consequent conditions,
    each [attribute = value]. An attribute name is bare: it runs to the
    first [=] and holds none of [& , ->].

    A value parses per [Value.of_csv_string] unless it is quoted. A
    quoted value starts with a double quote and runs to the next double
    quote that is not doubled; it is the string between them, each
    doubled quote inside it read as one (the one escape). Inside it [&], [,], [->], [=], spaces and
    words such as [007], [true] or [null] are literal:
    [name = "Smith & Sons" -> city = Paris]. Only spaces may follow its
    closing quote before the condition ends. An unquoted value runs to
    the next separator of its side or [->], and may hold a quote after
    its first byte.

    The line is read in place: only the rule's conditions and values
    are allocated, and each of the first 64 attribute names the program
    reads is kept once and shared by every rule that names it.
    @raise Ill_formed on syntax errors, among them an unterminated
    quoted value and text after one. *)
val parse : string -> t

(** [pp] and [to_string] print a rule that {!parse} reads back as
    itself: its conditions in attribute order as [attribute=value],
    joined by [" & "] left of the arrow and by [", "] right of it. A
    string value is quoted exactly when it would not read back bare:
    when it is empty, starts or ends with a space, starts with a quote,
    holds its side's separator or [->], or reads as NULL, a number or a
    boolean ([007], [true], [null]). A float prints with the digits it
    needs to read back as the same float. A value holding a line break
    reads back from a string, but a rules file, read line by line,
    cannot hold it. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
