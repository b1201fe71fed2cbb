(** Minimal CSV reader/writer for relations (RFC-4180-style quoting).

    The first record is the header (attribute names). Cells are parsed with
    {!Value.of_csv_string}: empty and ["null"] cells become [Null]. A
    UTF-8 byte-order mark ([EF BB BF]) at the very start of the input is
    skipped, so it never becomes part of the first column's name. *)

exception Parse_error of { line : int; message : string }

(** [parse_string s] returns the records of [s] (each a list of cells). *)
val parse_string : string -> string list list

(** [relation_of_string ?keys s] reads a relation with a header row, in
    one pass over the records: each cell is interned once ({!Intern}),
    straight into the code columns of a {!Relation.builder}, which drops
    exact-duplicate rows (the first copy wins) and checks each declared
    key as the rows arrive. The builder is sized first, from a count of
    [s]'s newlines (an upper bound on its rows), so its columns and key
    tables never regrow. The result is held as those code columns.

    The outcome is exactly that of {!Relation.of_tuples} over the rows of
    {!parse_string} (and of the checker's tuple-based set-semantics pass
    over them): the same rows in the same order, the same exception
    with the same witness. Exceptions come in this order:
    - [Parse_error] on an unterminated quote (line: where the input
      ends), empty input (line 1), a header that repeats a column name
      (line 1), then the first ragged row (line: its record number,
      the header being record 1);
    - then, for each declared key in declaration order,
      {!Schema.Unknown_attribute} or {!Relation.Key_violation}. *)
val relation_of_string : ?keys:string list list -> string -> Relation.t

val load : ?keys:string list list -> string -> Relation.t
(** [load path] reads a relation from the file at [path]. *)

(** [header path] — the attribute names {!load} reads from the file at
    [path]: its first record's cells, trimmed. The records after it are
    not parsed.
    @raise Parse_error when the first record's quote is never closed. *)
val header : string -> string list

(** [escape_cell s] — [s] as one CSV cell: unchanged unless it holds a
    comma, a double quote or a line break, in which case it is quoted
    with inner quotes doubled. *)
val escape_cell : string -> string

(** [to_string r] renders with a header row; [Null] prints as empty.
    The rows are rendered from [r]'s {!Relation.columnar} code columns,
    each distinct code's cell once ({!Intern.memo}). *)
val to_string : Relation.t -> string

(** [output oc r] — writes {!to_string}'s text to [oc] as it is made.
    @raise Sys_error when a write fails. *)
val output : out_channel -> Relation.t -> unit

(** [save r path] — {!output} into the file at [path], created or
    truncated.
    @raise Sys_error when the file cannot be opened, or a write or the
    closing flush fails. *)
val save : Relation.t -> string -> unit
