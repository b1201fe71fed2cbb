(** Minimal CSV reader/writer for relations (RFC-4180-style quoting).

    The first record is the header (attribute names). Cells are parsed with
    {!Value.of_csv_string}: empty and ["null"] cells become [Null]. *)

exception Parse_error of { line : int; message : string }

(** [parse_string s] returns the records of [s] (each a list of cells). *)
val parse_string : string -> string list list

(** [relation_of_string ?keys s] reads a relation with a header row.
    @raise Parse_error on malformed input (unterminated quote, ragged row,
    empty input). *)
val relation_of_string : ?keys:string list list -> string -> Relation.t

val load : ?keys:string list list -> string -> Relation.t
(** [load path] reads a relation from the file at [path]. *)

(** [escape_cell s] — [s] as one CSV cell: unchanged unless it holds a
    comma, a double quote or a line break, in which case it is quoted
    with inner quotes doubled. *)
val escape_cell : string -> string

(** [to_string r] renders with a header row; [Null] prints as empty. *)
val to_string : Relation.t -> string

val save : Relation.t -> string -> unit
