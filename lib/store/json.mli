(** A minimal JSON value type, parser and printer.

    The serve protocol is line-delimited JSON and the container carries
    no JSON package, so the store keeps its own ~150-line
    implementation: full RFC 8259 value syntax (nested arrays/objects,
    string escapes incl. [\uXXXX] encoded to UTF-8), integers kept
    distinct from floats so attribute values round-trip exactly.
    Object member order is preserved; duplicate members keep the last
    occurrence on lookup, as most parsers do. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** JSON text already rendered, which {!to_string} copies as it
          is: a reply too large to build value by value. {!parse} never
          produces it. *)

(** [parse s] — the single JSON value in [s] (surrounding whitespace
    allowed; trailing garbage is an error). *)
val parse : string -> (t, string) result

(** Compact single-line rendering. A finite float prints with the
    fewest digits (12 or 17 significant) that read back to the same
    double, and always with a fraction or an exponent — [3.] prints as
    [3.0], [-0.] as [-0.0] — so {!parse} never reads it back as an
    [Int]. Non-finite floats have no JSON literal and are rendered as
    quoted strings, keeping output always parseable. *)
val to_string : t -> string

(** {2 Writing into a buffer}

    What {!to_string} appends for a string or a float, for a writer that
    renders records straight from its own values into one reused buffer
    (the [--stream-out] NDJSON writer) with no [t] in between. *)

(** [escape buf s] — [s]'s bytes as the body of a JSON string, without
    the quotes: a quote, a backslash and every byte below [0x20] are
    escaped ([\n], [\r], [\t] by name, the others as [\u00XX]);
    every other byte, UTF-8 included, is copied as is. Each run of bytes
    that needs no escape is copied with one [Buffer.add_substring]. *)
val escape : Buffer.t -> string -> unit

(** [add_string buf s] — appends [to_string (String s)]. *)
val add_string : Buffer.t -> string -> unit

(** [add_float buf f] — appends [to_string (Float f)]. *)
val add_float : Buffer.t -> float -> unit

(** [member_prefixes names] — for the [k]th name, what {!to_string}
    writes before its value in an object of [names]' members: a comma
    unless [k = 0], then the quoted name and a colon. *)
val member_prefixes : string list -> string array

(** [member name j] — field [name] of an object ([None] when absent or
    [j] is not an object; last occurrence wins). *)
val member : string -> t -> t option

(** [string_member name j] — convenience: [member] that must be a
    string. *)
val string_member : string -> t -> string option
