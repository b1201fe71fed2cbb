(** ASCII table rendering in the style of the paper's Prolog session
    output (Section 6): a title, a dashed rule, left-aligned columns. *)

(** [render ?title r] formats the relation as an aligned text table:
    [title] underlined with [=], the header, a dashed rule, then one
    line per row in relation order, every cell (the last one too)
    padded with spaces to its column's widest cell, counted in bytes,
    and cells two spaces apart. NULLs print as ["null"], exactly as in
    the prototype.

    Every table is rendered from the relation's {!Relation.columnar}
    code columns: each distinct code's {!Value.to_string} is made once
    ({!Intern.memo}), and no row is decoded. A cell therefore prints its
    code's stored value, which for a relation built from tuples is the
    first-interned of the values {!Value.equal} equates ([0.] and [-0.],
    say). *)
val render : ?title:string -> Relation.t -> string

(** [output ?title oc r] — writes {!render}'s text to [oc] as it is
    made, a 64 KiB buffer at a time, rather than building it whole.
    @raise Sys_error when a write fails. *)
val output : ?title:string -> out_channel -> Relation.t -> unit

(** [print ?title r] is [output ?title stdout r]. *)
val print : ?title:string -> Relation.t -> unit

(** [render_rows ~header rows] renders raw string rows (used by the bench
    harness for paper-vs-measured summaries). *)
val render_rows : header:string list -> string list list -> string
