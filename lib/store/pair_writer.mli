(** The [identify --stream-out] writer: one record per matched pair of
    R′ × S′, rendered straight from the two relations' {!Relational.Intern}
    code columns, with no tuple and no {!Json.t} in between.

    Each distinct code is rendered once per {!records} call, into a
    cache indexed by code and sized to every code interned when the call
    is made ({!Relational.Intern.memo}); a record then appends each
    cell's cached text. The bytes
    are those of the tuple-based emitter they replace: an NDJSON record
    is [Json.to_string] of [{"r":{...},"s":{...}}] with R′'s and S′'s
    attributes in schema order ({!Service.add_value} per cell); a CSV
    record is the cells' {!Relational.Value.to_string}, each through
    {!Relational.Csv_io.escape_cell}, joined by commas. *)

type format = [ `Ndjson | `Csv ]

(** [header oc format ~r_names ~s_names] — what precedes the records:
    nothing for NDJSON; for CSV, the row of [r.]-prefixed R′ names then
    [s.]-prefixed S′ names, escaped. *)
val header :
  out_channel -> format -> r_names:string list -> s_names:string list -> unit

(** [records oc format r' s'] — on these four arguments, sizes the cache
    and lays out the record; the function it returns writes, on each
    call [i j], the record of row [i] of [r'] and row [j] of [s'] to
    [oc]. Every code of [r'] and [s'] must be interned when it is called,
    as it is once both are built. *)
val records :
  out_channel ->
  format ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  int ->
  int ->
  unit
