(** The serve-mode protocol: line-delimited JSON requests against an
    open {!Store}.

    One request per line, one response per line, always a JSON object
    with an ["ok"] boolean. Malformed input (bad JSON, unknown op,
    missing fields, a list or an object where a cell value belongs)
    produces an [{"ok":false,"error":...}] response on the same line
    position — the loop never crashes on input, and nothing of a
    rejected request is journalled.

    A request line holds at most {!max_request_bytes} bytes (1 MiB), its
    newline not counted. A longer line answers
    [{"ok":false,"error":"request_too_large",...}]: it is neither parsed
    nor journalled, and the loop reads past it holding at most the cap
    and one 64 KiB chunk of it.

    Requests ([op] field selects):
    - [insert]: ["side"] (["r"]/["s"]), ["row"] an object of attribute
      values (missing attributes are NULL). Success returns the
      matching-table entries the insertion created; a rejected insert
      returns the typed conflict (and is recorded in the store's
      conflict table).
    - [identify]: the effective matching table, entries sorted
      canonically (R key, then S key), rendered from the store's pair
      set ({!Store.sorted_pairs}) without building the table.
    - [explain]: re-derives and renders the audit trail for every
      matched pair (["report"], human-readable text).
    - [merge], [split]: ["r_key"]/["s_key"] objects of key attribute
      values; returns the merge-log record.
    - [rollback]: inverts the latest active merge/split.
    - [snapshot]: forces a snapshot now.
    - [conflicts]: the typed conflict table.
    - [stats]: WAL offset, cardinalities, recovery and telemetry
      counters. *)

(** [handle store request] — process one request, returning the
    response. Never raises on malformed requests. *)
val handle : Store.t -> Json.t -> Json.t

(** [handle_line store line] — parse, handle, render. *)
val handle_line : Store.t -> string -> string

(** The longest request line {!serve} reads, in bytes: 1 MiB. *)
val max_request_bytes : int

(** [serve ?snapshot_every store ic oc] — the request loop: read lines
    from [ic] until EOF, respond on [oc] (flushed per line). A line over
    {!max_request_bytes} gets the [request_too_large] error and the loop
    goes on. With [snapshot_every:n], a snapshot is written after every
    [n] requests that journalled a record, and at EOF when one came
    after the last snapshot (periodic or explicit), so a clean shutdown
    leaves nothing to replay. *)
val serve : ?snapshot_every:int -> Store.t -> in_channel -> out_channel -> unit

(** Conversions shared with the CLI and {!Pair_writer}. *)

val json_of_value : Relational.Value.t -> Json.t

(** [add_value buf v] — appends [Json.to_string (json_of_value v)] to
    [buf], building no {!Json.t}. *)
val add_value : Buffer.t -> Relational.Value.t -> unit

(** [value_of_json j] — the cell value [j] spells: [null], a boolean, a
    number or a string; [None] for a list or an object, which a request
    rejects as a [bad_request] naming the attribute. *)
val value_of_json : Json.t -> Relational.Value.t option
