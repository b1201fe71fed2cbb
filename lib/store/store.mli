(** The durable identification store: an {!Incremental} engine whose
    every mutation is journalled to a write-ahead log, with periodic
    snapshots, a manual merge/split overlay and a typed conflict table.

    {b Directory layout.} A store directory holds [wal.log] (the
    append-only operation journal, {!Wal} framing, never compacted),
    [snapshot] (the latest {!Snapshot}), [config.json] (schemas, keys
    and rules, written atomically) and [lock] (held with a kernel lock
    while the store is open, {!Fsutil.acquire_lock}).

    {b Durability contract.} An operation is applied to the in-memory
    engine first; only on success is it appended to the WAL and — with
    [sync] on, the default — fsynced before the call returns. The
    durably-committed prefix of a store is therefore exactly the fully
    fsynced WAL records, and every committed record replays cleanly.
    Rejected operations raise no exception across the store boundary:
    they are recorded in the conflict table as typed {!conflict} values
    and journalled too, so the conflict table itself survives a crash.

    {b Recovery.} {!open_store} takes the lock (a dead holder's lock is
    free), loads the latest valid snapshot if its rules hash matches
    the current configuration, replays the WAL tail from the snapshot's
    offset, truncates a torn final record, and reopens the log for
    appending. The snapshot holds the state as it is held — the engine's
    keyed bases and indexes, the effective pair set, the merge log and
    the conflict table — so loading it rebuilds nothing row by row. A
    snapshot with a stale rules hash, a bad checksum or another format
    version's magic is ignored in favour of a full replay; one whose
    offset lies past the end of the WAL is first renamed
    [snapshot.ahead], never read again, as records appended later would
    land where it assumes others.

    {b Merge overlay.} The effective matching table is
    [(derived \ suppressed) ∪ manual]: {!merge} asserts a pair the
    rules could not derive, {!split} retracts one they did. Each
    appends a {!merge_record} carrying a deterministic primary choice
    and the information needed to invert it; {!rollback} pops the most
    recent active record and applies the inverse — itself an
    append-only WAL operation, never a rewrite. *)

type t

type side = R | S

(** {2 Configuration} *)

type config = {
  r_attrs : string list;
  r_key : string list;
  s_attrs : string list;
  s_key : string list;
  key : string list;  (** the extended key K_Ext *)
  rules : string list;  (** ILFDs in concrete syntax, {!Ilfd.parse}d *)
  check_conflicts : bool;
      (** derive in [Check_conflicts] mode: disagreeing derivations
          become {!Derivation_conflict} records instead of first-rule
          silence *)
}

(** [rules_hash c] — hex digest of the canonical rendering of [c]; the
    guard a snapshot must match to be trusted. *)
val rules_hash : config -> string

(** {2 Typed conflicts} *)

type conflict =
  | Key_violation of { side : side; row : Relational.Value.t array; key : string list }
      (** the row breaks a declared candidate key of its relation *)
  | Derivation_conflict of {
      side : side;
      row : Relational.Value.t array;
      attribute : string;
      first : Relational.Value.t;
      second : Relational.Value.t;
      rule : string;  (** concrete syntax of the disagreeing ILFD *)
    }
  | Arity_mismatch of { side : side; expected : int; got : int }
  | Unknown_key of { side : side; key : Relational.Value.t array }
      (** merge/split names a key no tuple carries *)
  | Duplicate_merge of {
      r_key : Relational.Value.t array;
      s_key : Relational.Value.t array;
    }  (** the pair is already in the effective table *)
  | Merge_uniqueness of {
      r_key : Relational.Value.t array;
      s_key : Relational.Value.t array;
      existing_r : Relational.Value.t array;
      existing_s : Relational.Value.t array;
    }  (** the merge would match a tuple twice; the existing pair is the witness *)
  | Unknown_pair of {
      r_key : Relational.Value.t array;
      s_key : Relational.Value.t array;
    }  (** split names a pair not in the effective table *)

val pp_conflict : Format.formatter -> conflict -> unit

(** {2 The journalled operations} *)

type op =
  | Op_insert_r of Relational.Value.t array
  | Op_insert_s of Relational.Value.t array
  | Op_merge of {
      r_key : Relational.Value.t array;
      s_key : Relational.Value.t array;
    }
  | Op_split of {
      r_key : Relational.Value.t array;
      s_key : Relational.Value.t array;
    }
  | Op_rollback
  | Op_conflict of conflict

(** {2 Merge log} *)

type action = Merge_pair | Split_pair

type merge_record = {
  action : action;
  m_r_key : Relational.Value.t array;
  m_s_key : Relational.Value.t array;
  primary : side;
      (** deterministic primary choice for the merged entity: the side
          whose key tuple is lexicographically smaller under
          {!Relational.Value.compare}; [R] on a tie *)
  inverse_manual : bool;
      (** how to invert: [true] — the inverse touches the manual set
          (remove an added pair / re-add a removed one); [false] — it
          touches the suppressed set *)
  rolled_back : bool;
}

(** {2 Opening and closing} *)

(** [open_store ?telemetry ?sync ?config ~dir ()] — create or recover.
    A fresh directory requires [config]; an existing one loads
    [config.json], and a provided [config] must agree with it (a
    changed configuration is a new store, not a silent reinterpretation
    — recover with the old config, dump and re-ingest).

    [sync:false] skips fsync on commit (flush only) — for oracles and
    tests that simulate crashes by truncation rather than power loss.

    A configuration is validated before anything is written: each
    side's attributes must be distinct and include its key, and every
    rule must parse. A rejected one leaves no config.json or WAL behind,
    so a corrected open of the same directory creates the store.

    Errors (lock held by a live process, undecodable or invalid config,
    config mismatch) are returned, not raised. *)
val open_store :
  ?telemetry:Telemetry.t ->
  ?sync:bool ->
  ?config:config ->
  dir:string ->
  unit ->
  (t, string) result

(** [close t] — sync, close the WAL and release the lock. *)
val close : t -> unit

(** {2 Operations}

    Every mutator commits (appends + syncs) before returning. An
    [Error conflict] result has also been committed — as an
    {!Op_conflict} record. *)

(** [insert t side row] — the matching-table entries the insertion
    created, or the typed conflict that rejected it. *)
val insert :
  t ->
  side ->
  Relational.Value.t array ->
  (Entity_id.Matching_table.entry list, conflict) result

val merge :
  t ->
  r_key:Relational.Value.t array ->
  s_key:Relational.Value.t array ->
  (merge_record, conflict) result

val split :
  t ->
  r_key:Relational.Value.t array ->
  s_key:Relational.Value.t array ->
  (merge_record, conflict) result

(** [rollback t] — invert the most recent merge/split not yet rolled
    back; [None] when the whole log is already inverted or empty. *)
val rollback : t -> merge_record option

(** [snapshot t] — write a snapshot covering the current WAL offset. *)
val snapshot : t -> unit

(** {2 Reading} *)

val config : t -> config
val dir : t -> string
val telemetry : t -> Telemetry.t

(** The effective matching table: derived entries minus the suppressed
    overlay, plus the manual overlay — derived entries in derivation
    order, then manual ones oldest first. The store keeps this pair set
    current as operations arrive ({!Effective}), so building the table
    is one pass over its entries. *)
val matching_table : t -> Entity_id.Matching_table.t

(** [match_count t] — the number of entries in {!matching_table}, in
    O(1). *)
val match_count : t -> int

(** [explain ?r_key ?s_key t] — one item per effective pair, in
    [identify]'s order (R key, then S key). A derived pair shows its ILFD
    chains, recomputed through the state's plans from its stored base
    rows ({!Entity_id.Incremental.explain}); a manual pair cites the
    active merge record that asserted it; a split pair is not in the
    effective table and is not explained. [r_key] and/or [s_key]
    restrict the answer to the pairs carrying those keys, found by key
    lookups, so a keyed explanation costs O(log n) in the store size.
    @raise Ilfd.Apply.Conflict_found in [check_conflicts] mode if a
    stored row's derivations disagree (they did not when it was
    accepted). *)
val explain :
  ?r_key:Relational.Value.t array ->
  ?s_key:Relational.Value.t array ->
  t ->
  Entity_id.Explain.item list

val incremental : t -> Entity_id.Incremental.t

(** Conflict table, oldest first. *)
val conflicts : t -> conflict list

(** Merge log, oldest first, rolled-back records included (marked). *)
val merge_log : t -> merge_record list

(** End-of-log offset — the durable horizon after the last commit. *)
val wal_offset : t -> int

(** Number of WAL records replayed by the recovery that opened [t]. *)
val recovered_records : t -> int

(** {2 Offline inspection} *)

(** [read_ops dir] — decode the full WAL of a (possibly locked, not
    necessarily recovered) store directory, stopping at a torn tail.
    The batch oracle and [store-dump] read this. *)
val read_ops : string -> (op list, string) result

(** [read_config dir] — the stored configuration, without taking the
    lock. *)
val read_config : string -> (config, string) result
