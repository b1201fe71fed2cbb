(** Periodic full-state snapshots.

    Format: the magic ["EIDSNAP6"], a 4-byte big-endian payload length,
    a 4-byte big-endian CRC-32 of the payload, then the payload — a
    [Marshal]-encoded {!payload} recording the rules hash of the
    configuration the state was built under and the WAL offset the
    snapshot covers. Written atomically (temp file + fsync + rename), so
    a crash mid-snapshot leaves the previous snapshot intact.

    [Marshal] output carries no type, so reading a payload as another
    type than it was written with is undefined behaviour. The magic's
    last byte is therefore a format version: any change to the payload's
    type ({!Store}'s persisted state, and everything it holds) bumps it,
    and a file with another version's magic is {!Other_format}, never
    unmarshalled. So does any change to how [config.json]'s rule text
    reads: the rules hash digests that text, not the rules it reads as,
    so a snapshot of rows derived under the old reading would otherwise
    restore beside a WAL whose replay derives others. ["EIDSNAP1"] held
    the state as rows to rebuild; ["EIDSNAP2"] the built key maps and
    pair set, with K_Ext indexes that kept numbers above 2⁵³ apart;
    ["EIDSNAP3"] indexes in which every value has a match class, and
    schemas whose attributes could carry a type; ["EIDSNAP4"] schemas of
    attribute names only, written by binaries on either side of quoted
    rule values becoming one token; ["EIDSNAP5"] the same payload,
    written only under that reading; ["EIDSNAP6"] the engine's state as
    a table of distinct values, code columns of indices into it and
    pairs of row indices, with no map and no index.

    Recovery refuses a snapshot whose [rules_hash] differs from the
    current configuration ({!Stale_rules}) — the derived state baked
    into it was computed under other rules — or that another version
    wrote, and falls back to a full WAL replay. The WAL is never
    compacted, so the fallback is always complete. *)

type 'a payload = {
  rules_hash : string;  (** hash of the configuration, see {!Store} *)
  wal_offset : int;  (** the snapshot covers WAL records before this *)
  state : 'a;  (** pure-data state ({!Store}'s persisted state record) *)
}

(** [write path p] — atomically replace the snapshot at [path]. *)
val write : string -> 'a payload -> unit

type error =
  | Missing
  | Corrupt of string  (** bad magic, short file, or checksum mismatch *)
  | Other_format of string
      (** the magic found: another format version's (["EIDSNAP"] and
          another last byte) *)
  | Stale_rules of string  (** the hash found in the snapshot *)

(** [read ~rules_hash path] — load and validate against the current
    configuration's hash. As with any [Marshal] read, the caller must
    ask for the ['a] the snapshot was written with; the store guards
    this with the magic's format version. *)
val read : rules_hash:string -> string -> ('a payload, error) result
