module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value
module Incremental = Entity_id.Incremental
module Matching_table = Entity_id.Matching_table
module Extended_key = Entity_id.Extended_key

type side = R | S

let side_name = function R -> "r" | S -> "s"

type config = {
  r_attrs : string list;
  r_key : string list;
  s_attrs : string list;
  s_key : string list;
  key : string list;
  rules : string list;
  check_conflicts : bool;
}

let config_to_json c =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("r_attrs", strings c.r_attrs);
      ("r_key", strings c.r_key);
      ("s_attrs", strings c.s_attrs);
      ("s_key", strings c.s_key);
      ("key", strings c.key);
      ("rules", strings c.rules);
      ("check_conflicts", Json.Bool c.check_conflicts);
    ]

let config_of_json j =
  let strings name =
    match Json.member name j with
    | Some (Json.List items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.String s :: rest -> go (s :: acc) rest
          | _ -> Error (Printf.sprintf "config field %S: expected strings" name)
        in
        go [] items
    | _ -> Error (Printf.sprintf "config field %S missing or not a list" name)
  in
  let ( let* ) = Result.bind in
  let* r_attrs = strings "r_attrs" in
  let* r_key = strings "r_key" in
  let* s_attrs = strings "s_attrs" in
  let* s_key = strings "s_key" in
  let* key = strings "key" in
  let* rules = strings "rules" in
  let check_conflicts =
    match Json.member "check_conflicts" j with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  Ok { r_attrs; r_key; s_attrs; s_key; key; rules; check_conflicts }

(* The hash is over the canonical JSON rendering: field order is fixed
   by [config_to_json], so equal configurations hash equally. *)
let rules_hash c = Digest.to_hex (Digest.string (Json.to_string (config_to_json c)))

type conflict =
  | Key_violation of { side : side; row : Value.t array; key : string list }
  | Derivation_conflict of {
      side : side;
      row : Value.t array;
      attribute : string;
      first : Value.t;
      second : Value.t;
      rule : string;
    }
  | Arity_mismatch of { side : side; expected : int; got : int }
  | Unknown_key of { side : side; key : Value.t array }
  | Duplicate_merge of { r_key : Value.t array; s_key : Value.t array }
  | Merge_uniqueness of {
      r_key : Value.t array;
      s_key : Value.t array;
      existing_r : Value.t array;
      existing_s : Value.t array;
    }
  | Unknown_pair of { r_key : Value.t array; s_key : Value.t array }

let pp_values ppf arr =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string arr)))

let pp_conflict ppf = function
  | Key_violation { side; row; key } ->
      Format.fprintf ppf "key violation on %s %a: key {%s}" (side_name side)
        pp_values row (String.concat ", " key)
  | Derivation_conflict { side; row; attribute; first; second; rule } ->
      Format.fprintf ppf
        "derivation conflict on %s %a: %s = %s vs %s (rule %s)"
        (side_name side) pp_values row attribute (Value.to_string first)
        (Value.to_string second) rule
  | Arity_mismatch { side; expected; got } ->
      Format.fprintf ppf "arity mismatch on %s: expected %d values, got %d"
        (side_name side) expected got
  | Unknown_key { side; key } ->
      Format.fprintf ppf "unknown %s key %a" (side_name side) pp_values key
  | Duplicate_merge { r_key; s_key } ->
      Format.fprintf ppf "pair %a ~ %a is already matched" pp_values r_key
        pp_values s_key
  | Merge_uniqueness { r_key; s_key; existing_r; existing_s } ->
      Format.fprintf ppf
        "merge %a ~ %a violates uniqueness: %a ~ %a already present"
        pp_values r_key pp_values s_key pp_values existing_r pp_values
        existing_s
  | Unknown_pair { r_key; s_key } ->
      Format.fprintf ppf "pair %a ~ %a is not in the matching table"
        pp_values r_key pp_values s_key

type op =
  | Op_insert_r of Value.t array
  | Op_insert_s of Value.t array
  | Op_merge of { r_key : Value.t array; s_key : Value.t array }
  | Op_split of { r_key : Value.t array; s_key : Value.t array }
  | Op_rollback
  | Op_conflict of conflict

type action = Merge_pair | Split_pair

type merge_record = {
  action : action;
  m_r_key : Value.t array;
  m_s_key : Value.t array;
  primary : side;
  inverse_manual : bool;
  rolled_back : bool;
}

(* Everything a snapshot carries: the engine's dump, the effective pair
   set as it is held, the merge log and the conflict table (all pure
   data — [Marshal]-safe by the same argument as {!Incremental.dump}).
   A change to this type, or to a type it holds, bumps
   {!Snapshot}'s magic. *)
type persisted = {
  p_inc : Incremental.dump;
  p_effective : Effective.t;
  p_merges : merge_record list;  (* reverse order *)
  p_conflicts : conflict list;  (* reverse order *)
}

type t = {
  store_dir : string;
  store_config : config;
  hash : string;
  telemetry : Telemetry.t;
  sync : bool;
  wal : Wal.writer;
  inc : Incremental.t;
  mutable effective : Effective.t;
      (** [(derived \ suppressed) ∪ manual], kept current by every
          operation: the derived pairs are [inc]'s *)
  mutable merges : merge_record list;
  mutable conflict_log : conflict list;
  mutable replaying : bool;
  mutable recovered : int;
  lock : Fsutil.lock;
}

let wal_path dir = Filename.concat dir "wal.log"
let snapshot_path dir = Filename.concat dir "snapshot"
let config_path dir = Filename.concat dir "config.json"
let lock_path dir = Filename.concat dir "lock"

(* Deterministic primary choice: elementwise {!Value.compare}, length as
   the final tiebreak; R wins an exact tie. *)
let primary_of r_key s_key =
  if Effective.compare_keys r_key s_key <= 0 then R else S

(* ---- WAL plumbing ---- *)

let append_op t op = ignore (Wal.append t.wal (Marshal.to_string op []))
let commit t = if t.sync then Wal.sync t.wal else Wal.flush t.wal

let record_conflict t c =
  t.conflict_log <- c :: t.conflict_log;
  if not t.replaying then append_op t (Op_conflict c)

(* ---- state application (shared by live calls and replay) ---- *)

let apply_merge t ~r_key ~s_key =
  let pair = (r_key, s_key) in
  let inverse_manual = not (Effective.is_suppressed t.effective pair) in
  t.effective <-
    (if inverse_manual then Effective.assert_manual t.effective pair
     else Effective.unsuppress t.effective pair);
  let record =
    {
      action = Merge_pair;
      m_r_key = r_key;
      m_s_key = s_key;
      primary = primary_of r_key s_key;
      inverse_manual;
      rolled_back = false;
    }
  in
  t.merges <- record :: t.merges;
  record

let apply_split t ~r_key ~s_key =
  let pair = (r_key, s_key) in
  let inverse_manual = Effective.is_manual t.effective pair in
  t.effective <-
    (if inverse_manual then Effective.retract_manual t.effective pair
     else Effective.suppress t.effective pair);
  let record =
    {
      action = Split_pair;
      m_r_key = r_key;
      m_s_key = s_key;
      primary = primary_of r_key s_key;
      inverse_manual;
      rolled_back = false;
    }
  in
  t.merges <- record :: t.merges;
  record

let apply_rollback t =
  let rec pop seen = function
    | [] -> None
    | record :: rest when record.rolled_back -> pop (record :: seen) rest
    | record :: rest ->
        let pair = (record.m_r_key, record.m_s_key) in
        let inverse =
          match (record.action, record.inverse_manual) with
          | Merge_pair, true -> Effective.retract_manual
          | Merge_pair, false -> Effective.suppress
          | Split_pair, true -> Effective.assert_manual
          | Split_pair, false -> Effective.unsuppress
        in
        t.effective <- inverse t.effective pair;
        let marked = { record with rolled_back = true } in
        t.merges <- List.rev_append seen (marked :: rest);
        Some marked
  in
  pop [] t.merges

let base t side =
  match side with
  | R -> Incremental.r_base t.inc
  | S -> Incremental.s_base t.inc

let pair_of (e : Matching_table.entry) =
  (Tuple.to_array e.r_key, Tuple.to_array e.s_key)

let insert_tuple t side row =
  let tuple = Tuple.of_array (Relation.builder_schema (base t side)) row in
  let entries =
    match side with
    | R -> Incremental.insert_r t.inc tuple
    | S -> Incremental.insert_s t.inc tuple
  in
  t.effective <-
    List.fold_left
      (fun eff e -> Effective.derive eff (pair_of e))
      t.effective entries;
  entries

let apply_op t op =
  match op with
  | Op_insert_r row -> ignore (insert_tuple t R row)
  | Op_insert_s row -> ignore (insert_tuple t S row)
  | Op_merge { r_key; s_key } -> ignore (apply_merge t ~r_key ~s_key)
  | Op_split { r_key; s_key } -> ignore (apply_split t ~r_key ~s_key)
  | Op_rollback -> ignore (apply_rollback t)
  | Op_conflict c -> record_conflict t c

(* ---- effective matching table ---- *)

(* The entries of [pairs], on the key schemas the matching table uses. *)
let entries t pairs =
  let key attrs =
    Tuple.of_array (Schema.of_names attrs)
  in
  let r_key = key t.store_config.r_key and s_key = key t.store_config.s_key in
  List.map
    (fun (r, s) -> { Matching_table.r_key = r_key r; s_key = s_key s })
    pairs

let matching_table t =
  Matching_table.make ~r_key_attrs:t.store_config.r_key
    ~s_key_attrs:t.store_config.s_key
    (entries t (Effective.pairs t.effective))

let match_count t = Effective.count t.effective
let sorted_pairs t = Effective.sorted_pairs t.effective

(* ---- explanations ---- *)

module Pair_map = Map.Make (struct
  type t = Effective.pair

  let compare = Effective.compare_pairs
end)

(* Each pair an active merge record asserts, to that record's 1-based
   position in the merge log; a later record wins. *)
let asserting_records t =
  fst
    (List.fold_left
       (fun (m, i) record ->
         ( (if record.action = Merge_pair && not record.rolled_back then
              Pair_map.add (record.m_r_key, record.m_s_key) i m
            else m),
           i + 1 ))
       (Pair_map.empty, 1) (List.rev t.merges))

let explain ?r_key ?s_key t =
  let pairs =
    match (r_key, s_key) with
    | None, None -> Effective.pairs t.effective
    | Some r_key, None -> Effective.touching_r t.effective r_key
    | None, Some s_key -> Effective.touching_s t.effective s_key
    | Some r_key, Some s_key ->
        if Effective.mem t.effective (r_key, s_key) then [ (r_key, s_key) ]
        else []
  in
  (* [identify]'s order: the keys of one side all have its primary
     key's length, where [compare_keys] and [Tuple.compare] agree. *)
  let pairs = List.sort Effective.compare_pairs pairs in
  let records = lazy (asserting_records t) in
  List.filter_map
    (fun (pair, (entry : Matching_table.entry)) ->
      if Effective.is_derived t.effective pair then
        Option.map
          (fun e -> Entity_id.Explain.Derived e)
          (Incremental.explain t.inc entry)
      else
        Some
          (Entity_id.Explain.Manual
             {
               entry;
               record =
                 Option.value ~default:0
                   (Pair_map.find_opt pair (Lazy.force records));
             }))
    (List.combine pairs (entries t pairs))

(* ---- opening ---- *)

(* What a configuration must satisfy before anything is built or
   written from it: each side's attributes are distinct and include its
   key, and every rule parses. Returns the parsed rules. *)
let validate_config c =
  let ( let* ) = Result.bind in
  let side name attrs key =
    match Schema.of_names attrs with
    | exception Schema.Duplicate_attribute a ->
        Error (Printf.sprintf "the %s schema lists %S twice" name a)
    | schema -> (
        match List.find_opt (fun a -> not (Schema.mem schema a)) key with
        | Some a ->
            Error (Printf.sprintf "%s key attribute %S is not a column" name a)
        | None -> Ok ())
  in
  let* () = side "R" c.r_attrs c.r_key in
  let* () = side "S" c.s_attrs c.s_key in
  try Ok (List.map Ilfd.parse c.rules)
  with Ilfd.Ill_formed reason -> Error ("cannot parse rules: " ^ reason)

let fresh_incremental config ilfds telemetry =
  let r_schema = Schema.of_names config.r_attrs
  and s_schema = Schema.of_names config.s_attrs in
  let mode =
    if config.check_conflicts then Ilfd.Apply.Check_conflicts
    else Ilfd.Apply.First_rule
  in
  Incremental.create ~mode ~telemetry
    ~r:(Relation.empty r_schema ~keys:[ config.r_key ] ())
    ~s:(Relation.empty s_schema ~keys:[ config.s_key ] ())
    ~key:(Extended_key.make config.key)
    ilfds

let load_config dir =
  match open_in_bin (config_path dir) with
  | exception Sys_error _ -> Ok None
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in_noerr ic;
      (match Json.parse text with
      | Error e -> Error (Printf.sprintf "config.json: %s" e)
      | Ok j -> Result.map (fun c -> Some c) (config_of_json j))

(* The store's configuration and its parsed rules. The configuration is
   validated before a new store's config.json is written, so a rejected
   one leaves nothing behind. *)
let resolve_config dir provided =
  let ( let* ) = Result.bind in
  let* stored = load_config dir in
  let* c =
    match (provided, stored) with
    | None, None ->
        Error "a new store needs a configuration (schemas, keys, rules)"
    | Some c, None | None, Some c -> Ok c
    | Some c, Some stored ->
        if c = stored then Ok c
        else
          Error
            "configuration disagrees with the store's config.json; a \
             changed configuration is a new store (recover with the old \
             one, dump, re-ingest)"
  in
  let* ilfds = validate_config c in
  if stored = None then
    Fsutil.with_atomic_out (config_path dir) (fun oc ->
        output_string oc (Json.to_string (config_to_json c));
        output_char oc '\n');
  Ok (c, ilfds)

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let decode_ops payloads =
  try Ok (List.map (fun p -> (Marshal.from_string p 0 : op)) payloads)
  with _ -> Error "WAL record passed its checksum but does not decode"

let open_store ?(telemetry = Telemetry.off) ?(sync = true) ?config ~dir () =
  let ( let* ) = Result.bind in
  Fsutil.ensure_dir dir;
  let* lock = Fsutil.acquire_lock (lock_path dir) in
  let fail_unlocked msg =
    Fsutil.release_lock lock;
    Error msg
  in
  match
    let* config, ilfds = resolve_config dir config in
    let hash = rules_hash config in
    (* Snapshot first: a valid one with the current rules hash bounds
       the replay; anything else falls back to a full replay (the WAL is
       never compacted, so the fallback is always complete). *)
    let restored =
      match Snapshot.read ~rules_hash:hash (snapshot_path dir) with
      | Ok p -> Some p
      | Error Missing -> None
      | Error (Stale_rules _) ->
          Telemetry.incr telemetry "store.recovery.snapshot_stale";
          None
      | Error (Other_format _) ->
          Telemetry.incr telemetry "store.recovery.snapshot_format";
          None
      | Error (Corrupt _) ->
          Telemetry.incr telemetry "store.recovery.snapshot_corrupt";
          None
    in
    (* A snapshot covers the WAL records before its offset. A log cut
       below that offset no longer holds some of them, and records
       appended later would land where the snapshot assumes others: the
       snapshot can never again be read with this log, so it is set
       aside, never to be read, before anything is appended. It may hold
       the only copy of the records the log lost. *)
    let restored =
      match restored with
      | Some p when p.Snapshot.wal_offset > file_size (wal_path dir) ->
          Telemetry.incr telemetry "store.recovery.snapshot_ahead";
          Sys.rename (snapshot_path dir) (snapshot_path dir ^ ".ahead");
          Fsutil.fsync_dir dir;
          None
      | restored -> restored
    in
    let replay_from =
      match restored with Some p -> p.Snapshot.wal_offset | None -> 0
    in
    let replay = Wal.read ~from:replay_from (wal_path dir) in
    if replay.torn then begin
      Wal.truncate (wal_path dir) replay.valid_offset;
      Telemetry.incr telemetry "store.recovery.torn_tail"
    end;
    let* ops = decode_ops replay.payloads in
    let wal, _ = Wal.open_append ~telemetry (wal_path dir) in
    let inc, effective, merges, conflict_log =
      match restored with
      | Some p ->
          let st = p.Snapshot.state in
          ( Incremental.restore ~telemetry ~ilfds st.p_inc,
            st.p_effective,
            st.p_merges,
            st.p_conflicts )
      | None ->
          (fresh_incremental config ilfds telemetry, Effective.empty, [], [])
    in
    let t =
      {
        store_dir = dir;
        store_config = config;
        hash;
        telemetry;
        sync;
        wal;
        inc;
        effective;
        merges;
        conflict_log;
        replaying = true;
        recovered = 0;
        lock;
      }
    in
    let* () =
      try
        List.iter (apply_op t) ops;
        Ok ()
      with e ->
        Error
          (Printf.sprintf "WAL replay failed: %s" (Printexc.to_string e))
    in
    t.replaying <- false;
    t.recovered <- List.length ops;
    Telemetry.add telemetry "store.recovery.replayed" t.recovered;
    Ok t
  with
  | Ok t -> Ok t
  | Error msg -> fail_unlocked msg
  | exception e ->
      Fsutil.release_lock lock;
      raise e

let close t =
  (try commit t with Sys_error _ | Unix.Unix_error _ -> ());
  Wal.close t.wal;
  Fsutil.release_lock t.lock

(* ---- operations ---- *)

(* The row is journalled once the state holds it: an exact duplicate
   leaves the side's cardinality as it was and is not journalled. *)
let insert t side row =
  let before = Relation.kept (base t side) in
  let result =
    match insert_tuple t side row with
    | entries ->
        if Relation.kept (base t side) > before then
          append_op t
            (match side with R -> Op_insert_r row | S -> Op_insert_s row);
        Ok entries
    | exception Relation.Key_violation { key; _ } ->
        Error (Key_violation { side; row; key })
    | exception Ilfd.Apply.Conflict_found c ->
        Error
          (Derivation_conflict
             {
               side;
               row;
               attribute = c.attribute;
               first = c.first;
               second = c.second;
               rule = Ilfd.to_string c.rule;
             })
    | exception Tuple.Arity_mismatch { expected; got } ->
        Error (Arity_mismatch { side; expected; got })
  in
  (match result with Ok _ -> () | Error c -> record_conflict t c);
  commit t;
  result

let key_exists t side key = Relation.find_key (base t side) key <> None

(* A copy of [key] that shares no block with any other value. The store's
   derived pairs hold key cells decoded from their codes, so equal cells
   are one block; journalled as they are, a witness would marshal them as
   shared, and its WAL bytes would depend on that. *)
let unshared key =
  Array.map
    (function
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int i
      | Value.Float f -> Value.Float f
      | Value.Bool b -> Value.Bool b
      | Value.String s -> Value.String (String.init (String.length s) (String.get s)))
    key

let validate_merge t ~r_key ~s_key =
  if not (key_exists t R r_key) then Error (Unknown_key { side = R; key = r_key })
  else if not (key_exists t S s_key) then
    Error (Unknown_key { side = S; key = s_key })
  else if Effective.mem t.effective (r_key, s_key) then
    Error (Duplicate_merge { r_key; s_key })
  else
    match Effective.first_touching t.effective ~r_key ~s_key with
    | Some (existing_r, existing_s) ->
        Error
          (Merge_uniqueness
             {
               r_key;
               s_key;
               existing_r = unshared existing_r;
               existing_s = unshared existing_s;
             })
    | None -> Ok ()

let merge t ~r_key ~s_key =
  match validate_merge t ~r_key ~s_key with
  | Error c ->
      record_conflict t c;
      commit t;
      Error c
  | Ok () ->
      let record = apply_merge t ~r_key ~s_key in
      append_op t (Op_merge { r_key; s_key });
      commit t;
      Ok record

let split t ~r_key ~s_key =
  if not (Effective.mem t.effective (r_key, s_key)) then begin
    let c = Unknown_pair { r_key; s_key } in
    record_conflict t c;
    commit t;
    Error c
  end
  else begin
    let record = apply_split t ~r_key ~s_key in
    append_op t (Op_split { r_key; s_key });
    commit t;
    Ok record
  end

let rollback t =
  match apply_rollback t with
  | None -> None
  | Some record ->
      append_op t Op_rollback;
      commit t;
      Some record

let snapshot t =
  commit t;
  Snapshot.write (snapshot_path t.store_dir)
    {
      Snapshot.rules_hash = t.hash;
      wal_offset = Wal.offset t.wal;
      state =
        {
          p_inc = Incremental.dump t.inc;
          p_effective = t.effective;
          p_merges = t.merges;
          p_conflicts = t.conflict_log;
        };
    };
  Telemetry.incr t.telemetry "store.snapshots"

(* ---- reading ---- *)

let config t = t.store_config
let dir t = t.store_dir
let telemetry t = t.telemetry
let incremental t = t.inc
let conflicts t = List.rev t.conflict_log
let merge_log t = List.rev t.merges
let wal_offset t = Wal.offset t.wal
let recovered_records t = t.recovered

let read_ops dir =
  let replay = Wal.read (wal_path dir) in
  decode_ops replay.payloads

let read_config dir =
  match load_config dir with
  | Ok (Some c) -> Ok c
  | Ok None -> Error (Printf.sprintf "%s has no config.json" dir)
  | Error e -> Error e
