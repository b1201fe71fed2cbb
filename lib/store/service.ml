module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value
module Incremental = Entity_id.Incremental
module Matching_table = Entity_id.Matching_table
module Explain = Entity_id.Explain

let json_of_value = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Float f -> Json.Float f
  | Value.Bool b -> Json.Bool b
  | Value.String s -> Json.String s

let add_value buf = function
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Int i -> Buffer.add_string buf (string_of_int i)
  | Value.Float f -> Json.add_float buf f
  | Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.String s -> Json.add_string buf s

let value_of_json = function
  | Json.Null -> Some Value.Null
  | Json.Bool b -> Some (Value.Bool b)
  | Json.Int i -> Some (Value.Int i)
  | Json.Float f -> Some (Value.Float f)
  | Json.String s -> Some (Value.String s)
  | Json.List _ | Json.Obj _ | Json.Raw _ -> None

(* ---- responses ---- *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error kind detail =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String kind);
      ("detail", Json.String detail);
    ]

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* ---- request field extraction ---- *)

(* The cell [field] gives attribute [name]: a list or an object is no
   value, and storing it as NULL would lose it silently. *)
let cell_of_json field name j =
  match value_of_json j with
  | Some v -> v
  | None ->
      bad "%S attribute %S holds a list or an object, not a value" field name

let side_of req =
  match Json.string_member "side" req with
  | Some "r" -> Store.R
  | Some "s" -> Store.S
  | Some other -> bad "side must be \"r\" or \"s\", not %S" other
  | None -> bad "missing \"side\""

(* A row object, laid out positionally against [schema]; absent
   attributes become NULL, unknown attributes are an error (a typo'd
   attribute silently dropped would be a silent data loss). *)
let row_of_json schema j =
  match j with
  | Json.Obj members ->
      let names = Schema.names schema in
      List.iter
        (fun (name, _) ->
          if not (List.mem name names) then
            bad "row attribute %S is not in the schema {%s}" name
              (String.concat ", " names))
        members;
      Array.of_list
        (List.map
           (fun name ->
             match List.assoc_opt name members with
             | Some v -> cell_of_json "row" name v
             | None -> Value.Null)
           names)
  | _ -> bad "expected an object of attribute values"

let key_of_json attrs field req =
  match Json.member field req with
  | None -> bad "missing %S" field
  | Some (Json.Obj _ as j) ->
      let arr =
        Array.of_list
          (List.map
             (fun name ->
               match Json.member name j with
               | Some v -> cell_of_json field name v
               | None -> bad "%S is missing key attribute %S" field name)
             attrs)
      in
      arr
  | Some _ -> bad "%S must be an object of key attribute values" field

(* ---- rendering store values ---- *)

let obj_of_key attrs arr =
  Json.Obj (List.mapi (fun i name -> (name, json_of_value arr.(i))) attrs)

let json_of_entry ~r_attrs ~s_attrs (e : Matching_table.entry) =
  Json.Obj
    [
      ("r_key", obj_of_key r_attrs (Tuple.to_array e.r_key));
      ("s_key", obj_of_key s_attrs (Tuple.to_array e.s_key));
    ]

let values_list arr = Json.List (Array.to_list (Array.map json_of_value arr))
let strings l = Json.List (List.map (fun s -> Json.String s) l)
let side_str = function Store.R -> "r" | Store.S -> "s"

let json_of_conflict = function
  | Store.Key_violation { side; row; key } ->
      Json.Obj
        [
          ("type", Json.String "key_violation");
          ("side", Json.String (side_str side));
          ("row", values_list row);
          ("key", strings key);
        ]
  | Store.Derivation_conflict { side; row; attribute; first; second; rule } ->
      Json.Obj
        [
          ("type", Json.String "derivation_conflict");
          ("side", Json.String (side_str side));
          ("row", values_list row);
          ("attribute", Json.String attribute);
          ("first", json_of_value first);
          ("second", json_of_value second);
          ("rule", Json.String rule);
        ]
  | Store.Arity_mismatch { side; expected; got } ->
      Json.Obj
        [
          ("type", Json.String "arity_mismatch");
          ("side", Json.String (side_str side));
          ("expected", Json.Int expected);
          ("got", Json.Int got);
        ]
  | Store.Unknown_key { side; key } ->
      Json.Obj
        [
          ("type", Json.String "unknown_key");
          ("side", Json.String (side_str side));
          ("key", values_list key);
        ]
  | Store.Duplicate_merge { r_key; s_key } ->
      Json.Obj
        [
          ("type", Json.String "duplicate_merge");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
        ]
  | Store.Merge_uniqueness { r_key; s_key; existing_r; existing_s } ->
      Json.Obj
        [
          ("type", Json.String "merge_uniqueness");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
          ("existing_r", values_list existing_r);
          ("existing_s", values_list existing_s);
        ]
  | Store.Unknown_pair { r_key; s_key } ->
      Json.Obj
        [
          ("type", Json.String "unknown_pair");
          ("r_key", values_list r_key);
          ("s_key", values_list s_key);
        ]

let json_of_record (m : Store.merge_record) =
  Json.Obj
    [
      ( "action",
        Json.String
          (match m.action with
          | Store.Merge_pair -> "merge"
          | Store.Split_pair -> "split") );
      ("r_key", values_list m.m_r_key);
      ("s_key", values_list m.m_s_key);
      ("primary", Json.String (side_str m.primary));
      ("rolled_back", Json.Bool m.rolled_back);
    ]

let conflict_response c =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String "conflict");
      ("conflict", json_of_conflict c);
      ("detail", Json.String (Format.asprintf "%a" Store.pp_conflict c));
    ]

(* ---- the ops ---- *)

let store_keys st =
  let cfg = Store.config st in
  (cfg.Store.r_key, cfg.Store.s_key)

let base st side =
  let inc = Store.incremental st in
  match side with
  | Store.R -> Incremental.r_base inc
  | Store.S -> Incremental.s_base inc

let handle_insert st req =
  let side = side_of req in
  let row =
    match Json.member "row" req with
    | Some j -> row_of_json (Relational.Relation.builder_schema (base st side)) j
    | None -> bad "missing \"row\""
  in
  match Store.insert st side row with
  | Ok entries ->
      let r_attrs, s_attrs = store_keys st in
      ok [ ("matches", Json.List (List.map (json_of_entry ~r_attrs ~s_attrs) entries)) ]
  | Error c -> conflict_response c

(* The entries list, rendered straight into one buffer from the store's
   pairs, already in order: the bytes [Json.to_string] gives the list
   of [json_of_entry]s of the matching table's entries sorted by R key,
   then S key. *)
let handle_identify st =
  let r_attrs, s_attrs = store_keys st in
  let r_members = Json.member_prefixes r_attrs
  and s_members = Json.member_prefixes s_attrs in
  let buf = Buffer.create 4096 in
  let add_key members key =
    Buffer.add_char buf '{';
    Array.iteri
      (fun k member ->
        Buffer.add_string buf member;
        add_value buf key.(k))
      members;
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '[';
  Seq.iteri
    (fun n (r_key, s_key) ->
      if n > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"r_key\":";
      add_key r_members r_key;
      Buffer.add_string buf ",\"s_key\":";
      add_key s_members s_key;
      Buffer.add_char buf '}')
    (Store.sorted_pairs st);
  Buffer.add_char buf ']';
  ok [ ("entries", Json.Raw (Buffer.contents buf)) ]

let handle_explain st req =
  let r_key_attrs, s_key_attrs = store_keys st in
  let key attrs field =
    match Json.member field req with
    | None -> None
    | Some _ -> Some (key_of_json attrs field req)
  in
  let r_key = key r_key_attrs "r_key" and s_key = key s_key_attrs "s_key" in
  ok
    [
      ( "report",
        Json.String (Explain.render_items (Store.explain ?r_key ?s_key st)) );
    ]

let handle_merge st req ~op =
  let r_key_attrs, s_key_attrs = store_keys st in
  let r_key = key_of_json r_key_attrs "r_key" req in
  let s_key = key_of_json s_key_attrs "s_key" req in
  let result =
    match op with
    | `Merge -> Store.merge st ~r_key ~s_key
    | `Split -> Store.split st ~r_key ~s_key
  in
  match result with
  | Ok record -> ok [ ("record", json_of_record record) ]
  | Error c -> conflict_response c

let handle_rollback st =
  match Store.rollback st with
  | Some record -> ok [ ("record", json_of_record record) ]
  | None -> ok [ ("record", Json.Null) ]

let handle_stats st =
  let telemetry_json =
    (* Telemetry renders itself; re-parse so stats stays one JSON tree. *)
    match Json.parse (Telemetry.to_json (Store.telemetry st)) with
    | Ok j -> j
    | Error _ -> Json.Null
  in
  ok
    [
      ("wal_offset", Json.Int (Store.wal_offset st));
      ("recovered_records", Json.Int (Store.recovered_records st));
      ("r_cardinality", Json.Int (Relational.Relation.kept (base st Store.R)));
      ("s_cardinality", Json.Int (Relational.Relation.kept (base st Store.S)));
      ("matches", Json.Int (Store.match_count st));
      ("conflicts", Json.Int (List.length (Store.conflicts st)));
      ("merge_log", Json.Int (List.length (Store.merge_log st)));
      ("telemetry", telemetry_json);
    ]

let handle st req =
  match Json.string_member "op" req with
  | None -> error "bad_request" "missing \"op\""
  | Some op -> (
      try
        match op with
        | "insert" -> handle_insert st req
        | "identify" -> handle_identify st
        | "explain" -> handle_explain st req
        | "merge" -> handle_merge st req ~op:`Merge
        | "split" -> handle_merge st req ~op:`Split
        | "rollback" -> handle_rollback st
        | "snapshot" ->
            Store.snapshot st;
            ok []
        | "conflicts" ->
            ok
              [
                ( "conflicts",
                  Json.List (List.map json_of_conflict (Store.conflicts st))
                );
              ]
        | "stats" -> handle_stats st
        | other -> error "unknown_op" (Printf.sprintf "unknown op %S" other)
      with
      | Bad_request m -> error "bad_request" m
      | Ilfd.Apply.Conflict_found c ->
          error "conflict" (Format.asprintf "%a" Ilfd.Apply.pp_conflict c))

let handle_line st line =
  match Json.parse line with
  | Error m -> Json.to_string (error "parse" m)
  | Ok req -> Json.to_string (handle st req)

let max_request_bytes = 1 lsl 20

(* [ic]'s lines, read a chunk at a time. A line longer than
   [max_request_bytes] (its newline not counted) is [`Too_large]: its
   bytes past the cap are read and dropped chunk by chunk, never held. A
   final line without a newline is still a line, as for [input_line].
   Only [chunk]'s first [len] bytes are this read's: a short read leaves
   an earlier read's bytes, newlines included, after them. *)
let line_reader ic =
  let chunk = Bytes.create 65536 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 1024 in
  let rec newline i =
    if i = !len || Bytes.get chunk i = '\n' then i else newline (i + 1)
  in
  let rec next ~over =
    if !pos = !len then begin
      pos := 0;
      len := input ic chunk 0 (Bytes.length chunk)
    end;
    if !len = 0 then
      if over then `Too_large
      else if Buffer.length line = 0 then `Eof
      else `Line (Buffer.contents line)
    else
      let stop = newline !pos in
      let over =
        over || Buffer.length line + (stop - !pos) > max_request_bytes
      in
      if over then Buffer.reset line
      else Buffer.add_subbytes line chunk !pos (stop - !pos);
      if stop = !len then begin
        pos := !len;
        next ~over
      end
      else begin
        pos := stop + 1;
        if over then `Too_large else `Line (Buffer.contents line)
      end
  in
  fun () ->
    Buffer.clear line;
    next ~over:false

(* With [snapshot_every], [since_snapshot] counts the requests that
   journalled a record (the WAL grew) since the last snapshot: a
   periodic or an explicit snapshot clears it, and a clean shutdown
   writes one when it is not zero. A request that journals nothing (a
   read, a bad request, an exact duplicate insert) never calls for a
   snapshot. *)
let serve ?snapshot_every st ic oc =
  let since_snapshot = ref 0 in
  let snapshot () =
    Store.snapshot st;
    since_snapshot := 0
  in
  let answer line =
    match Json.parse line with
    | Error m -> error "parse" m
    | Ok req ->
        let before = Store.wal_offset st in
        let resp = handle st req in
        (match snapshot_every with
        | Some n when n > 0 && Store.wal_offset st > before ->
            incr since_snapshot;
            if !since_snapshot >= n then snapshot ()
        | Some _ when Json.string_member "op" req = Some "snapshot" ->
            since_snapshot := 0
        | _ -> ());
        resp
  in
  let next_line = line_reader ic in
  let rec loop () =
    let reply response =
      output_string oc (Json.to_string response);
      output_char oc '\n';
      flush oc;
      loop ()
    in
    match next_line () with
    | `Eof -> if !since_snapshot > 0 then snapshot ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> reply (answer line)
    | `Too_large ->
        reply
          (error "request_too_large"
             (Printf.sprintf "a request line may hold at most %d bytes"
                max_request_bytes))
  in
  loop ()
