(* The serve form: a closed loop of one client on one stdin/stdout pipe
   to [entity_ident serve], zero think time, each request sent only
   after the previous response arrived. A repetition starts from a copy
   of the preloaded store; afterwards the store it left (snapshot plus
   the WAL tail of the measured requests) is reopened, and the time to
   the first response is the set-up sample. The trace replays the same
   requests through [Eid_store.Service.handle] in-process. *)

module Json = Eid_store.Json
module Store = Eid_store.Store

type op_class = Insert | Identify | Update | Explain | Stats | Other

let classes = [ Insert; Identify; Update; Explain; Stats ]

let class_name = function
  | Insert -> "insert"
  | Identify -> "identify"
  | Update -> "update"
  | Explain -> "explain"
  | Stats -> "stats"
  | Other -> "other"

let class_of line =
  match Json.parse line with
  | Ok j -> (
      match Json.string_member "op" j with
      | Some "insert" -> Insert
      | Some "identify" -> Identify
      | Some ("merge" | "split" | "rollback") -> Update
      | Some "explain" -> Explain
      | Some "stats" -> Stats
      | _ -> Other)
  | Error _ -> Other

(* A request file with its expected answers, line by line. *)
type script = {
  lines : string array;
  kinds : op_class array;
  expects : Gen.expect option array;
}

let load_script ~requests ~expected =
  let lines = Array.of_list (Measure.read_lines requests) in
  let exp = Array.of_list (Measure.read_lines expected) in
  {
    lines;
    kinds = Array.map class_of lines;
    expects =
      Array.mapi
        (fun i _ ->
          if i < Array.length exp then Gen.expect_of_line exp.(i) else None)
        lines;
  }

(* ---- checking answers ---- *)

let entry_line j =
  let get side attr =
    Option.bind (Json.member side j) (Json.string_member attr)
  in
  match
    (get "r_key" "name", get "r_key" "cuisine", get "s_key" "name",
     get "s_key" "speciality")
  with
  | Some a, Some b, Some c, Some d -> Some (String.concat " " [ a; b; c; d ])
  | _ -> None

let entry_lines = function
  | Some (Json.List l) ->
      let ls = List.map entry_line l in
      if List.mem None ls then None
      else Some (List.sort String.compare (List.filter_map Fun.id ls))
  | _ -> None

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let answers (expect : Gen.expect) response =
  match Json.parse response with
  | Error _ -> false
  | Ok j -> (
      let ok = Json.member "ok" j = Some (Json.Bool true) in
      let int name = Json.member name j in
      match expect with
      | Insert l -> ok && entry_lines (Json.member "matches" j) = Some l
      | Conflict -> (not ok) && Json.string_member "error" j = Some "conflict"
      | Record -> (
          ok && match Json.member "record" j with Some (Json.Obj _) -> true | _ -> false)
      | Entries (n, d) -> (
          ok
          &&
          match entry_lines (Json.member "entries" j) with
          | Some l -> List.length l = n && Gen.digest l = d
          | None -> false)
      | Stats (r, s, m) ->
          ok
          && int "r_cardinality" = Some (Json.Int r)
          && int "s_cardinality" = Some (Json.Int s)
          && int "matches" = Some (Json.Int m)
      | Explained n -> (
          ok
          &&
          match Json.string_member "report" j with
          | Some report -> count_sub report "] match " = n
          | None -> false)
      | Done -> ok)

let check_answer expect response ~what =
  Measure.check
    (match (expect, response) with
    | Some e, Some r -> answers e r
    | _ -> false)
    (fun () ->
      Printf.sprintf "%s: %s" what
        (match response with
        | None -> "no response (crash or timeout)"
        | Some r -> if String.length r > 200 then String.sub r 0 200 else r))

(* ---- sessions ---- *)

let timeout = 60.

type session = { pid : int; to_child : Unix.file_descr; reader : Measure.reader }

let open_session ~bin ~args ~log =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
  in
  let pid =
    Measure.spawn ~prog:bin ~args ~stdin:child_in ~stdout:child_out ~stderr:err
  in
  List.iter Unix.close [ child_in; child_out; err ];
  { pid; to_child; reader = Measure.reader from_child }

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

(* [Some response], or [None] when the child is gone or silent. *)
let request s line =
  match
    let b = Bytes.of_string (line ^ "\n") in
    write_all s.to_child b 0 (Bytes.length b)
  with
  | () -> Measure.read_line s.reader ~timeout
  | exception Unix.Unix_error _ -> None

(* Close stdin, wait for exit; [(exit code, peak RSS in KiB)]. *)
let close_session s =
  Unix.close s.to_child;
  let exited = Measure.drain s.reader.fd ~timeout in
  if not exited then Measure.kill_and_reap s.pid;
  let code, rss = if exited then Measure.reap s.pid else (-1, 0) in
  Unix.close s.reader.fd;
  Measure.check (code = 0) (fun () ->
      Printf.sprintf "serve exited with code %d" code);
  (code, rss)

let stats_line = Json.to_string (Json.Obj [ ("op", Json.String "stats") ])

(* ---- end to end ---- *)

type inputs = { gen : Gen.serve; preload : script; stream : script }

let load (gen : Gen.serve) =
  {
    gen;
    preload =
      load_script ~requests:gen.preload ~expected:gen.preload_expected;
    stream = load_script ~requests:gen.requests ~expected:gen.expected;
  }

let wal dir = Filename.concat dir "wal.log"

(* Fill a fresh store with the preload requests and snapshot it. *)
let preload ~bin inp ~dir ~log =
  let s =
    open_session ~bin ~args:([ "serve"; "--store"; dir ] @ inp.gen.config_args) ~log
  in
  Array.iteri
    (fun i line ->
      check_answer inp.preload.expects.(i) (request s line)
        ~what:(Printf.sprintf "preload request %d" (i + 1)))
    inp.preload.lines;
  ignore (close_session s)

type rep = {
  latencies : (op_class * float) list;
  stream_s : float;
  rss_kb : int;
  wal_bytes : int;
  reopen_s : float;
}

let repetition ~bin inp ~base ~dir ~log =
  Eid_store.Fsutil.remove_tree dir;
  Measure.copy_dir base dir;
  let wal0 = Measure.file_size (wal dir) in
  let s = open_session ~bin ~args:[ "serve"; "--store"; dir ] ~log in
  (* The store opens before the first request is read: keep that out of
     the first request's latency. *)
  check_answer (Some inp.gen.ready) (request s stats_line) ~what:"ready stats";
  let n = Array.length inp.stream.lines in
  let responses = Array.make n None and lat = Array.make n 0. in
  let t_start = Measure.now () in
  (try
     Array.iteri
       (fun i line ->
         let t0 = Measure.now () in
         let r = request s line in
         lat.(i) <- Measure.now () -. t0;
         responses.(i) <- r;
         if r = None then raise Exit)
       inp.stream.lines
   with Exit -> ());
  let stream_s = Measure.now () -. t_start in
  let _, rss_kb = close_session s in
  Array.iteri
    (fun i r ->
      check_answer inp.stream.expects.(i) r
        ~what:(Printf.sprintf "request %d" (i + 1)))
    responses;
  let wal_bytes = Measure.file_size (wal dir) - wal0 in
  let s = open_session ~bin ~args:[ "serve"; "--store"; dir ] ~log in
  let r, reopen_s = Measure.timed (fun () -> request s stats_line) in
  check_answer (Some inp.gen.final) r ~what:"stats after reopen";
  ignore (close_session s);
  {
    latencies = Array.to_list (Array.mapi (fun i l -> (inp.stream.kinds.(i), l)) lat);
    stream_s;
    rss_kb;
    wal_bytes;
    reopen_s;
  }

let latencies_of cls reps =
  List.concat_map
    (fun r ->
      List.filter_map (fun (c, l) -> if c = cls then Some l else None) r.latencies)
    reps

(* ---- trace ---- *)

let trace inp ~base ~dir ~e2e_p50_ms =
  Eid_store.Fsutil.remove_tree dir;
  Measure.copy_dir base dir;
  let ms s = s *. 1000. in
  let tele = Telemetry.create ~clock:Measure.now () in
  let st =
    match Store.open_store ~telemetry:tele ~dir () with
    | Ok st -> st
    | Error m -> failwith ("open_store: " ^ m)
  in
  let rules = List.map Ilfd.parse (Store.config st).rules in
  let handle = Hashtbl.create 8 in
  let record cls s =
    Hashtbl.replace handle cls
      (s :: Option.value ~default:[] (Hashtbl.find_opt handle cls))
  in
  let parse_s = ref 0. and render_s = ref 0. and handle_mw = ref 0. in
  let add_probes = ref [] and compile_probes = ref [] and mt_probes = ref [] in
  let inserts = ref 0 in
  Array.iteri
    (fun i line ->
      let req, p = Measure.timed (fun () -> Json.parse line) in
      parse_s := !parse_s +. p;
      let response =
        match req with
        | Error _ -> None
        | Ok req ->
            let resp, h, mw =
              Measure.timed_alloc (fun () -> Eid_store.Service.handle st req)
            in
            handle_mw := !handle_mw +. mw;
            let cls = inp.stream.kinds.(i) in
            record cls h;
            let text, r = Measure.timed (fun () -> Json.to_string resp) in
            render_s := !render_s +. r;
            (match cls with
            | Insert ->
                incr inserts;
                if !inserts mod 100 = 0 then begin
                  (* Probes of the two per-insert costs that grow with the
                     store and with the rule family. *)
                  let rel = Entity_id.Incremental.r (Store.incremental st) in
                  let probe =
                    Relational.Tuple.of_array (Relational.Relation.schema rel)
                      (Array.map
                         (fun v -> Relational.Value.String v)
                         [| "Probe"; Printf.sprintf "Probe%d" !inserts; "ProbeSt" |])
                  in
                  let _, a =
                    Measure.timed (fun () -> Relational.Relation.add rel probe)
                  in
                  add_probes := a :: !add_probes;
                  let _, c =
                    Measure.timed (fun () -> Ilfd.Apply.compile rules)
                  in
                  compile_probes := c :: !compile_probes
                end
            | Identify ->
                let _, m = Measure.timed (fun () -> Store.matching_table st) in
                mt_probes := m :: !mt_probes
            | _ -> ());
            Some text
      in
      check_answer inp.stream.expects.(i) response
        ~what:(Printf.sprintf "traced request %d" (i + 1)))
    inp.stream.lines;
  let n_req = float_of_int (Array.length inp.stream.lines) in
  let insert_span =
    List.find_opt
      (fun (sp : Telemetry.span_stat) -> sp.span_name = "incremental.insert")
      (Telemetry.spans tele)
  in
  let counter name = float_of_int (Telemetry.counter tele name) in
  let fsyncs = counter "store.wal.fsyncs" and bytes = counter "store.wal.bytes" in
  Store.close st;
  let tele2 = Telemetry.create ~clock:Measure.now () in
  let reopened, open_s =
    Measure.timed (fun () -> Store.open_store ~telemetry:tele2 ~dir ())
  in
  (match reopened with
  | Ok st2 -> Store.close st2
  | Error m -> Measure.check false (fun () -> "reopen: " ^ m));
  let handle_p50 cls =
    ms (Measure.median (Option.value ~default:[] (Hashtbl.find_opt handle cls)))
  in
  [
    ("serve.ilfd.compile_ms", ms (Measure.median !compile_probes), "ms");
    ("serve.relational.relation_add_ms", ms (Measure.median !add_probes), "ms");
    ( "serve.incremental.insert_ms",
      (match insert_span with
      | Some sp -> sp.total_ms /. float_of_int (max 1 sp.calls)
      | None -> 0.),
      "ms" );
    ("serve.store.open_ms", ms open_s, "ms");
    ( "serve.store.recovery.replayed",
      float_of_int (Telemetry.counter tele2 "store.recovery.replayed"),
      "count" );
    ("serve.store.matching_table_ms", ms (Measure.median !mt_probes), "ms");
    ("serve.store.wal.fsyncs_per_op", fsyncs /. n_req, "count");
    ("serve.store.wal.bytes_per_op", bytes /. n_req, "B");
  ]
  @ List.map
      (fun cls ->
        ( Printf.sprintf "serve.service.handle.%s_ms" (class_name cls),
          handle_p50 cls,
          "ms" ))
      classes
  @ [
      ("serve.service.alloc_mw", !handle_mw, "Mw");
      ("serve.json.parse_ms", ms !parse_s, "ms");
      ("serve.json.render_ms", ms !render_s, "ms");
    ]
  @ List.map
      (fun cls ->
        ( Printf.sprintf "serve.unattributed.%s_ms" (class_name cls),
          e2e_p50_ms cls -. handle_p50 cls,
          "ms" ))
      classes
