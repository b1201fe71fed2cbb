(* Tests for the durable store: WAL framing and torn-tail recovery,
   snapshot bounding and staleness, the lock protocol, the merge/split
   overlay with rollback, and recovery idempotence. Every store runs
   with [sync:false] — crashes are simulated by truncating or
   corrupting files, so fsync latency buys nothing here. *)

module R = Relational
module E = Entity_id
module S = Eid_store.Store
module W = Eid_store.Wal
module F = Eid_store.Fsutil
module Json = Eid_store.Json
open Helpers

let case name f = Alcotest.test_case name `Quick f

let cfg =
  {
    S.r_attrs = [ "name"; "cuisine"; "street" ];
    r_key = [ "name"; "cuisine" ];
    s_attrs = [ "name"; "speciality"; "county" ];
    s_key = [ "name"; "speciality" ];
    key = [ "name"; "cuisine"; "speciality" ];
    rules =
      [
        "speciality = Hunan -> cuisine = Chinese";
        "name = TwinCities & street = Co.B2 -> speciality = Hunan";
      ];
    check_conflicts = false;
  }

(* These two rows match through the first rule: the S side derives
   cuisine = Chinese from speciality = Hunan, completing the extended
   key on both sides. *)
let r_match = [| v "TwinCities"; v "Chinese"; v "Co.B2" |]
let s_match = [| v "TwinCities"; v "Hunan"; v "Dakota" |]

(* And these two do not: no rule bridges their keys. *)
let r_lone = [| v "Lone"; v "Thai"; v "Elm" |]
let s_solo = [| v "Solo"; v "Gyros"; v "Kent" |]

let in_dir f =
  let dir = F.fresh_dir "test_store" in
  Fun.protect ~finally:(fun () -> F.remove_tree dir) (fun () -> f dir)

let open_ok ?telemetry ?config dir =
  match S.open_store ?telemetry ~sync:false ?config ~dir () with
  | Ok t -> t
  | Error e -> Alcotest.failf "open_store: %s" e

let ok = function
  | Ok x -> x
  | Error c ->
      Alcotest.failf "unexpected conflict: %s"
        (Format.asprintf "%a" S.pp_conflict c)

let cardinality t = E.Matching_table.cardinality (S.matching_table t)
let wal_file dir = Filename.concat dir "wal.log"
let chop path bytes =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - bytes);
  Unix.close fd

(* ---- WAL framing ---- *)

let wal_tests =
  [
    case "records round-trip with monotone offsets" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, off0 = W.open_append path in
            Alcotest.(check int) "fresh log is empty" 0 off0;
            let o1 = W.append w "alpha" in
            let o2 = W.append w "beta" in
            Alcotest.(check bool) "monotone" true (o2 > o1 && o1 > 0);
            W.sync w;
            W.close w;
            let rp = W.read path in
            Alcotest.(check (list string)) "payloads" [ "alpha"; "beta" ]
              rp.W.payloads;
            Alcotest.(check int) "valid to the end" o2 rp.W.valid_offset;
            Alcotest.(check bool) "not torn" false rp.W.torn;
            (* replay from an interior offset skips the prefix *)
            let tail = W.read ~from:o1 path in
            Alcotest.(check (list string)) "tail only" [ "beta" ]
              tail.W.payloads));
    case "a torn tail stops replay and truncates cleanly" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, _ = W.open_append path in
            let o1 = W.append w "alpha" in
            ignore (W.append w "beta" : int);
            W.sync w;
            W.close w;
            chop path 3 (* mid-payload of the second record *);
            let rp = W.read path in
            Alcotest.(check (list string)) "prefix survives" [ "alpha" ]
              rp.W.payloads;
            Alcotest.(check int) "valid offset at the tear" o1
              rp.W.valid_offset;
            Alcotest.(check bool) "torn" true rp.W.torn;
            W.truncate path o1;
            let rp = W.read path in
            Alcotest.(check bool) "clean after truncate" false rp.W.torn;
            Alcotest.(check (list string)) "same prefix" [ "alpha" ]
              rp.W.payloads));
    case "a corrupted payload byte fails its checksum" (fun () ->
        in_dir (fun dir ->
            let path = wal_file dir in
            let w, _ = W.open_append path in
            ignore (W.append w "alpha" : int);
            W.sync w;
            W.close w;
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
            ignore (Unix.lseek fd 9 Unix.SEEK_SET : int);
            ignore (Unix.write_substring fd "X" 0 1 : int);
            Unix.close fd;
            let rp = W.read path in
            Alcotest.(check (list string)) "nothing valid" [] rp.W.payloads;
            Alcotest.(check int) "torn from the start" 0 rp.W.valid_offset;
            Alcotest.(check bool) "torn" true rp.W.torn));
    case "a missing log reads as an empty replay" (fun () ->
        in_dir (fun dir ->
            let rp = W.read (wal_file dir) in
            Alcotest.(check (list string)) "no payloads" [] rp.W.payloads;
            Alcotest.(check bool) "not torn" false rp.W.torn));
  ]

(* ---- filesystem plumbing ---- *)

(* A forked process that holds the lock at [lock] until the returned
   descriptor is closed; returns once it holds it. *)
let hold_lock lock =
  let ready, ready_w = Unix.pipe () and release_r, release = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close ready;
      Unix.close release;
      Unix._exit
        (match F.acquire_lock lock with
        | Ok held ->
            ignore (Unix.write_substring ready_w "y" 0 1 : int);
            ignore (Unix.read release_r (Bytes.create 1) 0 1 : int);
            F.release_lock held;
            0
        | Error _ -> 1)
  | pid ->
      Unix.close ready_w;
      Unix.close release_r;
      let got = Unix.read ready (Bytes.create 1) 0 1 in
      Unix.close ready;
      if got <> 1 then Alcotest.fail "the holder could not take the lock";
      (pid, release)

(* [rounds] rounds of three forked processes released at once to take
   the same lock; every other round starts from a lock file a dead
   process left. A winner marks its hold with an exclusively created
   file and keeps the lock 5 ms, so two holds at once show as a marker
   that already exists. Returns the number of such overlaps. *)
let lock_race dir rounds =
  let lock = Filename.concat dir "lock" and marker = Filename.concat dir "held" in
  let dead =
    let pid =
      Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let racer start =
    ignore (Unix.read start (Bytes.create 1) 0 1);
    match F.acquire_lock lock with
    | Error _ -> 2
    | Ok held ->
        let code =
          match Unix.openfile marker [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
          | fd ->
              Unix.close fd;
              Unix.sleepf 0.005;
              Unix.unlink marker;
              0
          | exception Unix.Unix_error (Unix.EEXIST, _, _) -> 1
        in
        F.release_lock held;
        code
  in
  let overlaps = ref 0 in
  for round = 1 to rounds do
    if round mod 2 = 0 then
      Out_channel.with_open_bin lock (fun oc ->
          output_string oc (string_of_int dead ^ "\n"));
    let start, go = Unix.pipe () in
    let racers =
      List.init 3 (fun _ ->
          match Unix.fork () with
          | 0 ->
              Unix.close go;
              Unix._exit (try racer start with _ -> 3)
          | pid -> pid)
    in
    (* Closing the write end wakes every racer at once. *)
    Unix.close start;
    Unix.close go;
    let codes =
      List.map
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED code -> code
          | _ -> 3)
        racers
    in
    if List.mem 3 codes then Alcotest.fail "a racer failed";
    if not (List.mem 0 codes || List.mem 1 codes) then
      Alcotest.failf "round %d: no racer took the lock" round;
    overlaps := !overlaps + List.length (List.filter (( = ) 1) codes);
    F.remove_if_exists marker
  done;
  !overlaps

let fsutil_tests =
  [
    case "with_atomic_out leaves nothing behind on failure" (fun () ->
        in_dir (fun dir ->
            let path = Filename.concat dir "out" in
            (match
               F.with_atomic_out path (fun oc ->
                   output_string oc "partial";
                   failwith "boom")
             with
            | _ -> Alcotest.fail "expected the failure to propagate"
            | exception Failure _ -> ());
            Alcotest.(check bool) "no target" true
              (not (Sys.file_exists path));
            Alcotest.(check bool) "no temp file" true
              (not (Sys.file_exists (path ^ ".tmp")))));
    case "with_atomic_out writes into a FIFO in place" (fun () ->
        in_dir (fun dir ->
            let fifo = Filename.concat dir "out.fifo" in
            Unix.mkfifo fifo 0o600;
            (* A reader that does not wait for the writer, so the writer's
               open does not block either. *)
            let reader = Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
            F.with_atomic_out fifo (fun oc -> output_string oc "one\ntwo\n");
            let buf = Bytes.create 64 in
            let n = Unix.read reader buf 0 (Bytes.length buf) in
            Unix.close reader;
            Alcotest.(check string) "read back" "one\ntwo\n" (Bytes.sub_string buf 0 n);
            Alcotest.(check bool) "still a FIFO" true
              ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO);
            Alcotest.(check bool) "no temp file" false
              (Sys.file_exists (fifo ^ ".tmp"))));
    case "with_atomic_out writes through a symbolic link" (fun () ->
        in_dir (fun dir ->
            let target = Filename.concat dir "target" in
            let link = Filename.concat dir "link" in
            Out_channel.with_open_bin target (fun oc ->
                output_string oc "an older, longer content\n");
            Unix.symlink target link;
            F.with_atomic_out link (fun oc -> output_string oc "new\n");
            Alcotest.(check bool) "still a link" true
              ((Unix.lstat link).Unix.st_kind = Unix.S_LNK);
            Alcotest.(check string) "the target rewritten" "new\n"
              (In_channel.with_open_bin target In_channel.input_all)));
    case "a stale lock from a dead process is broken" (fun () ->
        in_dir (fun dir ->
            (* A reaped child's PID is guaranteed dead and (in any
               realistic test run) not yet recycled. *)
            let pid =
              Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
                Unix.stderr
            in
            ignore (Unix.waitpid [] pid);
            let lock = Filename.concat dir "lock" in
            let oc = open_out lock in
            output_string oc (string_of_int pid);
            close_out oc;
            match F.acquire_lock lock with
            | Ok held -> F.release_lock held
            | Error e -> Alcotest.failf "stale lock not broken: %s" e));
    case "a holder that has not written its PID keeps the lock" (fun () ->
        in_dir (fun dir ->
            let lock = Filename.concat dir "lock" in
            let pid, release = hold_lock lock in
            (* The file as it is between its creation and the PID
               write: empty, its holder alive. *)
            Unix.truncate lock 0;
            let taken =
              match F.acquire_lock lock with
              | Ok held ->
                  F.release_lock held;
                  true
              | Error _ -> false
            in
            Unix.close release;
            ignore (Unix.waitpid [] pid);
            Alcotest.(check bool) "a live holder's lock was not broken" false
              taken));
    case "a killed holder's lock is taken over" (fun () ->
        in_dir (fun dir ->
            let lock = Filename.concat dir "lock" in
            let pid, release = hold_lock lock in
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Unix.close release;
            Alcotest.(check bool) "the lock file is left behind" true
              (Sys.file_exists lock);
            match F.acquire_lock lock with
            | Ok held -> F.release_lock held
            | Error e -> Alcotest.failf "dead holder's lock kept: %s" e));
    case "racing processes never hold the lock at once" (fun () ->
        in_dir (fun dir -> Alcotest.(check int) "overlaps" 0 (lock_race dir 30)));
    case "a live lock refuses a second open" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            (match S.open_store ~sync:false ~dir () with
            | Error _ -> ()
            | Ok t2 ->
                S.close t2;
                Alcotest.fail "second open should have been refused");
            S.close t;
            (* releasing the lock makes the store reopenable *)
            let t = open_ok dir in
            S.close t));
  ]

(* ---- crash recovery ---- *)

let recovery_tests =
  [
    case "an empty store recovers to an empty store" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "nothing replayed" 0 (S.recovered_records t);
            Alcotest.(check int) "empty table" 0 (cardinality t);
            S.close t));
    case "recovery replays the WAL and is idempotent" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            let entries = ok (S.insert t S.S s_match) in
            Alcotest.(check int) "insert matched" 1 (List.length entries);
            let mt0 = S.matching_table t in
            S.close t;
            let recover () =
              let t = open_ok dir in
              let r =
                (S.recovered_records t, S.wal_offset t, S.matching_table t)
              in
              S.close t;
              r
            in
            let n1, off1, mt1 = recover () in
            let n2, off2, mt2 = recover () in
            Alcotest.(check int) "two ops replayed" 2 n1;
            Alcotest.(check int) "second recovery identical" n1 n2;
            Alcotest.(check int) "offsets stable" off1 off2;
            Alcotest.(check bool) "table restored" true
              (mt_entries_equal mt0 mt1);
            Alcotest.(check bool) "table stable" true
              (mt_entries_equal mt1 mt2)));
    case "a torn final record is truncated, the prefix survives" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.close t;
            chop (wal_file dir) 3;
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check int) "tear counted" 1
              (Telemetry.counter telemetry "store.recovery.torn_tail");
            Alcotest.(check int) "only the first op survives" 1
              (S.recovered_records t);
            Alcotest.(check int) "no match yet" 0 (cardinality t);
            (* the store stays writable past the repaired tail *)
            let entries = ok (S.insert t S.S s_match) in
            Alcotest.(check int) "re-insert matches" 1 (List.length entries);
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "repair is durable" 1 (cardinality t);
            S.close t));
    case "a snapshot bounds the replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            ignore (ok (S.insert t S.R r_lone));
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "only the tail replays" 1
              (S.recovered_records t);
            Alcotest.(check int) "full state restored" 1 (cardinality t);
            S.close t));
    case "a stale rules hash forces a full replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            S.close t;
            (* Changing the configuration invalidates the snapshot's
               rules hash; the never-compacted WAL makes the fallback
               complete. A harmless extra rule keeps the data's
               behaviour identical so the tables must still agree. *)
            let cfg' =
              { cfg with S.rules = cfg.S.rules @ [ "street = X -> county = Y" ] }
            in
            Sys.remove (Filename.concat dir "config.json");
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry ~config:cfg' dir in
            Alcotest.(check int) "stale snapshot counted" 1
              (Telemetry.counter telemetry "store.recovery.snapshot_stale");
            Alcotest.(check int) "full WAL replayed" 2 (S.recovered_records t);
            Alcotest.(check int) "state rebuilt" 1 (cardinality t);
            S.close t));
    case "a corrupt snapshot forces a full replay" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            S.close t;
            let snap = Filename.concat dir "snapshot" in
            let fd = Unix.openfile snap [ Unix.O_WRONLY ] 0 in
            ignore (Unix.lseek fd 20 Unix.SEEK_SET : int);
            ignore (Unix.write_substring fd "\xff" 0 1 : int);
            Unix.close fd;
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check int) "corruption counted" 1
              (Telemetry.counter telemetry "store.recovery.snapshot_corrupt");
            Alcotest.(check int) "full WAL replayed" 2 (S.recovered_records t);
            Alcotest.(check int) "state rebuilt" 1 (cardinality t);
            S.close t));
    case "a log cut below the snapshot's offset sets it aside" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            let first = S.wal_offset t in
            ignore (ok (S.insert t S.S s_match));
            S.snapshot t;
            S.close t;
            (* The log loses its second record, which the snapshot
               covers: restoring it would keep the match the log no
               longer holds. *)
            Unix.truncate (wal_file dir) first;
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check int) "ahead counted" 1
              (Telemetry.counter telemetry "store.recovery.snapshot_ahead");
            Alcotest.(check int) "full WAL replayed" 1 (S.recovered_records t);
            Alcotest.(check int) "no match" 0 (cardinality t);
            Alcotest.(check bool) "snapshot set aside" true
              ((not (Sys.file_exists (Filename.concat dir "snapshot")))
              && Sys.file_exists (Filename.concat dir "snapshot.ahead"));
            (* Records appended now land past the old snapshot's offset;
               a reopen replays them, not a stale state. *)
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_match));
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "every record replayed" 3 (S.recovered_records t);
            Alcotest.(check int) "the match is back" 1 (cardinality t);
            S.close t));
    case "a logged duplicate insert replays as a no-op" (fun () ->
        in_dir (fun dir ->
            S.close (open_ok ~config:cfg dir);
            (* The log a store writes when it journals the duplicate
               insert too. *)
            let w, _ = W.open_append (wal_file dir) in
            List.iter
              (fun op -> ignore (W.append w (Marshal.to_string op []) : int))
              [ S.Op_insert_r r_match; S.Op_insert_r r_match;
                S.Op_insert_s s_match ];
            W.sync w;
            W.close w;
            let t = open_ok dir in
            Alcotest.(check int) "all three replayed" 3
              (S.recovered_records t);
            Alcotest.(check int) "one R row"
              1
              (R.Relation.Keyed.cardinality
                 (E.Incremental.r_base (S.incremental t)));
            Alcotest.(check int) "one pair" 1 (cardinality t);
            Alcotest.(check int) "one derived entry" 1
              (List.length (E.Incremental.entries (S.incremental t)));
            Alcotest.(check int) "nothing unmatched" 0
              (List.length (E.Incremental.unmatched_r (S.incremental t)));
            Alcotest.(check int) "a later copy creates nothing" 0
              (List.length (ok (S.insert t S.R r_match)));
            S.close t));
    case "a changed provided configuration is refused" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            S.close t;
            let cfg' = { cfg with S.check_conflicts = true } in
            match S.open_store ~sync:false ~config:cfg' ~dir () with
            | Error _ -> ()
            | Ok t ->
                S.close t;
                Alcotest.fail "config mismatch should refuse to open"));
    case "an invalid configuration leaves no files behind" (fun () ->
        in_dir (fun dir ->
            List.iter
              (fun bad ->
                (match S.open_store ~sync:false ~config:bad ~dir () with
                | Error _ -> ()
                | Ok t ->
                    S.close t;
                    Alcotest.fail "an invalid configuration opened");
                Alcotest.(check (list string)) "no files" []
                  (Array.to_list (Sys.readdir dir)))
              [
                { cfg with S.rules = [ "speciality = Hunan ->" ] };
                { cfg with S.r_key = [ "nope" ] };
                { cfg with S.s_attrs = [ "name"; "name" ] };
              ];
            let t = open_ok ~config:cfg dir in
            ok (S.insert t S.R r_match) |> ignore;
            ok (S.insert t S.S s_match) |> ignore;
            Alcotest.(check int) "the corrected store matches" 1
              (cardinality t);
            S.close t));
  ]

(* ---- conflicts and the merge overlay ---- *)

let overlay_tests =
  [
    case "a key violation is recorded and survives recovery" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            (match
               S.insert t S.R [| v "TwinCities"; v "Chinese"; v "Elsewhere" |]
             with
            | Error (S.Key_violation _) -> ()
            | Error c ->
                Alcotest.failf "wrong conflict: %s"
                  (Format.asprintf "%a" S.pp_conflict c)
            | Ok _ -> Alcotest.fail "duplicate key accepted");
            Alcotest.(check int) "recorded" 1 (List.length (S.conflicts t));
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "replayed" 1 (List.length (S.conflicts t));
            S.close t));
    case "merge, rollback, re-merge round-trip" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_solo));
            let r_key = [| v "Lone"; v "Thai" |]
            and s_key = [| v "Solo"; v "Gyros" |] in
            let record = ok (S.merge t ~r_key ~s_key) in
            Alcotest.(check bool) "manual inverse" true
              record.S.inverse_manual;
            Alcotest.(check int) "pair asserted" 1 (cardinality t);
            (match S.merge t ~r_key ~s_key with
            | Error (S.Duplicate_merge _) -> ()
            | _ -> Alcotest.fail "re-merging the same pair must conflict");
            (match S.rollback t with
            | Some _ -> ()
            | None -> Alcotest.fail "rollback found nothing");
            Alcotest.(check int) "pair retracted" 0 (cardinality t);
            Alcotest.(check bool) "rollback is exhausted" true
              (S.rollback t = None);
            ignore (ok (S.merge t ~r_key ~s_key));
            Alcotest.(check int) "re-merge sticks" 1 (cardinality t);
            S.close t;
            let t = open_ok dir in
            Alcotest.(check int) "overlay survives recovery" 1 (cardinality t);
            Alcotest.(check int) "full log restored" 2
              (List.length (S.merge_log t));
            S.close t));
    case "split suppresses a derived pair; rollback restores it" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            Alcotest.(check int) "derived match" 1 (cardinality t);
            let r_key = [| v "TwinCities"; v "Chinese" |]
            and s_key = [| v "TwinCities"; v "Hunan" |] in
            let record = ok (S.split t ~r_key ~s_key) in
            Alcotest.(check bool) "suppression inverse" false
              record.S.inverse_manual;
            Alcotest.(check int) "suppressed" 0 (cardinality t);
            (match S.split t ~r_key ~s_key with
            | Error (S.Unknown_pair _) -> ()
            | _ -> Alcotest.fail "splitting a split pair must conflict");
            (match S.rollback t with
            | Some _ -> ()
            | None -> Alcotest.fail "rollback found nothing");
            Alcotest.(check int) "restored" 1 (cardinality t);
            S.close t));
    case "an exact duplicate insert is a silent no-op" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            let offset = S.wal_offset t in
            Alcotest.(check int) "duplicate creates nothing" 0
              (List.length (ok (S.insert t S.R r_match)));
            Alcotest.(check int) "and is not journalled" offset
              (S.wal_offset t);
            let entries = ok (S.insert t S.S s_match) in
            Alcotest.(check int) "the partner matches once" 1
              (List.length entries);
            Alcotest.(check int) "one effective pair" 1 (cardinality t);
            Alcotest.(check int) "counted once" 1 (S.match_count t);
            S.close t));
    case "merge validates its keys" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_solo));
            (match
               S.merge t
                 ~r_key:[| v "Ghost"; v "Thai" |]
                 ~s_key:[| v "Solo"; v "Gyros" |]
             with
            | Error (S.Unknown_key { side = S.R; _ }) -> ()
            | _ -> Alcotest.fail "unknown R key accepted");
            ignore
              (ok
                 (S.merge t
                    ~r_key:[| v "Lone"; v "Thai" |]
                    ~s_key:[| v "Solo"; v "Gyros" |]));
            ignore (ok (S.insert t S.S [| v "Other"; v "Hunan"; v "Kent" |]));
            (match
               S.merge t
                 ~r_key:[| v "Lone"; v "Thai" |]
                 ~s_key:[| v "Other"; v "Hunan" |]
             with
            | Error (S.Merge_uniqueness _) -> ()
            | _ -> Alcotest.fail "double-matching merge accepted");
            S.close t));
    case "a float-keyed pair splits with the keys identify lists" (fun () ->
        (* Through the protocol's text: the keys identify prints must
           name the pair again, so an integral float key (3.0) must not
           read back as an integer. *)
        let priced =
          {
            cfg with
            r_attrs = [ "name"; "price" ];
            r_key = [ "name"; "price" ];
            s_attrs = [ "name"; "price" ];
            s_key = [ "name"; "price" ];
            key = [ "name"; "price" ];
            rules = [];
          }
        in
        in_dir (fun dir ->
            let t = open_ok ~config:priced dir in
            let request line =
              match Json.parse (Eid_store.Service.handle_line t line) with
              | Ok reply -> reply
              | Error e -> Alcotest.failf "unparsable reply: %s" e
            in
            let answered line =
              let reply = request line in
              if Json.member "ok" reply <> Some (Json.Bool true) then
                Alcotest.failf "%s -> %s" line (Json.to_string reply)
            in
            let row = {|{"name":"A","price":3.0}|} in
            List.iter
              (fun side ->
                answered
                  (Printf.sprintf {|{"op":"insert","side":"%s","row":%s}|}
                     side row))
              [ "r"; "s" ];
            let entry =
              match Json.member "entries" (request {|{"op":"identify"}|}) with
              | Some (Json.List [ entry ]) -> entry
              | _ -> Alcotest.fail "one entry expected"
            in
            let key name = Option.get (Json.member name entry) in
            answered
              (Json.to_string
                 (Json.Obj
                    [
                      ("op", Json.String "split");
                      ("r_key", key "r_key");
                      ("s_key", key "s_key");
                    ]));
            Alcotest.(check int) "split" 0 (cardinality t);
            S.close t));
  ]

(* ---- model-based interleavings ----

   Random sequences of inserts (exact duplicates, key violations, NULL
   keys and wrong arities included), merges (unknown keys, duplicates,
   uniqueness violations), splits (unknown pairs), rollbacks (past
   empty), snapshots and close-then-reopen, run against the store and
   against a reference model. The model keeps the overlays as plain
   lists and recomputes the effective pairs from scratch on every
   read, as [(derived \ suppressed) @ manual]; its derivations extend
   each row with the recursive engine and join it against every stored
   row of the other side. After every operation the store must agree
   with it on the answer (conflict witnesses included), the matching
   table (entry order included), the stats cardinalities, the merge log
   and the conflict table. *)

(* Matching on (name, cuisine) with two specialities per cuisine: an R
   row can match two S rows, so merges meet uniqueness witnesses on
   either side. *)
let model_cfg =
  {
    S.r_attrs = [ "name"; "cuisine"; "street" ];
    r_key = [ "name"; "cuisine" ];
    s_attrs = [ "name"; "speciality"; "county" ];
    s_key = [ "name"; "speciality" ];
    key = [ "name"; "cuisine" ];
    rules =
      [
        "speciality = Hunan -> cuisine = Chinese";
        "speciality = Szechuan -> cuisine = Chinese";
        "speciality = Sushi -> cuisine = Japanese";
      ];
    check_conflicts = false;
  }

type model_op =
  | Insert of S.side * R.Value.t array
  | Merge of int * int
      (** a stored row's key on each side, or a universe key when the
          index is a multiple of 5 *)
  | Split of int  (** an effective pair, or a universe pair when [i mod 4 = 0] *)
  | Rollback
  | Snapshot
  | Reopen

let names = [ "A"; "B" ]
let cuisines = [ "Chinese"; "Japanese"; "Thai" ]
let specialities = [ "Hunan"; "Szechuan"; "Sushi"; "Pizza" ]

(* Every key the rows can carry, plus one no row carries. *)
let universe firsts seconds missing =
  Array.of_list
    (List.concat_map (fun a -> List.map (fun b -> [| v a; v b |]) seconds) firsts
    @ [ missing ])

let r_universe = universe names cuisines [| v "Z"; v "Thai" |]
let s_universe = universe names specialities [| v "Z"; v "Sushi" |]

let model_op_gen =
  QCheck2.Gen.(
    let str l = map v (oneofl l) in
    let name = frequency [ (9, str names); (1, return R.Value.Null) ] in
    let row a b c = map3 (fun a b c -> [| a; b; c |]) a b c in
    frequency
      [
        (5, map (fun r -> Insert (S.R, r)) (row name (str cuisines) (str [ "X"; "Y" ])));
        (5, map (fun r -> Insert (S.S, r)) (row name (str specialities) (str [ "K"; "L" ])));
        (1, return (Insert (S.R, [| v "A"; v "Chinese" |])));
        (3, map2 (fun i j -> Merge (i, j)) nat nat);
        (2, map (fun i -> Split i) nat);
        (2, return Rollback);
        (1, return Snapshot);
        (1, return Reopen);
      ])

let model_op_to_string = function
  | Insert (side, row) ->
      Printf.sprintf "insert %s (%s)"
        (match side with S.R -> "r" | S.S -> "s")
        (String.concat ", " (Array.to_list (Array.map R.Value.to_string row)))
  | Merge (i, j) -> Printf.sprintf "merge %d %d" i j
  | Split i -> Printf.sprintf "split %d" i
  | Rollback -> "rollback"
  | Snapshot -> "snapshot"
  | Reopen -> "reopen"

module Model = struct
  type pair = R.Value.t array * R.Value.t array

  type t = {
    r : R.Relation.t;
    s : R.Relation.t;
    r_ext : R.Tuple.t list;  (** insertion order *)
    s_ext : R.Tuple.t list;
    derived : pair list;  (** derivation order *)
    manual : pair list;  (** newest first *)
    suppressed : pair list;  (** newest first *)
    merges : S.merge_record list;  (** newest first *)
    conflicts : S.conflict list;  (** newest first *)
  }

  let ilfds = List.map Ilfd.parse model_cfg.rules
  let key = E.Extended_key.make model_cfg.key
  let kext = model_cfg.key

  let empty =
    let rel attrs k = R.Relation.empty (R.Schema.of_names attrs) ~keys:[ k ] () in
    {
      r = rel model_cfg.r_attrs model_cfg.r_key;
      s = rel model_cfg.s_attrs model_cfg.s_key;
      r_ext = [];
      s_ext = [];
      derived = [];
      manual = [];
      suppressed = [];
      merges = [];
      conflicts = [];
    }

  let key_eq a b = Array.length a = Array.length b && Array.for_all2 R.Value.equal a b
  let pair_eq (r1, s1) (r2, s2) = key_eq r1 r2 && key_eq s1 s2
  let mem_pair pairs p = List.exists (pair_eq p) pairs
  let remove_pair pairs p = List.filter (fun q -> not (pair_eq p q)) pairs

  let compare_keys a b =
    let n = min (Array.length a) (Array.length b) in
    let rec go i =
      if i = n then compare (Array.length a) (Array.length b)
      else
        let c = R.Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let rec distinct = function
    | [] -> []
    | p :: rest -> p :: distinct (List.filter (fun q -> not (pair_eq p q)) rest)

  let effective_pairs m =
    List.filter (fun p -> not (mem_pair m.suppressed p)) (distinct m.derived)
    @ List.rev m.manual

  let target rel = E.Identify.extension_schema rel key

  let extend rel tuple =
    match
      Ilfd.Apply.extend_tuple (R.Relation.schema rel) tuple ~target:(target rel)
        ilfds
    with
    | Ok (t, _) -> t
    | Error _ -> assert false (* first-rule mode never disagrees *)

  let pk rel ext =
    R.Tuple.to_array
      (R.Tuple.project (target rel) ext (R.Relation.primary_key rel))

  let conflict m c = ({ m with conflicts = c :: m.conflicts }, Error c)

  let insert m side row =
    let rel = match side with S.R -> m.r | S.S -> m.s in
    match R.Tuple.of_array (R.Relation.schema rel) row with
    | exception R.Tuple.Arity_mismatch { expected; got } ->
        conflict m (S.Arity_mismatch { side; expected; got })
    | tuple -> (
        match R.Relation.add rel tuple with
        | exception R.Relation.Key_violation { key; _ } ->
            conflict m (S.Key_violation { side; row; key })
        | rel' when R.Relation.cardinality rel' = R.Relation.cardinality rel ->
            (m, Ok [])
        | rel' -> (
            let ext = extend rel tuple in
            let agree rt a st b = R.Tuple.agree (target rt) a (target st) b kext in
            match side with
            | S.R ->
                let pairs =
                  List.filter_map
                    (fun u ->
                      if agree m.r ext m.s u then Some (pk m.r ext, pk m.s u)
                      else None)
                    m.s_ext
                in
                ( { m with r = rel'; r_ext = m.r_ext @ [ ext ];
                    derived = m.derived @ pairs },
                  Ok pairs )
            | S.S ->
                let pairs =
                  List.filter_map
                    (fun u ->
                      if agree m.r u m.s ext then Some (pk m.r u, pk m.s ext)
                      else None)
                    m.r_ext
                in
                ( { m with s = rel'; s_ext = m.s_ext @ [ ext ];
                    derived = m.derived @ pairs },
                  Ok pairs )))

  let key_exists m side k =
    let rel = match side with S.R -> m.r | S.S -> m.s in
    let schema = R.Relation.schema rel and pk = R.Relation.primary_key rel in
    R.Relation.exists
      (fun t -> key_eq (R.Tuple.to_array (R.Tuple.project schema t pk)) k)
      rel

  let record m action ~r_key ~s_key ~inverse_manual =
    let record =
      {
        S.action;
        m_r_key = r_key;
        m_s_key = s_key;
        primary = (if compare_keys r_key s_key <= 0 then S.R else S.S);
        inverse_manual;
        rolled_back = false;
      }
    in
    ({ m with merges = record :: m.merges }, Ok record)

  let merge m ~r_key ~s_key =
    let pair = (r_key, s_key) and pairs = effective_pairs m in
    if not (key_exists m S.R r_key) then
      conflict m (S.Unknown_key { side = S.R; key = r_key })
    else if not (key_exists m S.S s_key) then
      conflict m (S.Unknown_key { side = S.S; key = s_key })
    else if mem_pair pairs pair then conflict m (S.Duplicate_merge { r_key; s_key })
    else
      match
        List.find_opt (fun (r, s) -> key_eq r r_key || key_eq s s_key) pairs
      with
      | Some (existing_r, existing_s) ->
          conflict m (S.Merge_uniqueness { r_key; s_key; existing_r; existing_s })
      | None ->
          if mem_pair m.suppressed pair then
            record { m with suppressed = remove_pair m.suppressed pair }
              S.Merge_pair ~r_key ~s_key ~inverse_manual:false
          else
            record { m with manual = pair :: m.manual } S.Merge_pair ~r_key
              ~s_key ~inverse_manual:true

  let split m ~r_key ~s_key =
    let pair = (r_key, s_key) in
    if not (mem_pair (effective_pairs m) pair) then
      conflict m (S.Unknown_pair { r_key; s_key })
    else if mem_pair m.manual pair then
      record { m with manual = remove_pair m.manual pair } S.Split_pair ~r_key
        ~s_key ~inverse_manual:true
    else
      record { m with suppressed = pair :: m.suppressed } S.Split_pair ~r_key
        ~s_key ~inverse_manual:false

  let rollback m =
    let rec pop seen = function
      | [] -> (m, None)
      | (record : S.merge_record) :: rest when record.rolled_back ->
          pop (record :: seen) rest
      | record :: rest ->
          let pair = (record.m_r_key, record.m_s_key) in
          let m =
            match (record.action, record.inverse_manual) with
            | S.Merge_pair, true -> { m with manual = remove_pair m.manual pair }
            | S.Merge_pair, false -> { m with suppressed = pair :: m.suppressed }
            | S.Split_pair, true -> { m with manual = pair :: m.manual }
            | S.Split_pair, false ->
                { m with suppressed = remove_pair m.suppressed pair }
          in
          let marked = { record with rolled_back = true } in
          ( { m with merges = List.rev_append seen (marked :: rest) },
            Some marked )
    in
    pop [] m.merges

  let merge_keys m i j =
    let pick rel universe i =
      match R.Relation.tuples rel with
      | rows when rows <> [] && i mod 5 <> 0 ->
          let row = List.nth rows (i / 5 mod List.length rows) in
          R.Tuple.to_array
            (R.Tuple.project (R.Relation.schema rel) row
               (R.Relation.primary_key rel))
      | _ -> universe.(i mod Array.length universe)
    in
    (pick m.r r_universe i, pick m.s s_universe j)

  let split_target m i =
    match effective_pairs m with
    | pairs when pairs <> [] && i mod 4 <> 0 ->
        List.nth pairs (i / 4 mod List.length pairs)
    | _ ->
        ( r_universe.(i mod Array.length r_universe),
          s_universe.(i mod Array.length s_universe) )
end

let pairs_of_entries =
  List.map (fun (e : E.Matching_table.entry) ->
      (R.Tuple.to_array e.r_key, R.Tuple.to_array e.s_key))

let same x y = compare x y = 0

let stats_of st =
  let reply =
    Eid_store.Service.handle st
      (Eid_store.Json.Obj [ ("op", Eid_store.Json.String "stats") ])
  in
  List.map
    (fun field ->
      match Eid_store.Json.member field reply with
      | Some (Eid_store.Json.Int n) -> n
      | _ -> -1)
    [ "r_cardinality"; "s_cardinality"; "matches" ]

let count_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i acc =
    if i + k > n then acc
    else if String.sub s i k = sub then go (i + k) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let explain_report st fields =
  match
    Eid_store.Json.string_member "report"
      (Eid_store.Service.handle st
         (Eid_store.Json.Obj
            (("op", Eid_store.Json.String "explain") :: fields)))
  with
  | Some report -> report
  | None -> Alcotest.fail "explain answered without a report"

(* A whole-store explain lists identify's pairs in identify's order; a
   derived pair's chains are the scan's over its stored base rows, a
   manual pair cites an active merge of that pair, and the report heads
   exactly the derived pairs with "] match ". *)
let explain_disagrees st (m : Model.t) =
  let want =
    List.sort
      (fun (r1, s1) (r2, s2) ->
        match Model.compare_keys r1 r2 with
        | 0 -> Model.compare_keys s1 s2
        | c -> c)
      (Model.effective_pairs m)
  in
  let items = S.explain st in
  let entry_of = function
    | E.Explain.Derived e -> e.entry
    | E.Explain.Manual { entry; _ } -> entry
  in
  let chains rel key =
    let schema = R.Relation.schema rel in
    match
      List.find_opt
        (fun t ->
          Model.key_eq
            (R.Tuple.to_array
               (R.Tuple.project schema t (R.Relation.primary_key rel)))
            key)
        (R.Relation.tuples rel)
    with
    | None -> None
    | Some t -> (
        match
          Ilfd.Apply.extend_tuple schema t ~target:(Model.target rel)
            Model.ilfds
        with
        | Ok (_, ds) -> Some ds
        | Error _ -> None)
  in
  let log = Array.of_list (S.merge_log st) in
  let item_ok ((r, s) as pair) item =
    match item with
    | E.Explain.Derived e ->
        (not (Model.mem_pair m.suppressed pair))
        && List.exists (Model.pair_eq pair) m.derived
        && same (chains m.r r) (Some e.r_derivations)
        && same (chains m.s s) (Some e.s_derivations)
    | E.Explain.Manual { record; _ } ->
        Model.mem_pair m.manual pair
        && record >= 1
        && record <= Array.length log
        &&
        let cited = log.(record - 1) in
        cited.action = S.Merge_pair
        && (not cited.rolled_back)
        && Model.pair_eq (cited.m_r_key, cited.m_s_key) pair
  in
  let derived =
    List.length
      (List.filter (function E.Explain.Derived _ -> true | _ -> false) items)
  in
  if not (same (pairs_of_entries (List.map entry_of items)) want) then
    Some "the pairs differ from identify's"
  else if not (List.for_all2 item_ok want items) then
    Some "an item's chains or citation differ"
  else if count_sub (explain_report st []) "] match " <> derived then
    Some "the report does not head each derived pair with \"] match \""
  else None

let run_model ops =
  in_dir (fun dir ->
      let st = ref (open_ok ~config:model_cfg dir) in
      let step (m, i) op =
        let fail fmt =
          Format.kasprintf
            (fun msg ->
              S.close !st;
              QCheck2.Test.fail_reportf "op %d (%s): %s" i
                (model_op_to_string op) msg)
            fmt
        in
        let m, answers_agree =
          match op with
          | Insert (side, row) ->
              let m', want = Model.insert m side row in
              let got = Result.map pairs_of_entries (S.insert !st side row) in
              (m', same got want)
          | Merge (i, j) ->
              let r_key, s_key = Model.merge_keys m i j in
              let m', want = Model.merge m ~r_key ~s_key in
              (m', same (S.merge !st ~r_key ~s_key) want)
          | Split i ->
              let r_key, s_key = Model.split_target m i in
              let m', want = Model.split m ~r_key ~s_key in
              (m', same (S.split !st ~r_key ~s_key) want)
          | Rollback ->
              let m', want = Model.rollback m in
              (m', same (S.rollback !st) want)
          | Snapshot ->
              S.snapshot !st;
              (m, true)
          | Reopen ->
              S.close !st;
              st := open_ok dir;
              (m, true)
        in
        if not answers_agree then fail "the answer differs";
        let want_table =
          E.Matching_table.make ~r_key_attrs:model_cfg.r_key
            ~s_key_attrs:model_cfg.s_key
            (List.map
               (fun (r, s) ->
                 {
                   E.Matching_table.r_key =
                     R.Tuple.of_array (R.Schema.of_names model_cfg.r_key) r;
                   s_key = R.Tuple.of_array (R.Schema.of_names model_cfg.s_key) s;
                 })
               (Model.effective_pairs m))
        in
        let want_pairs = pairs_of_entries (E.Matching_table.entries want_table) in
        if
          not
            (same
               (pairs_of_entries (E.Matching_table.entries (S.matching_table !st)))
               want_pairs)
        then fail "the matching table differs";
        if
          stats_of !st
          <> [
               R.Relation.cardinality m.r;
               R.Relation.cardinality m.s;
               E.Matching_table.cardinality want_table;
             ]
        then fail "the stats cardinalities differ";
        if not (same (S.merge_log !st) (List.rev m.merges)) then
          fail "the merge log differs";
        (match explain_disagrees !st m with
        | Some why -> fail "explain: %s" why
        | None -> ());
        if not (same (S.conflicts !st) (List.rev m.conflicts)) then
          fail "the conflict table differs";
        (m, i + 1)
      in
      ignore (List.fold_left step (Model.empty, 0) ops);
      S.close !st;
      true)

let explain_tests =
  let key attrs values =
    Eid_store.Json.Obj
      (List.map2
         (fun a v -> (a, Eid_store.Service.json_of_value v))
         attrs (Array.to_list values))
  in
  [
    case "explain answers from the effective table" (fun () ->
        (* The README session's two inserts, a split kept, then a merge of
           two rows no rule bridges: identify lists only the merged pair,
           and so must explain, citing the merge. *)
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            let r_key = [| v "TwinCities"; v "Chinese" |]
            and s_key = [| v "TwinCities"; v "Hunan" |] in
            Alcotest.(check bool) "derived pair explained" true
              (count_sub (explain_report t []) "] match (TwinCities" = 1);
            ignore (ok (S.split t ~r_key ~s_key));
            ignore (ok (S.insert t S.R r_lone));
            ignore (ok (S.insert t S.S s_solo));
            ignore
              (ok
                 (S.merge t ~r_key:[| v "Lone"; v "Thai" |]
                    ~s_key:[| v "Solo"; v "Gyros" |]));
            let report = explain_report t [] in
            Alcotest.(check int) "no derived pair" 0
              (count_sub report "] match ");
            Alcotest.(check int) "TwinCities is split" 0
              (count_sub report "TwinCities");
            Alcotest.(check string) "the merge, cited"
              "[1] manual (Lone, Thai) ~ (Solo, Gyros)\n\
              \      asserted by merge-log record #2; no ILFD derivation\n\n"
              report;
            (* Keyed: the split pair has nothing to explain; the merged
               pair is found from either key. *)
            Alcotest.(check string) "split pair, keyed" ""
              (explain_report t
                 [
                   ("r_key", key cfg.r_key r_key);
                   ("s_key", key cfg.s_key s_key);
                 ]);
            Alcotest.(check string) "merged pair by its R key" report
              (explain_report t
                 [ ("r_key", key cfg.r_key [| v "Lone"; v "Thai" |]) ]);
            Alcotest.(check string) "merged pair by its S key" report
              (explain_report t
                 [ ("s_key", key cfg.s_key [| v "Solo"; v "Gyros" |]) ]);
            ignore (S.rollback t);
            ignore (S.rollback t);
            let keyed =
              explain_report t [ ("s_key", key cfg.s_key s_key) ]
            in
            Alcotest.(check int) "rolled back: derived again" 1
              (count_sub keyed "] match (TwinCities, Chinese) ~ (TwinCities, Hunan)");
            Alcotest.(check int) "with its chain" 1
              (count_sub keyed "speciality := Hunan");
            S.close t));
  ]

let scan_tests =
  [
    case "inserts and replays that take the scan are counted" (fun () ->
        (* A cyclic family has no exact rule tables: every derivation
           takes the scan, live or replayed, and the store's sink
           counts each. *)
        let cyclic =
          {
            cfg with
            rules =
              cfg.rules @ [ "cuisine = Chinese -> speciality = Hunan" ];
          }
        in
        let scans t =
          Telemetry.counter (S.telemetry t) "ilfd.fixpoint.fallback_classes"
        in
        in_dir (fun dir ->
            let t =
              open_ok ~telemetry:(Telemetry.create ()) ~config:cyclic dir
            in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            Alcotest.(check int) "two live inserts" 2 (scans t);
            Alcotest.(check int) "still matched" 1 (cardinality t);
            S.close t;
            let t = open_ok ~telemetry:(Telemetry.create ()) dir in
            Alcotest.(check int) "two replayed records" 2 (scans t);
            S.close t);
        in_dir (fun dir ->
            let t =
              open_ok ~telemetry:(Telemetry.create ()) ~config:cfg dir
            in
            ignore (ok (S.insert t S.R r_match));
            ignore (ok (S.insert t S.S s_match));
            Alcotest.(check int) "an acyclic family never scans" 0 (scans t);
            S.close t));
  ]

(* ---- the JSON codec ----

   Values whose text is hard to get right: integral floats (which must
   not print as integers), -0., subnormals and extremes, the int range's
   ends, strings with quotes, backslashes, control characters and
   multi-byte UTF-8, nested lists and objects. Non-finite floats print
   as strings by design, so they stay out. *)

let json_float_gen =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.5)
          int64;
        map float_of_int int;
        map float_of_int (-1000 -- 1000);
        oneofl
          [ 0.; -0.; 5e-324; 1e300; -1e300; Float.max_float; 1e12; 1e17;
            123456789012.; 0.1; 0.30000000000000004 ];
      ])

let json_string_gen =
  QCheck2.Gen.(
    oneof
      [
        map (String.concat "")
          (list_size (0 -- 6)
             (oneofl
                [ "a"; " "; "\""; "\\"; "/"; "\n"; "\t"; "\000"; "\b";
                  "\x1f"; "\x7f"; "\u{e9}"; "\u{20ac}"; "\u{1d11e}"; "\\u" ]));
        string_size ~gen:char (0 -- 8);
      ])

let json_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map
                   (fun i -> Json.Int i)
                   (oneof [ int; oneofl [ min_int; max_int ] ]);
                 map (fun f -> Json.Float f) json_float_gen;
                 map (fun s -> Json.String s) json_string_gen;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (0 -- 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4)
                        (pair json_string_gen (self (n / 2)))) );
               ]))

(* Structural equality, floats compared bit for bit so that -0. <> 0. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

(* [Json.escape] as it was before it copied runs of plain bytes: one
   byte at a time. *)
let escape_bytewise buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s

let escaped escape s =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "pre";
  escape buf s;
  Buffer.contents buf

let json_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"parse reads back what to_string prints" ~print:Json.to_string
         json_gen (fun v ->
           match Json.parse (Json.to_string v) with
           | Ok v' -> json_equal v v'
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"a one-byte edit never makes parse raise"
         ~print:(fun (v, (op, at, byte)) ->
           Printf.sprintf "%s, edit %d at %d with %C" (Json.to_string v) op
             at byte)
         QCheck2.Gen.(pair json_gen (triple (0 -- 2) nat char))
         (fun (v, (op, at, byte)) ->
           let doc = Json.to_string v in
           let n = String.length doc in
           let at = at mod (n + 1) in
           let edited =
             match op with
             | 0 when at < n ->
                 String.mapi (fun i c -> if i = at then byte else c) doc
             | 1 when at < n ->
                 String.sub doc 0 at ^ String.sub doc (at + 1) (n - at - 1)
             | _ ->
                 String.sub doc 0 at ^ String.make 1 byte
                 ^ String.sub doc at (n - at)
           in
           match Json.parse edited with Ok _ | Error _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000
         ~name:"escape = the byte-at-a-time escape" ~print:(Printf.sprintf "%S")
         QCheck2.Gen.(
           string_size ~gen:(frequency [ (3, printable); (1, char) ]) (0 -- 40))
         (fun s -> escaped Json.escape s = escaped escape_bytewise s));
  ]

let model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:150 ~name:"interleavings agree with the model"
         ~print:(fun ops -> String.concat "; " (List.map model_op_to_string ops))
         QCheck2.Gen.(list_size (0 -- 40) model_op_gen)
         run_model);
  ]

(* ---- the protocol boundary ----

   Malformed requests get a typed error and leave the store as it was:
   nothing is journalled, so the WAL offset does not move. *)

let protocol_tests =
  [
    case "a list or object cell is a bad request" (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            let refused line attribute =
              match Json.parse (Eid_store.Service.handle_line t line) with
              | Ok reply ->
                  Alcotest.(check (option string))
                    (line ^ ": error") (Some "bad_request")
                    (Json.string_member "error" reply);
                  let detail =
                    Option.value ~default:"" (Json.string_member "detail" reply)
                  in
                  Alcotest.(check bool)
                    (line ^ ": the detail names " ^ attribute)
                    true
                    (List.mem (Printf.sprintf "%S" attribute)
                       (String.split_on_char ' ' detail))
              | Error e -> Alcotest.failf "unparsable reply: %s" e
            in
            refused
              {|{"op":"insert","side":"r","row":{"name":"TwinCities","cuisine":"Chinese","street":["Co.B2"]}}|}
              "street";
            refused
              {|{"op":"insert","side":"r","row":{"name":["Lone"],"cuisine":"Thai","street":"Elm"}}|}
              "name";
            refused
              {|{"op":"merge","r_key":{"name":{"n":"Lone"},"cuisine":"Thai"},"s_key":{"name":"Solo","speciality":"Gyros"}}|}
              "name";
            refused
              {|{"op":"explain","s_key":{"name":"Solo","speciality":[]}}|}
              "speciality";
            Alcotest.(check int) "nothing journalled" 0 (S.wal_offset t);
            Alcotest.(check int) "no conflict recorded" 0
              (List.length (S.conflicts t));
            Alcotest.(check int) "no row stored" 0
              (R.Relation.Keyed.cardinality
                 (E.Incremental.r_base (S.incremental t)));
            S.close t));
    case "an over-long request line is refused, and serve goes on"
      (fun () ->
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            let requests = Filename.concat dir "requests"
            and replies = Filename.concat dir "replies" in
            Out_channel.with_open_bin requests (fun oc ->
                Printf.fprintf oc
                  {|{"op":"insert","side":"r","row":{"name":"%s","cuisine":"Thai","street":"Elm"}}|}
                  (String.make (2 lsl 20) 'x');
                output_string oc "\n{\"op\":\"stats\"}\n");
            In_channel.with_open_bin requests (fun ic ->
                Out_channel.with_open_bin replies (fun oc ->
                    Eid_store.Service.serve t ic oc));
            let lines =
              In_channel.with_open_bin replies In_channel.input_all
              |> String.split_on_char '\n'
              |> List.filter (fun l -> l <> "")
              |> List.map (fun l ->
                     match Json.parse l with
                     | Ok j -> j
                     | Error e -> Alcotest.failf "unparsable reply: %s" e)
            in
            match lines with
            | [ too_large; stats ] ->
                Alcotest.(check (option string)) "typed error"
                  (Some "request_too_large")
                  (Json.string_member "error" too_large);
                Alcotest.(check bool) "stats answers" true
                  (Json.member "ok" stats = Some (Json.Bool true));
                Alcotest.(check bool) "nothing journalled" true
                  (Json.member "wal_offset" stats = Some (Json.Int 0));
                S.close t
            | _ -> Alcotest.failf "expected 2 replies, got %d" (List.length lines)));
    case "1 and 1.0 match on the extended key" (fun () ->
        in_dir (fun dir ->
            let config =
              {
                S.r_attrs = [ "id"; "a" ];
                r_key = [ "id" ];
                s_attrs = [ "sid"; "a" ];
                s_key = [ "sid" ];
                key = [ "a" ];
                rules = [];
                check_conflicts = false;
              }
            in
            let t = open_ok ~config dir in
            let matches line =
              match Json.parse (Eid_store.Service.handle_line t line) with
              | Ok reply -> (
                  match Json.member "matches" reply with
                  | Some (Json.List l) -> List.length l
                  | _ -> Alcotest.failf "no matches in %s" (Json.to_string reply))
              | Error e -> Alcotest.failf "unparsable reply: %s" e
            in
            Alcotest.(check int) "r1 alone" 0
              (matches {|{"op":"insert","side":"r","row":{"id":"r1","a":1}}|});
            Alcotest.(check int) "s1 meets r1" 1
              (matches {|{"op":"insert","side":"s","row":{"sid":"s1","a":1.0}}|});
            Alcotest.(check int) "r2 meets s1" 1
              (matches {|{"op":"insert","side":"r","row":{"id":"r2","a":1.0}}|});
            S.close t));
    case "serve reads every line of a stream longer than its buffer"
      (fun () ->
        (* 4,400 lines of 15 bytes, then one without a newline: the last
           read is short, and the bytes an earlier read left after it
           hold newlines that are not this line's. *)
        in_dir (fun dir ->
            let t = open_ok ~config:cfg dir in
            let requests = Filename.concat dir "requests"
            and replies = Filename.concat dir "replies" in
            let stats = {|{"op":"stats"}|} in
            Out_channel.with_open_bin requests (fun oc ->
                for _ = 1 to 4400 do
                  output_string oc (stats ^ "\n")
                done;
                output_string oc stats);
            In_channel.with_open_bin requests (fun ic ->
                Out_channel.with_open_bin replies (fun oc ->
                    Eid_store.Service.serve t ic oc));
            let lines =
              In_channel.with_open_bin replies In_channel.input_lines
            in
            Alcotest.(check int) "one reply per request" 4401
              (List.length lines);
            Alcotest.(check bool) "every reply is ok" true
              (List.for_all
                 (fun l ->
                   match Json.parse l with
                   | Ok j -> Json.member "ok" j = Some (Json.Bool true)
                   | Error _ -> false)
                 lines);
            S.close t));
  ]

(* ---- snapshot formats ----

   [store_formats/] holds a store written by the requests in
   [requests.ndjson], once per snapshot format: [v1] by a binary whose
   snapshots start with "EIDSNAP1" (the state as rows to rebuild), [v2]
   by this one ("EIDSNAP2", the built maps). The WAL bytes are the same.
   [answers.ndjson] is what the EIDSNAP1 binary answered on its own
   store to identify, explain, conflicts and stats.

   An old format is never unmarshalled: the store falls back to a full
   replay. The current format must restore from its snapshot, so a
   change to the persisted state's type that does not bump the magic
   fails here; a bump that leaves [v2] behind moves it among the old
   formats and calls for a new current fixture. *)

let format_store version dir =
  List.iter
    (fun file ->
      let src = Filename.concat (Filename.concat "store_formats" version) file in
      Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
          output_string oc (In_channel.with_open_bin src In_channel.input_all)))
    [ "config.json"; "snapshot"; "wal.log" ]

let format_answers dir =
  let t = open_ok dir in
  let answers =
    List.map
      (fun op -> Eid_store.Service.handle_line t (Printf.sprintf {|{"op":%S}|} op))
      [ "identify"; "explain"; "conflicts"; "stats" ]
  in
  S.close t;
  answers

let expected_answers () =
  In_channel.with_open_bin "store_formats/answers.ndjson" In_channel.input_lines

let magic dir =
  In_channel.with_open_bin (Filename.concat dir "snapshot") (fun ic ->
      really_input_string ic 8)

(* [stats] without its [recovered_records] member, and that member. *)
let split_stats line =
  match Json.parse line with
  | Ok (Json.Obj members) ->
      ( Json.to_string (Json.Obj (List.remove_assoc "recovered_records" members)),
        List.assoc_opt "recovered_records" members )
  | _ -> Alcotest.failf "stats answer does not parse: %s" line

let fallbacks telemetry =
  List.map
    (fun c -> Telemetry.counter telemetry ("store.recovery." ^ c))
    [ "snapshot_format"; "snapshot_corrupt"; "snapshot_stale"; "snapshot_ahead" ]

let format_tests =
  [
    case "an EIDSNAP1 store opens by a full replay and answers as before"
      (fun () ->
        in_dir (fun dir ->
            format_store "v1" dir;
            Alcotest.(check string) "the old format" "EIDSNAP1" (magic dir);
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check (list int)) "the old format counted, nothing else"
              [ 1; 0; 0; 0 ] (fallbacks telemetry);
            Alcotest.(check int) "every record replayed" 12
              (S.recovered_records t);
            S.close t;
            match (format_answers dir, expected_answers ()) with
            | [ identify; explain; conflicts; stats ],
              [ identify'; explain'; conflicts'; stats' ] ->
                Alcotest.(check string) "identify" identify' identify;
                Alcotest.(check string) "explain" explain' explain;
                Alcotest.(check string) "conflicts" conflicts' conflicts;
                (* The old binary replayed the 5 records after its
                   snapshot; the fallback replays all 12. Every other
                   byte of the answer is the same. *)
                let rest, recovered = split_stats stats
                and rest', recovered' = split_stats stats' in
                Alcotest.(check string) "stats" rest' rest;
                Alcotest.(check bool) "recovered_records" true
                  (recovered = Some (Json.Int 12)
                  && recovered' = Some (Json.Int 5))
            | _ -> Alcotest.fail "four answers each"));
    case "an EIDSNAP2 store restores from its snapshot" (fun () ->
        in_dir (fun dir ->
            format_store "v2" dir;
            Alcotest.(check string) "the current format" "EIDSNAP2" (magic dir);
            let telemetry = Telemetry.create () in
            let t = open_ok ~telemetry dir in
            Alcotest.(check (list int)) "no fallback" [ 0; 0; 0; 0 ]
              (fallbacks telemetry);
            Alcotest.(check int) "the tail replayed" 5 (S.recovered_records t);
            S.close t;
            Alcotest.(check (list string)) "answers" (expected_answers ())
              (format_answers dir)));
  ]

let () =
  Alcotest.run "store"
    [
      ("wal", wal_tests);
      ("fsutil", fsutil_tests);
      ("recovery", recovery_tests);
      ("overlay", overlay_tests);
      ("model", model_tests);
      ("explain", explain_tests);
      ("scan", scan_tests);
      ("json", json_tests);
      ("protocol", protocol_tests);
      ("formats", format_tests);
    ]
