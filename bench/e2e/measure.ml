(* Clocks, allocation counters, order statistics and child processes:
   everything the benchmark needs to time the shipped binary from the
   outside. *)

external now : unit -> (float[@unboxed]) = "e2e_now_byte" "e2e_now"
[@@noalloc]

external wait4 : int -> int * int = "e2e_wait4"

(* Words allocated by this domain so far ([Gc.quick_stat] is cheap: it
   does not walk the heap). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [(result, seconds, mega-words allocated)]. *)
let timed_alloc f =
  let w0 = allocated_words () in
  let v, dt = timed f in
  (v, dt, (allocated_words () -. w0) /. 1e6)

(* ---- correctness tally ----

   Every check of a program output counts as one attempt; a crash, a
   timeout or a malformed or wrong answer counts as one failure. *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 5 then prerr_endline ("e2e: check failed: " ^ what ())
  end

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* ---- child processes ----

   Every child is registered until reaped, so an exception or an early
   exit never leaves one running behind the benchmark. *)

let live : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    !live;
  List.iter (fun pid -> try ignore (wait4 pid) with Failure _ -> ()) !live;
  live := []

let () = at_exit kill_live

let spawn ~prog ~args ~stdin ~stdout ~stderr =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr
  in
  live := pid :: !live;
  pid

(* [(exit code, peak RSS in KiB)]. *)
let reap pid =
  let r = wait4 pid in
  live := List.filter (fun p -> p <> pid) !live;
  r

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* Raw-descriptor line reader with a deadline: a hung child surfaces as
   [None] instead of blocking the benchmark forever. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

(* [Some line] (without the newline), or [None] on EOF or timeout. *)
let read_line r ~timeout =
  let deadline = now () +. timeout in
  let newline from =
    let n = Buffer.length r.buf in
    let rec go i =
      if i >= n then None else if Buffer.nth r.buf i = '\n' then Some i
      else go (i + 1)
    in
    go from
  in
  let rec scan from =
    match newline from with
    | Some i ->
        let line = Buffer.sub r.buf 0 i in
        let rest = Buffer.sub r.buf (i + 1) (Buffer.length r.buf - i - 1) in
        Buffer.clear r.buf;
        Buffer.add_string r.buf rest;
        Some line
    | None ->
        let left = deadline -. now () in
        if left <= 0. then None
        else
          let scanned = Buffer.length r.buf in
          match Unix.select [ r.fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes r.buf r.chunk 0 n;
                  scan scanned
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan scanned)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan scanned
  in
  scan 0

(* Drain [fd] until EOF (the child closed it, normally by exiting) or
   the deadline; [true] on EOF. *)
let drain fd ~timeout =
  let deadline = now () +. timeout in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ---- files ---- *)

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Copy a flat directory of files (a closed store: WAL, snapshot,
   config). *)
let copy_dir src dst =
  Eid_store.Fsutil.ensure_dir dst;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

let file_size path = (Unix.stat path).st_size

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)
