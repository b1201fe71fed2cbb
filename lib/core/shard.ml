(* Key-space sharding and budgeted spill buffers. See shard.mli for the
   ordering and invariance contracts. *)

module V = Relational.Value

type key = V.t list

let router ~shards key =
  if shards <= 0 then invalid_arg "Shard.router: shards must be positive";
  Hashtbl.hash key mod shards

let router_codes ~shards codes =
  if shards <= 0 then invalid_arg "Shard.router_codes: shards must be positive";
  Hashtbl.hash (codes : int array) mod shards

(* A cheap, stable per-value byte estimate: boxed scalars cost a couple
   of words, strings their length plus a header. Exact heap accounting
   (Obj.reachable_words) costs a traversal per tuple — far too much for
   a hot partitioning loop — and the budget only needs to be honest to
   within a small constant factor to bound memory. [Spill] additionally
   calibrates the estimate against the real marshalled sizes it
   observes, so a systematic error in these constants cannot starve or
   blow the budget by more than the clamp factor. *)
let estimate_value = function
  | V.Null | V.Int _ | V.Bool _ -> 8
  | V.Float _ -> 16
  | V.String s -> 24 + String.length s

let estimate_values vs = List.fold_left (fun a v -> a + estimate_value v) 16 vs

let estimate_codes codes = 16 + (8 * Array.length codes)

module Spill = struct
  (* Every temp file ever opened and not yet removed, swept at exit.
     [Fun.protect]/[close] cover the orderly paths; the registry covers
     abnormal exits (uncaught exception past the protect scope, [exit]
     from a deep callee) that previously leaked the file. Worker domains
     flush sink parts, so registration must be mutex-guarded. *)
  let live : (string, unit) Hashtbl.t = Hashtbl.create 16
  let live_mutex = Mutex.create ()

  let register path =
    Mutex.lock live_mutex;
    Hashtbl.replace live path ();
    Mutex.unlock live_mutex

  let unregister path =
    Mutex.lock live_mutex;
    Hashtbl.remove live path;
    Mutex.unlock live_mutex

  let live_files () =
    Mutex.lock live_mutex;
    let n = Hashtbl.length live in
    Mutex.unlock live_mutex;
    n

  (* The ordering with [Parallel]'s pool shutdown is pinned, not left to
     [at_exit]'s LIFO registration order: the sweep joins the pool's
     worker domains first, so a worker still draining a spill file at
     exit can never have it unlinked underneath it. (Registration order
     happened to be safe — the pool registers its handler lazily, after
     this module's initialiser, so it ran first — but nothing enforced
     that; now the sweep itself does.) *)
  let sweep () =
    Parallel.shutdown_pool ();
    Mutex.lock live_mutex;
    let paths = Hashtbl.fold (fun p () acc -> p :: acc) live [] in
    Hashtbl.reset live;
    Mutex.unlock live_mutex;
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

  let () = at_exit sweep

  (* Resolved per file, not per process: [Filename.get_temp_dir_name]
     reads TMPDIR once at startup, which is too early for callers (and
     tests) that point spills at a scratch volume after launch. *)
  let temp_dir () =
    match Sys.getenv_opt "TMPDIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.get_temp_dir_name ()

  type 'a t = {
    budget : int option;
    mutable buf : 'a list;  (* newest first; reversed on flush/iter *)
    mutable buf_bytes : int;
    mutable file : (string * out_channel) option;
    mutable spills : int;
    mutable spilled_bytes : int;
    mutable actual_spilled_bytes : int;
    mutable peak_bytes : int;
    mutable count : int;
  }

  let create ?budget () =
    (match budget with
    | Some b when b <= 0 ->
        invalid_arg "Shard.Spill.create: budget must be positive"
    | _ -> ());
    {
      budget;
      buf = [];
      buf_bytes = 0;
      file = None;
      spills = 0;
      spilled_bytes = 0;
      actual_spilled_bytes = 0;
      peak_bytes = 0;
      count = 0;
    }

  let length t = t.count
  let spills t = t.spills
  let spilled_bytes t = t.spilled_bytes
  let actual_spilled_bytes t = t.actual_spilled_bytes
  let peak_bytes t = t.peak_bytes
  let file_path t = Option.map fst t.file

  let estimate_error_pct t =
    if t.spilled_bytes = 0 then None
    else
      Some
        (abs (t.actual_spilled_bytes - t.spilled_bytes)
        * 100 / t.spilled_bytes)

  (* The calibrated view of the buffered bytes: once at least one batch
     has been marshalled, scale the caller's running estimate by the
     observed actual/estimated ratio, clamped to [0.5, 2.0] so one
     pathological batch cannot swing the accounting by more than 2x in
     either direction. Before any observation the raw estimate stands. *)
  let calibrated t =
    if t.spilled_bytes = 0 then t.buf_bytes
    else
      let ratio =
        Float.min 2.0
          (Float.max 0.5
             (float_of_int t.actual_spilled_bytes
             /. float_of_int t.spilled_bytes))
      in
      int_of_float (float_of_int t.buf_bytes *. ratio)

  let flush_buf t =
    if t.buf <> [] then begin
      let oc =
        match t.file with
        | Some (_, oc) -> oc
        | None ->
            let path, oc =
              Filename.open_temp_file ~mode:[ Open_binary ]
                ~temp_dir:(temp_dir ()) "entity_ident_shard" ".spill"
            in
            register path;
            t.file <- Some (path, oc);
            oc
      in
      (* Marshal to bytes first so the real on-disk size feeds the
         calibration; the extra copy is noise next to the write. *)
      let batch = Marshal.to_bytes (Array.of_list (List.rev t.buf)) [] in
      output_bytes oc batch;
      t.spills <- t.spills + 1;
      t.spilled_bytes <- t.spilled_bytes + t.buf_bytes;
      t.actual_spilled_bytes <- t.actual_spilled_bytes + Bytes.length batch;
      t.buf <- [];
      t.buf_bytes <- 0
    end

  let add t ~bytes x =
    t.buf <- x :: t.buf;
    t.buf_bytes <- t.buf_bytes + bytes;
    t.count <- t.count + 1;
    let held = calibrated t in
    if held > t.peak_bytes then t.peak_bytes <- held;
    match t.budget with
    | Some budget when held >= budget -> flush_buf t
    | _ -> ()

  let iter t f =
    (match t.file with
    | None -> ()
    | Some (path, oc) ->
        Stdlib.flush oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec batches () =
              match Marshal.from_channel ic with
              | batch ->
                  Array.iter f batch;
                  batches ()
              | exception End_of_file -> ()
            in
            batches ()));
    List.iter f (List.rev t.buf)

  (* A sequential cursor over the same stream [iter] replays: spilled
     batches first (one resident at a time), then the in-memory tail.
     The channel closes when the disk side is exhausted; a cursor
     abandoned mid-file holds its channel until process exit, so the
     k-way merges below always drain. *)
  let reader t =
    let tail = ref (List.rev t.buf) in
    let pending = ref [||] and pos = ref 0 in
    let ic =
      match t.file with
      | None -> ref None
      | Some (path, oc) ->
          Stdlib.flush oc;
          ref (Some (open_in_bin path))
    in
    let rec next () =
      if !pos < Array.length !pending then begin
        let x = !pending.(!pos) in
        incr pos;
        Some x
      end
      else
        match !ic with
        | Some chan -> (
            match Marshal.from_channel chan with
            | batch ->
                pending := batch;
                pos := 0;
                next ()
            | exception End_of_file ->
                close_in_noerr chan;
                ic := None;
                next ())
        | None -> (
            match !tail with
            | x :: rest ->
                tail := rest;
                Some x
            | [] -> None)
    in
    next

  let close t =
    match t.file with
    | None -> ()
    | Some (path, oc) ->
        close_out_noerr oc;
        (try Sys.remove path with Sys_error _ -> ());
        unregister path;
        t.file <- None
end

module Sink = struct
  type 'a t = { parts : 'a Spill.t array }

  let create ?budget ~parts () =
    if parts <= 0 then invalid_arg "Shard.Sink.create: parts must be positive";
    let per_part = Option.map (fun b -> max 1024 (b / parts)) budget in
    { parts = Array.init parts (fun _ -> Spill.create ?budget:per_part ()) }

  let parts t = Array.length t.parts
  let add t ~part ~bytes x = Spill.add t.parts.(part) ~bytes x

  let sum f t = Array.fold_left (fun acc p -> acc + f p) 0 t.parts
  let length t = sum Spill.length t
  let spills t = sum Spill.spills t
  let spilled_bytes t = sum Spill.spilled_bytes t

  (* Summing per-part peaks bounds the true simultaneous peak from
     above: each part's buffer never exceeded its own peak, so the total
     resident verdict memory never exceeded the sum. Per-part peaks are
     maintained by the part's single writer — no cross-domain
     counters. *)
  let peak_bytes t = sum Spill.peak_bytes t

  let iter_ordered t f = Array.iter (fun p -> Spill.iter p f) t.parts

  let fold_ordered t init f =
    let acc = ref init in
    iter_ordered t (fun x -> acc := f !acc x);
    !acc

  let iter_merged ~index t f =
    let n = Array.length t.parts in
    let cursors = Array.map Spill.reader t.parts in
    let heads = Array.map (fun next -> next ()) cursors in
    let rec loop () =
      let best = ref (-1) and best_ix = ref max_int in
      for p = 0 to n - 1 do
        match heads.(p) with
        | Some x ->
            let ix = index x in
            if ix < !best_ix then begin
              best_ix := ix;
              best := p
            end
        | None -> ()
      done;
      if !best >= 0 then begin
        (match heads.(!best) with Some x -> f x | None -> assert false);
        heads.(!best) <- cursors.(!best) ();
        loop ()
      end
    in
    loop ()

  let close t = Array.iter Spill.close t.parts
end
