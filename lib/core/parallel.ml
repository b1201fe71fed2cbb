(* Domain-based chunk executor. Stdlib-only: OCaml 5 [Domain]s over
   contiguous index ranges, results concatenated in chunk order so every
   caller is deterministic regardless of scheduling.

   Domains are not spawned per call: the first parallel call builds a
   process-wide pool of worker domains that idle on a condition variable
   and are handed batches of chunk thunks under a mutex. Spawning a
   domain costs milliseconds (thread + minor heap arena); handing work
   to a parked one costs microseconds, which is what makes parallelism
   break even on mid-sized inputs. Below [default_threshold] rows the
   call does not even touch the pool — it runs as a single serial chunk,
   because at that size the handoff and the cross-domain GC interaction
   cost more than the scan itself. *)

let default_jobs () = Domain.recommended_domain_count ()

let resolve = function
  | None -> default_jobs ()
  | Some j when j <= 0 ->
      (* Front ends (CLI --jobs) reject non-positive counts at parse
         time; the library must agree rather than silently substituting
         the default, or the two disagree about what [0] means. *)
      invalid_arg "Parallel.resolve: jobs must be positive"
  | Some j -> j

(* [chunk_bounds ~chunks n] — at most [chunks] contiguous [(start, stop)]
   ranges covering [0, n) in order, sizes differing by at most one. *)
let chunk_bounds ~chunks n =
  let chunks = max 1 (min chunks n) in
  let base = n / chunks and extra = n mod chunks in
  List.init chunks (fun k ->
      let start = (k * base) + min k extra in
      let len = base + if k < extra then 1 else 0 in
      (start, start + len))

(* Work-size cutoff below which parallel calls degrade to one serial
   chunk. 4096 rows is far above the break-even of a pool handoff alone
   (~µs) but each row of the hot loops (pair merge, blocking probe)
   costs well under a microsecond, so smaller inputs lose more to
   cross-domain GC than they gain from extra cores — the measured 1k×1k
   regression (BENCH_parallel.json before the pool: 14× slower at
   jobs=2) sat exactly in that regime. *)
let default_threshold = 4096

(* ---- the domain pool ---- *)

module Pool = struct
  (* Tasks are closures that stash their own result and do their own
     completion accounting, so workers need no knowledge of batches and
     any domain (worker or a waiting caller) can run any queued task. *)
  type t = {
    mutex : Mutex.t;
    work_ready : Condition.t;  (* queue went non-empty, or shutdown *)
    batch_done : Condition.t;  (* some batch's remaining-count hit 0 *)
    mutable queue : (unit -> unit) list;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
    mutable spawned : int;  (* domains ever spawned; diagnostics/tests *)
  }

  let create () =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      queue = [];
      stopping = false;
      workers = [];
      spawned = 0;
    }

  let spawned t = t.spawned

  (* Worker loop: park on [work_ready] until a task or shutdown
     arrives. Tasks never raise ([run_batch] wraps bodies in a result),
     so the loop needs no exception plumbing. *)
  let rec worker t =
    Mutex.lock t.mutex;
    let rec next () =
      if t.stopping then None
      else
        match t.queue with
        | task :: rest ->
            t.queue <- rest;
            Some task
        | [] ->
            Condition.wait t.work_ready t.mutex;
            next ()
    in
    let task = next () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        task ();
        worker t

  (* Grow the pool to [want] workers. Never shrinks: a pool sized for
     the largest job count seen so far parks the excess for free.
     Spawning under the mutex is safe — a fresh worker's first act is to
     take the same mutex, so it simply blocks until we release. *)
  let ensure t want =
    Mutex.lock t.mutex;
    let missing = want - List.length t.workers in
    if missing > 0 then begin
      let fresh =
        List.init missing (fun _ -> Domain.spawn (fun () -> worker t))
      in
      t.workers <- fresh @ t.workers;
      t.spawned <- t.spawned + missing
    end;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.stopping <- false

  (* [run_batch t thunks] — run every thunk, first one on the calling
     domain, the rest wherever a free domain picks them up; returns
     per-thunk results in order. The caller participates: after its own
     first chunk it drains whatever is still queued (so progress never
     depends on workers existing at all) and only then parks on
     [batch_done]. *)
  let run_batch t thunks =
    let thunks = Array.of_list thunks in
    let n = Array.length thunks in
    let results = Array.make n None in
    let remaining = ref n in
    let task i () =
      let r = match thunks.(i) () with v -> Ok v | exception e -> Error e in
      Mutex.lock t.mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    in
    ensure t (n - 1);
    Mutex.lock t.mutex;
    for i = n - 1 downto 1 do
      t.queue <- task i :: t.queue
    done;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    task 0 ();
    Mutex.lock t.mutex;
    let rec finish () =
      if !remaining > 0 then
        match t.queue with
        | task :: rest ->
            t.queue <- rest;
            Mutex.unlock t.mutex;
            task ();
            Mutex.lock t.mutex;
            finish ()
        | [] ->
            Condition.wait t.batch_done t.mutex;
            finish ()
    in
    finish ();
    Mutex.unlock t.mutex;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* remaining = 0 ⇒ every slot filled *))
         results)
end

(* The process-wide pool, built on first parallel use and joined at
   exit so the runtime never waits on parked domains. *)
let global = ref None

let pool () =
  match !global with
  | Some p -> p
  | None ->
      let p = Pool.create () in
      global := Some p;
      at_exit (fun () -> Pool.shutdown p);
      p

let pool_spawned () = match !global with None -> 0 | Some p -> Pool.spawned p

(* How many chunks a [map_chunks ?jobs n] call actually uses — the
   telemetry "chunk utilisation" number. Mirrors [map_chunks]'s serial
   fallback and [chunk_bounds]'s clamping without materialising the
   bounds. *)
let chunk_count ?jobs n =
  if n < default_threshold then 1 else max 1 (min (resolve jobs) n)

(* Re-raise the first chunk's exception even when several chunks failed:
   chunks scan their ranges in ascending index order, so the error of the
   lowest failing chunk is the error the serial scan would have hit. *)
let rec force = function
  | [] -> []
  | Ok v :: rest -> v :: force rest
  | Error e :: _ -> raise e

let map_chunks ?jobs n f =
  if n < 0 then invalid_arg "Parallel.map_chunks: negative range";
  let jobs = resolve jobs in
  let jobs = if n < default_threshold then 1 else jobs in
  match chunk_bounds ~chunks:jobs n with
  | [ (start, stop) ] -> [ f ~start ~stop ]
  | first :: rest ->
      let thunk (start, stop) () = f ~start ~stop in
      force (Pool.run_batch (pool ()) (thunk first :: List.map thunk rest))
  (* [chunk_bounds] never returns fewer than one chunk (n = 0 yields the
     single empty range [(0, 0)]), but keep the function total: an empty
     chunking means no work, not a crash. *)
  | [] -> []
