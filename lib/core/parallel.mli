(** Deterministic domain-based parallel execution over index ranges.

    The identification hot loops (pair enumeration, blocking probes,
    per-tuple ILFD extension) are independent per row: tuples are
    immutable {!Relational.Value.t} arrays, so sharing them across
    domains is read-only and each chunk can accumulate into private
    state. This module owns the splitting and joining; callers supply a
    chunk body and get results back {e in chunk order}, which makes the
    parallel engines bit-identical to their serial reference
    implementations.

    Contract:
    + [0, n) is split into at most [jobs] contiguous chunks whose sizes
      differ by at most one, in ascending order;
    + chunk bodies run concurrently on pool domains (the first on the
      calling domain), with no shared mutable state unless the caller
      introduces it;
    + results are returned in chunk order, so concatenating them yields
      the serial scan order;
    + if chunk bodies raise, the whole batch is completed first and then
      the exception of the {e lowest} failing chunk is re-raised — the
      one the serial scan would have hit first, provided each body scans
      its range in ascending order and stops at its first error;
    + when [n] is below {!default_threshold} the call runs as a {e
      single serial chunk} on the calling domain, whatever [jobs] — at
      that size the cross-domain handoff and GC interaction cost more
      than the scan, which is precisely the small-input regression the
      threshold removes.

    {b Execution.} Worker domains are not spawned per call. The first
    call that needs them builds a process-wide pool of parked domains
    (work handed over via mutex/condition); subsequent calls reuse it,
    growing it if they ask for more parallelism than any call before.
    The pool is joined automatically at process exit. *)

(** [default_jobs ()] is [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [resolve jobs] — the effective job count: [None] selects
    {!default_jobs}; positive values pass through. The single resolution
    rule every front end (CLI included) should reuse.
    @raise Invalid_argument on [Some j] with [j <= 0] — matching the
    CLI, which rejects non-positive counts at parse time (its [0] means
    "default" and must be translated to [None], not passed through). *)
val resolve : int option -> int

(** Rows below which {!map_chunks} ignores [jobs] and runs one serial
    chunk (4096). *)
val default_threshold : int

(** Domains ever spawned by the process-wide pool ([0] before the first
    parallel call). A sequence of equal-[jobs] parallel calls must not
    move this number — that is the whole point of the pool. *)
val pool_spawned : unit -> int

(** [chunk_count ?jobs n] — how many chunks {!map_chunks} with the same
    arguments would use: [1] below {!default_threshold},
    [max 1 (min (resolve jobs) n)] otherwise. Exposed for telemetry
    (chunk utilisation). *)
val chunk_count : ?jobs:int -> int -> int

(** [map_chunks ?jobs n f] — run [f ~start ~stop] over a chunking of
    [0, n) and return the per-chunk results in chunk order. [jobs]
    defaults to {!default_jobs}; [jobs = 1], [n <= 1], or [n] below
    {!default_threshold} runs the single chunk inline on the calling
    domain, touching no pool.
    @raise Invalid_argument on negative [n] or non-positive [jobs]. *)
val map_chunks : ?jobs:int -> int -> (start:int -> stop:int -> 'a) -> 'a list
