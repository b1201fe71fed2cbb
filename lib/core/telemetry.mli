(** Counters and span timings for the identification pipeline.

    A sink is either {!off} — the default everywhere, where every
    operation is a single constructor match returning unit, so disabled
    telemetry costs nothing measurable on the hot paths — or a collector
    created with {!create} that accumulates named integer counters and
    wall-clock spans.

    {b Threading model.} A sink is single-domain: only the domain that
    created it may call {!add}/{!incr}/{!span} on it. Parallel sections
    ({!Parallel.map_chunks} chunk bodies) accumulate into a private
    {!local} per chunk and the calling domain folds them in with
    {!merge} after the join — the parallel paths stay contention-free
    and need no locks.

    {b Determinism.} Pipeline counters are defined so that they are
    identical for every [jobs] value (candidate pairs proposed, rule
    firings, derivation classes, verdict counts…). The only exceptions live in
    the [parallel.*] namespace (chunk utilisation, configured jobs),
    which deliberately reports the execution configuration; comparisons
    across job counts should filter it out ({!counters_stable}).

    {b Clock.} Spans only ever consume {e differences} of the clock,
    taken on one domain. The default clock is [Unix.gettimeofday] — the
    best wall clock available without external packages; pass a
    monotonic source via [?clock] if one is linked in. *)

type t

(** The no-op sink: collects nothing, costs a branch per call. *)
val off : t

(** [create ?clock ()] — a fresh collecting sink. *)
val create : ?clock:(unit -> float) -> unit -> t

val enabled : t -> bool

(** [add t name n] adds [n] to counter [name] (created at 0). No-op on
    {!off}. *)
val add : t -> string -> int -> unit

val incr : t -> string -> unit

(** [span t name f] runs [f ()] and charges its wall-clock duration to
    span [name] (durations and call counts accumulate across calls).
    The timing is recorded even when [f] raises; on {!off} this is
    exactly [f ()]. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** {2 Per-domain accumulators} *)

(** A chunk-private accumulator. Created on the calling domain, carried
    into a chunk body, returned with the chunk's result, and folded into
    the sink with {!merge} after the join. For an {!off} sink, locals
    are a no-op too. *)
type local

val local : t -> local
val local_add : local -> string -> int -> unit
val local_incr : local -> string -> unit

(** [merge t l] — fold a chunk's accumulator into the sink. Must run on
    the sink's owning domain (i.e. after the chunk is joined). *)
val merge : t -> local -> unit

(** {2 Reading} *)

(** [counter t name] — current value, 0 if never touched. *)
val counter : t -> string -> int

(** All counters, sorted by name. Empty for {!off}. *)
val counters : t -> (string * int) list

(** {!counters} without the [parallel.*] namespace — the jobs-invariant
    subset, for comparing runs across execution configurations. *)
val counters_stable : t -> (string * int) list

type span_stat = { span_name : string; total_ms : float; calls : int }

(** All spans, sorted by name. *)
val spans : t -> span_stat list

(** Derived metrics computed from the pipeline's counter conventions,
    each guarded against zero denominators (never NaN/infinite):
    - ["candidate_pair_reduction"]: [partition.pairs_naive] (the
      theoretical |R|×|S| pair space) over [partition.pairs_considered]
      (the candidate pairs blocking actually proposed; capped at
      [partition.pairs_naive] when blocking pruned everything); present
      when a partition ran.
    - ["ilfd_class_sharing"]: fraction of extended tuples that shared a
      derivation class with an earlier tuple,
      [(ilfd.tuples - ilfd.fixpoint.classes) / ilfd.tuples] (0 when no
      tuples were extended); present when a fixpoint extension ran. *)
val derived : t -> (string * float) list

(** Compact single-line JSON:
    [{"counters":{…},"spans":{"name":{"ms":…,"calls":…}},"derived":{…}}].
    Keys sorted; all numbers finite by construction. *)
val to_json : t -> string

(** Human-readable multi-section report. *)
val pp : Format.formatter -> t -> unit

val reset : t -> unit
