(** A process-wide value intern pool: every distinct value (under
    {!Value.equal}) gets one small integer {e storage code}, so columnar
    relation views, blocking buckets and hash joins can work on integer
    arrays instead of structural value comparisons.

    Alongside the storage code each value carries a {e match code} — the
    code of its canonical representative ({!canon}) under the paper's
    non-NULL matching semantics ({!Value.non_null_eq}), which equates
    [Int n] and [Float f] exactly when they denote the same number.
    Every value has one: two non-NULL codes match iff their match codes
    are equal.

    The table: codes index a value array and a match-code array; the
    way back, from a value to its code, is open addressing over codes —
    a power-of-two [int array], at most half full, probed linearly from
    a hash of the value's payload. A slot is one int: [code + 1] in its
    low 31 bits and the value's 30-bit [Hashtbl.hash] above them (0 is
    empty). A probe compares hashes first and reads a stored value,
    compared with {!Value.equal}, only when they match; a resize moves
    each slot by the hash it carries and hashes no value again. The hash
    allocates nothing and, like {!Value.equal}, equates [0.] with [-0.]
    and every NaN with every other, so a lookup that finds its value
    allocates nothing. Codes are handed out first seen first, an
    integral float's int partner before the float; there are at most
    [2³¹ − 1] of them.

    Codes are process-global and never recycled. The table is plain
    mutable state for the one domain the pipeline runs on: nothing
    locks it, so it must not be used from two domains at once. *)

(** The storage code of [Value.Null]; always [0]. A code of [0] in a
    column therefore means "missing", and no non-NULL value ever maps
    to it. *)
val null_code : int

(** [code v] — intern [v] (idempotent) and return its storage code.
    Equal values ({!Value.equal}) always share one code. *)
val code : Value.t -> int

(** [find v] — the storage code of [v] if it has been interned, without
    interning it. Useful for read-only probes: a value that was never
    interned cannot occur in any coded structure. *)
val find : Value.t -> int option

(** [value c] — decode a storage code. [value (code v)] is structurally
    equal to [v] ([Value.equal]).
    @raise Invalid_argument on a code never returned by {!code}. *)
val value : int -> Value.t

(** [share v] — the pooled physical representative of [v]: interns [v]
    and returns the stored instance, so repeated loads of equal strings
    share one heap block. *)
val share : Value.t -> Value.t

(** [match_code c] — the canonical match-class code of storage code
    [c]: the storage code of {!canon} of its value. Two codes match
    under {!Value.non_null_eq} iff their match codes are equal and
    neither is {!null_code} (whose match code is itself). *)
val match_code : int -> int

(** [canon v] — the canonical representative of [v]'s match class: an
    integral float [f] with [-2⁶² <= f < 2⁶²], the range of an OCaml
    int, is the int it equals; every other value represents itself.
    For non-NULL values, [Value.equal (canon a) (canon b)] holds exactly when
    [Value.non_null_eq a b] does: a key of representatives is a match
    class key that, unlike a match code, means the same in every
    process. A pure function; interns nothing. *)
val canon : Value.t -> Value.t

(** [compare_codes a b] — {!Value.compare} on the decoded values, with
    an equality fast path ([a = b] implies [0] without decoding). *)
val compare_codes : int -> int -> int

(** Number of interned codes (including NULL). Monotonic. *)
val size : unit -> int

(** [memo f] — [fun c -> f (value c)], with each result kept: one
    slot per code interned when [memo] is called, filled on first use,
    so a renderer makes each distinct code's text once. A code interned
    later is rendered on every call. *)
val memo : (Value.t -> string) -> int -> string
