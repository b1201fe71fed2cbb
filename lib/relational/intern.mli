(** A process-wide value intern pool: every distinct value (under
    {!Value.equal}) gets one small integer {e storage code}, so columnar
    relation views, blocking buckets and hash joins can work on integer
    arrays instead of structural value comparisons.

    Alongside the storage code each value carries a {e match code} — the
    code of its canonical representative under the paper's non-NULL
    matching semantics ({!Value.non_null_eq}), which equates [Int n] and
    [Float f] when they denote the same number. Integral floats within
    the exactly-representable range are canonicalised to ints; values
    whose cross-type numeric identity cannot be decided by a single
    representative (magnitudes above 2⁵³, where int↔float conversion
    stops being injective) get the {!unsafe_match} sentinel and callers
    must fall back to {!Value.non_null_eq} (or to a structural engine)
    for them.

    The table: codes index a value array and a match-code array; the
    way back, from a value to its code, is open addressing over codes —
    a power-of-two [int array] of [code + 1] slots (0 is empty), at most
    half full, probed linearly from a hash of the value's payload and
    compared with {!Value.equal}. The hash allocates nothing and, like
    {!Value.equal}, equates [0.] with [-0.] and every NaN with every
    other, so a lookup that finds its value allocates nothing. Codes are
    handed out first seen first, an integral float's int partner before
    the float.

    Codes are process-global and never recycled. Writes ({!code},
    {!share}) and {!find} are serialised by a mutex; reads ({!value},
    {!match_code}, {!codes_match}, {!compare_codes}, {!size}) are
    lock-free against a published snapshot, so worker domains may decode
    and match codes freely as long as only already-interned codes reach
    them — the intended discipline is: intern on the loading/planning
    domain, compute on any domain. *)

(** The storage code of [Value.Null]; always [0]. A code of [0] in a
    column therefore means "missing", and no non-NULL value ever maps
    to it. *)
val null_code : int

(** The match-code sentinel for values whose numeric identity is
    ambiguous across int/float above 2⁵³; always negative. *)
val unsafe_match : int

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

(** [match_code c] — the canonical match-class code of storage code [c],
    or {!unsafe_match} when cross-type matching for it is ambiguous.
    Two safe codes match under {!Value.non_null_eq} iff their match
    codes are equal (and neither is {!null_code}). *)
val match_code : int -> int

(** [is_unsafe v] — [v]'s match class is ambiguous: a number of
    magnitude above 2⁵³ ([Int], or an integral [Float]). A pure
    function of the value, equal to [match_code (code v) = unsafe_match]
    but interning nothing, so a caller can test rule values without
    taking the lock or growing the pool. *)
val is_unsafe : Value.t -> bool

(** [find_match v] — the match code [v] has or would have, without
    interning [v]: {!unsafe_match} when {!is_unsafe} holds, {!null_code}
    for [Null], and [None] when no interned value shares [v]'s match
    class, so that nothing coded can match [v]. For a read-only probe on
    match codes, as {!find} is for storage codes. *)
val find_match : Value.t -> int option

(** [codes_match a b] — {!Value.non_null_eq} on the decoded values:
    integer compares on the match codes when both are safe, decoded
    structural matching otherwise. NULL ([0]) never matches. *)
val codes_match : int -> int -> bool

(** [compare_codes a b] — {!Value.compare} on the decoded values, with
    an equality fast path ([a = b] implies [0] without decoding). *)
val compare_codes : int -> int -> int

(** Number of interned codes (including NULL). Monotonic. *)
val size : unit -> int
