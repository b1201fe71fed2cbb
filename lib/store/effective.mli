(** The store's effective pair set, kept current operation by operation.

    The effective matching table is [(derived \ suppressed) ∪ manual]
    over pairs of key-value arrays [(r_key, s_key)]. This value holds the
    three sets and, maintained alongside, the effective pairs in order,
    their count and each side's pairs by key, so membership, the count,
    the first pair touching a key and every update cost O(log n).

    {b Order.} The effective pairs are ordered as
    [(derived \ suppressed) @ manual] with repeats dropped: derived
    pairs in derivation order, then manual pairs oldest assertion
    first. A pair both derived and manual sits at its derived place
    while unsuppressed. {!pairs} lists this order, and {!first_touching}
    answers in it.

    Key arrays compare elementwise with {!Relational.Value.compare}, then
    by length ({!compare_keys}): equal exactly when they have the same
    length and {!Relational.Value.equal} values.

    A value is pure data — persistent maps over value arrays and ticks,
    no closures and no interned codes — so a store's snapshot
    [Marshal]s it as it is and a reopen takes it back without
    rebuilding it. *)

type key = Relational.Value.t array
type pair = key * key

type t

val compare_keys : key -> key -> int

(** R key, then S key, each by {!compare_keys}. *)
val compare_pairs : pair -> pair -> int

(** No pair derived, asserted or suppressed. *)
val empty : t

(** [derive t p] — [p] is derived, after every pair derived so far; no
    change if it already was. *)
val derive : t -> pair -> t

(** [assert_manual t p] — add [p] to the manual overlay as its newest
    pair; no change if it is there already. *)
val assert_manual : t -> pair -> t

(** [retract_manual t p] — drop [p] from the manual overlay. *)
val retract_manual : t -> pair -> t

(** [suppress t p] — add [p] to the suppressed overlay as its newest
    pair; no change if it is there already. *)
val suppress : t -> pair -> t

(** [unsuppress t p] — drop [p] from the suppressed overlay. *)
val unsuppress : t -> pair -> t

val mem : t -> pair -> bool

(** [is_derived t p] — [p] is effective at its derived place: derived
    and not suppressed. *)
val is_derived : t -> pair -> bool

val is_manual : t -> pair -> bool
val is_suppressed : t -> pair -> bool

(** Number of effective pairs. O(1). *)
val count : t -> int

(** [first_touching t ~r_key ~s_key] — the first effective pair, in
    effective order, whose R key is [r_key] or whose S key is [s_key]. *)
val first_touching : t -> r_key:key -> s_key:key -> pair option

(** The effective pairs, in effective order. O(n). *)
val pairs : t -> pair list

(** [touching_r t key] — the effective pairs whose R key is [key], in
    effective order. O(log n) plus their number. *)
val touching_r : t -> key -> pair list

val touching_s : t -> key -> pair list
