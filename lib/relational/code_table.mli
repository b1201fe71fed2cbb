(** Code tables: sets of row indices keyed on the rows' codes.

    A table holds indices of rows of a column store — [cols.(k).(i)] is
    row [i]'s code in key column [k] — and finds a row by the codes it
    carries. It is open addressing over an [int array] of [row + 1]
    slots (0 is free), a power of two long and at most half full, probed
    linearly from a hash of the codes. The codes are hashed and compared
    where they lie, so a probe allocates nothing. The columns are passed
    to every call rather than kept, so a store may replace them by
    longer copies as it grows; the rows already added must keep their
    codes.

    The codes are whatever the caller keys on: {!Intern} storage codes
    (equality is {!Value.equal}, as for set semantics and key checks) or
    match codes (equality is {!Value.non_null_eq} on non-NULL values, as
    for the K_Ext join).

    One table serves the relation builder's key and duplicate checks,
    the ILFD fixpoint's derivation classes and the K_Ext join. *)

type t

(** [create ?chains n] — an empty table sized for about [n] rows. With
    [chains] (default [false]) it also keeps, for each row it holds, the
    later rows found equal to it ({!next}). *)
val create : ?chains:bool -> int -> t

(** [find_or_add t cols i] — in one probe, the first row added to [t]
    whose codes across [cols] equal row [i]'s, or [i] itself, then
    added, when there is none. On a table with chains, a row found equal
    to a held one is appended to that row's chain instead. *)
val find_or_add : t -> int array array -> int -> int

(** [find t cols probe i] — the first row added to [t] whose codes
    across [cols] equal row [i]'s codes across [probe]: the columns of
    another store, in the same key order. [-1] when there is none. *)
val find : t -> int array array -> int array array -> int -> int

(** [next t j] — on a table with chains, the row after [j] in its chain
    ([-1] at the end). Starting from a row {!find} or {!find_or_add}
    returned, the chain lists every row added equal to it, in the order
    they were added: ascending when rows are added in ascending order.
    @raise Invalid_argument on a table without chains. *)
val next : t -> int -> int

(** Number of distinct rows held (rows a chain holds not counted). *)
val size : t -> int

(** [classes cols n] — rows [0 .. n-1] of [cols] grouped by their
    codes: [(class_of_row, first_rows)], where the classes are numbered
    in the order of their first rows, [first_rows.(c)] is class [c]'s
    first row and [class_of_row.(i)] is row [i]'s class. *)
val classes : int array array -> int -> int array * int array
