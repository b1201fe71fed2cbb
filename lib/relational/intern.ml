module V = Value

let null_code = 0
let unsafe_match = -1

(* 2^53: the largest magnitude at which int -> float conversion is exact
   and injective, i.e. the range where a single canonical representative
   decides cross-type numeric equality. Beyond it, distinct ints collapse
   onto one float (eq3 is not even transitive there), so such values keep
   the unsafe sentinel and matching falls back to [Value.non_null_eq]. *)
let max_exact = 9007199254740992
let max_exactf = 9007199254740992.

(* The canonical representative of a value's non_null_eq match class:
   integral floats in the exact range become ints ([eq3 (Int 1)
   (Float 1.)] is [True]); everything else represents itself. NaN is not
   integral, so it canonicalises to itself — consistent with [eq3],
   under which NaN matches NaN ([Float.compare nan nan = 0]). *)
let canon v =
  match v with
  | V.Float f when Float.is_integer f && Float.abs f <= max_exactf ->
      V.Int (int_of_float f)
  | _ -> v

let is_unsafe = function
  | V.Int x -> x > max_exact || x < -max_exact
  | V.Float f -> Float.is_integer f && Float.abs f > max_exactf
  | V.Null | V.Bool _ | V.String _ -> false

(* The published read-only view. Writers mutate cells above [len] in
   place while holding the lock, then publish a new record with the
   bumped [len]; readers never index at or above the [len] they read, so
   in-place growth below capacity is invisible to them. *)
type snapshot = {
  values : V.t array;  (** code -> stored value; slot 0 is NULL *)
  matches : int array;  (** code -> match-class code or [unsafe_match] *)
  len : int;
}

let lock = Mutex.create ()

(* The lookup side, touched only under [lock]: open addressing over
   codes. A slot holds [code + 1], or 0 when empty; the array's length
   is a power of two and at most half its slots are full, so a linear
   probe from a value's hash soon meets the value or an empty slot. *)
let slots = ref (Array.make 1024 0)

(* Agrees with [Value.equal] and allocates nothing: [Hashtbl.hash] of
   the payload, which equates 0. with -0. and every NaN with every
   other, as [Float.equal] does. *)
let hash = function
  | V.Null -> 0
  | V.Int i -> Hashtbl.hash i
  | V.Float f -> Hashtbl.hash f
  | V.Bool b -> Hashtbl.hash b
  | V.String s -> Hashtbl.hash s

(* The slot holding [v]'s code, or the empty slot where it belongs.
   [probe] is closed, so a lookup allocates nothing. *)
let rec probe slots values v mask i =
  let c = slots.(i) in
  if c = 0 || V.equal values.(c - 1) v then i
  else probe slots values v mask ((i + 1) land mask)

let slot_of slots values v =
  let mask = Array.length slots - 1 in
  probe slots values v mask (hash v land mask)

let snap =
  let values = Array.make 64 V.Null and matches = Array.make 64 0 in
  !slots.(slot_of !slots values V.Null) <- null_code + 1;
  Atomic.make { values; matches; len = 1 }

let ensure_capacity s =
  if s.len < Array.length s.values then s
  else begin
    let cap = 2 * Array.length s.values in
    let values = Array.make cap V.Null and matches = Array.make cap 0 in
    Array.blit s.values 0 values 0 s.len;
    Array.blit s.matches 0 matches 0 s.len;
    { values; matches; len = s.len }
  end

(* Doubles the slot array once [len] codes would fill half of it. *)
let ensure_slots values len =
  if 2 * len > Array.length !slots then begin
    let grown = Array.make (2 * Array.length !slots) 0 in
    for c = 0 to len - 1 do
      grown.(slot_of grown values values.(c)) <- c + 1
    done;
    slots := grown
  end

(* Both the value and its match code are in place before [Atomic.set]
   publishes the new length, so a reader that can see a code always
   sees its cells. Canonicalisation recurses at most once ([canon] is
   idempotent: it maps into ints, which map to themselves), and gives a
   float's int partner its code first. *)
let rec intern_locked v =
  let found = !slots.(slot_of !slots (Atomic.get snap).values v) in
  if found > 0 then found - 1
  else
    let m =
      if is_unsafe v then unsafe_match
      else
        let cv = canon v in
        if V.equal cv v then min_int (* self; patched below *)
        else intern_locked cv
    in
    let s = ensure_capacity (Atomic.get snap) in
    let c = s.len in
    s.values.(c) <- v;
    s.matches.(c) <- (if m = min_int then c else m);
    ensure_slots s.values (c + 1);
    !slots.(slot_of !slots s.values v) <- c + 1;
    Atomic.set snap { s with len = c + 1 };
    c

let code v =
  Mutex.lock lock;
  match intern_locked v with
  | c ->
      Mutex.unlock lock;
      c
  | exception e ->
      Mutex.unlock lock;
      raise e

let find v =
  Mutex.lock lock;
  let c = !slots.(slot_of !slots (Atomic.get snap).values v) - 1 in
  Mutex.unlock lock;
  if c < 0 then None else Some c

let read what c =
  let s = Atomic.get snap in
  if c < 0 || c >= s.len then
    invalid_arg (Printf.sprintf "Intern.%s: unknown code %d" what c);
  s

let value c = (read "value" c).values.(c)
let match_code c = (read "match_code" c).matches.(c)
let share v = value (code v)

let codes_match a b =
  a <> null_code && b <> null_code
  &&
  let ma = match_code a and mb = match_code b in
  if ma >= 0 && mb >= 0 then ma = mb else V.non_null_eq (value a) (value b)

let compare_codes a b = if a = b then 0 else V.compare (value a) (value b)

let size () = (Atomic.get snap).len
