module V = Value

let null_code = 0

(* The canonical representative of a value's non_null_eq match class:
   an integral float an OCaml int can hold (in [-2^62, 2^62)) becomes
   that int, as [Value.eq3] compares an int with a float exactly;
   everything else represents itself. NaN is not integral, so it
   canonicalises to itself — consistent with [eq3], under which NaN
   matches NaN ([Float.compare nan nan = 0]). *)
let canon v =
  match v with
  | V.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      V.Int (Float.to_int f)
  | _ -> v

(* The published read-only view. Writers mutate cells above [len] in
   place while holding the lock, then publish a new record with the
   bumped [len]; readers never index at or above the [len] they read, so
   in-place growth below capacity is invisible to them. *)
type snapshot = {
  values : V.t array;  (** code -> stored value; slot 0 is NULL *)
  matches : int array;  (** code -> match-class code *)
  len : int;
}

let lock = Mutex.create ()

(* The lookup side, touched only under [lock]: open addressing over
   codes. A slot holds [code + 1] in its low [code_bits] bits and the
   value's [hash] above them, or 0 when empty; the array's length is a
   power of two and at most half its slots are full, so a linear probe
   from a value's hash soon meets the value or an empty slot. A probe
   decodes a stored value only when its hash matches, and a resize
   moves slots by the hash they carry. *)
let slots = ref (Array.make 1024 0)

let code_bits = 31
let code_mask = (1 lsl code_bits) - 1

(* Agrees with [Value.equal] and allocates nothing: [Hashtbl.hash] of
   the payload (30 bits), which equates 0. with -0. and every NaN with
   every other, as [Float.equal] does. *)
let hash = function
  | V.Null -> 0
  | V.Int i -> Hashtbl.hash i
  | V.Float f -> Hashtbl.hash f
  | V.Bool b -> Hashtbl.hash b
  | V.String s -> Hashtbl.hash s

(* The slot holding [v]'s code, or the empty slot where it belongs;
   [h] is [hash v]. [probe] is closed, so a lookup allocates nothing. *)
let rec probe slots values v h mask i =
  let s = slots.(i) in
  if s = 0 || (s lsr code_bits = h && V.equal values.((s land code_mask) - 1) v)
  then i
  else probe slots values v h mask ((i + 1) land mask)

let slot_of slots values v h =
  let mask = Array.length slots - 1 in
  probe slots values v h mask (h land mask)

let snap =
  let values = Array.make 64 V.Null and matches = Array.make 64 0 in
  !slots.(slot_of !slots values V.Null 0) <- null_code + 1;
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

(* Doubles the slot array once [len] codes would fill half of it. Each
   slot moves to the first free slot from its own hash: no value is
   read and none hashed again. *)
let ensure_slots len =
  if 2 * len > Array.length !slots then begin
    let grown = Array.make (2 * Array.length !slots) 0 in
    let mask = Array.length grown - 1 in
    let rec free i = if grown.(i) = 0 then i else free ((i + 1) land mask) in
    Array.iter
      (fun s -> if s <> 0 then grown.(free ((s lsr code_bits) land mask)) <- s)
      !slots;
    slots := grown
  end

(* [v]'s code, or -1 when it has none; [h] is [hash v]. *)
let lookup v h =
  (!slots.(slot_of !slots (Atomic.get snap).values v h) land code_mask) - 1

(* Both the value and its match code are in place before [Atomic.set]
   publishes the new length, so a reader that can see a code always
   sees its cells. Canonicalisation recurses at most once ([canon] is
   idempotent: it maps into ints, which map to themselves), and gives a
   float's int partner its code first. *)
let rec intern_locked v =
  let h = hash v in
  let found = lookup v h in
  if found >= 0 then found
  else
    let cv = canon v in
    let partner = if V.equal cv v then None else Some (intern_locked cv) in
    let s = ensure_capacity (Atomic.get snap) in
    let c = s.len in
    if c >= code_mask then failwith "Intern: no code left";
    s.values.(c) <- v;
    s.matches.(c) <- Option.value partner ~default:c;
    ensure_slots (c + 1);
    !slots.(slot_of !slots s.values v h) <- (h lsl code_bits) lor (c + 1);
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
  let c = lookup v (hash v) in
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

let compare_codes a b = if a = b then 0 else V.compare (value a) (value b)

let size () = (Atomic.get snap).len

(* A slot [memo] has not filled: compared with [==]. *)
let unset = String.make 1 '\000'

let memo f =
  let cache = Array.make (size ()) unset in
  fun c ->
    if c >= Array.length cache then f (value c)
    else
      let s = cache.(c) in
      if s != unset then s
      else begin
        let s = f (value c) in
        cache.(c) <- s;
        s
      end
