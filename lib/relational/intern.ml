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

(* The table, for the one domain the pipeline runs on. Codes index
   [values] and [matches]; [len] codes are handed out. *)
type table = {
  mutable values : V.t array;  (** code -> stored value; slot 0 is NULL *)
  mutable matches : int array;  (** code -> match-class code *)
  mutable len : int;
  mutable slots : int array;
      (** the lookup side: open addressing over codes. A slot holds
          [code + 1] in its low [code_bits] bits and the value's [hash]
          above them, or 0 when empty; the array's length is a power of
          two and at most half its slots are full, so a linear probe from
          a value's hash soon meets the value or an empty slot. A probe
          decodes a stored value only when its hash matches, and a
          resize moves slots by the hash they carry. *)
}

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

let table =
  let slots = Array.make 1024 0 and values = Array.make 64 V.Null in
  slots.(slot_of slots values V.Null 0) <- null_code + 1;
  { values; matches = Array.make 64 0; len = 1; slots }

let ensure_capacity () =
  if table.len = Array.length table.values then begin
    let cap = 2 * table.len in
    let values = Array.make cap V.Null and matches = Array.make cap 0 in
    Array.blit table.values 0 values 0 table.len;
    Array.blit table.matches 0 matches 0 table.len;
    table.values <- values;
    table.matches <- matches
  end

(* Doubles the slot array once [len] codes would fill half of it. Each
   slot moves to the first free slot from its own hash: no value is
   read and none hashed again. *)
let ensure_slots len =
  if 2 * len > Array.length table.slots then begin
    let grown = Array.make (2 * Array.length table.slots) 0 in
    let mask = Array.length grown - 1 in
    let rec free i = if grown.(i) = 0 then i else free ((i + 1) land mask) in
    Array.iter
      (fun s -> if s <> 0 then grown.(free ((s lsr code_bits) land mask)) <- s)
      table.slots;
    table.slots <- grown
  end

(* [v]'s code, or -1 when it has none; [h] is [hash v]. *)
let lookup v h =
  (table.slots.(slot_of table.slots table.values v h) land code_mask) - 1

(* Canonicalisation recurses at most once ([canon] is idempotent: it
   maps into ints, which map to themselves), and gives a float's int
   partner its code first. *)
let rec code v =
  let h = hash v in
  let found = lookup v h in
  if found >= 0 then found
  else
    let cv = canon v in
    let partner = if V.equal cv v then None else Some (code cv) in
    ensure_capacity ();
    let c = table.len in
    if c >= code_mask then failwith "Intern: no code left";
    table.values.(c) <- v;
    table.matches.(c) <- Option.value partner ~default:c;
    table.len <- c + 1;
    ensure_slots table.len;
    table.slots.(slot_of table.slots table.values v h) <-
      (h lsl code_bits) lor (c + 1);
    c

let find v =
  let c = lookup v (hash v) in
  if c < 0 then None else Some c

let check what c =
  if c < 0 || c >= table.len then
    invalid_arg (Printf.sprintf "Intern.%s: unknown code %d" what c)

let value c =
  check "value" c;
  table.values.(c)

let match_code c =
  check "match_code" c;
  table.matches.(c)

let share v = value (code v)

let compare_codes a b = if a = b then 0 else V.compare (value a) (value b)

let size () = table.len

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
