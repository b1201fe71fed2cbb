module Value = Relational.Value

type key = Value.t array
type pair = key * key

let compare_keys a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_pairs (r1, s1) (r2, s2) =
  match compare_keys r1 r2 with 0 -> compare_keys s1 s2 | c -> c

(* A pair's place in the effective order: every derived pair before
   every manual one, each by the tick it was derived or asserted at. *)
type place = Derived of int | Manual of int

let compare_places a b =
  match (a, b) with
  | Derived x, Derived y | Manual x, Manual y -> Int.compare x y
  | Derived _, Manual _ -> -1
  | Manual _, Derived _ -> 1

module Kmap = Map.Make (struct
  type t = key

  let compare = compare_keys
end)

module Pmap = Map.Make (struct
  type t = pair

  let compare = compare_pairs
end)

module Placed = Map.Make (struct
  type t = place

  let compare = compare_places
end)

type t = {
  derived : int Pmap.t;  (** pair -> tick of its derivation *)
  manual : int Pmap.t;  (** pair -> tick of its assertion *)
  suppressed : int Pmap.t;  (** pair -> tick of its suppression *)
  clock : int;  (** the next tick *)
  order : pair Placed.t;  (** the effective pairs by place *)
  by_r : pair Placed.t Kmap.t;  (** R key -> its effective pairs by place *)
  by_s : pair Placed.t Kmap.t;
  count : int;
}

let place t p =
  match Pmap.find_opt p t.derived with
  | Some d when not (Pmap.mem p t.suppressed) -> Some (Derived d)
  | _ -> Option.map (fun m -> Manual m) (Pmap.find_opt p t.manual)

let update_side key f sides =
  Kmap.update key
    (fun placed ->
      let placed = f (Option.value placed ~default:Placed.empty) in
      if Placed.is_empty placed then None else Some placed)
    sides

let put t ((r, s) as p) at =
  {
    t with
    order = Placed.add at p t.order;
    by_r = update_side r (Placed.add at p) t.by_r;
    by_s = update_side s (Placed.add at p) t.by_s;
    count = t.count + 1;
  }

let take t (r, s) at =
  {
    t with
    order = Placed.remove at t.order;
    by_r = update_side r (Placed.remove at) t.by_r;
    by_s = update_side s (Placed.remove at) t.by_s;
    count = t.count - 1;
  }

(* Change the overlay sets with [f], then move [p] to its new place. *)
let update t p f =
  let before = place t p in
  let t = f t in
  match (before, place t p) with
  | Some b, Some a when compare_places a b = 0 -> t
  | before, after -> (
      let t = match before with Some b -> take t p b | None -> t in
      match after with Some a -> put t p a | None -> t)

let derive t p =
  if Pmap.mem p t.derived then t
  else
    update t p (fun t ->
        { t with derived = Pmap.add p t.clock t.derived; clock = t.clock + 1 })

let assert_manual t p =
  if Pmap.mem p t.manual then t
  else
    update t p (fun t ->
        { t with manual = Pmap.add p t.clock t.manual; clock = t.clock + 1 })

let retract_manual t p =
  update t p (fun t -> { t with manual = Pmap.remove p t.manual })

let suppress t p =
  if Pmap.mem p t.suppressed then t
  else
    update t p (fun t ->
        {
          t with
          suppressed = Pmap.add p t.clock t.suppressed;
          clock = t.clock + 1;
        })

let unsuppress t p =
  update t p (fun t -> { t with suppressed = Pmap.remove p t.suppressed })

let empty =
  {
    derived = Pmap.empty;
    manual = Pmap.empty;
    suppressed = Pmap.empty;
    clock = 0;
    order = Placed.empty;
    by_r = Kmap.empty;
    by_s = Kmap.empty;
    count = 0;
  }

let mem t p = Option.is_some (place t p)

let is_derived t p =
  match place t p with Some (Derived _) -> true | _ -> false

let is_manual t p = Pmap.mem p t.manual
let is_suppressed t p = Pmap.mem p t.suppressed
let count t = t.count

let first_touching t ~r_key ~s_key =
  let first sides key =
    Option.bind (Kmap.find_opt key sides) Placed.min_binding_opt
  in
  match (first t.by_r r_key, first t.by_s s_key) with
  | Some (a, p), Some (b, q) -> Some (if compare_places a b <= 0 then p else q)
  | Some (_, p), None | None, Some (_, p) -> Some p
  | None, None -> None

let pairs t = List.map snd (Placed.bindings t.order)

(* Both maps hold their pairs in [compare_pairs] order: merge the
   derived pairs left unsuppressed with the manual pairs not among them. *)
let sorted_pairs t =
  let derived =
    Seq.filter_map
      (fun (p, _) -> if Pmap.mem p t.suppressed then None else Some p)
      (Pmap.to_seq t.derived)
  and manual =
    Seq.filter_map
      (fun (p, _) -> if is_derived t p then None else Some p)
      (Pmap.to_seq t.manual)
  in
  Seq.sorted_merge compare_pairs derived manual

let touching sides key =
  match Kmap.find_opt key sides with
  | Some placed -> List.map snd (Placed.bindings placed)
  | None -> []

let touching_r t key = touching t.by_r key
let touching_s t key = touching t.by_s key
