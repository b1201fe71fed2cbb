type t = {
  mutable slots : int array;  (** a power of two long, at most half full *)
  mutable size : int;
  chained : bool;
  mutable next : int array;  (** row -> the next row of its chain, or -1 *)
  mutable last : int array;  (** held row -> the last row of its chain *)
}

let create ?(chains = false) n =
  let capacity = ref 16 in
  while !capacity < 2 * n do
    capacity := 2 * !capacity
  done;
  let rows = if chains then max n 0 else 0 in
  {
    slots = Array.make !capacity 0;
    size = 0;
    chained = chains;
    next = Array.make rows (-1);
    last = Array.make rows 0;
  }

(* The probes are closed functions that loop rather than take closures:
   a closure per row and key tripled the relation builder's allocation
   and cost it a third more time. *)
let hash cols i =
  let h = ref 0 in
  for k = 0 to Array.length cols - 1 do
    h := (!h * 31) + cols.(k).(i)
  done;
  Hashtbl.hash !h

let rec equal cols j probe i k =
  k = Array.length cols
  || (cols.(k).(j) = probe.(k).(i) && equal cols j probe i (k + 1))

(* The slot holding the row equal to row [i] of [probe], or the free slot
   where it belongs. *)
let rec scan slots mask cols probe i p =
  let s = slots.(p) in
  if s = 0 || equal cols (s - 1) probe i 0 then p
  else scan slots mask cols probe i ((p + 1) land mask)

let slot slots cols probe i =
  let mask = Array.length slots - 1 in
  scan slots mask cols probe i (hash probe i land mask)

let find t cols probe i = t.slots.(slot t.slots cols probe i) - 1

let grow_chains t i =
  if i >= Array.length t.next then begin
    let n = max (i + 1) (2 * Array.length t.next) in
    let widen a fill =
      let wider = Array.make n fill in
      Array.blit a 0 wider 0 (Array.length a);
      wider
    in
    t.next <- widen t.next (-1);
    t.last <- widen t.last 0
  end

let find_or_add t cols i =
  let p = slot t.slots cols cols i in
  let s = t.slots.(p) in
  if s <> 0 then begin
    let j = s - 1 in
    if t.chained then begin
      grow_chains t i;
      t.next.(t.last.(j)) <- i;
      t.last.(j) <- i
    end;
    j
  end
  else begin
    t.slots.(p) <- i + 1;
    t.size <- t.size + 1;
    if t.chained then begin
      grow_chains t i;
      t.last.(i) <- i
    end;
    if 2 * t.size > Array.length t.slots then begin
      let old = t.slots in
      let slots = Array.make (2 * Array.length old) 0 in
      Array.iter
        (fun s -> if s <> 0 then slots.(slot slots cols cols (s - 1)) <- s)
        old;
      t.slots <- slots
    end;
    i
  end

let next t j =
  if not t.chained then invalid_arg "Code_table.next: a table without chains";
  if j < Array.length t.next then t.next.(j) else -1

let size t = t.size

let classes cols n =
  let t = create n in
  let class_of_row = Array.make n 0 and firsts = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let j = find_or_add t cols i in
    if j = i then begin
      class_of_row.(i) <- !count;
      firsts.(!count) <- i;
      incr count
    end
    else class_of_row.(i) <- class_of_row.(j)
  done;
  (class_of_row, Array.sub firsts 0 !count)
