module Tuple = Relational.Tuple
module Value = Relational.Value

type entry = { r_key : Tuple.t; s_key : Tuple.t }

(* Entries hash on their key-value pairs; [Tuple.equal]/[Value.equal]
   treat Null as equal to Null (tuple-identity semantics), matching the
   previous list-scan behaviour. *)
module Key = struct
  type t = Value.t list * Value.t list

  let equal (r1, s1) (r2, s2) =
    List.equal Value.equal r1 r2 && List.equal Value.equal s1 s2

  let hash (r, s) =
    Hashtbl.hash (List.map Value.hash r, List.map Value.hash s)
end

module Ktbl = Hashtbl.Make (Key)

type t = {
  r_key_attrs : string list;
  s_key_attrs : string list;
  entries : entry list;  (** insertion order *)
  index : unit Ktbl.t;  (** membership; never mutated after construction *)
}

type violation =
  | R_tuple_matched_twice of { r_key : Tuple.t; s_keys : Tuple.t list }
  | S_tuple_matched_twice of { s_key : Tuple.t; r_keys : Tuple.t list }

let key_of e = (Tuple.values e.r_key, Tuple.values e.s_key)

let make ~r_key_attrs ~s_key_attrs entries =
  let index = Ktbl.create (max 16 (List.length entries)) in
  let deduped =
    List.filter
      (fun e ->
        let k = key_of e in
        if Ktbl.mem index k then false
        else begin
          Ktbl.replace index k ();
          true
        end)
      entries
  in
  { r_key_attrs; s_key_attrs; entries = deduped; index }

let r_key_attrs t = t.r_key_attrs
let s_key_attrs t = t.s_key_attrs
let entries t = t.entries
let cardinality t = Ktbl.length t.index
let mem t entry = Ktbl.mem t.index (key_of entry)

let add t entry =
  if mem t entry then t
  else
    let index = Ktbl.copy t.index in
    Ktbl.replace index (key_of entry) ();
    { t with entries = t.entries @ [ entry ]; index }

let group_by project other entries =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      let k = Tuple.values (project e) in
      (match Hashtbl.find_opt tbl k with
      | None ->
          order := (k, project e) :: !order;
          Hashtbl.add tbl k [ other e ]
      | Some l -> Hashtbl.replace tbl k (other e :: l)))
    entries;
  List.rev_map
    (fun (k, key_tuple) -> (key_tuple, List.rev (Hashtbl.find tbl k)))
    !order

let uniqueness_violations t =
  let r_side =
    group_by (fun e -> e.r_key) (fun e -> e.s_key) t.entries
    |> List.filter_map (fun (r_key, s_keys) ->
           match s_keys with
           | [] | [ _ ] -> None
           | _ :: _ :: _ -> Some (R_tuple_matched_twice { r_key; s_keys }))
  in
  let s_side =
    group_by (fun e -> e.s_key) (fun e -> e.r_key) t.entries
    |> List.filter_map (fun (s_key, r_keys) ->
           match r_keys with
           | [] | [ _ ] -> None
           | _ :: _ :: _ -> Some (S_tuple_matched_twice { s_key; r_keys }))
  in
  r_side @ s_side

let satisfies_uniqueness t = uniqueness_violations t = []

let consistent mt nmt =
  not (List.exists (fun e -> mem nmt e) mt.entries)

let to_relation t =
  let schema =
    Relational.Schema.of_names
      (List.map (fun a -> "r_" ^ a) t.r_key_attrs
      @ List.map (fun a -> "s_" ^ a) t.s_key_attrs)
  in
  (* Sorting by every column in schema order is [Tuple.compare], and the
     entries are distinct already: one sort, one [of_tuples]. *)
  let rows =
    List.map (fun e -> Tuple.concat e.r_key e.s_key) t.entries
  in
  Relational.Relation.of_tuples schema (List.sort Tuple.compare rows)

let pp ppf t = Relational.Relation.pp ppf (to_relation t)

let pp_violation ppf = function
  | R_tuple_matched_twice { r_key; s_keys } ->
      Format.fprintf ppf "R-tuple %a matched to %d S-tuples (%a)" Tuple.pp
        r_key (List.length s_keys)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Tuple.pp)
        s_keys
  | S_tuple_matched_twice { s_key; r_keys } ->
      Format.fprintf ppf "S-tuple %a matched to %d R-tuples (%a)" Tuple.pp
        s_key (List.length r_keys)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Tuple.pp)
        r_keys
