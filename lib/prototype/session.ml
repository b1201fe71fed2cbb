module V = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple

let atom_string v =
  match v with
  | V.Null -> "null"
  | _ -> Bridge.sanitize_string (V.to_string v)

let pad width s =
  let len = String.length s in
  if len >= width then s ^ " " else s ^ String.make (width - len) ' '

let render_table ~title ~header rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make 16 '-' ^ "\n");
  let add_row cells =
    List.iter (fun c -> Buffer.add_string buf (pad 15 c)) cells;
    Buffer.add_char buf '\n'
  in
  add_row header;
  List.iter add_row rows;
  Buffer.contents buf

let abbrev mapping a = Option.value (List.assoc_opt a mapping) ~default:a

let col abbrev_map side a = side ^ "_" ^ abbrev abbrev_map a

let candidate_lines ?(abbrev = []) ~r ~s ilfds =
  let candidates =
    Entity_id.Extended_key.candidate_attributes r s ilfds
  in
  List.mapi
    (fun i a ->
      let short = col abbrev "r" a and s_short = col abbrev "s" a in
      Printf.sprintf "[%d] %s: (%s,%s)" i (String.capitalize_ascii a) short
        s_short)
    candidates

let matchtable_rule_lines ?(abbrev = []) ~r ~s ~key () =
  let clause = Bridge.matchtable_clause ~r ~s ~key in
  ignore abbrev;
  [ "The new definition for the matching table :";
    Format.asprintf "%a" Prolog.Database.pp_clause clause ]

let verification_line ~r ~s ~key ilfds =
  let outcome = Entity_id.Identify.run ~r ~s ~key ilfds in
  if Entity_id.Identify.is_verified outcome then
    "Message: The extended key is verified."
  else "Message: The extended key causes unsound matching result."

let setup_extkey_transcript ?(abbrev = []) ~r ~s ~key ilfds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "| ?- setup_extkey.\n";
  List.iter
    (fun l -> Buffer.add_string buf (l ^ "\n"))
    (candidate_lines ~abbrev ~r ~s ilfds);
  let n = List.length (Entity_id.Extended_key.attributes key) in
  Buffer.add_string buf (Printf.sprintf "Please input the no. of keys: %d\n" n);
  List.iter
    (fun l -> Buffer.add_string buf (l ^ "\n"))
    (matchtable_rule_lines ~abbrev ~r ~s ~key ());
  Buffer.add_string buf (verification_line ~r ~s ~key ilfds ^ "\n");
  Buffer.add_string buf "yes\n";
  Buffer.contents buf

let matchtable_session ?(abbrev = []) ~r ~s ~key ilfds =
  let mt = Bridge.matching_table ~r ~s ~key ilfds in
  let rel = Entity_id.Matching_table.to_relation mt in
  let header =
    List.map
      (fun c ->
        (* to_relation prefixes with r_/s_ over full attribute names;
           re-abbreviate for the session. *)
        match String.index_opt c '_' with
        | Some i ->
            let side = String.sub c 0 i in
            let a = String.sub c (i + 1) (String.length c - i - 1) in
            col abbrev side a
        | None -> c)
      (Schema.names (Relation.schema rel))
  in
  let rows =
    List.map
      (fun t -> List.map atom_string (Tuple.values t))
      (Relation.tuples rel)
  in
  let rows = List.sort (List.compare String.compare) rows in
  render_table ~title:"matching table" ~header rows

let integrated_session ?(abbrev = []) ~r ~s ~key ilfds =
  let rel =
    Entity_id.Integrate.integrated_table
      (Entity_id.Identify.matched ~r ~s ~key ilfds)
  in
  let header =
    List.map
      (fun c ->
        match String.index_opt c '_' with
        | Some i ->
            let side = String.sub c 0 i in
            let a = String.sub c (i + 1) (String.length c - i - 1) in
            col abbrev side a
        | None -> c)
      (Schema.names (Relation.schema rel))
  in
  let rows =
    List.map
      (fun t -> List.map atom_string (Tuple.values t))
      (Relation.tuples rel)
  in
  let rows = List.sort (List.compare String.compare) rows in
  render_table ~title:"integrated table" ~header rows
