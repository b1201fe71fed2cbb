module Relation = Relational.Relation
module Intern = Relational.Intern
module Csv_io = Relational.Csv_io

type format = [ `Ndjson | `Csv ]

let header oc format ~r_names ~s_names =
  match format with
  | `Ndjson -> ()
  | `Csv ->
      let cells side names =
        List.map (fun a -> Csv_io.escape_cell (side ^ a)) names
      in
      output_string oc
        (String.concat "," (cells "r." r_names @ cells "s." s_names));
      output_char oc '\n'

let render = function
  | `Ndjson ->
      fun v ->
        let b = Buffer.create 16 in
        Service.add_value b v;
        Buffer.contents b
  | `Csv -> fun v -> Csv_io.escape_cell (Relational.Value.to_string v)

(* A record is [opening], R′'s cells, [middle], S′'s cells, [closing];
   cell [k] of a side follows the [k]th of the side's [prefixes]. *)
let layout = function
  | `Ndjson -> ("{\"r\":{", "},\"s\":{", "}}\n", Json.member_prefixes)
  | `Csv ->
      ( "",
        ",",
        "\n",
        fun names ->
          Array.of_list (List.mapi (fun k _ -> if k > 0 then "," else "") names)
      )

let records oc format r' s' =
  let opening, middle, closing, prefixes = layout format in
  let side rel =
    let names = Relational.Schema.names (Relation.schema rel) in
    let columnar = Relation.columnar rel in
    ( prefixes names,
      Array.init (List.length names) (Relational.Columnar.nth columnar) )
  in
  let r_prefixes, r_cols = side r' and s_prefixes, s_cols = side s' in
  let text = Intern.memo (render format) in
  let buf = Buffer.create 256 in
  let add_side prefixes cols i =
    for k = 0 to Array.length cols - 1 do
      Buffer.add_string buf prefixes.(k);
      Buffer.add_string buf (text cols.(k).(i))
    done
  in
  fun i j ->
    Buffer.clear buf;
    Buffer.add_string buf opening;
    add_side r_prefixes r_cols i;
    Buffer.add_string buf middle;
    add_side s_prefixes s_cols j;
    Buffer.add_string buf closing;
    Buffer.output_buffer oc buf
