(* The magic names the payload type: a change to the type of
   [Store]'s persisted state bumps its version, so a snapshot another
   version wrote is never unmarshalled as this one. *)
let prefix = "EIDSNAP"
let magic = prefix ^ "2"

type 'a payload = { rules_hash : string; wal_offset : int; state : 'a }

let put_u32 oc v =
  output_char oc (Char.chr ((v lsr 24) land 0xff));
  output_char oc (Char.chr ((v lsr 16) land 0xff));
  output_char oc (Char.chr ((v lsr 8) land 0xff));
  output_char oc (Char.chr (v land 0xff))

let write path p =
  let body = Marshal.to_string p [] in
  Fsutil.with_atomic_out path (fun oc ->
      output_string oc magic;
      put_u32 oc (String.length body);
      put_u32 oc (Wal.crc32 body);
      output_string oc body)

type error =
  | Missing
  | Corrupt of string
  | Other_format of string
  | Stale_rules of string

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let read ~rules_hash path =
  match open_in_bin path with
  | exception Sys_error _ -> Error Missing
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let header_len = String.length magic + 8 in
          if total < header_len then Error (Corrupt "short header")
          else
            let header = really_input_string ic header_len in
            let found = String.sub header 0 (String.length magic) in
            if found <> magic then
              if String.starts_with ~prefix found then
                Error (Other_format found)
              else Error (Corrupt "bad magic")
            else
              let len = get_u32 header (String.length magic) in
              let crc = get_u32 header (String.length magic + 4) in
              if len <> total - header_len then
                Error (Corrupt "length mismatch")
              else
                let body = really_input_string ic len in
                if Wal.crc32 body <> crc then
                  Error (Corrupt "checksum mismatch")
                else
                  match (Marshal.from_string body 0 : _ payload) with
                  | exception _ -> Error (Corrupt "undecodable payload")
                  | p ->
                      if p.rules_hash <> rules_hash then
                        Error (Stale_rules p.rules_hash)
                      else Ok p)
