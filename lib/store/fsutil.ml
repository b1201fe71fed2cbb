let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let remove_if_exists path =
  try Sys.remove path with Sys_error _ -> ()

let atomic_out ~fsync path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let result =
    try
      let r = f oc in
      if fsync then fsync_out oc else flush oc;
      close_out oc;
      Ok r
    with e ->
      close_out_noerr oc;
      Error e
  in
  match result with
  | Ok r ->
      Sys.rename tmp path;
      if fsync then fsync_dir (Filename.dirname path);
      r
  | Error e ->
      remove_if_exists tmp;
      raise e

(* A FIFO, a device, a terminal or a symbolic link (such as
   /dev/stdout) cannot be replaced, only written: renaming a temp file
   over it would put a regular file in its place, and an fsync on a pipe
   fails. *)
let write_in_place path f =
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0 path in
  match f oc with
  | r ->
      close_out oc;
      r
  | exception e ->
      close_out_noerr oc;
      raise e

let with_atomic_out ?(fsync = true) path f =
  match (Unix.lstat path).st_kind with
  | Unix.S_REG | (exception Unix.Unix_error _) -> atomic_out ~fsync path f
  | _ -> write_in_place path f

let ensure_dir path =
  let rec go path =
    if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
    then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let fresh_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec attempt n =
    if n > 100 then failwith "Fsutil.fresh_dir: cannot create scratch dir";
    let path =
      Filename.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
           (Random.State.int (Random.State.make_self_init ()) 0x3fffffff))
    in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (n + 1)
  in
  attempt 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      (match Sys.readdir path with
      | entries ->
          Array.iter
            (fun entry -> remove_tree (Filename.concat path entry))
            entries
      | exception Sys_error _ -> ());
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> remove_if_exists path
  | exception Unix.Unix_error _ -> ()

(* ---- lock file ---- *)

type lock = { path : string; fd : Unix.file_descr; id : int * int }

(* The locks this process holds, by the lock file's device and inode.
   A [Unix.lockf] lock belongs to the process, not the descriptor: the
   kernel would grant this process a second one on the same file, and
   closing any descriptor of the file drops it. So a second open from
   this process is refused here, before the file is opened. *)
let held : (int * int, unit) Hashtbl.t = Hashtbl.create 4

let file_id (st : Unix.stats) = (st.st_dev, st.st_ino)

let write_pid fd =
  let line = string_of_int (Unix.getpid ()) ^ "\n" in
  Unix.ftruncate fd 0;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  ignore (Unix.write_substring fd line 0 (String.length line) : int)

let read_pid fd =
  let buf = Bytes.create 32 in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  let n = Unix.read fd buf 0 (Bytes.length buf) in
  int_of_string_opt (String.trim (Bytes.sub_string buf 0 n))

let busy path fd =
  let holder =
    match read_pid fd with
    | Some pid -> Printf.sprintf "live process %d" pid
    | None | (exception Unix.Unix_error _) -> "another process"
  in
  Printf.sprintf "store is locked by %s (%s)" holder path

(* A lock taken on a file its holder has just unlinked (a release races
   this open) guards nothing, as the next opener creates a new file:
   the path must still name the locked file, or the attempt starts
   over. *)
let rec acquire_lock ~attempts path =
  match Unix.stat path with
  | st when Hashtbl.mem held (file_id st) ->
      Error (Printf.sprintf "store is locked by this process (%s)" path)
  | _ | (exception Unix.Unix_error _) -> (
      match
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create lock %s: %s" path
               (Unix.error_message e))
      | fd -> (
          match Unix.lockf fd Unix.F_TLOCK 0 with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
              let msg = busy path fd in
              Unix.close fd;
              Error msg
          | exception Unix.Unix_error (e, _, _) ->
              Unix.close fd;
              Error
                (Printf.sprintf "cannot lock %s: %s" path (Unix.error_message e))
          | () -> (
              let id = file_id (Unix.fstat fd) in
              match Unix.stat path with
              | st when file_id st = id ->
                  write_pid fd;
                  Hashtbl.replace held id ();
                  Ok { path; fd; id }
              | _ | (exception Unix.Unix_error _) ->
                  Unix.close fd;
                  if attempts > 1 then acquire_lock ~attempts:(attempts - 1) path
                  else Error (Printf.sprintf "cannot take lock %s" path))))

let acquire_lock path = acquire_lock ~attempts:8 path

(* Unlinked while still held, so no opener can lock this file and find
   it still in place. *)
let release_lock l =
  Hashtbl.remove held l.id;
  remove_if_exists l.path;
  Unix.close l.fd
