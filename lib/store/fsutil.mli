(** Filesystem plumbing shared by the durable store and the CLI's
    crash-safe output paths: fsync, atomic replace-by-rename, and a lock
    file the kernel releases when its holder dies. *)

(** [fsync_out oc] — flush the channel and fsync its descriptor, so the
    bytes are durable before the caller acknowledges anything. *)
val fsync_out : out_channel -> unit

(** [fsync_dir dir] — fsync the directory itself (making a completed
    rename durable). Best-effort: silently a no-op where directories
    cannot be opened for reading. *)
val fsync_dir : string -> unit

(** [with_atomic_out ?fsync path f] — run [f] on a channel writing
    [path ^ ".tmp"], then flush (and fsync when [fsync], default true),
    close and atomically rename over [path]. If [f] or any write step
    fails, the temp file is removed, [path] is untouched, and the error
    propagates — a crash or failure can never leave a truncated [path]
    that parses as complete.

    A [path] that exists and is not itself a regular file (a FIFO, a
    device, a terminal, a symbolic link such as [/dev/stdout]) cannot be
    replaced, only written: [f] writes straight into it (truncated if it
    leads to a regular file), with no temp file, rename or fsync, and
    the channel is closed after it. *)
val with_atomic_out : ?fsync:bool -> string -> (out_channel -> 'a) -> 'a

(** [remove_if_exists path] — unlink, ignoring a missing file. *)
val remove_if_exists : string -> unit

(** [ensure_dir path] — create the directory (and missing parents) if
    absent. *)
val ensure_dir : string -> unit

(** [fresh_dir prefix] — create a uniquely named scratch directory under
    [TMPDIR] and return its path. *)
val fresh_dir : string -> string

(** [remove_tree path] — recursively delete a file or directory tree.
    Scratch-space cleanup; ignores races with concurrent removal. *)
val remove_tree : string -> unit

(** A held lock: an open lock file with a [Unix.lockf] lock on it. *)
type lock

(** [acquire_lock path] — create the lock file if needed and take an
    exclusive [Unix.lockf] lock on it, without waiting; then write this
    process's PID into it, for the message a refused opener prints. The
    kernel holds the lock for the holder's lifetime and drops it when
    the holder dies (the kill -9 case), so a lock left behind is taken
    over with no staleness test, a live holder's lock is never broken,
    and two openers never both succeed. A second acquisition from this
    process is refused too. *)
val acquire_lock : string -> (lock, string) result

(** [release_lock l] — remove the lock file, then drop the lock. *)
val release_lock : lock -> unit
