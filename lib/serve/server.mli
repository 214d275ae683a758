(** The reduction daemon: a Unix-domain stream socket speaking
    {!Protocol} frames, answering jobs from a {!Store} shared by a
    {!Pmtbr_la.Scheduler} pool of connection workers.

    Lifecycle: {!run} binds the socket (replacing a stale socket file left
    by a killed process), accepts until a [shutdown] job arrives, then
    drains outstanding connections, joins the pool and unlinks the socket
    — a clean shutdown leaves nothing on disk. *)

type config = {
  socket_path : string;
  workers : int;  (** connection-handling domains (default 2) *)
  job_workers : int;  (** solver/kernel pool per job (default 1) *)
  max_cost : int;  (** store budget in approximate bytes *)
  max_frame : int;  (** per-frame payload cap in bytes *)
}

val default_config : socket_path:string -> config

val run : ?on_ready:(Store.t -> unit) -> config -> unit
(** Serve until shutdown.  [on_ready] fires once the socket is listening
    (in-process tests and benches use it to start their clients).
    @raise Failure if [socket_path] exists and is not a socket. *)
