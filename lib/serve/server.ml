(* The reduction daemon.  One domain accepts; a Scheduler pool handles
   connections; the Store serialises what must be serialised.  The accept
   loop polls with a short select timeout so a shutdown job (handled on a
   worker) is noticed without a self-pipe. *)

type config = {
  socket_path : string;
  workers : int;
  job_workers : int;
  max_cost : int;
  max_frame : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    job_workers = 1;
    max_cost = 256 * 1024 * 1024;
    max_frame = Protocol.default_max_frame;
  }

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let fields_of_outcome (o : Store.outcome) =
  let sigma_head =
    Array.to_list (Array.sub o.Store.singular_values 0 (min 8 (Array.length o.Store.singular_values)))
    |> List.map (Printf.sprintf "%.17g")
    |> String.concat ","
  in
  [
    ("tier", Store.tier_name o.Store.tier);
    ("hash", o.Store.hash);
    ("states", string_of_int o.Store.states);
    ("order", string_of_int o.Store.order);
    ("solves", string_of_int o.Store.job_solves);
    ("digest", o.Store.digest);
    ("wall_us", string_of_int (int_of_float (o.Store.wall_s *. 1e6)));
    ("sigma", sigma_head);
  ]

let fields_of_counters (c : Store.counters) =
  [
    ("jobs", string_of_int c.Store.jobs);
    ("rom_hits", string_of_int c.Store.rom_hits);
    ("samples_hits", string_of_int c.Store.samples_hits);
    ("network_hits", string_of_int c.Store.network_hits);
    ("misses", string_of_int c.Store.misses);
    ("parses", string_of_int c.Store.parses);
    ("hash_hits", string_of_int c.Store.hash_hits);
    ("symbolic", string_of_int c.Store.symbolic);
    ("solves", string_of_int c.Store.solves);
    ("evictions", string_of_int c.Store.evictions);
  ]

(* One field per hierarchically-served network: its partition count and
   the per-subdomain warm/cold sample-tier counters, slot-aligned. *)
let fields_of_hier hs =
  List.map
    (fun (hash, (hn : Store.hier_net)) ->
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      ( "hier_" ^ hash,
        Printf.sprintf "partitions=%d sub_hits=%s sub_misses=%s" hn.Store.partitions
          (ints hn.Store.sub_hits) (ints hn.Store.sub_misses) ))
    hs

let respond store ~shutdown request =
  match (request : Protocol.request) with
  | Ping -> Protocol.ok ~fields:[ ("pong", "1") ] ()
  | Stats ->
      Protocol.ok
        ~fields:
          (fields_of_counters (Store.counters store) @ fields_of_hier (Store.hier_stats store))
        ()
  | Shutdown ->
      Atomic.set shutdown true;
      Protocol.ok ~fields:[ ("stopping", "1") ] ()
  | Reduce job -> (
      match Store.reduce store job with
      | Ok outcome ->
          let fields = fields_of_outcome outcome in
          let fields, body =
            match outcome.Store.netlist with
            | Some text -> (fields @ [ ("export", "1") ], text)
            | None -> (fields, "")
          in
          Protocol.ok ~fields ~body ()
      | Error msg -> Protocol.error msg)

(* One connection: serve frames until EOF, a framing error, or shutdown.
   After a framing error the stream offset is unknown, so an error
   response is sent and the connection closed. *)
let handle_connection store ~max_frame ~shutdown fd =
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let send r = Protocol.write_frame oc (Protocol.encode_response r) in
  let rec loop () =
    match Protocol.read_frame ~max_bytes:max_frame ic with
    | Error Protocol.Eof -> ()
    | Error e ->
        (try send (Protocol.error (Protocol.frame_error_message e)) with _ -> ())
    | Ok payload -> (
        let response =
          match Protocol.parse_request payload with
          | Error msg -> Protocol.error msg
          | Ok request -> respond store ~shutdown request
        in
        match send response with
        | () -> if not (Atomic.get shutdown) then loop ()
        | exception (Sys_error _ | Unix.Unix_error _) -> ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Sys_error _ | Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Socket lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

(* A previous daemon killed without cleanup leaves a stale socket file
   that would make bind fail; replace it only when it really is a socket
   (never delete a user's regular file). *)
let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "socket path %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run ?(on_ready = fun _ -> ()) config =
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let store = Store.create ~max_cost:config.max_cost ~job_workers:config.job_workers () in
  let shutdown = Atomic.make false in
  remove_stale_socket config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink config.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
      Unix.listen listen_fd 64;
      let pool =
        Pmtbr_la.Scheduler.create ~workers:config.workers
          (handle_connection store ~max_frame:config.max_frame ~shutdown)
      in
      on_ready store;
      (* poll-accept so the shutdown flag set by a worker is noticed *)
      while not (Atomic.get shutdown) do
        match Unix.select [ listen_fd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
            match Unix.accept listen_fd with
            | fd, _ -> if not (Pmtbr_la.Scheduler.submit pool fd) then Unix.close fd
            | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Pmtbr_la.Scheduler.stop pool)
