(* The benchmark's daemon process: the reduction daemon with
   [Server.default_config] (2 connection workers, 1 job worker, a 256 MiB
   store), as [pmtbr serve] runs it by default.  Two pipes tie it to the
   load generator (pb.exe): it writes "ready" on stdout once the socket
   listens, so pb.exe waits on a blocking read instead of polling, and it
   exits as soon as its stdin reaches end of file, so no daemon outlives
   the pb.exe that started it.

   Usage: pb_daemon.exe SOCKET *)

let () =
  let socket_path = Sys.argv.(1) in
  let _orphan_guard =
    Thread.create
      (fun () ->
        (try
           while true do
             ignore (input_char stdin)
           done
         with End_of_file | Sys_error _ -> ());
        (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
        Unix._exit 3)
      ()
  in
  Pmtbr_serve.Server.run
    ~on_ready:(fun _ ->
      print_string "ready\n";
      flush stdout)
    (Pmtbr_serve.Server.default_config ~socket_path)
