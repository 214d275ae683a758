(* The load generator.  One process per run: it spawns the reduction
   daemon (pb_daemon.exe) in its own process, drives it over the Unix
   socket in a closed loop (one client domain per connection, each waiting
   for every reply), checks the answers after the timed phase, and prints
   one JSON object as the last line of stdout.

     pb.exe --workload NAME --seed N --seconds S --trace 0|1
     pb.exe --self-test

   --trace 0 reports the end-to-end metrics; --trace 1 drives the same job
   list, then replays each distinct job in-process with one span per
   layer call and reports the per-layer metrics (see README.md). *)

module P = Pmtbr_serve.Protocol
module C = Pmtbr_serve.Client
module W = Workload

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf prerr_endline fmt

(* Set-ups measured per untraced run; setup_s is their median. *)
let setups = 3

(* Past this many seconds a run stops its daemon and exits with an error,
   so it always ends inside 180 s. *)
let deadline_s = 170

(* ------------------------------------------------------------------ *)
(* Daemon process                                                      *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; feed : out_channel; socket : string }

let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let daemon_exe = Filename.concat (Filename.dirname Sys.executable_name) "pb_daemon.exe"
let spawned = ref 0

(* Spawn and block until the daemon reports that its socket listens. *)
let spawn () =
  incr spawned;
  if not (Sys.file_exists ".bench_build") then Unix.mkdir ".bench_build" 0o755;
  let socket = Printf.sprintf ".bench_build/pb-%d-%d.sock" (Unix.getpid ()) !spawned in
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let feed_r, feed_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process daemon_exe [| daemon_exe; socket |] feed_r ready_w Unix.stderr in
  live := pid :: !live;
  Unix.close ready_w;
  Unix.close feed_r;
  let ready = Unix.in_channel_of_descr ready_r in
  let line = try input_line ready with End_of_file -> "" in
  close_in ready;
  if line <> "ready" then failwith "the daemon exited before its socket was listening";
  { pid; feed = Unix.out_channel_of_descr feed_w; socket }

let stop d =
  (try C.with_connection d.socket (fun c -> ignore (C.request c P.Shutdown))
   with Unix.Unix_error _ -> ());
  (* end of file on its stdin ends the daemon even if shutdown stalls *)
  close_out_noerr d.feed;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Peak resident memory (VmHWM) of the daemon, in MB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Driving the daemon                                                  *)
(* ------------------------------------------------------------------ *)

type result = {
  job : W.job;
  rtt : float;  (** request frame written to response parsed, seconds *)
  resp : (P.response, string) Stdlib.result;
}

let request_of job =
  match P.parse_request (W.payload job) with
  | Ok r -> r
  | Error e -> failwith ("benchmark job rejected by the protocol parser: " ^ e)

let run_list conn reqs =
  Array.map
    (fun (job, req) ->
      let t0 = now () in
      let resp = C.request conn req in
      { job; rtt = now () -. t0; resp })
    reqs

(* Each connection's list in its own client domain, concurrently; returns
   the results per connection and the wall time from the first request to
   the last response. *)
let drive socket lists =
  let reqs = Array.map (Array.map (fun j -> (j, request_of j))) lists in
  let conns = Array.map (fun _ -> C.connect socket) lists in
  Fun.protect
    ~finally:(fun () -> Array.iter C.close conns)
    (fun () ->
      let t0 = now () in
      let results =
        if Array.length conns = 1 then [| run_list conns.(0) reqs.(0) |]
        else
          Array.map2 (fun c r -> Domain.spawn (fun () -> run_list c r)) conns reqs
          |> Array.map Domain.join
      in
      (results, now () -. t0))

let ping socket =
  C.with_connection socket (fun c ->
      match C.request c P.Ping with
      | Ok { P.status = Ok (); _ } -> ()
      | _ -> failwith "the daemon did not answer ping")

let stats socket =
  C.with_connection socket (fun c ->
      match C.request c P.Stats with
      | Ok ({ P.status = Ok (); _ } as r) -> r
      | _ -> failwith "the daemon did not answer stats")

(* Spawn, confirm readiness with a ping round trip, run the cold pass. *)
let set_up (w : W.t) =
  let t0 = now () in
  let d = spawn () in
  ping d.socket;
  let cold, _ = drive d.socket w.W.cold in
  (d, cold, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Checks and failure accounting                                       *)
(* ------------------------------------------------------------------ *)

let field (r : P.response) k = P.field r k

let int_field r k = Option.bind (field r k) int_of_string_opt

(* Full-model references at the held-out points, one per (network, job
   points). *)
let references = Hashtbl.create 16

let reference (j : W.job) =
  let omegas = Heldout.omegas j in
  let key = (j.W.net.W.name, omegas) in
  match Hashtbl.find_opt references key with
  | Some r -> (omegas, r)
  | None ->
      let r = Heldout.reference (Heldout.full_model j.W.net.W.text) omegas in
      Hashtbl.replace references key r;
      (omegas, r)

(* Why a job failed, if it did: an error or missing response, a repeat
   whose digest differs from the key's first answer, a samples-tier hit
   that solved, or an export that does not match the full model. *)
let failure digests (r : result) =
  match r.resp with
  | Error e -> Some ("transport: " ^ e)
  | Ok { P.status = Error e; _ } -> Some ("error response: " ^ e)
  | Ok resp -> (
      let key = W.rom_key r.job in
      match field resp "digest" with
      | None -> Some "response carries no digest"
      | Some d -> (
          let first = Option.value (Hashtbl.find_opt digests key) ~default:d in
          Hashtbl.replace digests key first;
          if d <> first then Some "repeat returned a digest other than the key's first answer"
          else if field resp "tier" = Some "samples-hit" && int_field resp "solves" <> Some 0
          then Some "samples-tier hit performed shifted solves"
          else if not r.job.W.export then None
          else
            let omegas, reference = reference r.job in
            match Heldout.check_export ~omegas ~reference resp.P.body with
            | Ok _ -> None
            | Error e -> Some e))

let failures results =
  let digests = Hashtbl.create 64 in
  List.filter_map
    (fun r -> Option.map (fun why -> (r, why)) (failure digests r))
    results

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (int_of_float (ceil (p *. float_of_int n)) - 1))

type metric = { name : string; value : float; unit_ : string }

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let flatten results = List.concat_map Array.to_list (Array.to_list results)

let ok_order r =
  match r.resp with Ok ({ P.status = Ok (); _ } as resp) -> int_field resp "order" | _ -> None

let wall_s r =
  match r.resp with
  | Ok ({ P.status = Ok (); _ } as resp) ->
      Option.map (fun us -> float_of_int us *. 1e-6) (int_field resp "wall_us")
  | _ -> None

let report_failures fails =
  List.iter
    (fun (r, why) -> log "FAILED %s job on %s: %s" (W.cls_name r.job.W.cls) r.job.W.net.W.name why)
    fails

(* Per-class latency summary on stderr, for sizing the job lists. *)
let log_classes results =
  List.iter
    (fun c ->
      let rtts =
        List.filter_map (fun r -> if r.job.W.cls = c then Some r.rtt else None) results
      in
      if rtts <> [] then
        log "  %-10s n=%-4d p50 %.4f s  min %.4f  max %.4f" (W.cls_name c) (List.length rtts)
          (median rtts) (List.fold_left min infinity rtts) (List.fold_left max 0.0 rtts))
    W.classes

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end (w : W.t) =
  (* earlier set-ups are measured and discarded; the last one's daemon
     serves the timed phase *)
  let rec setup_loop i acc =
    let d, cold, s = set_up w in
    log "set-up %d: %.3f s" i s;
    if i < setups then (
      stop d;
      setup_loop (i + 1) (s :: acc))
    else (d, cold, s :: acc)
  in
  let d, cold, setup_times = setup_loop 1 [] in
  let timed, wall = drive d.socket w.W.timed in
  let rss = peak_rss_mb d in
  let st = stats d.socket in
  stop d;
  let results = flatten timed in
  let fails = failures (flatten cold @ results) in
  report_failures fails;
  let rtts = List.map (fun r -> r.rtt) results in
  let completed = List.length (List.filter (fun r -> wall_s r <> None) results) in
  let rom_states = List.fold_left ( + ) 0 (List.filter_map ok_order results) in
  log "%s: %d timed jobs in %.3f s; store stats: %s" w.W.name (List.length results) wall
    (String.concat " "
       (List.filter_map
          (fun k -> Option.map (fun v -> k ^ "=" ^ v) (field st k))
          [ "jobs"; "rom_hits"; "samples_hits"; "network_hits"; "misses"; "symbolic"; "evictions" ]));
  log_classes results;
  let attempted = List.length results + Array.fold_left (fun a c -> a + Array.length c) 0 w.W.cold in
  print_result ~correct:(fails = []) ~attempted ~failed:(List.length fails)
    [
      { name = "setup_s"; value = median setup_times; unit_ = "s" };
      { name = "jobs_per_s"; value = float_of_int completed /. wall; unit_ = "1/s" };
      { name = "job_p50_s"; value = median rtts; unit_ = "s" };
      { name = "job_p90_s"; value = percentile 0.9 rtts; unit_ = "s" };
      { name = "rom_states"; value = float_of_int rom_states; unit_ = "count" };
      { name = "peak_rss_mb"; value = rss; unit_ = "MB" };
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

(* (metric, classes it is reported for) *)
let flat_classes = W.[ Cold; Retol; Band; Fresh; Export ]
let build_classes = W.[ Cold; Fresh; Leaf ]

let per_class_layers =
  W.
    [
      ("circuit.parse", build_classes);
      ("lti.stamp", build_classes);
      ("sparse.symbolic", [ Cold; Fresh ]);
      ("core.sample", [ Cold; Band; Fresh ]);
      ("core.finish", flat_classes);
      ("core.partition", [ Hier; Leaf ]);
      ("core.hier_sample", [ Hier; Leaf ]);
      ("core.hier_basis", [ Hier; Hier_retol; Leaf ]);
      ("core.recombine", [ Hier; Hier_retol; Leaf ]);
      ("core.compress", [ Hier; Hier_retol ]);
      ("lti.passive", [ Passive ]);
      ("circuit.synth", [ Passive; Export ]);
    ]

type replayed = {
  id : int;  (** span job id *)
  cls : W.cls;
  wall : float;  (** the daemon's median wall_us for this (key, class), seconds *)
  svd : (int * int) option;  (** probed small factor: columns, full-model states *)
  columns : int option;  (** Sample_cache.columns of a flat job's cache *)
  err : float option;  (** held-out error of a non-repeat ROM *)
  parts : int;
  interface : int;
  digest_ok : bool;
}

(* Replay each distinct (ROM key, class) once, in first-answer order, so
   the replayed tiers warm up exactly as the daemon's did. *)
let replay_all rp results =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = (W.rom_key r.job, r.job.W.cls) in
      Hashtbl.replace groups k (r :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    results;
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      let k = (W.rom_key r.job, r.job.W.cls) in
      if Hashtbl.mem seen k then None
      else begin
        let id = Hashtbl.length seen in
        Hashtbl.replace seen k ();
        let group = Hashtbl.find groups k in
        let daemon_digest =
          List.find_map
            (fun g -> match g.resp with Ok resp -> field resp "digest" | Error _ -> None)
            group
        in
        let o = Replay.run rp ~id r.job in
        let svd, columns =
          match o.Replay.cache with
          | Some cache ->
              ( Some (Replay.svd_probe rp ~id cache, Pmtbr_lti.Dss.order o.Replay.sys),
                Some (Pmtbr_core.Sample_cache.columns cache) )
          | None -> (None, None)
        in
        Some
          {
            id;
            cls = r.job.W.cls;
            wall = median (List.filter_map wall_s group);
            svd;
            columns;
            err = (if r.job.W.cls = W.Repeat then None else Some (Replay.verify rp ~id r.job o));
            parts = o.Replay.parts;
            interface = o.Replay.interface;
            digest_ok = daemon_digest = Some o.Replay.digest;
          }
      end)
    results

(* sub_misses summed over the slots of a network's hier_<hash> stats field *)
let sub_misses st hash =
  match field st ("hier_" ^ hash) with
  | None -> None
  | Some v -> (
      match Scanf.sscanf v "partitions=%d sub_hits=%s sub_misses=%s" (fun _ _ m -> m) with
      | m ->
          Some
            (float_of_int
               (List.fold_left ( + ) 0 (List.map int_of_string (String.split_on_char ',' m))))
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)

let traced (w : W.t) ~spans_file =
  let d, cold, _ = set_up w in
  let timed, _ = drive d.socket w.W.timed in
  let st = stats d.socket in
  stop d;
  let results = flatten (Array.map2 Array.append cold timed) in
  let fails = failures results in
  report_failures fails;
  let sp = Spans.create () in
  let replayed = replay_all (Replay.create sp) results in
  Spans.write sp spans_file;
  let selfs = Spans.self_times sp in
  let self x name = Option.value (Hashtbl.find_opt selfs (x.id, name)) ~default:0.0 in
  let bad_digest = List.filter (fun x -> not x.digest_ok) replayed in
  let bad_accuracy =
    List.filter (fun x -> match x.err with Some e -> not (e <= Heldout.tolerance) | None -> false) replayed
  in
  List.iter
    (fun x -> log "FAILED replayed %s job: digest differs from the daemon's" (W.cls_name x.cls))
    bad_digest;
  List.iter
    (fun x -> log "FAILED replayed %s job: held-out error %.3g" (W.cls_name x.cls) (Option.get x.err))
    bad_accuracy;
  (* class medians: over replayed jobs (layer self times, probes) or over
     every daemon answer of the class (walls, round trips, solves) *)
  let med_replay c f = median (List.filter_map (fun x -> if x.cls = c then f x else None) replayed) in
  let med_daemon c f =
    median (List.filter_map (fun r -> if r.job.W.cls = c then f r else None) results)
  in
  let metric base c unit_ value = { name = base ^ "." ^ W.cls_name c; value; unit_ } in
  (* a layer's median self time over the class jobs that called it *)
  let layer n c = med_replay c (fun x -> match self x n with v when v > 0.0 -> Some v | _ -> None) in
  let per_class c =
    [
      metric "serve.wall_s" c "s" (med_daemon c wall_s);
      metric "serve.overhead_s" c "s" (med_daemon c (fun r -> Option.map (fun w -> r.rtt -. w) (wall_s r)));
      metric "serve.hash_s" c "s" (layer "serve.hash" c);
      metric "trace.coverage" c "ratio"
        (med_replay c (fun x ->
             if x.wall > 0.0 then
               Some (List.fold_left (fun a n -> a +. self x n) 0.0 Replay.layers /. x.wall)
             else None));
    ]
    @
    (* a repeat answers from the ROM tier: no solves, and no new ROM to check *)
    if c = W.Repeat then []
    else
      [
        metric "sparse.solves" c "count"
          (med_daemon c (fun r ->
               match r.resp with
               | Ok resp -> Option.map float_of_int (int_field resp "solves")
               | Error _ -> None));
        metric "lti.verify_s" c "s" (med_replay c (fun x -> Some (self x "lti.verify")));
      ]
  in
  let layers =
    List.concat_map
      (fun (n, cs) -> List.map (fun c -> metric (n ^ "_s") c "s" (layer n c)) cs)
      per_class_layers
  in
  let svd =
    List.concat_map
      (fun c ->
        [
          metric "la.svd_s" c "s" (med_replay c (fun x -> Option.map (fun _ -> self x "la.svd") x.svd));
          metric "la.svd_cols" c "count"
            (med_replay c (fun x -> Option.map (fun (k, _) -> float_of_int k) x.svd));
          metric "lti.states" c "count"
            (med_replay c (fun x -> Option.map (fun (_, n) -> float_of_int n) x.svd));
        ])
      flat_classes
    @ List.map
        (fun c -> metric "core.columns" c "count" (med_replay c (fun x -> Option.map float_of_int x.columns)))
        W.[ Cold; Band; Fresh ]
  in
  let hier_med f = median (List.filter_map (fun x -> if x.parts > 0 then Some (f x) else None) replayed) in
  let stat k = Option.value (Option.bind (field st k) float_of_string_opt) ~default:0.0 in
  let leaf_hashes =
    List.filter_map
      (fun r ->
        match r.resp with Ok resp when r.job.W.cls = W.Leaf -> field resp "hash" | _ -> None)
      results
  in
  let globals =
    [
      {
        name = "serve.hit_ratio";
        value = (stat "rom_hits" +. stat "samples_hits") /. Float.max 1.0 (stat "jobs");
        unit_ = "ratio";
      };
      { name = "serve.misses"; value = stat "misses"; unit_ = "count" };
      { name = "serve.evictions"; value = stat "evictions"; unit_ = "count" };
      { name = "sparse.symbolic"; value = stat "symbolic"; unit_ = "count" };
      { name = "core.parts"; value = hier_med (fun x -> float_of_int x.parts); unit_ = "count" };
      { name = "core.interface_states"; value = hier_med (fun x -> float_of_int x.interface); unit_ = "count" };
      {
        name = "core.sub_misses.leaf";
        value = median (List.filter_map (sub_misses st) leaf_hashes);
        unit_ = "count";
      };
      {
        name = "lti.verify_err_max";
        value = List.fold_left (fun a x -> Float.max a (Option.value x.err ~default:0.0)) 0.0 replayed;
        unit_ = "ratio";
      };
    ]
  in
  let failed = List.length fails + List.length bad_digest + List.length bad_accuracy in
  log "%s traced: %d jobs driven, %d distinct jobs replayed, spans in %s" w.W.name
    (List.length results) (List.length replayed) spans_file;
  print_result ~correct:(failed = 0) ~attempted:(List.length results) ~failed
    (List.concat_map per_class W.classes @ layers @ svd @ globals)

(* ------------------------------------------------------------------ *)
(* Self-test of the failure accounting                                 *)
(* ------------------------------------------------------------------ *)

(* A good export, the same export with a corrupted body, the same export
   truncated, and a job the daemon must refuse: the accounting has to
   pass the first and fail the other three. *)
let self_test () =
  let rng = Random.State.make [| 7 |] in
  let mesh = W.mesh rng ~rows:6 ~cols:6 ~ports:2 "self-test-mesh" in
  let export = W.job W.Export mesh "pmtbr" (0.0, 2e10) 6 ~order:6 ~export:true in
  let portless =
    W.job W.Cold { W.name = "portless"; text = "R1 1 0 1k\nC1 1 0 1p\n.end\n" } "pmtbr" (0.0, 2e10) 4
  in
  let d = spawn () in
  let good, refused =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let results, _ = drive d.socket [| [| export |] |] in
        let refused =
          C.with_connection d.socket (fun c ->
              let t0 = now () in
              (* the protocol accepts the job; the store refuses the netlist *)
              let resp = C.request c (request_of portless) in
              { job = portless; rtt = now () -. t0; resp })
        in
        (results.(0).(0), refused))
  in
  let corrupt body =
    (* scale the value of the first resistor card tenfold *)
    String.split_on_char '\n' body
    |> List.fold_left
         (fun (done_, acc) line ->
           if (not done_) && String.length line > 0 && Char.uppercase_ascii line.[0] = 'R' then
             match String.split_on_char ' ' line with
             | [ name; n1; n2; v ] ->
                 (true, Printf.sprintf "%s %s %s %.17g" name n1 n2 (10.0 *. float_of_string v) :: acc)
             | _ -> (done_, line :: acc)
           else (done_, line :: acc))
         (false, [])
    |> snd |> List.rev |> String.concat "\n"
  in
  let with_body r f =
    { r with resp = Result.map (fun resp -> { resp with P.body = f resp.P.body }) r.resp }
  in
  let cases =
    [
      ("good export", good, false);
      ("corrupted export", with_body good corrupt, true);
      ("truncated export", with_body good (fun b -> String.sub b 0 (String.length b / 2)), true);
      ("error response", refused, true);
    ]
  in
  let ok =
    List.for_all
      (fun (what, r, should_fail) ->
        (* each case is accounted on its own, as the only answer for its key *)
        let failed = failures [ r ] <> [] in
        log "self-test %-17s counted %s (expected %s)" what
          (if failed then "failed" else "passed")
          (if should_fail then "failed" else "passed");
        failed = should_fail)
      cases
  in
  if ok then print_endline "self-test: ok"
  else (
    print_endline "self-test: FAILED";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--self-test", Arg.Set self, " check that bad answers count as failed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         log "perfbench: run exceeded %d s; stopping" deadline_s;
         kill_live ();
         Unix._exit 3));
  ignore (Unix.alarm deadline_s);
  at_exit kill_live;
  if !self then self_test ()
  else begin
    if not (List.mem !workload W.names) then (
      log "perfbench: --workload must be one of %s" (String.concat ", " W.names);
      exit 2);
    let w = W.make ~name:!workload ~seed:!seed ~seconds:!seconds in
    if !trace = 0 then end_to_end w
    else
      traced w
        ~spans_file:(Printf.sprintf ".bench_build/perfbench-%s-%d.spans.jsonl" !workload !seed)
  end
