(* Wall-clock benchmark of the reduction service: the persistent daemon +
   content-addressed store against one-shot reduction, measured end to end
   through the real Unix-socket protocol.

   The scenario is the service loop from the ROADMAP north star: a client
   repeatedly asks for reductions of the same extracted parasitic network
   (verbatim repeats, a new band on the same network, a tighter tolerance
   on the same sample set).  Measurements, all client-side wall clock:

   - cold: first job on a fresh daemon (parse + MNA stamp + symbolic
     analysis + shifted solves + SVD);
   - warm: the identical job repeated N times (ROM-tier hits) — p50/p99
     latency and jobs/sec;
   - incremental band: same network, disjoint band — must reuse the
     prepared multi-shift handle (the daemon's lifetime symbolic-analysis
     counter stays at 1);
   - tighter tol: same band, smaller tolerance — must re-finish from the
     cached sample columns with zero new shifted solves.

   Invariants asserted on every pass (both modes):

   - every warm repeat returns the same ROM digest as the cold run;
   - a second fresh daemon given the same job cold produces that same
     digest (warm-path ROMs are bitwise-identical to cold-path ROMs);
   - the incremental jobs hit the advertised tiers with the advertised
     counter deltas (symbolic = 1 forever, re-tol solves delta = 0).

   Emits BENCH_serve.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec bench/serve_bench.exe            # full run, 10x warm gate
     dune exec bench/serve_bench.exe -- --smoke # CI: tiny mesh,
                                                # invariants + 3x gate *)

module Protocol = Pmtbr_serve.Protocol
module Server = Pmtbr_serve.Server
module Client = Pmtbr_serve.Client

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* In-process daemon                                                   *)
(* ------------------------------------------------------------------ *)

type daemon = { socket : string; domain : unit Domain.t }

let start_daemon ~socket ~workers =
  let ready = Atomic.make false in
  let config = { (Server.default_config ~socket_path:socket) with Server.workers } in
  let domain =
    Domain.spawn (fun () -> Server.run ~on_ready:(fun _ -> Atomic.set ready true) config)
  in
  let t0 = now () in
  while (not (Atomic.get ready)) && now () -. t0 < 10.0 do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then failwith "daemon did not come up within 10 s";
  { socket; domain }

let stop_daemon d =
  (try Client.with_connection d.socket (fun c -> ignore (Client.request c Protocol.Shutdown))
   with _ -> ());
  Domain.join d.domain

(* ------------------------------------------------------------------ *)
(* Client helpers                                                      *)
(* ------------------------------------------------------------------ *)

let must = function Ok v -> v | Error msg -> failwith ("serve_bench: " ^ msg)

let roundtrip conn req =
  let r = must (Client.request conn req) in
  match r.Protocol.status with
  | Ok () -> r
  | Error msg -> failwith ("serve_bench: server error: " ^ msg)

let field r k =
  match Protocol.field r k with
  | Some v -> v
  | None -> failwith ("serve_bench: response missing field " ^ k)

let int_field r k = int_of_string (field r k)

(* One timed job round trip: client-side wall plus the response. *)
let timed_job conn job =
  let t0 = now () in
  let r = roundtrip conn (Protocol.Reduce job) in
  (now () -. t0, r)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* The scenario                                                        *)
(* ------------------------------------------------------------------ *)

type record = {
  circuit : string;
  states : int;
  samples : int;
  warm_jobs : int;
  cold_wall_s : float;
  warm_p50_s : float;
  warm_p99_s : float;
  warm_jobs_per_s : float;
  warm_speedup : float;  (* cold / warm p50 *)
  band_wall_s : float;  (* incremental new-band job *)
  retol_wall_s : float;  (* tighter-tol job on the cached samples *)
  symbolic_total : int;  (* daemon-lifetime symbolic analyses *)
  retol_solves : int;  (* shifted solves of the tighter-tol job *)
  cold_digest_equal : bool;  (* fresh daemon reproduces the digest *)
}

let run_scenario ~mesh_n ~samples ~warm_jobs =
  let nl = Pmtbr_circuit.Rc_mesh.generate ~rows:mesh_n ~cols:mesh_n ~ports:2 () in
  let netlist = Pmtbr_circuit.Spice.to_string nl in
  let job = { Protocol.meth = Protocol.Pmtbr; band = (0.0, 2e10); tol = None;
              order = Some 12; samples; partition = None; max_part_states = None;
              interface_tol = None; export = false; netlist } in
  let socket = Printf.sprintf ".serve_bench.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  let finally () = stop_daemon daemon in
  Fun.protect ~finally (fun () ->
      Client.with_connection socket (fun conn ->
          (* --- cold --- *)
          let cold_wall, cold = timed_job conn job in
          let digest = field cold "digest" in
          let states = int_field cold "states" in
          if field cold "tier" <> "miss" then failwith "first job must miss every tier";
          Printf.eprintf "[serve_bench] cold: %d states, %.4f s, digest %s\n%!" states
            cold_wall (String.sub digest 0 8);
          (* --- warm repeats --- *)
          let walls =
            Array.init warm_jobs (fun _ ->
                let w, r = timed_job conn job in
                if field r "tier" <> "rom-hit" then failwith "warm repeat must be a ROM hit";
                if field r "digest" <> digest then failwith "warm repeat digest drifted";
                w)
          in
          let total_warm = Array.fold_left ( +. ) 0.0 walls in
          Array.sort compare walls;
          let p50 = percentile walls 0.50 and p99 = percentile walls 0.99 in
          Printf.eprintf
            "[serve_bench] warm x%d: p50 %.6f s, p99 %.6f s, %.0f jobs/s (%.1fx cold)\n%!"
            warm_jobs p50 p99
            (float_of_int warm_jobs /. total_warm)
            (cold_wall /. p50);
          (* --- incremental: new band on the same network --- *)
          let band_wall, band_r =
            timed_job conn { job with Protocol.band = (1e8, 1e10) }
          in
          if field band_r "tier" <> "network-hit" then
            failwith "new-band job must land on the network tier";
          (* --- incremental: tighter tol on the cached sample set --- *)
          let retol_wall, retol_r =
            timed_job conn { job with Protocol.order = None; tol = Some 1e-10 }
          in
          if field retol_r "tier" <> "samples-hit" then
            failwith "re-tol job must land on the samples tier";
          let retol_solves = int_field retol_r "solves" in
          if retol_solves <> 0 then
            failwith
              (Printf.sprintf "re-tol job performed %d solves; the cached columns should"
                 retol_solves);
          let stats = roundtrip conn Protocol.Stats in
          let symbolic_total = int_field stats "symbolic" in
          if symbolic_total <> 1 then
            failwith
              (Printf.sprintf "daemon performed %d symbolic analyses for one network"
                 symbolic_total);
          Printf.eprintf
            "[serve_bench] incremental: band %.4f s (network-hit), re-tol %.4f s \
             (samples-hit, 0 solves), symbolic total %d\n%!"
            band_wall retol_wall symbolic_total;
          (* --- cold-path identity on a fresh daemon --- *)
          let socket2 = Printf.sprintf ".serve_bench.%d.cold.sock" (Unix.getpid ()) in
          let daemon2 = start_daemon ~socket:socket2 ~workers:1 in
          let cold_digest =
            Fun.protect
              ~finally:(fun () -> stop_daemon daemon2)
              (fun () ->
                Client.with_connection socket2 (fun c2 ->
                    field (snd (timed_job c2 job)) "digest"))
          in
          if cold_digest <> digest then
            failwith "fresh-daemon cold digest differs from the warm-path digest";
          Printf.eprintf "[serve_bench] cold-path digest reproduced on a fresh daemon\n%!";
          {
            circuit = Printf.sprintf "rc-mesh-%dx%d" mesh_n mesh_n;
            states;
            samples;
            warm_jobs;
            cold_wall_s = cold_wall;
            warm_p50_s = p50;
            warm_p99_s = p99;
            warm_jobs_per_s = float_of_int warm_jobs /. total_warm;
            warm_speedup = cold_wall /. Float.max p50 1e-9;
            band_wall_s = band_wall;
            retol_wall_s = retol_wall;
            symbolic_total;
            retol_solves;
            cold_digest_equal = true;
          }))

let json_of_record r =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n    {\n";
  Buffer.add_string buf (Printf.sprintf "      \"circuit\": %S,\n" r.circuit);
  Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
  Buffer.add_string buf (Printf.sprintf "      \"samples\": %d,\n" r.samples);
  Buffer.add_string buf (Printf.sprintf "      \"warm_jobs\": %d,\n" r.warm_jobs);
  Buffer.add_string buf (Printf.sprintf "      \"cold_wall_s\": %.6f,\n" r.cold_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"warm_p50_s\": %.6f,\n" r.warm_p50_s);
  Buffer.add_string buf (Printf.sprintf "      \"warm_p99_s\": %.6f,\n" r.warm_p99_s);
  Buffer.add_string buf (Printf.sprintf "      \"warm_jobs_per_s\": %.1f,\n" r.warm_jobs_per_s);
  Buffer.add_string buf (Printf.sprintf "      \"warm_speedup\": %.1f,\n" r.warm_speedup);
  Buffer.add_string buf (Printf.sprintf "      \"band_wall_s\": %.6f,\n" r.band_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"retol_wall_s\": %.6f,\n" r.retol_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"symbolic_total\": %d,\n" r.symbolic_total);
  Buffer.add_string buf (Printf.sprintf "      \"retol_solves\": %d,\n" r.retol_solves);
  Buffer.add_string buf
    (Printf.sprintf "      \"cold_digest_equal\": %b\n" r.cold_digest_equal);
  Buffer.add_string buf "    }\n  ]\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let r =
    if smoke then run_scenario ~mesh_n:8 ~samples:12 ~warm_jobs:30
    else run_scenario ~mesh_n:24 ~samples:30 ~warm_jobs:200
  in
  let json = json_of_record r in
  Util.write_json ~smoke ~file:"BENCH_serve.json" json;
  (* acceptance gate: a warm repeat must beat the cold path by 10x on the
     full operand; the smoke operand is tiny, so the gate is relaxed to
     3x there (the invariants above are the real smoke check) *)
  let gate = if smoke then 3.0 else 10.0 in
  if r.warm_speedup < gate then begin
    Printf.eprintf "[serve_bench] FAIL: warm speedup %.1fx < %.0fx\n%!" r.warm_speedup gate;
    exit 1
  end;
  Printf.eprintf "[serve_bench] %s OK: warm %.1fx cold (p50 %.1f us, %.0f jobs/s)\n%!"
    (if smoke then "smoke" else "full")
    r.warm_speedup (r.warm_p50_s *. 1e6) r.warm_jobs_per_s
