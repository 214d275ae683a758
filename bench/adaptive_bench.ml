(* Wall-clock benchmark of incremental adaptive order control.

   Measures Pmtbr.reduce_adaptive on a >= 64-point sweep along two axes:

   - from-scratch (the pre-cache behaviour, [~rebuild:true]): every batch
     rebuilds the sample matrix, re-solving all previously consumed
     shifts — O(total^2) solves;
   - incremental (the Sample_cache path): each shift solved exactly once,
     weights and prefix rescaling applied as a diagonal at assembly.

   Both paths run identical per-column arithmetic in identical order, so
   their results are bitwise-equal — which this bench asserts, together
   with the solve-counter invariant (incremental solves == points
   consumed) and, in full mode, a >= 3x wall-time gate.

   Emits BENCH_adaptive.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec bench/adaptive_bench.exe            # full run, 3x gate
     dune exec bench/adaptive_bench.exe -- --smoke # CI: tiny point set,
                                                   # invariants only *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

let now () = Unix.gettimeofday ()

let time_best ?(reps = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then begin
      best := dt;
      result := Some r
    end
  done;
  (Option.get !result, !best)

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

type record = {
  name : string;
  states : int;
  points : int;
  samples_used : int;
  rom_order : int;
  inc_wall_s : float;
  reb_wall_s : float;
  speedup : float;
  inc_solves : int;
  reb_solves : int;
  columns : int;
  batches : int;
  batch_wall_s : float array;
}

let bench_case ~name ~sys ~points ~batch ~tol =
  Printf.eprintf "[adaptive_bench] %s: %d states, %d points, batch %d\n%!" name (Dss.order sys)
    (Array.length points) batch;
  let run rebuild = Pmtbr.reduce_adaptive ~rebuild ~tol ~batch sys points in
  let inc, inc_wall = time_best (fun () -> run false) in
  let reb, reb_wall = time_best (fun () -> run true) in
  let st_inc = inc.Pmtbr.stats and st_reb = reb.Pmtbr.stats in
  (* identical outputs: the whole point of the weight-at-assembly design *)
  if inc.Pmtbr.singular_values <> reb.Pmtbr.singular_values then
    failwith (name ^ ": singular values differ between incremental and from-scratch");
  if not (bitwise_equal inc.Pmtbr.basis reb.Pmtbr.basis) then
    failwith (name ^ ": basis differs between incremental and from-scratch");
  if inc.Pmtbr.samples <> reb.Pmtbr.samples then
    failwith (name ^ ": consumed sample counts differ");
  (* the solve-counter invariant: each shift solved exactly once *)
  if st_inc.Sample_cache.solves <> st_inc.Sample_cache.points then
    failwith
      (Printf.sprintf "%s: incremental re-solved shifts (%d solves for %d points)" name
         st_inc.Sample_cache.solves st_inc.Sample_cache.points);
  if st_reb.Sample_cache.solves <= st_inc.Sample_cache.solves then
    failwith (name ^ ": from-scratch baseline did not re-solve — bench is vacuous");
  let r =
    {
      name;
      states = Dss.order sys;
      points = Array.length points;
      samples_used = inc.Pmtbr.samples;
      rom_order = inc.Pmtbr.basis.Mat.cols;
      inc_wall_s = inc_wall;
      reb_wall_s = reb_wall;
      speedup = reb_wall /. inc_wall;
      inc_solves = st_inc.Sample_cache.solves;
      reb_solves = st_reb.Sample_cache.solves;
      columns = st_inc.Sample_cache.columns;
      batches = st_inc.Sample_cache.batches;
      batch_wall_s = st_inc.Sample_cache.batch_wall_s;
    }
  in
  Printf.eprintf
    "[adaptive_bench]   incremental %.3f s (%d solves), from-scratch %.3f s (%d solves): %.2fx\n%!"
    inc_wall r.inc_solves reb_wall r.reb_solves r.speedup;
  r

let json_of_records records =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" r.name);
      Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
      Buffer.add_string buf (Printf.sprintf "      \"points\": %d,\n" r.points);
      Buffer.add_string buf (Printf.sprintf "      \"samples_used\": %d,\n" r.samples_used);
      Buffer.add_string buf (Printf.sprintf "      \"rom_order\": %d,\n" r.rom_order);
      Buffer.add_string buf
        (Printf.sprintf "      \"incremental_wall_s\": %.6f,\n" r.inc_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"from_scratch_wall_s\": %.6f,\n" r.reb_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.3f,\n" r.speedup);
      Buffer.add_string buf
        (Printf.sprintf "      \"incremental_solves\": %d,\n" r.inc_solves);
      Buffer.add_string buf
        (Printf.sprintf "      \"from_scratch_solves\": %d,\n" r.reb_solves);
      Buffer.add_string buf (Printf.sprintf "      \"columns\": %d,\n" r.columns);
      Buffer.add_string buf (Printf.sprintf "      \"batches\": %d,\n" r.batches);
      Buffer.add_string buf "      \"batch_wall_s\": [";
      Array.iteri
        (fun j w ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f%s" w
               (if j = Array.length r.batch_wall_s - 1 then "" else ", ")))
        r.batch_wall_s;
      Buffer.add_string buf "],\n";
      Buffer.add_string buf
        "      \"outputs\": \"incremental == from-scratch (bitwise)\"\n";
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let records =
    if smoke then begin
      (* CI smoke: tiny point set, invariants (bitwise equality + solve
         counter) exercised on every pass; no timing gate *)
      let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:8 ~cols:8 ~ports:2 ()) in
      let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:16 in
      [ bench_case ~name:"rc-mesh-8x8-smoke" ~sys ~points:pts ~batch:4 ~tol:1e-16 ]
    end
    else begin
      (* tol far below reach forces the full >= 64-point sweep, so the
         from-scratch baseline pays its whole O(total^2) solve bill *)
      let mesh =
        Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:48 ~cols:48 ~ports:1 ())
      in
      let mesh_pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:64 in
      let spiral = Dss.of_netlist (Pmtbr_circuit.Spiral.generate ~segments:60 ()) in
      let spiral_pts =
        Sampling.points
          (Sampling.Log
             {
               w_min = Pmtbr_circuit.Spiral.sample_band () /. 1000.0;
               w_max = Pmtbr_circuit.Spiral.sample_band ();
             })
          ~count:64
      in
      let mesh_r = bench_case ~name:"rc-mesh-48x48" ~sys:mesh ~points:mesh_pts ~batch:8 ~tol:1e-16 in
      let spiral_r =
        bench_case ~name:"spiral-60" ~sys:spiral ~points:spiral_pts ~batch:8 ~tol:1e-16
      in
      [ mesh_r; spiral_r ]
    end
  in
  let json = json_of_records records in
  Util.write_json ~smoke ~file:"BENCH_adaptive.json" json;
  if not smoke then begin
    (* acceptance gate: >= 3x on the 64-point rc-mesh sweep *)
    let mesh = List.hd records in
    if mesh.speedup < 3.0 then begin
      Printf.eprintf "[adaptive_bench] FAIL: %s speedup %.2fx < 3x\n%!" mesh.name mesh.speedup;
      exit 1
    end;
    Printf.eprintf "[adaptive_bench] OK: %s speedup %.2fx\n%!" mesh.name mesh.speedup
  end
  else Printf.eprintf "[adaptive_bench] smoke OK\n%!"
