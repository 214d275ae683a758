(* Wall-clock benchmark of the two-tier frequency-sweep engine.

   PRs 1-4 made the sampling and reduction stages parallel; this bench
   gates the evaluation/verification stage, which is the serve path on
   the ROADMAP's north star.  Two headline comparisons:

   - full model (sparse tier): the pre-PR per-point path (a fresh
     pattern assembly + symbolic analysis + numeric LU at every grid
     point, serially — [Freq.sweep_naive]) vs the engine (one prepared
     pencil, numeric replay per point, points fanned across domains) on
     a 1089-state RC mesh over a 200-point grid;

   - reduced model (dense tier): the per-point dense complex LU (O(q^3),
     [Freq.sweep_naive]) vs the one-time Hessenberg-triangular reduction
     + O(q^2) per-point elimination, on a PMTBR ROM of the same mesh.

   Invariants asserted on every pass (both modes):

   - the engine sweep is bitwise-identical at workers 1 and 4 (the
     determinism contract CI relies on), and bitwise-identical to a
     serial map of the per-point evaluator through the same plan;
   - the sparse replay agrees with the naive fresh-factorisation sweep
     to 1e-9 relative (the replay-roundoff contract of the sampling
     engine);
   - the Hessenberg ROM sweep agrees with the dense-LU reference to
     1e-12 relative (the acceptance contract).

   Emits BENCH_sweep.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec bench/sweep_bench.exe            # full run, 3x gate
     dune exec bench/sweep_bench.exe -- --smoke # CI: tiny mesh,
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

let bitwise_equal (a : Cmat.t) (b : Cmat.t) =
  a.Cmat.rows = b.Cmat.rows && a.Cmat.cols = b.Cmat.cols && a.Cmat.data = b.Cmat.data

let sweeps_bitwise_equal a b =
  Array.length a = Array.length b && Array.for_all2 bitwise_equal a b

let sweep_rel_diff (a : Cmat.t array) (b : Cmat.t array) =
  let scale =
    Float.max 1e-300 (Array.fold_left (fun acc h -> Float.max acc (Cmat.max_abs h)) 0.0 a)
  in
  Freq.max_abs_error a b /. scale

type record = {
  name : string;
  states : int;
  grid_points : int;
  workers : int;
  naive_wall_s : float;  (* fresh factorisation per point, serial *)
  engine_serial_wall_s : float;  (* replay/Hessenberg, workers = 1 *)
  engine_wall_s : float;  (* replay/Hessenberg, pool *)
  speedup : float;  (* naive / engine *)
  serial_speedup : float;  (* naive / engine_serial: algorithmic part *)
  rel_drift : float;  (* engine vs naive, worst entrywise relative *)
  utilisation : float;
}

(* The determinism contract, checked on the actual bench operand. *)
let invariant_checks ~name ~sys ~plan ~omegas ~tol =
  let serial, _ = Sweep_engine.sweep ~workers:1 plan omegas in
  let par, _ = Sweep_engine.sweep ~workers:4 ~oversubscribe:true plan omegas in
  if not (sweeps_bitwise_equal serial par) then
    failwith (name ^ ": sweep differs between workers=1 and workers=4");
  if not (sweeps_bitwise_equal serial (Array.map (Sweep_engine.eval_jw plan) omegas)) then
    failwith (name ^ ": sweep differs from the serial eval map");
  let drift = sweep_rel_diff (Freq.sweep_naive sys omegas) serial in
  if drift > tol then
    failwith (Printf.sprintf "%s: engine drift %.3e > %.0e vs the naive path" name drift tol);
  Printf.eprintf "[sweep_bench] %s: determinism OK (drift vs naive %.2e)\n%!" name drift;
  drift

let bench_case ~name ~sys ~omegas ~workers ~reps ~tol =
  let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = omegas.(0) } sys in
  Printf.eprintf "[sweep_bench] %s: %d states, %d grid points (%s tier)\n%!" name
    (Dss.order sys) (Array.length omegas)
    (match Sweep_engine.tier plan with
    | Sweep_engine.Replay -> "replay"
    | Sweep_engine.Hessenberg -> "Hessenberg");
  let drift = invariant_checks ~name ~sys ~plan ~omegas ~tol in
  let _, naive_wall = time_best ~reps (fun () -> Freq.sweep_naive sys omegas) in
  let _, serial_wall = time_best ~reps (fun () -> Sweep_engine.sweep ~workers:1 plan omegas) in
  let (_, st), engine_wall =
    time_best ~reps (fun () -> Sweep_engine.sweep ~workers plan omegas)
  in
  let r =
    {
      name;
      states = Dss.order sys;
      grid_points = Array.length omegas;
      workers = st.Sweep_engine.workers;
      naive_wall_s = naive_wall;
      engine_serial_wall_s = serial_wall;
      engine_wall_s = engine_wall;
      speedup = naive_wall /. engine_wall;
      serial_speedup = naive_wall /. serial_wall;
      rel_drift = drift;
      utilisation = Sweep_engine.utilisation st;
    }
  in
  Printf.eprintf
    "[sweep_bench]   naive %.4f s | engine serial %.4f s (%.2fx) | engine x%d %.4f s (%.2fx)\n%!"
    naive_wall serial_wall r.serial_speedup r.workers engine_wall r.speedup;
  r

let json_of_records records =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" r.name);
      Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
      Buffer.add_string buf (Printf.sprintf "      \"grid_points\": %d,\n" r.grid_points);
      Buffer.add_string buf (Printf.sprintf "      \"workers\": %d,\n" r.workers);
      Buffer.add_string buf (Printf.sprintf "      \"naive_wall_s\": %.6f,\n" r.naive_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"engine_serial_wall_s\": %.6f,\n" r.engine_serial_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"engine_wall_s\": %.6f,\n" r.engine_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.3f,\n" r.speedup);
      Buffer.add_string buf (Printf.sprintf "      \"serial_speedup\": %.3f,\n" r.serial_speedup);
      Buffer.add_string buf (Printf.sprintf "      \"rel_drift\": %.3e,\n" r.rel_drift);
      Buffer.add_string buf (Printf.sprintf "      \"utilisation\": %.3f\n" r.utilisation);
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n"

let mesh ~rows ~cols = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows ~cols ~ports:2 ())

let rom_of sys ~order =
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:order in
  (Pmtbr.reduce ~order sys pts).Pmtbr.rom

let arg_int name default =
  let v = ref default in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then v := int_of_string Sys.argv.(i + 1))
    Sys.argv;
  !v

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let assert_mc = Array.exists (fun a -> a = "--assert-multicore") Sys.argv in
  let workers = arg_int "--workers" 4 in
  let records =
    if smoke then begin
      (* CI smoke: tiny mesh + tiny ROM, every determinism invariant, no
         timing gate *)
      let sys = mesh ~rows:8 ~cols:8 in
      let om = Vec.linspace 2e8 2e10 16 in
      let full = bench_case ~name:"rc-mesh-8x8-smoke" ~sys ~omegas:om ~workers ~reps:1 ~tol:1e-9 in
      let rom =
        bench_case ~name:"rom-q12-smoke" ~sys:(rom_of sys ~order:12) ~omegas:om ~workers
          ~reps:1 ~tol:1e-12
      in
      [ full; rom ]
    end
    else begin
      (* the acceptance operand: 33x33 mesh = 1089 states, 200-point grid *)
      let sys = mesh ~rows:33 ~cols:33 in
      let om = Vec.linspace 2e8 2e10 200 in
      let full = bench_case ~name:"rc-mesh-33x33" ~sys ~omegas:om ~workers ~reps:3 ~tol:1e-9 in
      (* ROM sweep: Hessenberg vs the per-point dense LU, denser grid
         because each point is cheap *)
      let rom =
        bench_case ~name:"rom-q40" ~sys:(rom_of sys ~order:40)
          ~omegas:(Vec.linspace 2e8 2e10 2000) ~workers ~reps:3 ~tol:1e-12
      in
      [ full; rom ]
    end
  in
  let json = json_of_records records in
  Util.write_json ~smoke ~file:"BENCH_sweep.json" json;
  (if assert_mc then
     (* r.workers records the pool size the engine actually ran with *)
     let max_actual = List.fold_left (fun m r -> max m r.workers) 0 records in
     if Util.enforce_multicore ~bench:"sweep_bench" ~gate:"actual_workers > 1" ~need:2 then
       if max_actual <= 1 then begin
         Printf.eprintf
           "[sweep_bench] FAIL: --assert-multicore but the pool never expanded past 1 worker\n%!";
         exit 1
       end
       else Printf.eprintf "[sweep_bench] multicore OK: pool ran %d workers\n%!" max_actual);
  if not smoke then begin
    (* acceptance gate: the engine must sweep the 1089-state mesh >= 3x
       faster than the pre-PR per-point path *)
    let full = List.hd records in
    if full.speedup < 3.0 then begin
      Printf.eprintf "[sweep_bench] FAIL: %s speedup %.2fx < 3x\n%!" full.name full.speedup;
      exit 1
    end;
    Printf.eprintf "[sweep_bench] OK: %s speedup %.2fx (ROM Hessenberg %.2fx)\n%!" full.name
      full.speedup (List.nth records 1).speedup
  end
  else Printf.eprintf "[sweep_bench] smoke OK\n%!"
