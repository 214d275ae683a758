(* Wall-clock benchmark of the low-rank Lyapunov backend.

   The dense exact-TBR baseline runs two O(n^3) Bartels-Stewart solves
   plus a dense SVD, which caps it at a few hundred states.  PR 6's
   LR-ADI engine replaces both Gramians with low-rank factors computed
   from sparse shifted solves through ONE prepared multi-shift handle, so
   the exact baseline scales to the same operands as PMTBR.  This bench
   measures the dense/low-rank crossover on the RC-mesh family and gates
   the acceptance operand:

   - rc-mesh sizes 15x15 (225 states), 23x23 (529), 33x33 (1089: the
     acceptance size shared with BENCH_sweep.json);
   - dense path: [Tbr.reduce_dss] (to_standard + two dense Lyapunov
     solves + dense square-root balancing);
   - low-rank path: [Tbr_lr.reduce] (LR-ADI factors + small-core SVD).

   Invariants asserted on every pass (both modes):

   - the leading Hankel singular values of the low-rank path agree with
     the dense ones to 1e-8 relative (where the dense values are above
     the 1e-6 * sigma_max noise floor);
   - the low-rank reduction is bitwise-identical at workers 1 and 4 (the
     small-core SVD is the only parallel stage, and it is worker
     invariant per the PR-4 contract);
   - exactly one symbolic analysis for the whole two-Gramian reduction.

   Emits BENCH_lyap.json in the current directory (a --smoke run writes it
   under _build/bench-smoke/ instead).  Run from the repo root:

     dune exec bench/lyap_bench.exe            # full run, 5x gate at 1089
     dune exec bench/lyap_bench.exe -- --smoke # CI: small mesh,
                                               # invariants only *)

open Pmtbr_la
open Pmtbr_lti

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

type record = {
  name : string;
  states : int;
  order : int;
  dense_wall_s : float;  (* Tbr.reduce_dss: dense Gramians + balancing *)
  lr_wall_s : float;  (* Tbr_lr.reduce: LR-ADI factors + small core *)
  speedup : float;  (* dense / low-rank *)
  hsv_drift : float;  (* worst leading-hsv relative difference *)
  ctrl_columns : int;  (* controllability factor width *)
  obs_columns : int;
  adi_steps : int;  (* both sides *)
  shifted_solves : int;
  symbolic : int;  (* symbolic analyses (contract: 1) *)
  refactorizations : int;  (* numeric refactorisations (distinct shifts) *)
}

let hsv_drift dense lr =
  let smax = if Array.length dense = 0 then 0.0 else dense.(0) in
  let worst = ref 0.0 in
  Array.iteri
    (fun i s ->
      if s > 1e-6 *. smax && i < Array.length lr then
        worst := Float.max !worst (Float.abs (s -. lr.(i)) /. smax))
    dense;
  !worst

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* The contracts, checked on the actual bench operand. *)
let invariant_checks ~name ~sys ~order ~st ~dense_hsv ~lr_hsv =
  let drift = hsv_drift dense_hsv lr_hsv in
  if drift > 1e-8 then
    failwith (Printf.sprintf "%s: hsv drift %.3e > 1e-8 vs dense TBR" name drift);
  if st.Tbr_lr.symbolic <> 1 then
    failwith
      (Printf.sprintf "%s: %d symbolic analyses, contract is 1" name st.Tbr_lr.symbolic);
  let r1 = Tbr_lr.reduce ~order ~workers:1 sys in
  let r4 = Tbr_lr.reduce ~order ~workers:4 sys in
  let same =
    r1.Tbr_lr.hsv = r4.Tbr_lr.hsv
    &&
    match (r1.Tbr_lr.rom, r4.Tbr_lr.rom) with
    | ( Dss.Dense { e = e1; a = a1; b = b1; c = c1 },
        Dss.Dense { e = e4; a = a4; b = b4; c = c4 } ) ->
        bitwise_equal e1 e4 && bitwise_equal a1 a4 && bitwise_equal b1 b4
        && bitwise_equal c1 c4
    | _ -> false
  in
  if not same then failwith (name ^ ": reduction differs between workers=1 and workers=4");
  Printf.eprintf "[lyap_bench] %s: invariants OK (hsv drift vs dense %.2e)\n%!" name drift;
  drift

let bench_case ~name ~rows ~cols ~order ~reps =
  let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows ~cols ~ports:2 ()) in
  let n = Dss.order sys in
  Printf.eprintf "[lyap_bench] %s: %d states, reduced order %d\n%!" name n order;
  let dense_res, dense_wall = time_best ~reps (fun () -> Tbr.reduce_dss ~order sys) in
  let lr_res, lr_wall = time_best ~reps (fun () -> Tbr_lr.reduce ~order sys) in
  let st = lr_res.Tbr_lr.stats in
  let drift =
    invariant_checks ~name ~sys ~order ~st ~dense_hsv:dense_res.Tbr.hsv
      ~lr_hsv:lr_res.Tbr_lr.hsv
  in
  let r =
    {
      name;
      states = n;
      order;
      dense_wall_s = dense_wall;
      lr_wall_s = lr_wall;
      speedup = dense_wall /. lr_wall;
      hsv_drift = drift;
      ctrl_columns = st.Tbr_lr.ctrl.Lr_lyap.columns;
      obs_columns = st.Tbr_lr.obs.Lr_lyap.columns;
      adi_steps = st.Tbr_lr.ctrl.Lr_lyap.steps + st.Tbr_lr.obs.Lr_lyap.steps;
      shifted_solves = st.Tbr_lr.solves;
      symbolic = st.Tbr_lr.symbolic;
      refactorizations = st.Tbr_lr.refactorizations;
    }
  in
  Printf.eprintf
    "[lyap_bench]   dense %.4f s | low-rank %.4f s (%.2fx) | %d+%d columns, %d solves\n%!"
    dense_wall lr_wall r.speedup r.ctrl_columns r.obs_columns r.shifted_solves;
  r

let json_of_records records =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" r.name);
      Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
      Buffer.add_string buf (Printf.sprintf "      \"order\": %d,\n" r.order);
      Buffer.add_string buf (Printf.sprintf "      \"dense_wall_s\": %.6f,\n" r.dense_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"lr_wall_s\": %.6f,\n" r.lr_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.3f,\n" r.speedup);
      Buffer.add_string buf (Printf.sprintf "      \"hsv_drift\": %.3e,\n" r.hsv_drift);
      Buffer.add_string buf (Printf.sprintf "      \"ctrl_columns\": %d,\n" r.ctrl_columns);
      Buffer.add_string buf (Printf.sprintf "      \"obs_columns\": %d,\n" r.obs_columns);
      Buffer.add_string buf (Printf.sprintf "      \"adi_steps\": %d,\n" r.adi_steps);
      Buffer.add_string buf (Printf.sprintf "      \"shifted_solves\": %d,\n" r.shifted_solves);
      Buffer.add_string buf (Printf.sprintf "      \"symbolic\": %d,\n" r.symbolic);
      Buffer.add_string buf
        (Printf.sprintf "      \"refactorizations\": %d\n" r.refactorizations);
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let records =
    if smoke then
      (* CI smoke: small mesh, LR-vs-dense agreement + worker invariance
         + the one-symbolic-analysis contract, no timing gate *)
      [ bench_case ~name:"rc-mesh-9x9-smoke" ~rows:9 ~cols:9 ~order:12 ~reps:1 ]
    else begin
      (* reps are deliberately low: the dense baseline is minutes per
         rep at the larger sizes, and the gate has orders-of-magnitude
         margin.  Explicit lets pin the run (and log) order. *)
      let small = bench_case ~name:"rc-mesh-15x15" ~rows:15 ~cols:15 ~order:16 ~reps:2 in
      let mid = bench_case ~name:"rc-mesh-23x23" ~rows:23 ~cols:23 ~order:16 ~reps:1 in
      (* the acceptance operand: 33x33 mesh = 1089 states *)
      let big = bench_case ~name:"rc-mesh-33x33" ~rows:33 ~cols:33 ~order:16 ~reps:1 in
      [ small; mid; big ]
    end
  in
  let json = json_of_records records in
  Util.write_json ~smoke ~file:"BENCH_lyap.json" json;
  if not smoke then begin
    (* acceptance gate: low-rank exact TBR must beat the dense baseline
       >= 5x at 1089 states with hsv drift <= 1e-8 (checked above) *)
    let big = List.nth records 2 in
    if big.speedup < 5.0 then begin
      Printf.eprintf "[lyap_bench] FAIL: %s speedup %.2fx < 5x\n%!" big.name big.speedup;
      exit 1
    end;
    Printf.eprintf "[lyap_bench] OK: %s speedup %.2fx, drift %.2e\n%!" big.name big.speedup
      big.hsv_drift
  end
  else Printf.eprintf "[lyap_bench] smoke OK\n%!"
