(* Tests for the parallel multi-shift sampling engine: the determinism
   contract (any worker count produces bitwise-identical sample matrices),
   agreement with the one-shot legacy path, and clean failure propagation
   out of worker domains. *)

open Pmtbr_la
open Pmtbr_sparse
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core
open Pmtbr_oracle

let mesh_system ~rows ~cols ~ports =
  Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* The contract the whole test exists for: the sample matrix is a pure
   function of (system, points) — never of the worker count, the chunk
   size, or the scheduling.  [oversubscribe] makes the engine really spawn
   the domains even on a single-core machine. *)
let prop_parallel_equals_serial =
  QCheck2.Test.make ~name:"parallel == serial (bitwise)" ~count:12
    QCheck2.Gen.(
      tup6 (int_range 3 6) (int_range 3 6) (int_range 1 3) (int_range 3 10) (int_range 2 4)
        (int_range 1 3))
    (fun (rows, cols, ports, npts, workers, chunk) ->
      let sys = mesh_system ~rows ~cols ~ports in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let serial = Zmat.build ~workers:1 sys pts in
      let par = Zmat.build ~workers ~oversubscribe:true ~chunk sys pts in
      bitwise_equal serial par)

(* The observability side goes through the hermitian solve path; it must
   obey the same contract. *)
let prop_parallel_equals_serial_left =
  QCheck2.Test.make ~name:"left samples: parallel == serial (bitwise)" ~count:8
    QCheck2.Gen.(tup4 (int_range 3 5) (int_range 3 5) (int_range 4 8) (int_range 2 4))
    (fun (rows, cols, npts, workers) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:npts in
      let serial = Zmat.build_left ~workers:1 sys pts in
      let par = Zmat.build_left ~workers ~oversubscribe:true sys pts in
      bitwise_equal serial par)

(* The engine's refactorised numerics against the legacy path (a fresh
   pivoting factorisation at every point): same subspace, same matrix up
   to roundoff at the matrix scale. *)
let prop_engine_matches_legacy =
  QCheck2.Test.make ~name:"engine matches one-shot legacy path" ~count:10
    QCheck2.Gen.(tup3 (int_range 3 6) (int_range 3 6) (int_range 3 8))
    (fun (rows, cols, npts) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let rhs = Dss.b_matrix sys in
      let legacy =
        match Array.to_list (Array.map (Zmat.point_block sys ~rhs) pts) with
        | [] -> assert false
        | first :: rest -> List.fold_left Mat.hcat first rest
      in
      let engine = Zmat.build ~workers:1 sys pts in
      let scale = Float.max (Mat.max_abs legacy) 1e-300 in
      Mat.max_abs (Mat.sub legacy engine) /. scale < 1e-9)

(* A singular shift inside the sweep: E = A = I makes (sE - A) = (s-1) I,
   singular exactly at s = 1.  The template (first point) is fine, a later
   task fails; the engine must re-raise Sparse_lu.C.Singular cleanly from
   any worker count instead of deadlocking or returning garbage. *)
let singular_system n =
  let e = Triplet.create n n and a = Triplet.create n n in
  for i = 0 to n - 1 do
    Triplet.add e i i 1.0;
    Triplet.add a i i 1.0
  done;
  Dss.Sparse
    {
      e;
      a;
      pencil = Shifted.pencil ~e ~a;
      b = Mat.init n 1 (fun i _ -> if i = 0 then 1.0 else 0.0);
      c = Mat.init 1 n (fun _ j -> if j = n - 1 then 1.0 else 0.0);
      n;
    }

let singular_points =
  [|
    { Sampling.s = { Complex.re = 2.0; im = 0.0 }; weight = 1.0 };
    { Sampling.s = { Complex.re = 1.0; im = 0.0 }; weight = 1.0 };
    { Sampling.s = { Complex.re = 3.0; im = 0.0 }; weight = 1.0 };
  |]

let test_singular_propagates_serial () =
  let sys = singular_system 12 in
  match Zmat.build ~workers:1 sys singular_points with
  | _ -> Alcotest.fail "expected Singular"
  | exception Sparse_lu.C.Singular _ -> ()

let test_singular_propagates_parallel () =
  let sys = singular_system 12 in
  match Zmat.build ~workers:3 ~oversubscribe:true sys singular_points with
  | _ -> Alcotest.fail "expected Singular"
  | exception Sparse_lu.C.Singular _ -> ()

let test_stats_sane () =
  let sys = mesh_system ~rows:4 ~cols:4 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:7 in
  let _, st =
    Shift_engine.run ~workers:2 ~oversubscribe:true sys
      (Zmat.tasks ~rhs:(Dss.b_matrix sys) ~hermitian:false pts)
  in
  Alcotest.(check int) "solves" 7 st.Shift_engine.solves;
  Alcotest.(check int) "workers" 2 st.Shift_engine.workers;
  Alcotest.(check int) "busy per worker" 2 (Array.length st.Shift_engine.busy_s);
  let u = Shift_engine.utilisation st in
  if u < 0.0 || u > 1.0 then Alcotest.failf "utilisation %g out of [0,1]" u

let test_utilisation_degenerate () =
  (* a run that never ticked the clock has no meaningful utilisation;
     reporting 1.0 (as the old code did) painted an idle pool as fully
     busy in the CLI summary *)
  let st =
    {
      Shift_engine.solves = 0;
      workers = 2;
      factor_s = 0.0;
      solve_s = 0.0;
      wall_s = 0.0;
      busy_s = [| 0.0; 0.0 |];
    }
  in
  Alcotest.(check (float 0.0)) "zero wall clock" 0.0 (Shift_engine.utilisation st);
  let st = { st with Shift_engine.workers = 0; busy_s = [||] } in
  Alcotest.(check (float 0.0)) "no workers" 0.0 (Shift_engine.utilisation st)

let test_worker_cap () =
  (* without [oversubscribe] the pool never exceeds the hardware *)
  let sys = mesh_system ~rows:4 ~cols:4 ~ports:1 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:5 in
  let _, st =
    Shift_engine.run ~workers:64 sys (Zmat.tasks ~rhs:(Dss.b_matrix sys) ~hermitian:false pts)
  in
  if st.Shift_engine.workers > Shift_engine.default_workers () then
    Alcotest.failf "pool %d exceeds the %d-core cap" st.Shift_engine.workers
      (Shift_engine.default_workers ())

(* End-to-end: the reduction driver threaded through ?workers gives the
   same reduced model regardless of the worker count. *)
let test_reduce_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:10 in
  let sv1 = Pmtbr.sample_singular_values ~workers:1 sys pts in
  let sv3 = Pmtbr.sample_singular_values ~workers:3 sys pts in
  if sv1 <> sv3 then Alcotest.fail "singular values differ with worker count"

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parallel_equals_serial; prop_parallel_equals_serial_left; prop_engine_matches_legacy ]

let () =
  Alcotest.run "pmtbr_shift_engine"
    [
      ("determinism", props);
      ( "failures",
        [
          Alcotest.test_case "singular propagates (serial)" `Quick test_singular_propagates_serial;
          Alcotest.test_case "singular propagates (parallel)" `Quick
            test_singular_propagates_parallel;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stats sane" `Quick test_stats_sane;
          Alcotest.test_case "utilisation degenerate" `Quick test_utilisation_degenerate;
          Alcotest.test_case "worker cap" `Quick test_worker_cap;
          Alcotest.test_case "reduce worker-invariant" `Quick test_reduce_worker_invariant;
        ] );
    ]
