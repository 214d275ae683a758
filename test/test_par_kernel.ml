(* Tests for the dense kernel layer (Par_kernel / Svd / Qr): bitwise
   worker-invariance of the panelled GEMM/gram/mv and the blocked
   Householder QR (including bitwise equality with the naive [Mat]
   kernels and the unblocked serial sweep), agreement of the round-robin
   Jacobi schedule with the serial cyclic reference to 1e-12 relative
   accuracy, and end-to-end worker-invariance of the adaptive reduction
   drivers now that [?workers] also sizes the reduction-stage pool. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* ------------------------------------------------------------------ *)
(* Level-1/2/3 kernels: bitwise equal to the naive Mat loops           *)
(* ------------------------------------------------------------------ *)

(* Shapes up to 48^3 scalar ops cross the spawn cutover, so both the
   inline and the spawning paths are exercised for workers > 1. *)
let prop_mul_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.mul == Mat.mul (bitwise, any workers)" ~count:20
    QCheck2.Gen.(
      tup5 (int_range 1 48) (int_range 1 48) (int_range 1 48) (int_range 1 4) (int_range 0 999))
    (fun (m, k, n, workers, seed) ->
      let a = Mat.random ~seed m k and b = Mat.random ~seed:(seed + 1) k n in
      bitwise_equal (Par_kernel.mul ~workers a b) (Mat.mul a b))

let prop_gram_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.gram == Mat.gram (bitwise, any workers)" ~count:20
    QCheck2.Gen.(tup4 (int_range 1 96) (int_range 1 32) (int_range 1 4) (int_range 0 999))
    (fun (rows, cols, workers, seed) ->
      let a = Mat.random ~seed rows cols in
      bitwise_equal (Par_kernel.gram ~workers a) (Mat.gram a))

let prop_mv_bitwise =
  QCheck2.Test.make ~name:"Par_kernel.mv == Mat.mv (bitwise, any workers)" ~count:15
    QCheck2.Gen.(tup4 (int_range 1 256) (int_range 1 160) (int_range 1 4) (int_range 0 999))
    (fun (rows, cols, workers, seed) ->
      let a = Mat.random ~seed rows cols in
      let x = Array.init cols (fun i -> sin (float_of_int (i + seed))) in
      Par_kernel.mv ~workers a x = Mat.mv a x)

(* Vectors within one cache block reduce to the plain sequential dot,
   bit for bit (every state dimension in the suite is far below the
   4096-element block). *)
let prop_dot_bitwise_small =
  QCheck2.Test.make ~name:"Par_kernel.dot == Vec.dot below one block (bitwise)" ~count:30
    QCheck2.Gen.(tup2 (int_range 1 4096) (int_range 0 999))
    (fun (n, seed) ->
      let x = Array.init n (fun i -> cos (float_of_int (i + seed))) in
      let y = Array.init n (fun i -> sin (float_of_int (2 * (i + seed)))) in
      Par_kernel.dot x y = Vec.dot x y)

let test_dot_blocked_accuracy () =
  let n = 3 * 4096 in
  let x = Array.init n (fun i -> cos (float_of_int i)) in
  let y = Array.init n (fun i -> sin (float_of_int (3 * i))) in
  let d = Par_kernel.dot x y and d_ref = Vec.dot x y in
  let scale = Float.max (Float.abs d_ref) 1.0 in
  if Float.abs (d -. d_ref) > 1e-12 *. scale then
    Alcotest.failf "blocked dot %.17g vs sequential %.17g" d d_ref

(* ------------------------------------------------------------------ *)
(* Blocked Householder QR                                              *)
(* ------------------------------------------------------------------ *)

(* Column counts above the 32-column panel width force multiple panels,
   covering the deferred (parallel) trailing update. *)
let prop_qr_blocked_equals_reference =
  QCheck2.Test.make ~name:"blocked QR == unblocked serial sweep (bitwise)" ~count:15
    QCheck2.Gen.(tup3 (int_range 1 48) (int_range 1 4) (int_range 0 999))
    (fun (n, workers, seed) ->
      let m = n + (seed mod 17) in
      let a = Mat.random ~seed m n in
      let q, r = Qr.thin ~workers a in
      let q_ref, r_ref = Qr.thin_reference a in
      bitwise_equal q q_ref && bitwise_equal r r_ref)

let prop_qr_factor_worker_invariant =
  QCheck2.Test.make ~name:"packed QR factor is worker-invariant (bitwise)" ~count:15
    QCheck2.Gen.(tup4 (int_range 1 60) (int_range 1 60) (int_range 2 4) (int_range 0 999))
    (fun (m, n, workers, seed) ->
      let a = Mat.random ~seed m n in
      let f1 = Qr.factorize ~workers:1 a in
      let fw = Qr.factorize ~workers a in
      bitwise_equal f1.Par_kernel.wf fw.Par_kernel.wf
      && f1.Par_kernel.betas = fw.Par_kernel.betas)

let test_qr_apply_q_matches_thin_q () =
  let a = Mat.random ~seed:7 50 40 in
  let f = Qr.factorize ~workers:3 a in
  (* applying the packed reflectors to identity columns IS the thin Q *)
  Alcotest.(check bool)
    "apply_q on identity == thin_q (bitwise)" true
    (bitwise_equal (Qr.thin_q ~workers:3 f) (Qr.apply_q ~workers:3 f (Mat.identity 40)))

let test_qr_apply_qt_adjoint () =
  let a = Mat.random ~seed:11 45 20 in
  let f = Qr.factorize a in
  let x = Mat.random ~seed:12 20 6 in
  (* Q^T (Q x) recovers x in the thin rows, zeros elsewhere *)
  let y = Qr.apply_qt f (Qr.apply_q f x) in
  let top = Mat.sub_matrix y ~row:0 ~col:0 ~rows:20 ~cols:6 in
  let drift = Mat.max_abs (Mat.sub top x) in
  if drift > 1e-13 then Alcotest.failf "adjoint round trip drift %g" drift;
  let bottom = Mat.sub_matrix y ~row:20 ~col:0 ~rows:25 ~cols:6 in
  if Mat.max_abs bottom > 1e-13 then
    Alcotest.failf "below-rank residual %g" (Mat.max_abs bottom)

let test_qr_apply_qt_vec_matches_matrix () =
  let a = Mat.random ~seed:13 30 14 in
  let f = Qr.factorize a in
  let x = Array.init 30 (fun i -> cos (float_of_int (5 * i))) in
  let y_vec = Qr.apply_qt_vec f x in
  let y_mat = Qr.apply_qt f (Mat.init 30 1 (fun i _ -> x.(i))) in
  Alcotest.(check bool)
    "vector path == single-column path (bitwise)" true
    (y_vec = Array.init 30 (fun i -> Mat.get y_mat i 0))

let test_qr_reconstruction () =
  let a = Mat.random ~seed:17 64 40 in
  let q, r = Qr.thin ~workers:4 a in
  let residual = Mat.max_abs (Mat.sub (Mat.mul q r) a) /. Mat.max_abs a in
  if residual > 1e-13 then Alcotest.failf "QR reconstruction residual %g" residual;
  let ortho = Mat.max_abs (Mat.sub (Mat.gram q) (Mat.identity 40)) in
  if ortho > 1e-13 then Alcotest.failf "Q orthonormality drift %g" ortho

(* ------------------------------------------------------------------ *)
(* Round-robin Jacobi SVD vs the serial cyclic reference               *)
(* ------------------------------------------------------------------ *)

(* Tall shapes (m > 2n) also cover the QR-preconditioned path. *)
let sigma_drift m n seed workers =
  let a = Mat.random ~seed m n in
  let s_par = Svd.values ~workers a in
  let s_cyc = Svd.values_cyclic a in
  if Array.length s_par <> Array.length s_cyc then infinity
  else begin
    let smax = Float.max s_cyc.(0) 1e-300 in
    let worst = ref 0.0 in
    Array.iteri
      (fun i s -> worst := Float.max !worst (Float.abs (s -. s_cyc.(i)) /. smax))
      s_par;
    !worst
  end

let prop_jacobi_sigma_matches_cyclic =
  QCheck2.Test.make ~name:"round-robin sigma within 1e-12 of serial cyclic" ~count:20
    QCheck2.Gen.(tup4 (int_range 1 80) (int_range 1 24) (int_range 1 4) (int_range 0 999))
    (fun (m, n, workers, seed) -> sigma_drift m n seed workers <= 1e-12)

let prop_svd_worker_invariant =
  QCheck2.Test.make ~name:"Svd.decompose is worker-invariant (bitwise)" ~count:10
    QCheck2.Gen.(tup4 (int_range 2 60) (int_range 2 20) (int_range 2 4) (int_range 0 999))
    (fun (m, n, workers, seed) ->
      let a = Mat.random ~seed m n in
      let d1 = Svd.decompose ~workers:1 a in
      let dw = Svd.decompose ~workers a in
      bitwise_equal d1.Svd.u dw.Svd.u
      && d1.Svd.sigma = dw.Svd.sigma
      && bitwise_equal d1.Svd.v dw.Svd.v
      && Svd.values ~workers:1 a = Svd.values ~workers a)

let test_svd_preconditioned_reconstruction () =
  (* clearly tall: runs QR preconditioning + round-robin on the small R *)
  let a = Mat.random ~seed:23 90 18 in
  let { Svd.u; sigma; v } = Svd.decompose ~workers:3 a in
  let usv = Mat.mul u (Mat.mul (Mat.diag sigma) (Mat.transpose v)) in
  let residual = Mat.max_abs (Mat.sub usv a) /. Mat.max_abs a in
  if residual > 1e-13 then Alcotest.failf "SVD reconstruction residual %g" residual;
  let ortho = Mat.max_abs (Mat.sub (Mat.gram u) (Mat.identity 18)) in
  if ortho > 1e-13 then Alcotest.failf "U orthonormality drift %g" ortho

(* ------------------------------------------------------------------ *)
(* End-to-end worker invariance of the reduction drivers               *)
(* ------------------------------------------------------------------ *)

let mesh_system ~rows ~cols ~ports = Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let test_reduce_adaptive_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:16 in
  let r1 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:1 sys pts in
  let r4 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:4 sys pts in
  Alcotest.(check int) "samples" r1.Pmtbr.samples r4.Pmtbr.samples;
  Alcotest.(check bool)
    "singular values bitwise" true
    (r1.Pmtbr.singular_values = r4.Pmtbr.singular_values);
  Alcotest.(check bool) "basis bitwise" true (bitwise_equal r1.Pmtbr.basis r4.Pmtbr.basis)

let test_cross_gramian_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:10 in
  let r1 = Cross_gramian.reduce ~workers:1 sys pts in
  let r4 = Cross_gramian.reduce ~workers:4 sys pts in
  Alcotest.(check bool)
    "eigenvalues bitwise" true
    (r1.Cross_gramian.eigenvalues = r4.Cross_gramian.eigenvalues);
  Alcotest.(check bool)
    "basis bitwise" true
    (bitwise_equal r1.Cross_gramian.basis r4.Cross_gramian.basis)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mul_bitwise;
      prop_gram_bitwise;
      prop_mv_bitwise;
      prop_dot_bitwise_small;
      prop_qr_blocked_equals_reference;
      prop_qr_factor_worker_invariant;
      prop_jacobi_sigma_matches_cyclic;
      prop_svd_worker_invariant;
    ]

let () =
  Alcotest.run "pmtbr_par_kernel"
    [
      ("properties", props);
      ( "kernels",
        [ Alcotest.test_case "blocked dot accuracy" `Quick test_dot_blocked_accuracy ] );
      ( "qr",
        [
          Alcotest.test_case "apply_q == thin_q" `Quick test_qr_apply_q_matches_thin_q;
          Alcotest.test_case "apply_qt adjoint" `Quick test_qr_apply_qt_adjoint;
          Alcotest.test_case "apply_qt_vec" `Quick test_qr_apply_qt_vec_matches_matrix;
          Alcotest.test_case "reconstruction" `Quick test_qr_reconstruction;
        ] );
      ( "svd",
        [
          Alcotest.test_case "preconditioned reconstruction" `Quick
            test_svd_preconditioned_reconstruction;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "adaptive worker invariant" `Quick
            test_reduce_adaptive_worker_invariant;
          Alcotest.test_case "cross-gramian worker invariant" `Quick
            test_cross_gramian_worker_invariant;
        ] );
    ]
