(* Unit and property tests for the dense linear algebra substrate. *)

open Pmtbr_la

let check_float = Alcotest.(check (float 1e-9))

let approx ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

(* Deterministic random stable matrix: A = -(M M^T + alpha I). *)
let random_stable ?(seed = 7) ?(alpha = 0.5) n =
  let m = Mat.random ~seed n n in
  let mmt = Mat.mul m (Mat.transpose m) in
  Mat.init n n (fun i j -> -.(Mat.get mmt i j /. float_of_int n) -. if i = j then alpha else 0.0)

(* A random non-symmetric stable matrix: symmetric part negative definite. *)
let random_stable_nonsym ?(seed = 11) n =
  let s = random_stable ~seed n in
  let k = Mat.random ~seed:(seed + 1) n n in
  let skew = Mat.init n n (fun i j -> 0.5 *. (Mat.get k i j -. Mat.get k j i)) in
  Mat.add s skew

(* ------------------------------------------------------------------ *)
(* Mat basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_identity_mul () =
  let a = Mat.random ~seed:3 5 5 in
  let i5 = Mat.identity 5 in
  check_small "a*I - a" (Mat.frobenius (Mat.sub (Mat.mul a i5) a));
  check_small "I*a - a" (Mat.frobenius (Mat.sub (Mat.mul i5 a) a))

let test_mat_transpose_involution () =
  let a = Mat.random ~seed:5 4 7 in
  check_small "(a^T)^T - a" (Mat.frobenius (Mat.sub (Mat.transpose (Mat.transpose a)) a))

let test_mat_mv_matches_mul () =
  let a = Mat.random ~seed:9 6 4 in
  let x = Array.init 4 (fun i -> float_of_int (i + 1)) in
  let xm = Mat.init 4 1 (fun i _ -> x.(i)) in
  let y1 = Mat.mv a x in
  let y2 = Mat.col (Mat.mul a xm) 0 in
  check_small "mv vs mul" (Vec.max_abs_diff y1 y2)

let test_mat_gram () =
  let a = Mat.random ~seed:21 8 5 in
  let g1 = Mat.gram a in
  let g2 = Mat.mul (Mat.transpose a) a in
  check_small "gram" (Mat.frobenius (Mat.sub g1 g2))

let test_hcat_vcat () =
  let a = Mat.random ~seed:2 3 2 and b = Mat.random ~seed:4 3 3 in
  let h = Mat.hcat a b in
  Alcotest.(check (pair int int)) "hcat dims" (3, 5) (Mat.dims h);
  check_float "hcat left" (Mat.get a 1 1) (Mat.get h 1 1);
  check_float "hcat right" (Mat.get b 2 1) (Mat.get h 2 3);
  let c = Mat.random ~seed:6 2 2 and d = Mat.random ~seed:8 3 2 in
  let v = Mat.vcat c d in
  Alcotest.(check (pair int int)) "vcat dims" (5, 2) (Mat.dims v);
  check_float "vcat bottom" (Mat.get d 2 0) (Mat.get v 4 0)

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)
(* ------------------------------------------------------------------ *)

let test_lu_solve () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let b = [| 5.0; 10.0 |] in
  let x = Mat.lu_solve_vec (Mat.lu a) b in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_lu_random_residual () =
  let n = 30 in
  let a = Mat.add (Mat.random ~seed:13 n n) (Mat.scale 2.0 (Mat.identity n)) in
  let b = Mat.random ~seed:17 n 3 in
  let x = Mat.solve a b in
  let r = Mat.sub (Mat.mul a x) b in
  check_small ~tol:1e-8 "residual" (Mat.frobenius r)

let test_lu_singular_raises () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Mat.Singular 1) (fun () -> ignore (Mat.lu a))

let test_lu_inverse () =
  let a = Mat.add (Mat.random ~seed:19 8 8) (Mat.scale 3.0 (Mat.identity 8)) in
  let ainv = Mat.solve a (Mat.identity 8) in
  check_small ~tol:1e-9 "a*ainv - I" (Mat.frobenius (Mat.sub (Mat.mul a ainv) (Mat.identity 8)))

let test_complex_lu () =
  let n = 12 in
  let re = Mat.random ~seed:23 n n and im = Mat.random ~seed:29 n n in
  let a =
    Cmat.init n n (fun i j ->
        { Complex.re = Mat.get re i j +. (if i = j then 4.0 else 0.0); im = Mat.get im i j })
  in
  let b = Cmat.of_mat (Mat.random ~seed:31 n 2) in
  let x = Cmat.lu_solve (Cmat.lu a) b in
  let r = Cmat.sub (Cmat.mul a x) b in
  check_small ~tol:1e-9 "complex residual" (Cmat.frobenius r)

(* ------------------------------------------------------------------ *)
(* QR                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qr_thin () =
  let a = Mat.random ~seed:37 10 4 in
  let q, r = Qr.thin a in
  check_small ~tol:1e-10 "QR - A" (Mat.frobenius (Mat.sub (Mat.mul q r) a));
  let qtq = Mat.mul (Mat.transpose q) q in
  check_small ~tol:1e-10 "Q^T Q - I" (Mat.frobenius (Mat.sub qtq (Mat.identity 4)));
  (* R upper triangular *)
  for i = 1 to 3 do
    for j = 0 to i - 1 do
      check_small "R lower" (Mat.get r i j)
    done
  done

let test_qr_orth_rank_deficient () =
  let b = Mat.random ~seed:41 8 2 in
  (* columns: [b0, b1, b0+b1, 2 b0] -> rank 2 *)
  let a =
    Mat.init 8 4 (fun i j ->
        match j with
        | 0 -> Mat.get b i 0
        | 1 -> Mat.get b i 1
        | 2 -> Mat.get b i 0 +. Mat.get b i 1
        | _ -> 2.0 *. Mat.get b i 0)
  in
  let q = Qr.orth a in
  Alcotest.(check int) "rank" 2 q.Mat.cols;
  check_small ~tol:1e-10 "orthonormal"
    (Mat.frobenius (Mat.sub (Mat.mul (Mat.transpose q) q) (Mat.identity 2)))

let test_qr_pivoted_rank () =
  let b = Mat.random ~seed:43 12 3 in
  let c = Mat.random ~seed:47 3 7 in
  let a = Mat.mul b c in
  let { Qr.rank; _ } = Qr.pivoted ~tol:1e-10 a in
  Alcotest.(check int) "pivoted rank" 3 rank

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

let svd_reconstruct { Svd.u; sigma; v } =
  Mat.mul u (Mat.mul (Mat.diag sigma) (Mat.transpose v))

let test_svd_known () =
  (* diag(3, 2) embedded in a rotation-free matrix *)
  let a = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 2.0 |]; [| 0.0; 0.0 |] |] in
  let { Svd.sigma; _ } = Svd.decompose a in
  check_float "s0" 3.0 sigma.(0);
  check_float "s1" 2.0 sigma.(1)

let test_svd_reconstruction_tall () =
  let a = Mat.random ~seed:53 15 6 in
  let t = Svd.decompose a in
  check_small ~tol:1e-9 "USV^T - A" (Mat.frobenius (Mat.sub (svd_reconstruct t) a));
  check_small ~tol:1e-10 "U orth"
    (Mat.frobenius (Mat.sub (Mat.mul (Mat.transpose t.Svd.u) t.Svd.u) (Mat.identity 6)));
  check_small ~tol:1e-10 "V orth"
    (Mat.frobenius (Mat.sub (Mat.mul (Mat.transpose t.Svd.v) t.Svd.v) (Mat.identity 6)))

let test_svd_reconstruction_wide () =
  let a = Mat.random ~seed:59 5 11 in
  let t = Svd.decompose a in
  check_small ~tol:1e-9 "wide USV^T - A" (Mat.frobenius (Mat.sub (svd_reconstruct t) a))

let test_svd_descending () =
  let a = Mat.random ~seed:61 9 9 in
  let s = Svd.values a in
  for i = 0 to Array.length s - 2 do
    if s.(i) < s.(i + 1) then Alcotest.failf "not descending at %d" i
  done

let test_svd_rank () =
  let b = Mat.random ~seed:67 10 4 in
  let c = Mat.random ~seed:71 4 10 in
  Alcotest.(check int) "rank of product" 4 (Svd.rank (Mat.mul b c))

let test_svd_small_values_accuracy () =
  (* matrix with huge dynamic range of singular values *)
  let s_exact = [| 1.0; 1e-4; 1e-8; 1e-12 |] in
  let q1 = Qr.orth (Mat.random ~seed:73 8 4) in
  let q2 = Qr.orth (Mat.random ~seed:79 4 4) in
  let a = Mat.mul q1 (Mat.mul (Mat.diag s_exact) (Mat.transpose q2)) in
  let s = Svd.values a in
  Array.iteri
    (fun i se ->
      if Float.abs (s.(i) -. se) > 1e-6 *. se +. 1e-15 then
        Alcotest.failf "sigma %d: expected %g got %g" i se s.(i))
    s_exact

(* ------------------------------------------------------------------ *)
(* Symmetric eigendecomposition                                        *)
(* ------------------------------------------------------------------ *)

let test_eig_sym_known () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let values, _ = Eig_sym.decompose a in
  check_float "l0" 3.0 values.(0);
  check_float "l1" 1.0 values.(1)

let test_eig_sym_reconstruction () =
  let m = Mat.random ~seed:83 10 10 in
  let a = Mat.symmetrize m in
  let values, v = Eig_sym.decompose a in
  let recon = Mat.mul v (Mat.mul (Mat.diag values) (Mat.transpose v)) in
  check_small ~tol:1e-9 "V D V^T - A" (Mat.frobenius (Mat.sub recon a));
  check_small ~tol:1e-10 "V orth"
    (Mat.frobenius (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity 10)))

(* Words allocated on the minor heap by [f], net of the measurement's own
   boxed readings. *)
let minor_words f =
  let idle0 = Gc.minor_words () in
  let idle1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0 -. (idle1 -. idle0))

(* [Mat.get] is inlined, so a read from another module is an unboxed
   load.  Dune's dev profile compiles with -opaque, which turns all
   cross-module inlining off: there each read is a call returning a boxed
   float, and only an optimised build can meet this guard (bin/ci.sh runs
   it in the release profile). *)
let test_get_unboxed () =
  if Pmtbr_oracle.Build_profile.name = "dev" then Alcotest.skip ();
  let m = Mat.random ~seed:101 100 100 in
  let sink = [| 0.0 |] in
  let (), words =
    minor_words (fun () ->
        let acc = ref 0.0 in
        for i = 0 to 99 do
          for j = 0 to 99 do
            acc := !acc +. Mat.get m i j
          done
        done;
        sink.(0) <- !acc)
  in
  Alcotest.(check bool) "reads summed" true (Float.is_finite sink.(0));
  if words > 0.0 then Alcotest.failf "10,000 Mat.get reads allocated %.0f words" words

let test_eig_sym_allocation () =
  let n = 100 in
  let g = Pmtbr_oracle.Cyclic_eig.graded_gram ~seed:103 ~rows:80 n in
  let _, words = minor_words (fun () -> Eig_sym.decompose g) in
  if words > float_of_int (20 * n * n) then
    Alcotest.failf "decompose of a %dx%d Gram allocated %.0f words (> 20 n^2)" n n words

(* Through the generic functor these operations boxed the entries they
   touched (release build, 200 x 200 operands: [Mat.sub] allocated 6
   minor words per entry, [scale] and [max_abs] 4, one [lu] 21.3 M
   words).  Float code allocates nothing on the minor heap beyond its
   result; a result this large goes straight to the major heap, so what
   is left is a few words of records and headers. *)
let alloc_cases =
  let n = 200 in
  let a = Mat.random ~seed:107 n n and b = Mat.random ~seed:109 n n in
  let dd = Mat.add a (Mat.scale (float_of_int n) (Mat.identity n)) in
  let f = Mat.lu dd in
  let x = Array.init n (fun i -> float_of_int (i mod 7) -. 3.0) in
  [
    ("add", fun () -> Obj.repr (Mat.add a b));
    ("sub", fun () -> Obj.repr (Mat.sub a b));
    ("scale", fun () -> Obj.repr (Mat.scale 0.5 a));
    ("max_abs", fun () -> Obj.repr (Mat.max_abs a));
    ("frobenius", fun () -> Obj.repr (Mat.frobenius a));
    ("hcat", fun () -> Obj.repr (Mat.hcat a b));
    ("vcat", fun () -> Obj.repr (Mat.vcat a b));
    ("identity", fun () -> Obj.repr (Mat.identity n));
    ("symmetrize", fun () -> Obj.repr (Mat.symmetrize a));
    ("lu", fun () -> Obj.repr (Mat.lu dd));
    ("lu_solve_vec", fun () -> Obj.repr (Mat.lu_solve_vec f x));
  ]

let allocates_only_result (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let result, words = minor_words run in
      let held = Obj.reachable_words result in
      if words > float_of_int held then
        Alcotest.failf "Mat.%s allocated %.0f minor words; its result holds %d" name words held)

(* [Vec.scale] fills its result in a loop: through [Array.map] its closure
   boxed every float it returned (160,004 minor words for these 40,000
   entries in a dev build). *)
let test_vec_scale_alloc () =
  let x = Array.init 40_000 (fun i -> float_of_int (i mod 7) -. 3.0) in
  let y, words = minor_words (fun () -> Vec.scale 0.5 x) in
  let held = Obj.reachable_words (Obj.repr y) in
  if words > float_of_int held then
    Alcotest.failf "Vec.scale allocated %.0f minor words; its result holds %d" words held

let test_psd_factor () =
  let b = Mat.random ~seed:89 8 3 in
  let x = Mat.mul b (Mat.transpose b) in
  let l = Eig_sym.psd_factor x in
  Alcotest.(check int) "factor rank" 3 l.Mat.cols;
  check_small ~tol:1e-9 "LL^T - X" (Mat.frobenius (Mat.sub (Mat.mul l (Mat.transpose l)) x))

(* ------------------------------------------------------------------ *)
(* Cholesky                                                            *)
(* ------------------------------------------------------------------ *)

let test_chol_factor () =
  let m = Mat.random ~seed:97 7 7 in
  let a = Mat.add (Mat.mul m (Mat.transpose m)) (Mat.identity 7) in
  let l = Chol.factor a in
  check_small ~tol:1e-9 "LL^T - A" (Mat.frobenius (Mat.sub (Mat.mul l (Mat.transpose l)) a));
  let b = Array.init 7 float_of_int in
  let x = Chol.solve_vec l b in
  check_small ~tol:1e-8 "chol solve" (Vec.max_abs_diff (Mat.mv a x) b)

let test_chol_not_pd () =
  let a = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  Alcotest.check_raises "not pd" (Chol.Not_positive_definite 1) (fun () ->
      ignore (Chol.factor a))

let test_chol_psd_factor () =
  let b = Mat.random ~seed:101 9 4 in
  let x = Mat.mul b (Mat.transpose b) in
  let l, rank = Chol.psd_factor x in
  Alcotest.(check int) "psd rank" 4 rank;
  let lr = Mat.sub_cols l 0 rank in
  check_small ~tol:1e-8 "psd LL^T - X" (Mat.frobenius (Mat.sub (Mat.mul lr (Mat.transpose lr)) x))

(* ------------------------------------------------------------------ *)
(* Complex Schur                                                       *)
(* ------------------------------------------------------------------ *)

let schur_checks a =
  let n = a.Mat.rows in
  let { Cschur.q; tm } = Cschur.of_real a in
  (* unitarity *)
  let qhq = Cmat.mul (Cmat.conj_transpose q) q in
  check_small ~tol:1e-9 "Q^H Q - I" (Cmat.frobenius (Cmat.sub qhq (Cmat.identity n)));
  (* similarity *)
  let recon = Cmat.mul q (Cmat.mul tm (Cmat.conj_transpose q)) in
  check_small ~tol:1e-8 "QTQ^H - A" (Cmat.frobenius (Cmat.sub recon (Cmat.of_mat a)));
  (* triangularity *)
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      check_small ~tol:1e-30 "strictly lower zero" (Complex.norm (Cmat.get tm i j))
    done
  done

let test_schur_random () = schur_checks (Mat.random ~seed:103 12 12)
let test_schur_symmetric () = schur_checks (Mat.symmetrize (Mat.random ~seed:107 9 9))
let test_schur_stable () = schur_checks (random_stable_nonsym 15)

let test_schur_eigenvalues_2x2 () =
  (* [[0, 1], [-1, 0]] has eigenvalues +-i *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| -1.0; 0.0 |] |] in
  let s = Cschur.of_real a in
  let evs = Cschur.eigenvalues s in
  let ims = Array.map (fun z -> z.Complex.im) evs in
  Array.sort compare ims;
  approx ~tol:1e-9 "im0" (-1.0) ims.(0);
  approx ~tol:1e-9 "im1" 1.0 ims.(1);
  Array.iter (fun z -> check_small ~tol:1e-9 "re" z.Complex.re) evs

let test_schur_eigenvector () =
  let a = random_stable_nonsym 10 in
  let s = Cschur.of_real a in
  let evs = Cschur.eigenvalues s in
  let v = Cschur.eigenvector s 3 in
  let av = Cmat.mv (Cmat.of_mat a) v in
  let lv = Cvec.scale evs.(3) v in
  check_small ~tol:1e-7 "A v - lambda v" (Cvec.max_abs (Cvec.sub av lv))

(* ------------------------------------------------------------------ *)
(* Lyapunov / Sylvester                                                *)
(* ------------------------------------------------------------------ *)

let test_lyap_symmetric () =
  let a = random_stable 12 in
  let b = Mat.random ~seed:109 12 3 in
  let q = Mat.mul b (Mat.transpose b) in
  let x = Lyap.solve a q in
  check_small ~tol:1e-8 "sym lyap residual" (Lyap.lyapunov_residual a x q)

let test_lyap_general () =
  let a = random_stable_nonsym 14 in
  let b = Mat.random ~seed:113 14 2 in
  let q = Mat.mul b (Mat.transpose b) in
  let x = Lyap.solve_with (Lyap.factor_general a) q in
  check_small ~tol:1e-7 "gen lyap residual" (Lyap.lyapunov_residual a x q)

let test_lyap_1x1 () =
  (* a x + x a = -q  =>  x = -q/(2a) *)
  let a = Mat.of_arrays [| [| -2.0 |] |] in
  let q = Mat.of_arrays [| [| 4.0 |] |] in
  let x = Lyap.solve a q in
  check_float "x" 1.0 (Mat.get x 0 0)

let test_lyap_factor_reuse () =
  let a = random_stable_nonsym 10 in
  let fact = Lyap.factor_general a in
  List.iter
    (fun seed ->
      let b = Mat.random ~seed 10 2 in
      let q = Mat.mul b (Mat.transpose b) in
      let x = Lyap.solve_with fact q in
      check_small ~tol:1e-7 "reuse residual" (Lyap.lyapunov_residual a x q))
    [ 1; 2; 3 ]

let test_lyap_0x0 () =
  (* the empty pencil must round-trip through both factor paths rather
     than reaching the eigensolvers *)
  let z = Mat.create 0 0 in
  let x = Lyap.solve z z in
  Alcotest.(check int) "rows" 0 x.Mat.rows;
  let x = Lyap.solve_with (Lyap.factor_general z) z in
  Alcotest.(check int) "cols" 0 x.Mat.cols

let test_descriptor_residual () =
  (* direct check that the generalised residual A X E^T + E X A^T + B B^T
     is driven to zero when X comes from the transformed standard equation
     F X + X F^T + (E^{-1}B)(E^{-1}B)^T = 0 with F = E^{-1}A *)
  let n = 10 in
  let a = random_stable_nonsym ~seed:17 n in
  let e0 = Mat.random ~seed:19 n n in
  let e =
    Mat.add (Mat.scale (1.0 /. float_of_int n) (Mat.mul e0 (Mat.transpose e0))) (Mat.identity n)
  in
  let b = Mat.random ~seed:23 n 2 in
  let lu = Mat.lu e in
  let f = Mat.lu_solve lu a and btil = Mat.lu_solve lu b in
  let x = Lyap.solve_with (Lyap.factor_general f) (Mat.symmetrize (Mat.mul btil (Mat.transpose btil))) in
  let q = Mat.mul b (Mat.transpose b) in
  check_small ~tol:(1e-7 *. Mat.frobenius q) "descriptor residual"
    (Lyap.descriptor_residual ~e ~a x q)

let test_sylvester_cross () =
  let a = random_stable_nonsym 9 in
  let b = Mat.random ~seed:127 9 1 in
  let c = Mat.random ~seed:131 1 9 in
  let q = Mat.mul b c in
  let x = Lyap.solve_cross a q in
  check_small ~tol:1e-7 "cross residual" (Lyap.sylvester_cross_residual a x q)

let test_cross_gramian_symmetric_case () =
  (* For symmetric A with C = B^T, Xcg^2 = X Y = X^2. *)
  let a = random_stable 8 in
  let b = Mat.random ~seed:137 8 1 in
  let x = Lyap.solve a (Mat.mul b (Mat.transpose b)) in
  let xcg = Lyap.solve_cross a (Mat.mul b (Mat.transpose b)) in
  check_small ~tol:1e-7 "Xcg = X in symmetric case" (Mat.frobenius (Mat.sub x xcg))

let test_schur_nilpotent () =
  (* defective matrix: Jordan block with eigenvalues {0, 0} *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let s = Cschur.of_real a in
  Array.iter
    (fun z -> check_small ~tol:1e-8 "nilpotent eigenvalue" (Complex.norm z))
    (Cschur.eigenvalues s);
  schur_checks a

let test_schur_1x1_and_diagonal () =
  let s = Cschur.of_real (Mat.of_arrays [| [| 42.0 |] |]) in
  approx ~tol:1e-12 "1x1" 42.0 (Cschur.eigenvalues s).(0).Complex.re;
  let d = Mat.diag [| 3.0; -1.0; 7.0 |] in
  let evs = Array.map (fun z -> z.Complex.re) (Cschur.eigenvalues (Cschur.of_real d)) in
  Array.sort compare evs;
  approx "diag eig 0" (-1.0) evs.(0);
  approx "diag eig 1" 3.0 evs.(1);
  approx "diag eig 2" 7.0 evs.(2)

let test_svd_zero_matrix () =
  let s = Svd.values (Mat.create 5 3) in
  Array.iter (fun v -> check_small "zero svd" v) s;
  Alcotest.(check int) "zero rank" 0 (Svd.rank (Mat.create 5 3))

let test_svd_single_column () =
  let a = Mat.of_arrays [| [| 3.0 |]; [| 4.0 |] |] in
  approx "norm column" 5.0 (Svd.values a).(0)

let test_orth_zero_matrix () =
  let q = Qr.orth (Mat.create 6 3) in
  Alcotest.(check int) "no columns" 0 q.Mat.cols

(* ------------------------------------------------------------------ *)
(* Subspace angles                                                     *)
(* ------------------------------------------------------------------ *)

let test_angles_same_space () =
  let a = Mat.random ~seed:139 10 3 in
  (* different basis of the same space *)
  let mix = Mat.add (Mat.random ~seed:149 3 3) (Mat.scale 2.0 (Mat.identity 3)) in
  let b = Mat.mul a mix in
  check_small ~tol:1e-7 "same space angle" (Subspace.max_angle a b)

let test_angles_orthogonal () =
  let a = Mat.init 6 2 (fun i j -> if i = j then 1.0 else 0.0) in
  let b = Mat.init 6 2 (fun i j -> if i = j + 2 then 1.0 else 0.0) in
  approx ~tol:1e-9 "orthogonal" (Float.pi /. 2.0) (Subspace.max_angle a b)

let test_vector_angle () =
  let basis = Mat.init 5 2 (fun i j -> if i = j then 1.0 else 0.0) in
  let x = [| 1.0; 0.0; 1.0; 0.0; 0.0 |] in
  (* projection has norm 1/sqrt2 of x's norm: angle = 45 deg *)
  approx ~tol:1e-9 "45 deg" (Float.pi /. 4.0) (Subspace.vector_to_subspace_angle x basis)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let small_dim = QCheck2.Gen.int_range 1 10

let prop_lu_solves =
  QCheck2.Test.make ~name:"lu solves diagonally dominant systems" ~count:50
    QCheck2.Gen.(pair small_dim (int_range 0 10_000))
    (fun (n, seed) ->
      let a = Mat.add (Mat.random ~seed n n) (Mat.scale (float_of_int n) (Mat.identity n)) in
      let b = Array.init n (fun i -> float_of_int (i - 2)) in
      let x = Mat.lu_solve_vec (Mat.lu a) b in
      Vec.max_abs_diff (Mat.mv a x) b < 1e-8)

let prop_qr_orthogonal =
  QCheck2.Test.make ~name:"thin QR produces orthonormal Q" ~count:50
    QCheck2.Gen.(pair small_dim (int_range 0 10_000))
    (fun (n, seed) ->
      let a = Mat.random ~seed (n + 5) n in
      let q, r = Qr.thin a in
      let qtq = Mat.mul (Mat.transpose q) q in
      Mat.frobenius (Mat.sub qtq (Mat.identity n)) < 1e-9
      && Mat.frobenius (Mat.sub (Mat.mul q r) a) < 1e-9)

let prop_svd_reconstructs =
  QCheck2.Test.make ~name:"svd reconstructs A" ~count:50
    QCheck2.Gen.(triple small_dim small_dim (int_range 0 10_000))
    (fun (m, n, seed) ->
      let a = Mat.random ~seed m n in
      let t = Svd.decompose a in
      Mat.frobenius (Mat.sub (svd_reconstruct t) a) < 1e-8)

let prop_svd_spectral_norm_bound =
  QCheck2.Test.make ~name:"sigma_max bounds ||Ax||/||x||" ~count:50
    QCheck2.Gen.(pair small_dim (int_range 0 10_000))
    (fun (n, seed) ->
      let a = Mat.random ~seed n n in
      let s = Svd.values a in
      let x = Array.init n (fun i -> sin (float_of_int (i + 1))) in
      Vec.norm2 (Mat.mv a x) <= (s.(0) +. 1e-9) *. Vec.norm2 x)

let prop_eig_sym_trace =
  QCheck2.Test.make ~name:"eigenvalues sum to trace" ~count:50
    QCheck2.Gen.(pair small_dim (int_range 0 10_000))
    (fun (n, seed) ->
      let a = Mat.symmetrize (Mat.random ~seed n n) in
      let values = Eig_sym.eigenvalues a in
      let trace = ref 0.0 in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      Float.abs (Array.fold_left ( +. ) 0.0 values -. !trace) < 1e-8)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The flat-row kernel against the [Mat.get]/[Mat.set] sweeps it
   replaced, on the three shapes the library feeds it: symmetric noise,
   graded PSD Grams (Zᵀ Z with rank below n half the time) and
   near-diagonal matrices with tied diagonal entries. *)
let prop_eig_sym_bitwise =
  QCheck2.Test.make ~name:"eig_sym == cyclic oracle (bitwise)" ~count:60
    QCheck2.Gen.(
      triple (int_range 0 2)
        (frequency [ (1, int_range 0 2); (4, int_range 3 120) ])
        (int_range 0 10_000))
    (fun (kind, n, seed) ->
      let a =
        match kind with
        | 0 -> Mat.symmetrize (Mat.random ~seed n n)
        | 1 -> Pmtbr_oracle.Cyclic_eig.graded_gram ~seed ~rows:(1 + (seed mod ((2 * n) + 1))) n
        | _ ->
            let noise = Mat.symmetrize (Mat.random ~seed n n) in
            Mat.init n n (fun i j ->
                if i = j then float_of_int (i mod 3) else 1e-10 *. Mat.get noise i j)
      in
      let values, vectors = Eig_sym.decompose a in
      let values', vectors' = Pmtbr_oracle.Cyclic_eig.decompose a in
      bits_equal values values'
      && vectors.Mat.rows = vectors'.Mat.rows
      && vectors.Mat.cols = vectors'.Mat.cols
      && bits_equal vectors.Mat.data vectors'.Mat.data
      && bits_equal (Eig_sym.eigenvalues a) values)

let prop_lyap_residual =
  QCheck2.Test.make ~name:"lyapunov residual small on stable A" ~count:25
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let a = random_stable_nonsym ~seed n in
      let b = Mat.random ~seed:(seed + 1) n 1 in
      let q = Mat.mul b (Mat.transpose b) in
      let x = Lyap.solve_with (Lyap.factor_general a) q in
      Lyap.lyapunov_residual a x q < 1e-6 *. Float.max 1.0 (Mat.frobenius q))

let prop_schur_eigs_match_trace =
  QCheck2.Test.make ~name:"schur eigenvalues sum to trace" ~count:25
    QCheck2.Gen.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let a = Mat.random ~seed n n in
      let evs = Cschur.eigenvalues (Cschur.of_real a) in
      let sum = Array.fold_left Complex.add Complex.zero evs in
      let trace = ref 0.0 in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      Complex.norm (Complex.sub sum { Complex.re = !trace; im = 0.0 }) < 1e-7 *. float_of_int n)

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_lu_solves; prop_qr_orthogonal; prop_svd_reconstructs;
    prop_svd_spectral_norm_bound; prop_eig_sym_trace; prop_eig_sym_bitwise; prop_lyap_residual;
    prop_schur_eigs_match_trace ]

let () =
  Alcotest.run "pmtbr_la"
    [
      ( "mat",
        [
          Alcotest.test_case "mul 2x2" `Quick test_mat_mul;
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "transpose involution" `Quick test_mat_transpose_involution;
          Alcotest.test_case "mv matches mul" `Quick test_mat_mv_matches_mul;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "hcat/vcat" `Quick test_hcat_vcat;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve 2x2" `Quick test_lu_solve;
          Alcotest.test_case "random residual" `Quick test_lu_random_residual;
          Alcotest.test_case "singular raises" `Quick test_lu_singular_raises;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "complex lu" `Quick test_complex_lu;
        ] );
      ( "qr",
        [
          Alcotest.test_case "thin" `Quick test_qr_thin;
          Alcotest.test_case "orth rank deficient" `Quick test_qr_orth_rank_deficient;
          Alcotest.test_case "pivoted rank" `Quick test_qr_pivoted_rank;
          Alcotest.test_case "orth of zero" `Quick test_orth_zero_matrix;
        ] );
      ( "svd",
        [
          Alcotest.test_case "known values" `Quick test_svd_known;
          Alcotest.test_case "reconstruction tall" `Quick test_svd_reconstruction_tall;
          Alcotest.test_case "reconstruction wide" `Quick test_svd_reconstruction_wide;
          Alcotest.test_case "descending" `Quick test_svd_descending;
          Alcotest.test_case "rank" `Quick test_svd_rank;
          Alcotest.test_case "small value accuracy" `Quick test_svd_small_values_accuracy;
          Alcotest.test_case "zero matrix" `Quick test_svd_zero_matrix;
          Alcotest.test_case "single column" `Quick test_svd_single_column;
        ] );
      ( "alloc",
        List.map allocates_only_result alloc_cases
        @ [ Alcotest.test_case "Vec.scale" `Quick test_vec_scale_alloc ] );
      ( "eig_sym",
        [
          Alcotest.test_case "known 2x2" `Quick test_eig_sym_known;
          Alcotest.test_case "reconstruction" `Quick test_eig_sym_reconstruction;
          Alcotest.test_case "psd factor" `Quick test_psd_factor;
          Alcotest.test_case "get allocates nothing" `Quick test_get_unboxed;
          Alcotest.test_case "decompose allocation" `Quick test_eig_sym_allocation;
        ] );
      ( "chol",
        [
          Alcotest.test_case "factor+solve" `Quick test_chol_factor;
          Alcotest.test_case "not pd raises" `Quick test_chol_not_pd;
          Alcotest.test_case "psd factor" `Quick test_chol_psd_factor;
        ] );
      ( "schur",
        [
          Alcotest.test_case "random" `Quick test_schur_random;
          Alcotest.test_case "symmetric" `Quick test_schur_symmetric;
          Alcotest.test_case "stable nonsym" `Quick test_schur_stable;
          Alcotest.test_case "eigenvalues 2x2" `Quick test_schur_eigenvalues_2x2;
          Alcotest.test_case "eigenvector" `Quick test_schur_eigenvector;
          Alcotest.test_case "nilpotent" `Quick test_schur_nilpotent;
          Alcotest.test_case "1x1 and diagonal" `Quick test_schur_1x1_and_diagonal;
        ] );
      ( "lyap",
        [
          Alcotest.test_case "symmetric" `Quick test_lyap_symmetric;
          Alcotest.test_case "general" `Quick test_lyap_general;
          Alcotest.test_case "1x1" `Quick test_lyap_1x1;
          Alcotest.test_case "0x0" `Quick test_lyap_0x0;
          Alcotest.test_case "descriptor residual" `Quick test_descriptor_residual;
          Alcotest.test_case "factor reuse" `Quick test_lyap_factor_reuse;
          Alcotest.test_case "sylvester cross" `Quick test_sylvester_cross;
          Alcotest.test_case "cross = lyap when symmetric" `Quick test_cross_gramian_symmetric_case;
        ] );
      ( "subspace",
        [
          Alcotest.test_case "same space" `Quick test_angles_same_space;
          Alcotest.test_case "orthogonal" `Quick test_angles_orthogonal;
          Alcotest.test_case "vector angle" `Quick test_vector_angle;
        ] );
      ("properties", props);
    ]
