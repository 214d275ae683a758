(* Tests for the stochastic-input substrate: RNG, quadrature, waveforms,
   correlation estimation. *)

open Pmtbr_la
open Pmtbr_signal

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

let approx ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let r1 = Rng.create 42 and r2 = Rng.create 42 in
  for _ = 1 to 100 do
    approx "same stream" (Rng.float r1) (Rng.float r2)
  done

let test_rng_seed_dependence () =
  let r1 = Rng.create 1 and r2 = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.float r1 = Rng.float r2 then incr same
  done;
  if !same > 5 then Alcotest.fail "streams with different seeds coincide"

let test_rng_uniform_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r ~lo:(-2.0) ~hi:3.0 in
    if x < -2.0 || x >= 3.0 then Alcotest.failf "uniform out of range: %g" x
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian r in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_small ~tol:0.03 "gaussian mean" mean;
  approx ~tol:0.05 "gaussian var" 1.0 var

let test_rng_int_range () =
  let r = Rng.create 13 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    let k = Rng.int r 7 in
    if k < 0 || k >= 7 then Alcotest.failf "int out of range: %d" k;
    seen.(k) <- true
  done;
  Array.iteri (fun i s -> if not s then Alcotest.failf "value %d never drawn" i) seen

(* ------------------------------------------------------------------ *)
(* Quad                                                                *)
(* ------------------------------------------------------------------ *)

let test_gauss_legendre_polynomials () =
  (* n-point Gauss-Legendre is exact for degree 2n-1 *)
  let rule = Quad.gauss_legendre ~lo:(-1.0) ~hi:1.0 5 in
  approx ~tol:1e-12 "int 1" 2.0 (Quad.integrate rule (fun _ -> 1.0));
  approx ~tol:1e-12 "int x^2" (2.0 /. 3.0) (Quad.integrate rule (fun x -> x *. x));
  approx ~tol:1e-12 "int x^8"
    (2.0 /. 9.0)
    (Quad.integrate rule (fun x -> x ** 8.0));
  check_small ~tol:1e-12 "int x^3 (odd)" (Quad.integrate rule (fun x -> x *. x *. x))

let test_gauss_legendre_mapped () =
  let rule = Quad.gauss_legendre ~lo:0.0 ~hi:4.0 8 in
  approx ~tol:1e-10 "int x dx on [0,4]" 8.0 (Quad.integrate rule (fun x -> x))

let test_midpoint_converges () =
  let f x = exp (-.x) in
  let exact = 1.0 -. exp (-.1.0) in
  let e100 = Float.abs (Quad.integrate (Quad.midpoint ~lo:0.0 ~hi:1.0 100) f -. exact) in
  let e400 = Float.abs (Quad.integrate (Quad.midpoint ~lo:0.0 ~hi:1.0 400) f -. exact) in
  if e400 > e100 /. 8.0 then Alcotest.failf "midpoint not O(h^2): %g vs %g" e100 e400

let test_trapezoid_weights_sum () =
  let rule = Quad.trapezoid ~lo:2.0 ~hi:5.0 7 in
  approx ~tol:1e-12 "weights sum to length" 3.0 (Array.fold_left ( +. ) 0.0 rule.Quad.weights)

let test_log_spaced_integrates_one_over_x () =
  (* integral of 1/x over [1, e^2] = 2; log-spaced nodes handle this well *)
  let rule = Quad.log_spaced ~lo:1.0 ~hi:(exp 2.0) 400 in
  approx ~tol:2e-3 "int 1/x" 2.0 (Quad.integrate rule (fun x -> 1.0 /. x))

(* ------------------------------------------------------------------ *)
(* Waveform                                                            *)
(* ------------------------------------------------------------------ *)

let test_square_wave_levels () =
  let rng = Rng.create 3 in
  let w = Waveform.dithered_square ~rng ~period:2.0 ~dither:0.05 () in
  for k = 0 to 200 do
    let v = w (0.037 *. float_of_int k) in
    if v <> 0.0 && v <> 1.0 then Alcotest.failf "square level %g" v
  done

let test_square_wave_duty_cycle () =
  let rng = Rng.create 5 in
  let w = Waveform.dithered_square ~rng ~period:1.0 ~dither:0.05 () in
  let n = 10_000 in
  let high = ref 0 in
  for k = 0 to n - 1 do
    if w (20.0 *. float_of_int k /. float_of_int n) > 0.5 then incr high
  done;
  let duty = float_of_int !high /. float_of_int n in
  approx ~tol:0.08 "duty ~ 0.5" 0.5 duty

let test_sample_matrix_shape () =
  let rng = Rng.create 9 in
  let waves = Waveform.dithered_square_bank ~rng ~ports:4 ~period:1.0 ~dither:0.1 in
  let m = Waveform.sample_matrix waves ~t0:0.0 ~t1:3.0 ~samples:50 in
  Alcotest.(check (pair int int)) "shape" (4, 50) (Mat.dims m)

let test_correlated_ensemble_is_low_rank () =
  let rng = Rng.create 17 in
  let templates =
    [| (fun t -> sin t); (fun t -> sin (3.0 *. t)) |]
  in
  let waves = Waveform.correlated_ensemble ~rng ~ports:10 ~templates ~noise:0.0 in
  let m = Waveform.sample_matrix waves ~t0:0.0 ~t1:10.0 ~samples:200 in
  Alcotest.(check int) "rank 2" 2 (Svd.rank ~tol:1e-9 m)

(* ------------------------------------------------------------------ *)
(* Correlation                                                         *)
(* ------------------------------------------------------------------ *)

let test_correlation_matrix_identity_for_white () =
  (* independent gaussian rows: K ~ I *)
  let rng = Rng.create 23 in
  let u = Mat.init 4 20_000 (fun _ _ -> Rng.gaussian rng) in
  let k = Correlation.correlation_matrix u in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let expect = if i = j then 1.0 else 0.0 in
      approx ~tol:0.05 "K entry" expect (Mat.get k i j)
    done
  done

let test_analyse_matches_correlation_eigs () =
  let u = Mat.random ~seed:31 5 300 in
  let k = Correlation.correlation_matrix u in
  let eigs = Eig_sym.eigenvalues k in
  let { Correlation.sigmas; _ } = Correlation.analyse u in
  Array.iteri
    (fun i s -> approx ~tol:1e-8 "sigma^2 = eig(K)" eigs.(i) (s *. s))
    sigmas

let test_truncate_keeps_dominant () =
  (* rank-2 input ensemble plus nothing: truncation finds rank 2 *)
  let base = Mat.random ~seed:37 6 2 in
  let coeff = Mat.random ~seed:41 2 100 in
  let u = Mat.mul base coeff in
  let t = Correlation.truncate ~tol:1e-8 (Correlation.analyse u) in
  Alcotest.(check int) "2 directions" 2 t.Correlation.directions.Mat.cols

let test_draw_direction_in_span () =
  let base = Mat.random ~seed:43 6 2 in
  let coeff = Mat.random ~seed:47 2 100 in
  let u = Mat.mul base coeff in
  let t = Correlation.truncate ~tol:1e-8 (Correlation.analyse u) in
  let rng = Rng.create 51 in
  let d = Correlation.draw_direction ~rng t in
  (* d must lie in the column span of base *)
  let q = Qr.orth base in
  let proj = Mat.mv q (Mat.mv (Mat.transpose q) d) in
  check_small ~tol:1e-8 "draw in span" (Vec.max_abs_diff d proj)

let props =
  [
    QCheck2.Test.make ~name:"gauss-legendre weights are positive and sum to length" ~count:30
      QCheck2.Gen.(int_range 1 30)
      (fun n ->
        let rule = Quad.gauss_legendre ~lo:0.0 ~hi:1.0 n in
        Array.for_all (fun w -> w > 0.0) rule.Quad.weights
        && Float.abs (Array.fold_left ( +. ) 0.0 rule.Quad.weights -. 1.0) < 1e-10);
    QCheck2.Test.make ~name:"gauss-legendre nodes inside interval, ascending" ~count:30
      QCheck2.Gen.(int_range 1 30)
      (fun n ->
        let rule = Quad.gauss_legendre ~lo:2.0 ~hi:3.0 n in
        let ok = ref true in
        Array.iteri
          (fun i x ->
            if x <= 2.0 || x >= 3.0 then ok := false;
            if i > 0 && x <= rule.Quad.nodes.(i - 1) then ok := false)
          rule.Quad.nodes;
        !ok);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmtbr_signal"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed dependence" `Quick test_rng_seed_dependence;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
        ] );
      ( "quad",
        [
          Alcotest.test_case "gauss-legendre exactness" `Quick test_gauss_legendre_polynomials;
          Alcotest.test_case "mapped interval" `Quick test_gauss_legendre_mapped;
          Alcotest.test_case "midpoint order" `Quick test_midpoint_converges;
          Alcotest.test_case "trapezoid weights" `Quick test_trapezoid_weights_sum;
          Alcotest.test_case "log-spaced 1/x" `Quick test_log_spaced_integrates_one_over_x;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "square levels" `Quick test_square_wave_levels;
          Alcotest.test_case "duty cycle" `Quick test_square_wave_duty_cycle;
          Alcotest.test_case "sample matrix shape" `Quick test_sample_matrix_shape;
          Alcotest.test_case "correlated ensemble rank" `Quick test_correlated_ensemble_is_low_rank;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "white inputs" `Quick test_correlation_matrix_identity_for_white;
          Alcotest.test_case "analyse vs eig(K)" `Quick test_analyse_matches_correlation_eigs;
          Alcotest.test_case "truncate rank" `Quick test_truncate_keeps_dominant;
          Alcotest.test_case "draw in span" `Quick test_draw_direction_in_span;
        ] );
      ("properties", props);
    ]
