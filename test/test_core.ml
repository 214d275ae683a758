(* Tests for the PMTBR core: sampling, sample matrices, Algorithm 1-3, the
   cross-Gramian scheme, and the baselines (multipoint projection, PRIMA). *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_circuit
open Pmtbr_core
open Pmtbr_oracle

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

let rc_line_sys () = Dss.of_netlist (Rc_line.generate ~sections:30 ())
let rc_line_band = 3e9 (* rad/s: dominant dynamics of the default line *)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let test_sampling_counts () =
  let check scheme n expect =
    Alcotest.(check int) "count" expect (Array.length (Sampling.points scheme ~count:n))
  in
  check (Sampling.Uniform { w_max = 1.0 }) 10 10;
  check (Sampling.Gauss { w_max = 1.0 }) 7 7;
  check (Sampling.Log { w_min = 0.1; w_max = 10.0 }) 12 12;
  check (Sampling.Bands [ (0.0, 1.0); (2.0, 3.0) ]) 10 10

let test_sampling_weights_positive () =
  List.iter
    (fun scheme ->
      let pts = Sampling.points scheme ~count:20 in
      Array.iter (fun p -> if p.Sampling.weight <= 0.0 then Alcotest.fail "nonpositive weight") pts)
    [
      Sampling.Uniform { w_max = 5.0 };
      Sampling.Gauss { w_max = 5.0 };
      Sampling.Log { w_min = 0.1; w_max = 5.0 };
      Sampling.Bands [ (1.0, 2.0) ];
    ]

let test_sampling_band_restriction () =
  let pts = Sampling.points (Sampling.Bands [ (2.0, 3.0); (7.0, 8.0) ]) ~count:16 in
  Array.iter
    (fun p ->
      let w = p.Sampling.s.Complex.im in
      let inside = (w >= 2.0 && w <= 3.0) || (w >= 7.0 && w <= 8.0) in
      if not inside then Alcotest.failf "point %g outside bands" w)
    pts

let test_sampling_uniform_mass () =
  let pts = Sampling.points (Sampling.Uniform { w_max = 4.0 }) ~count:16 in
  check_small ~tol:1e-12 "mass = w_max" (Sampling.total_weight pts -. 4.0)

let test_spread_order_is_permutation () =
  List.iter
    (fun n ->
      let pts = Sampling.points (Sampling.Uniform { w_max = 1.0 }) ~count:n in
      let spread = Sampling.spread_order pts in
      Alcotest.(check int) "length" n (Array.length spread);
      let freqs p = List.sort compare (Array.to_list (Array.map (fun q -> q.Sampling.s.Complex.im) p)) in
      if freqs pts <> freqs spread then Alcotest.failf "not a permutation at n=%d" n)
    [ 1; 2; 3; 7; 8; 16; 33 ]

let test_spread_order_prefix_coverage () =
  (* the first quarter of the spread order must span most of the range *)
  let pts = Sampling.points (Sampling.Uniform { w_max = 1.0 }) ~count:32 in
  let spread = Sampling.spread_order pts in
  let prefix = Array.sub spread 0 8 in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  Array.iter
    (fun p ->
      let w = p.Sampling.s.Complex.im in
      lo := Float.min !lo w;
      hi := Float.max !hi w)
    prefix;
  Alcotest.(check bool) "prefix spans range" true (!hi -. !lo > 0.7)

let test_prefixes () =
  let pts = Sampling.points (Sampling.Uniform { w_max = 1.0 }) ~count:10 in
  let ps = Sampling.prefixes pts ~batch:4 in
  Alcotest.(check (list int)) "prefix sizes" [ 4; 8; 10 ] (List.map Array.length ps)

(* ------------------------------------------------------------------ *)
(* Zmat                                                                *)
(* ------------------------------------------------------------------ *)

let test_zmat_dims () =
  let sys = rc_line_sys () in
  let n = Dss.order sys in
  (* complex points contribute 2 columns per input, real points 1 *)
  let pts =
    [|
      { Sampling.s = { Complex.re = 0.0; im = 1e9 }; weight = 1.0 };
      { Sampling.s = { Complex.re = 0.0; im = 2e9 }; weight = 1.0 };
      { Sampling.s = Complex.zero; weight = 1.0 };
    |]
  in
  let z = Zmat.build sys pts in
  Alcotest.(check (pair int int)) "dims" (n, 5) (Mat.dims z)

let test_zmat_matches_direct_solve () =
  let sys = rc_line_sys () in
  let s = { Complex.re = 0.0; im = 1.5e9 } in
  let pts = [| { Sampling.s; weight = 4.0 } |] in
  let z = Zmat.build sys pts in
  let direct = (Dss.shifted_solve sys s).(0) in
  for i = 0 to Dss.order sys - 1 do
    check_small ~tol:1e-12 "re col" (Mat.get z i 0 -. (2.0 *. direct.(i).Complex.re));
    check_small ~tol:1e-12 "im col" (Mat.get z i 1 -. (2.0 *. direct.(i).Complex.im))
  done

let test_zmat_left_samples () =
  (* for the symmetric RC case, left and right samples span the same space *)
  let sys = Dss.symmetrize_rc (rc_line_sys ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:4 in
  let zr = Zmat.build sys pts and zl = Zmat.build_left sys pts in
  check_small ~tol:1e-6 "left = right span (symmetric)" (Subspace.max_angle zr zl)

(* ------------------------------------------------------------------ *)
(* PMTBR (Algorithm 1)                                                 *)
(* ------------------------------------------------------------------ *)

let test_pmtbr_accuracy_on_rc_line () =
  let sys = rc_line_sys () in
  let r = Pmtbr.reduce_uniform ~order:10 sys ~w_max:rc_line_band ~count:25 in
  let om = Vec.linspace 0.0 rc_line_band 40 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Pmtbr.rom om) in
  if err > 1e-8 then Alcotest.failf "PMTBR order-10 error too large: %g" err

let test_pmtbr_order_cap_respected () =
  let sys = rc_line_sys () in
  let r = Pmtbr.reduce_uniform ~order:5 sys ~w_max:rc_line_band ~count:20 in
  Alcotest.(check bool) "order <= 5" true (Dss.order r.Pmtbr.rom <= 5)

let test_pmtbr_singular_values_descending () =
  let sys = rc_line_sys () in
  let r = Pmtbr.reduce_uniform sys ~w_max:rc_line_band ~count:15 in
  let s = r.Pmtbr.singular_values in
  for i = 1 to Array.length s - 1 do
    if s.(i) > s.(i - 1) +. 1e-12 then Alcotest.fail "not descending"
  done

let test_pmtbr_tolerance_controls_order () =
  let sys = rc_line_sys () in
  let loose = Pmtbr.reduce_uniform ~tol:1e-2 sys ~w_max:rc_line_band ~count:25 in
  let tight = Pmtbr.reduce_uniform ~tol:1e-10 sys ~w_max:rc_line_band ~count:25 in
  Alcotest.(check bool) "tighter tol -> larger order" true
    (Dss.order tight.Pmtbr.rom >= Dss.order loose.Pmtbr.rom)

let test_pmtbr_hankel_estimates_converge () =
  (* small symmetric standard system: estimates must converge to eig(X) *)
  let n = 6 in
  let m = Mat.random ~seed:5 n n in
  let mmt = Mat.mul m (Mat.transpose m) in
  let a = Mat.init n n (fun i j -> -.(Mat.get mmt i j) -. if i = j then 1.0 else 0.0) in
  let b = Mat.random ~seed:9 n 1 in
  let sys = Dss.of_standard ~a ~b ~c:(Mat.transpose b) in
  let hsv = Tbr.hankel_singular_values ~a ~b ~c:(Mat.transpose b) () in
  let pts = Sampling.points (Sampling.Gauss { w_max = 2000.0 }) ~count:1500 in
  let est = Pmtbr.hankel_estimates sys pts in
  for i = 0 to 2 do
    let ratio = est.(i) /. hsv.(i) in
    if Float.abs (ratio -. 1.0) > 0.05 then
      Alcotest.failf "hankel estimate %d off: ratio %g" i ratio
  done

let test_pmtbr_subspace_converges () =
  (* the PMTBR basis approaches the dominant Gramian eigenspace *)
  let sys = Dss.symmetrize_rc (Dss.of_netlist (Rc_line.generate ~sections:20 ())) in
  let a, b, c = Dss.to_standard sys in
  ignore c;
  let x = Gramian.controllability ~a ~b () in
  let _, vx = Eig_sym.decompose x in
  let exact4 = Mat.sub_cols vx 0 4 in
  let angle count =
    let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e12 }) ~count in
    let r = Pmtbr.reduce ~order:4 sys pts in
    Subspace.max_angle exact4 r.Pmtbr.basis
  in
  let a8 = angle 8 and a64 = angle 64 in
  if a64 > 0.05 then Alcotest.failf "subspace not converged: %g rad" a64;
  if a64 > a8 +. 1e-9 then Alcotest.failf "angle grew with samples: %g -> %g" a8 a64

let test_pmtbr_adaptive_stops_early () =
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:64 in
  let r = Pmtbr.reduce_adaptive ~tol:1e-8 ~batch:8 sys pts in
  Alcotest.(check bool) "used fewer than all samples" true (r.Pmtbr.samples < 64);
  let om = Vec.linspace 0.0 rc_line_band 30 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Pmtbr.rom om) in
  if err > 1e-5 then Alcotest.failf "adaptive PMTBR inaccurate: %g" err

let test_pmtbr_matches_tbr_subspace_quality () =
  (* PMTBR at the same order should be within a small factor of TBR's
     response error on an RC circuit *)
  let sys = rc_line_sys () in
  let om = Vec.linspace 0.0 rc_line_band 30 in
  let href = Freq.sweep sys om in
  let t = Tbr.reduce_dss ~order:6 sys in
  let p = Pmtbr.reduce_uniform ~order:6 sys ~w_max:rc_line_band ~count:30 in
  let err_tbr = Freq.max_rel_error href (Freq.sweep t.Tbr.rom om) in
  let err_pm = Freq.max_rel_error href (Freq.sweep p.Pmtbr.rom om) in
  (* in-band, PMTBR is typically better; allow a generous factor anyway *)
  if err_pm > 100.0 *. err_tbr +. 1e-12 then
    Alcotest.failf "PMTBR much worse than TBR in band: %g vs %g" err_pm err_tbr

(* ------------------------------------------------------------------ *)
(* Frequency-selective (Algorithm 2)                                   *)
(* ------------------------------------------------------------------ *)

let test_freq_selective_in_band_accuracy () =
  let sys = Dss.of_netlist (Peec.generate ~cells:12 ()) in
  let w_hi = Peec.sample_band () /. 3.0 in
  let bands = [ Freq_selective.band ~lo:0.0 ~hi:w_hi ] in
  let r = Freq_selective.reduce ~order:24 sys ~bands ~count:40 in
  let om_in = Vec.linspace (w_hi /. 50.0) w_hi 40 in
  let err_in = Freq.max_rel_error (Freq.sweep sys om_in) (Freq.sweep r.Pmtbr.rom om_in) in
  if err_in > 1e-3 then Alcotest.failf "in-band error too large: %g" err_in

let test_freq_selective_prefers_band () =
  (* compare in-band error of a band-restricted model against a model of the
     same size sampled over a 3x wider range *)
  let sys = Dss.of_netlist (Peec.generate ~cells:12 ()) in
  let w_hi = Peec.sample_band () /. 4.0 in
  let om_in = Vec.linspace (w_hi /. 50.0) w_hi 30 in
  let href = Freq.sweep sys om_in in
  let banded =
    Freq_selective.reduce ~order:10 sys ~bands:[ Freq_selective.band ~lo:0.0 ~hi:w_hi ] ~count:30
  in
  let wide = Pmtbr.reduce_uniform ~order:10 sys ~w_max:(4.0 *. w_hi) ~count:30 in
  let err_banded = Freq.max_rel_error href (Freq.sweep banded.Pmtbr.rom om_in) in
  let err_wide = Freq.max_rel_error href (Freq.sweep wide.Pmtbr.rom om_in) in
  if err_banded > err_wide *. 2.0 +. 1e-12 then
    Alcotest.failf "band-restricted sampling not better in band: %g vs %g" err_banded err_wide

(* ------------------------------------------------------------------ *)
(* Input-correlated (Algorithm 3)                                      *)
(* ------------------------------------------------------------------ *)

let correlated_inputs ~ports ~seed =
  let rng = Pmtbr_signal.Rng.create seed in
  let waves =
    Pmtbr_signal.Waveform.correlated_ensemble ~rng ~ports
      ~templates:[| (fun t -> sin (1e9 *. t)); (fun t -> Float.max 0.0 (sin (3e8 *. t))) |]
      ~noise:0.001
  in
  Pmtbr_signal.Waveform.sample_matrix waves ~t0:0.0 ~t1:50e-9 ~samples:300

let test_input_correlated_rank_detection () =
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:5 ~cols:5 ~ports:8 ()) in
  let inputs = correlated_inputs ~ports:8 ~seed:3 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e9 }) ~count:10 in
  let r = Input_correlated.reduce ~input_tol:1e-2 sys ~inputs ~points:pts ~draws:20 in
  Alcotest.(check bool) "input rank small" true (r.Input_correlated.input_rank <= 3)

let test_input_correlated_smaller_than_white () =
  (* for strongly correlated inputs, the sampled correlated Gramian decays
     faster than the white-input one at matched sample counts *)
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:5 ~cols:5 ~ports:8 ()) in
  let inputs = correlated_inputs ~ports:8 ~seed:5 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e9 }) ~count:12 in
  let corr = Input_correlated.reduce ~input_tol:1e-2 sys ~inputs ~points:pts ~draws:24 in
  let white = Pmtbr.reduce sys pts in
  let decay s k = if Array.length s > k then s.(k) /. Float.max s.(0) 1e-300 else 0.0 in
  let d_corr = decay corr.Input_correlated.singular_values 10 in
  let d_white = decay white.Pmtbr.singular_values 10 in
  if d_corr > d_white then
    Alcotest.failf "correlated sampling does not decay faster: %g vs %g" d_corr d_white

let test_input_correlated_deterministic_variant () =
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:4 ~cols:4 ~ports:6 ()) in
  let inputs = correlated_inputs ~ports:6 ~seed:7 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e9 }) ~count:8 in
  let r = Input_correlated.reduce_deterministic ~input_tol:1e-2 ~order:6 sys ~inputs ~points:pts in
  Alcotest.(check bool) "order <= 6" true (Dss.order r.Input_correlated.rom <= 6);
  Alcotest.(check bool) "input rank recorded" true (r.Input_correlated.input_rank >= 1)

(* ------------------------------------------------------------------ *)
(* Cross-Gramian                                                       *)
(* ------------------------------------------------------------------ *)

let test_cross_gramian_accuracy () =
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:12 in
  let r = Cross_gramian.reduce ~order:8 sys pts in
  let om = Vec.linspace 0.0 rc_line_band 30 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Cross_gramian.rom om) in
  if err > 1e-6 then Alcotest.failf "cross-gramian reduction inaccurate: %g" err

let test_cross_gramian_eigenvalues_sorted () =
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:8 in
  let r = Cross_gramian.reduce ~order:4 sys pts in
  let evs = r.Cross_gramian.eigenvalues in
  for i = 1 to Array.length evs - 1 do
    if Complex.norm evs.(i) > Complex.norm evs.(i - 1) +. 1e-12 then
      Alcotest.fail "eigenvalues not sorted by magnitude"
  done

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_multipoint_interpolates () =
  (* rational projection reproduces the transfer function at its own sample
     points (moment-matching property of projection with z_k in the basis) *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:6 in
  let r = Multipoint.reduce sys pts ~count:6 in
  Array.iter
    (fun p ->
      let h_full = Freq.eval sys p.Sampling.s in
      let h_rom = Freq.eval r.Multipoint.rom p.Sampling.s in
      let scale = Float.max 1e-300 (Cmat.max_abs h_full) in
      if Cmat.max_abs (Cmat.sub h_full h_rom) /. scale > 1e-7 then
        Alcotest.failf "no interpolation at sample point %g" p.Sampling.s.Complex.im)
    pts

let test_pmtbr_more_compact_than_multipoint () =
  (* Fig. 10's methodology: at equal model order q, PMTBR (many samples,
     SVD-truncated to q) is at least as accurate as multipoint projection
     (q/2 points, all columns kept) *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:24 in
  let om = Vec.linspace 0.0 rc_line_band 30 in
  let href = Freq.sweep sys om in
  let q = 6 in
  let mp = Multipoint.reduce sys (Sampling.spread_order pts) ~count:(q / 2) in
  let pm = Pmtbr.reduce ~order:q sys pts in
  let err_mp = Freq.max_rel_error href (Freq.sweep mp.Multipoint.rom om) in
  let err_pm = Freq.max_rel_error href (Freq.sweep pm.Pmtbr.rom om) in
  if err_pm > (err_mp *. 1.5) +. 1e-15 then
    Alcotest.failf "PMTBR less accurate at equal order: %g vs %g" err_pm err_mp

let test_prima_matches_at_expansion_point () =
  let sys = rc_line_sys () in
  let s0 = 1e8 in
  let r = Prima.reduce sys ~s0 ~moments:4 in
  let h_full = Freq.eval sys { Complex.re = s0; im = 0.0 } in
  let h_rom = Freq.eval r.Prima.rom { Complex.re = s0; im = 0.0 } in
  let scale = Float.max 1e-300 (Cmat.max_abs h_full) in
  check_small ~tol:1e-7 "match at s0" (Cmat.max_abs (Cmat.sub h_full h_rom) /. scale)

let test_prima_block_structure () =
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:4 ~cols:4 ~ports:3 ()) in
  let r = Prima.reduce sys ~s0:1e9 ~moments:2 in
  (* order grows in blocks of the port count *)
  Alcotest.(check bool) "order <= moments * ports" true (r.Prima.basis.Mat.cols <= 6);
  Alcotest.(check bool) "order > ports" true (r.Prima.basis.Mat.cols > 3)

let test_prima_convergence_with_moments () =
  let sys = rc_line_sys () in
  let om = Vec.linspace 0.0 rc_line_band 25 in
  let href = Freq.sweep sys om in
  let err m =
    let r = Prima.reduce sys ~s0:(rc_line_band /. 10.0) ~moments:m in
    Freq.max_rel_error href (Freq.sweep r.Prima.rom om)
  in
  let e2 = err 2 and e8 = err 8 in
  if e8 > e2 /. 10.0 then Alcotest.failf "PRIMA not converging: %g -> %g" e2 e8

(* ------------------------------------------------------------------ *)
(* Error estimation                                                    *)
(* ------------------------------------------------------------------ *)

let test_error_est_monotone () =
  let sigma = [| 5.0; 2.0; 0.5; 0.01 |] in
  let curve = Error_est.curve sigma in
  Alcotest.(check int) "length" 5 (Array.length curve);
  for i = 1 to 4 do
    if curve.(i) > curve.(i - 1) then Alcotest.fail "estimate not decreasing"
  done;
  check_small "exact at full order" curve.(4)

let test_error_est_order_for () =
  let sigma = [| 1.0; 0.1; 0.01; 0.001 |] in
  let q, met = Error_est.order_for sigma ~tol:0.02 in
  (* tail after q=2: 2*(0.01+0.001)/2 = 0.011 <= 0.02 *)
  Alcotest.(check int) "order" 2 q;
  Alcotest.(check bool) "met" true met;
  (* an unmeetable tolerance must be flagged instead of silently
     reporting the last order as satisfying it *)
  let q, met = Error_est.order_for sigma ~tol:(-1.0) in
  Alcotest.(check int) "fallback order" 4 q;
  Alcotest.(check bool) "unmet flagged" false met

let test_error_est_predicts_pmtbr_error () =
  (* the singular-value estimate should be within a couple of orders of
     magnitude of the true response error (Fig. 9's "very good" claim, with
     slack for the normalisation differences) *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:30 in
  let om = Vec.linspace 0.0 rc_line_band 30 in
  let href = Freq.sweep sys om in
  let all = Pmtbr.reduce ~tol:1e-14 sys pts in
  let sigma = all.Pmtbr.singular_values in
  List.iter
    (fun q ->
      let r = Pmtbr.reduce ~order:q sys pts in
      let err = Freq.max_rel_error href (Freq.sweep r.Pmtbr.rom om) in
      let est = (Error_est.normalized_curve sigma).(q) in
      if err > 1e-12 && est > 1e-16 then begin
        let ratio = err /. est in
        if ratio > 1e3 || ratio < 1e-4 then
          Alcotest.failf "estimate far from error at q=%d: err %g est %g" q err est
      end)
    [ 3; 5; 7 ]

let props =
  [
    QCheck2.Test.make ~name:"PMTBR error shrinks with order" ~count:8
      QCheck2.Gen.(int_range 10 30)
      (fun sections ->
        let sys = Dss.of_netlist (Rc_line.generate ~sections ()) in
        let om = Vec.linspace 0.0 rc_line_band 15 in
        let href = Freq.sweep sys om in
        let err q =
          let r = Pmtbr.reduce_uniform ~order:q sys ~w_max:rc_line_band ~count:20 in
          Freq.max_rel_error href (Freq.sweep r.Pmtbr.rom om)
        in
        err 8 <= (err 3 *. 1.5) +. 1e-15);
    QCheck2.Test.make ~name:"basis is orthonormal" ~count:8
      QCheck2.Gen.(int_range 0 100)
      (fun seed ->
        let sys = Dss.of_netlist (Rc_mesh.generate ~rows:4 ~cols:4 ~ports:2 ()) in
        let count = 5 + (seed mod 8) in
        let r = Pmtbr.reduce_uniform ~order:6 sys ~w_max:1e10 ~count in
        let v = r.Pmtbr.basis in
        let g = Mat.mul (Mat.transpose v) v in
        Mat.frobenius (Mat.sub g (Mat.identity v.Mat.cols)) < 1e-8);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmtbr_core"
    [
      ( "sampling",
        [
          Alcotest.test_case "counts" `Quick test_sampling_counts;
          Alcotest.test_case "weights positive" `Quick test_sampling_weights_positive;
          Alcotest.test_case "band restriction" `Quick test_sampling_band_restriction;
          Alcotest.test_case "uniform mass" `Quick test_sampling_uniform_mass;
          Alcotest.test_case "spread is permutation" `Quick test_spread_order_is_permutation;
          Alcotest.test_case "spread prefix coverage" `Quick test_spread_order_prefix_coverage;
          Alcotest.test_case "prefixes" `Quick test_prefixes;
        ] );
      ( "zmat",
        [
          Alcotest.test_case "dims" `Quick test_zmat_dims;
          Alcotest.test_case "matches direct solve" `Quick test_zmat_matches_direct_solve;
          Alcotest.test_case "left samples" `Quick test_zmat_left_samples;
        ] );
      ( "pmtbr",
        [
          Alcotest.test_case "rc line accuracy" `Quick test_pmtbr_accuracy_on_rc_line;
          Alcotest.test_case "order cap" `Quick test_pmtbr_order_cap_respected;
          Alcotest.test_case "singular values descending" `Quick test_pmtbr_singular_values_descending;
          Alcotest.test_case "tolerance controls order" `Quick test_pmtbr_tolerance_controls_order;
          Alcotest.test_case "hankel estimates converge" `Quick test_pmtbr_hankel_estimates_converge;
          Alcotest.test_case "subspace converges" `Quick test_pmtbr_subspace_converges;
          Alcotest.test_case "adaptive stops early" `Quick test_pmtbr_adaptive_stops_early;
          Alcotest.test_case "competitive with TBR" `Quick test_pmtbr_matches_tbr_subspace_quality;
        ] );
      ( "freq_selective",
        [
          Alcotest.test_case "in-band accuracy" `Quick test_freq_selective_in_band_accuracy;
          Alcotest.test_case "prefers band" `Quick test_freq_selective_prefers_band;
        ] );
      ( "input_correlated",
        [
          Alcotest.test_case "rank detection" `Quick test_input_correlated_rank_detection;
          Alcotest.test_case "decays faster than white" `Quick test_input_correlated_smaller_than_white;
          Alcotest.test_case "deterministic variant" `Quick test_input_correlated_deterministic_variant;
        ] );
      ( "cross_gramian",
        [
          Alcotest.test_case "accuracy" `Quick test_cross_gramian_accuracy;
          Alcotest.test_case "eigenvalues sorted" `Quick test_cross_gramian_eigenvalues_sorted;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "multipoint interpolates" `Quick test_multipoint_interpolates;
          Alcotest.test_case "pmtbr more compact" `Quick test_pmtbr_more_compact_than_multipoint;
          Alcotest.test_case "prima matches at s0" `Quick test_prima_matches_at_expansion_point;
          Alcotest.test_case "prima block structure" `Quick test_prima_block_structure;
          Alcotest.test_case "prima converges" `Quick test_prima_convergence_with_moments;
        ] );
      ( "error_est",
        [
          Alcotest.test_case "monotone" `Quick test_error_est_monotone;
          Alcotest.test_case "order_for" `Quick test_error_est_order_for;
          Alcotest.test_case "predicts pmtbr error" `Quick test_error_est_predicts_pmtbr_error;
        ] );
      ("properties", props);
    ]
