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

(* The finish projects the cache's own pencil, so a system other than
   the one the cache sampled — even an identical copy — is refused, and
   so is a basis lifted from a cache that has grown since. *)
let test_pmtbr_of_cache_refusals () =
  let cache = Sample_cache.create ~workers:1 (rc_line_sys ()) in
  Sample_cache.extend cache (Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:4);
  Alcotest.check_raises "foreign system"
    (Invalid_argument "Pmtbr.of_cache: sys is not the system the cache samples") (fun () ->
      ignore (Pmtbr.of_cache (rc_line_sys ()) cache ~scale:1.0 ~order:3 ~samples:4 ()));
  (* the lazily lifted basis reads the cache as it is when forced *)
  let sys = Sample_cache.system cache in
  let r = Pmtbr.of_cache sys cache ~scale:1.0 ~order:3 ~samples:4 () in
  Sample_cache.extend cache (Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:2);
  Alcotest.check_raises "basis forced after the cache grew"
    (Invalid_argument "Pmtbr.result.basis: the cache has grown since the finish") (fun () ->
      ignore (Lazy.force r.Pmtbr.basis))

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
    Subspace.max_angle exact4 (Lazy.force r.Pmtbr.basis)
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
  let r = Pmtbr.reduce ~order:24 sys (Sampling.points (Sampling.Bands [ (0.0, w_hi) ]) ~count:40) in
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
    Pmtbr.reduce ~order:10 sys (Sampling.points (Sampling.Bands [ (0.0, w_hi) ]) ~count:30)
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

(* ------------------------------------------------------------------ *)
(* Tall-cache finish in the cache's coordinates                        *)
(* ------------------------------------------------------------------ *)

(* Caches holding fewer columns than states: an RC mesh, an RC line, the
   spiral (RLC with coupled inductors: a non-symmetric A) and an 8-port
   substrate.  Each with the band it is sampled over. *)
let tall_cases =
  lazy
    [|
      (Dss.of_netlist (Rc_mesh.generate ~rows:7 ~cols:7 ~ports:2 ()), 1e10);
      (rc_line_sys (), rc_line_band);
      (Dss.of_netlist (Spiral.generate ~segments:6 ()), Spiral.sample_band ~segments:6 ());
      ( Dss.of_netlist (Substrate.generate ~ports:8 ~internal:100 ~seed:3 ()),
        4.0 *. Substrate.corner_frequency () );
    |]

let tall_cache sys pts =
  let cache = Sample_cache.create ~workers:1 sys in
  Sample_cache.extend cache pts;
  if Sample_cache.wide cache then Alcotest.fail "tall-cache case holds more columns than states";
  cache

let rom_bits rom =
  List.map (fun (m : Mat.t) -> m.Mat.data)
    [ Dss.e_dense rom; Dss.a_dense rom; Dss.b_matrix rom; Dss.c_matrix rom ]

(* [Pmtbr.of_cache] projects the cache's c x c Galerkin pencil onto the
   leading singular vectors U_q; projecting the full model onto the
   lifted basis V = Q U_q is the same model up to roundoff.  Both round
   at the scale of the matrices they project, so the entries are compared
   against the full model's largest entry: on the spiral at orders 1-2
   the ROM's E (capacitive, ~1e-14) is five decades below the inductive
   entries span(Q) also carries, and the difference measured against the
   ROM's own largest entry reaches ~1e-10 while it stays ~1e-15 of the
   full model's.  The transfer function is what the model is for, and it
   agrees to 1e-10 relative at four in-band points. *)
let prop_pencil_finish_matches_lifted_projection =
  QCheck2.Test.make ~name:"tall-cache finish == projection onto the lifted basis" ~count:16
    QCheck2.Gen.(triple (int_range 0 3) (int_range 3 4) (int_range 2 10))
    (fun (case, count, order) ->
      let sys, w_max = (Lazy.force tall_cases).(case) in
      let cache = tall_cache sys (Sampling.points (Sampling.Uniform { w_max }) ~count) in
      let r = Pmtbr.of_cache sys cache ~scale:1.0 ~order ~workers:1 ~samples:count () in
      let reference = Dss.project_congruence sys (Lazy.force r.Pmtbr.basis) in
      let entries_close f =
        Mat.max_abs (Mat.sub (f r.Pmtbr.rom) (f reference)) <= 1e-13 *. Mat.max_abs (f sys)
      in
      let om = Array.map (fun f -> f *. w_max) [| 0.1; 0.35; 0.6; 0.9 |] in
      entries_close Dss.e_dense && entries_close Dss.a_dense && entries_close Dss.b_matrix
      && entries_close Dss.c_matrix
      && Freq.max_rel_error (Freq.sweep reference om) (Freq.sweep r.Pmtbr.rom om) <= 1e-10)

(* The pencil is rebuilt whole whenever the cache has grown: finishing,
   extending and finishing again gives the bits of a cache that took
   every point in one batch. *)
let prop_pencil_rebuilt_after_extend =
  QCheck2.Test.make ~name:"finish, extend, finish == one-batch finish (bitwise)" ~count:12
    QCheck2.Gen.(triple (int_range 0 3) (int_range 1 3) (int_range 2 10))
    (fun (case, first, order) ->
      let sys, w_max = (Lazy.force tall_cases).(case) in
      let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:4 in
      let finish cache = Pmtbr.of_cache sys cache ~scale:1.0 ~order ~workers:1 ~samples:4 () in
      let grown = tall_cache sys (Array.sub pts 0 first) in
      ignore (finish grown);
      Sample_cache.extend grown (Array.sub pts first (4 - first));
      let a = finish grown and b = finish (tall_cache sys pts) in
      a.Pmtbr.singular_values = b.Pmtbr.singular_values
      && rom_bits a.Pmtbr.rom = rom_bits b.Pmtbr.rom)

(* ------------------------------------------------------------------ *)
(* The finish's decomposition, kept by the cache                        *)
(* ------------------------------------------------------------------ *)

(* A tall cache (an RC mesh: its SVD operand is the small factor R D) and
   a wide one (an 8-port substrate: the assembled ZW), each with the band
   it is sampled over and whether it is wide. *)
let memo_cases =
  lazy
    [|
      (Dss.of_netlist (Rc_mesh.generate ~rows:7 ~cols:7 ~ports:2 ()), 1e10, false);
      ( Dss.of_netlist (Substrate.generate ~ports:8 ~internal:20 ~seed:3 ()),
        4.0 *. Substrate.corner_frequency (),
        true );
    |]

let memo_cache sys pts ~wide =
  let cache = Sample_cache.create ~workers:1 sys in
  Sample_cache.extend cache pts;
  if Sample_cache.wide cache <> wide then
    Alcotest.failf "memo case: wide cache is %b, expected %b" (Sample_cache.wide cache) wide;
  cache

let svds cache = (Sample_cache.stats cache).Sample_cache.svds

let same_finish (a : Pmtbr.result) (b : Pmtbr.result) =
  a.Pmtbr.singular_values = b.Pmtbr.singular_values && rom_bits a.Pmtbr.rom = rom_bits b.Pmtbr.rom

(* Re-finishing one cache at any order and tolerance reads the
   decomposition its first finish built: every finish of the sequence
   has the bits of a fresh cache's finish, and the cache ran one SVD. *)
let prop_refinish_reads_the_memo =
  QCheck2.Test.make ~name:"re-finishes at any order/tol == fresh finishes, one SVD (bitwise)"
    ~count:6
    QCheck2.Gen.(
      pair (int_range 0 1)
        (list_size (int_range 2 5) (pair (opt (int_range 1 12)) (opt (int_range 2 12)))))
    (fun (case, finishes) ->
      let sys, w_max, wide = (Lazy.force memo_cases).(case) in
      let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:4 in
      let finish cache (order, tol_exp) =
        let tol = Option.map (fun e -> 10.0 ** -.float_of_int e) tol_exp in
        Pmtbr.of_cache sys cache ~scale:1.0 ?order ?tol ~workers:1 ~samples:4 ()
      in
      let cache = memo_cache sys pts ~wide in
      List.for_all
        (fun f -> same_finish (finish cache f) (finish (memo_cache sys pts ~wide) f))
        finishes
      && svds cache = 1)

(* The memo is stamped with the column count and the scale: a cache
   that grows after a finish (the adaptive loop's shape) decomposes its
   new column set, and so does a finish at another scale; each equals a
   fresh cache holding every point. *)
let test_memo_rebuilt_on_growth () =
  Array.iter
    (fun (sys, w_max, _) ->
      let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:6 in
      let finish cache ~scale = Pmtbr.of_cache sys cache ~scale ~order:4 ~workers:1 ~samples:6 () in
      let cache = Sample_cache.create ~workers:1 sys in
      Sample_cache.extend cache (Array.sub pts 0 3);
      ignore (finish cache ~scale:2.0);
      Sample_cache.extend cache (Array.sub pts 3 3);
      let grown = finish cache ~scale:1.0 in
      let fresh = Sample_cache.create ~workers:1 sys in
      Sample_cache.extend fresh pts;
      Alcotest.(check int) "one SVD per column set" 2 (svds cache);
      Alcotest.(check bool) "grown finish == one-batch finish (bitwise)" true
        (same_finish grown (finish fresh ~scale:1.0));
      let rescaled = finish cache ~scale:0.5 in
      Alcotest.(check int) "another scale decomposes again" 3 (svds cache);
      Alcotest.(check bool) "rescaled finish == fresh (bitwise)" true
        (same_finish rescaled (finish fresh ~scale:0.5)))
    (Lazy.force memo_cases)

(* Two domains finishing one shared cache at different orders (the
   daemon's hier parts are shared across networks) run one SVD between
   them, and each gets its sequential twin's bits. *)
let test_memo_shared_across_domains () =
  Array.iter
    (fun (sys, w_max, wide) ->
      let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:4 in
      let finish cache order = Pmtbr.of_cache sys cache ~scale:1.0 ~order ~workers:1 ~samples:4 () in
      let shared = memo_cache sys pts ~wide in
      let other = Domain.spawn (fun () -> finish shared 3) in
      let b = finish shared 6 in
      let a = Domain.join other in
      Alcotest.(check int) "one SVD between two domains" 1 (svds shared);
      Alcotest.(check bool) "order 3 == its sequential twin" true
        (same_finish a (finish (memo_cache sys pts ~wide) 3));
      Alcotest.(check bool) "order 6 == its sequential twin" true
        (same_finish b (finish (memo_cache sys pts ~wide) 6)))
    (Lazy.force memo_cases)

(* ------------------------------------------------------------------ *)
(* The method table                                                    *)
(* ------------------------------------------------------------------ *)

(* A small RC mesh and an RLC connector (mutual inductors) whose every
   node reaches ground capacitively and resistively, so every method of
   the table, exact TBR included, reduces both. *)
let method_networks =
  [
    (Rc_mesh.generate ~rows:4 ~cols:4 ~ports:2 (), 2e10);
    (Connector.generate ~pins:2 (), Connector.band_of_interest);
  ]

let bits rom = Marshal.to_string Dss.(e_dense rom, a_dense rom, b_matrix rom, c_matrix rom) []

(* One job, one answer: every entry of [Method.all] (and its adaptive
   run, where it reads [adaptive]) gives a bitwise-identical ROM on one
   worker and on two, on both networks and on full-axis and in-band
   sampling. *)
let prop_methods_worker_invariant =
  QCheck2.Test.make ~name:"every method: workers 1 == workers 2 (bitwise)" ~count:3
    QCheck2.Gen.(pair (int_range 3 6) bool)
    (fun (order, in_band) ->
      List.for_all
        (fun (nl, w) ->
          let band = ((if in_band then w /. 100.0 else 0.0), w) in
          List.for_all
            (fun (m : Method.t) ->
              List.for_all
                (fun adaptive ->
                  let o =
                    match
                      Method.validate m
                        { (Method.defaults ~band) with order = Some order; samples = 10; adaptive }
                    with
                    | Ok o -> o
                    | Error e -> Alcotest.failf "%s: %s" m.Method.name e
                  in
                  let rom workers = (m.Method.run (Method.source ~workers nl) o).Method.rom in
                  bits (rom (Some 1)) = bits (rom (Some 2))
                  || Alcotest.failf "%s (adaptive %b) differs across workers" m.Method.name adaptive)
                (false :: (if List.mem Method.Adaptive m.Method.reads then [ true ] else [])))
            Method.all)
        method_networks)

(* [tol] is the singular-value tail relative to sigma_0 for the exact-TBR
   family too: scaling a mesh's impedance by 1e-3 or 1e3 keeps its poles
   and its relative Hankel spectrum, so tbr-passive keeps one order at
   all three scales (Glover's absolute bound kept 11, 16 and 20). *)
let test_tbr_tol_scale_free () =
  let tbr_passive = Result.get_ok (Method.find "tbr-passive") in
  let order scale =
    let nl =
      Rc_mesh.generate ~rows:6 ~cols:6 ~ports:2 ~r:(100.0 *. scale) ~c:(1e-13 /. scale)
        ~r_leak:(1e4 *. scale) ()
    in
    let o = { (Method.defaults ~band:(0.0, 2e10)) with tol = Some 1e-6 } in
    Dss.order (tbr_passive.Method.run (Method.source ~workers:(Some 1) nl) o).Method.rom
  in
  let q = order 1.0 in
  Alcotest.(check (list int)) "one order at every scale" [ q; q; q ] [ order 1e-3; q; order 1e3 ]

(* order and tol together: the smaller of the order and what tol alone
   picks, for each exact-TBR method. *)
let test_tbr_order_capped_by_tol () =
  let nl = Rc_mesh.generate ~rows:6 ~cols:6 ~ports:2 () in
  List.iter
    (fun name ->
      let m = Result.get_ok (Method.find name) in
      let order ?order ?tol () =
        let o = { (Method.defaults ~band:(0.0, 2e10)) with order; tol } in
        Dss.order (m.Method.run (Method.source ~workers:(Some 1) nl) o).Method.rom
      in
      let by_tol = order ~tol:1e-6 () and by_small_tol = order ~tol:1e-2 () in
      Alcotest.(check int) (name ^ ": order 5, tol 1e-6") (min 5 by_tol) (order ~order:5 ~tol:1e-6 ());
      Alcotest.(check int) (name ^ ": order 5, tol 1e-2") (min 5 by_small_tol)
        (order ~order:5 ~tol:1e-2 ()))
    [ "tbr"; "tbr-lr"; "tbr-passive" ]

let props =
  [
    prop_methods_worker_invariant;
    prop_pencil_finish_matches_lifted_projection;
    prop_pencil_rebuilt_after_extend;
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
        let v = Lazy.force r.Pmtbr.basis in
        let g = Mat.mul (Mat.transpose v) v in
        Mat.frobenius (Mat.sub g (Mat.identity v.Mat.cols)) < 1e-8);
    prop_refinish_reads_the_memo;
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
          Alcotest.test_case "of_cache refusals" `Quick test_pmtbr_of_cache_refusals;
          Alcotest.test_case "singular values descending" `Quick test_pmtbr_singular_values_descending;
          Alcotest.test_case "tolerance controls order" `Quick test_pmtbr_tolerance_controls_order;
          Alcotest.test_case "hankel estimates converge" `Quick test_pmtbr_hankel_estimates_converge;
          Alcotest.test_case "subspace converges" `Quick test_pmtbr_subspace_converges;
          Alcotest.test_case "adaptive stops early" `Quick test_pmtbr_adaptive_stops_early;
          Alcotest.test_case "competitive with TBR" `Quick test_pmtbr_matches_tbr_subspace_quality;
          Alcotest.test_case "svd memo rebuilt on growth" `Quick test_memo_rebuilt_on_growth;
          Alcotest.test_case "svd memo shared across domains" `Quick
            test_memo_shared_across_domains;
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
      ( "method",
        [
          Alcotest.test_case "tbr tol is scale-free" `Quick test_tbr_tol_scale_free;
          Alcotest.test_case "tbr order capped by tol" `Quick test_tbr_order_capped_by_tol;
        ] );
      ( "error_est",
        [
          Alcotest.test_case "monotone" `Quick test_error_est_monotone;
          Alcotest.test_case "order_for" `Quick test_error_est_order_for;
          Alcotest.test_case "predicts pmtbr error" `Quick test_error_est_predicts_pmtbr_error;
        ] );
      ("properties", props);
    ]
