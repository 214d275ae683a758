(* Tests for the extension modules: stability/passivity analysis, the
   SPICE-dialect reader/writer, the two-step PRIMA+TBR baseline, the
   time-sampled (POD) variant, RRQR order control, frequency weighting, and
   the extra circuit generators. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_circuit
open Pmtbr_core

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

let approx ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Stability / passivity                                               *)
(* ------------------------------------------------------------------ *)

let test_poles_one_pole () =
  (* single RC node: pole at -1/(RC) *)
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 2.0;
  Netlist.add_c nl 1 0 0.25;
  ignore (Netlist.add_port nl 1);
  let sys = Dss.of_netlist nl in
  let dense = Dss.of_dense ~e:(Dss.e_dense sys) ~a:(Dss.a_dense sys)
      ~b:(Dss.b_matrix sys) ~c:(Dss.c_matrix sys) in
  let p = Stability.poles dense in
  Alcotest.(check int) "one pole" 1 (Array.length p);
  approx ~tol:1e-9 "pole location" (-2.0) p.(0).Complex.re;
  check_small "pole imaginary" p.(0).Complex.im

let test_reduced_models_stable () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let pm = Pmtbr.reduce_uniform ~order:8 sys ~w_max:3e9 ~count:20 in
  Alcotest.(check bool) "pmtbr rom stable" true (Stability.is_stable ~tol:1e-3 pm.Pmtbr.rom);
  let tbr = Tbr.reduce_dss ~order:8 sys in
  Alcotest.(check bool) "tbr rom stable" true (Stability.is_stable ~tol:1e-3 tbr.Tbr.rom)

let test_congruence_rc_certificate () =
  (* congruence projection of an RC system: E SPD, A NSD certified *)
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:5 ~cols:5 ~ports:2 ()) in
  let pm = Pmtbr.reduce_uniform ~order:6 sys ~w_max:1e10 ~count:12 in
  (match Stability.rc_structure_certificate pm.Pmtbr.rom with
  | Some true -> ()
  | Some false -> Alcotest.fail "congruence-reduced RC model lost its structure"
  | None -> Alcotest.fail "reduced RC model should be symmetric")

let test_passivity_of_rc_models () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:20 ()) in
  let pm = Pmtbr.reduce_uniform ~order:6 sys ~w_max:3e9 ~count:15 in
  let omegas = Vec.linspace 0.0 1e10 25 in
  let report = Stability.check_passivity pm.Pmtbr.rom ~omegas in
  if not report.Stability.passive then
    Alcotest.failf "RC congruence model not passive: worst %g at %g" report.Stability.worst
      report.Stability.worst_omega

let test_passivity_detects_active_system () =
  (* an artificial model with a negative resistance is not positive-real *)
  let a = Mat.of_arrays [| [| -1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0 |] |] in
  let c = Mat.of_arrays [| [| -2.0 |] |] in
  (* H(jw) = -2/(jw+1): Re part negative *)
  let sys = Dss.of_standard ~a ~b ~c in
  let report = Stability.check_passivity sys ~omegas:(Vec.linspace 0.0 10.0 11) in
  Alcotest.(check bool) "active flagged" false report.Stability.passive

let test_hermitian_min_eig () =
  (* H = diag(3, -1) is Hermitian; min eig of Hermitian part = -1 *)
  let h =
    Cmat.of_mat (Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; -1.0 |] |])
  in
  approx ~tol:1e-9 "min eig" (-1.0) (Stability.hermitian_part_min_eig h)

(* ------------------------------------------------------------------ *)
(* SPICE reader / writer                                               *)
(* ------------------------------------------------------------------ *)

let test_spice_values () =
  approx "plain" 12.5 (Spice.parse_value ~line:1 "12.5");
  approx "pico" 3e-12 (Spice.parse_value ~line:1 "3p");
  approx "nano" 1.5e-9 (Spice.parse_value ~line:1 "1.5n");
  approx "kilo" 2000.0 (Spice.parse_value ~line:1 "2k");
  approx "meg" 4.7e6 (Spice.parse_value ~line:1 "4.7meg");
  approx "exponent" 2.5e-3 (Spice.parse_value ~line:1 "2.5e-3");
  (try
     ignore (Spice.parse_value ~line:3 "abc");
     Alcotest.fail "expected Parse_error"
   with Spice.Parse_error (3, _) -> ())

let sample_deck =
  "* small RC divider\n\
   R1 in mid 1k\n\
   R2 mid 0 1k\n\
   C1 mid gnd 1p\n\
   .port in\n\
   .end\n"

let test_spice_parse () =
  let t = Spice.parse_string sample_deck in
  let nl = Spice.netlist t in
  let r, c, l, k = Netlist.stats nl in
  Alcotest.(check int) "resistors" 2 r;
  Alcotest.(check int) "caps" 1 c;
  Alcotest.(check int) "inductors" 0 l;
  Alcotest.(check int) "mutuals" 0 k;
  Alcotest.(check int) "ports" 1 (Netlist.port_count nl);
  (* DC input resistance = R1 + R2 = 2k *)
  let sys = Dss.of_netlist nl in
  let h = Freq.eval sys { Complex.re = 1.0; im = 0.0 } in
  approx ~tol:1e-3 "dc resistance" 2000.0 (Cmat.get h 0 0).Complex.re

let test_spice_mutual () =
  let deck = "L1 1 0 1n\nL2 2 0 4n\nK1 L1 L2 0.5\nC1 1 0 1p\nC2 2 0 1p\nR1 1 0 10\nR2 2 0 10\n.port 1\n" in
  let nl = Spice.netlist (Spice.parse_string deck) in
  let _, _, l, k = Netlist.stats nl in
  Alcotest.(check int) "two inductors" 2 l;
  Alcotest.(check int) "one mutual" 1 k

let test_spice_roundtrip () =
  let original = Spiral.generate ~segments:5 () in
  let text = Spice.to_string original in
  let reparsed = Spice.netlist (Spice.parse_string text) in
  (* responses must agree *)
  let s1 = Dss.of_netlist original and s2 = Dss.of_netlist reparsed in
  let om = Vec.linspace 1e8 1e10 9 in
  check_small ~tol:1e-9 "roundtrip response"
    (Freq.max_rel_error (Freq.sweep s1 om) (Freq.sweep s2 om))

let test_spice_errors () =
  let bad_cards = [ "R1 1 0"; "Q1 1 0 2"; ".port 1 2"; "K1 L9 L8 0.5" ] in
  List.iter
    (fun card ->
      try
        ignore (Spice.parse_string (card ^ "\n"));
        Alcotest.failf "expected Parse_error for %s" card
      with Spice.Parse_error _ -> ())
    bad_cards

(* ------------------------------------------------------------------ *)
(* Two-step PRIMA + TBR                                                *)
(* ------------------------------------------------------------------ *)

let test_two_step_accuracy () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:40 ()) in
  let r = Two_step.reduce sys ~s0:3e8 ~intermediate:20 ~order:8 () in
  Alcotest.(check int) "intermediate order" 20 r.Two_step.intermediate_order;
  Alcotest.(check bool) "final order <= 8" true (Dss.order r.Two_step.rom <= 8);
  let om = Vec.linspace 0.0 3e9 25 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Two_step.rom om) in
  if err > 1e-4 then Alcotest.failf "two-step inaccurate: %g" err

let test_two_step_vs_pmtbr () =
  (* PMTBR in one pass should be at least as accurate as the two-step
     pipeline at equal final order *)
  let sys = Dss.of_netlist (Rc_line.generate ~sections:40 ()) in
  let om = Vec.linspace 0.0 3e9 25 in
  let href = Freq.sweep sys om in
  let two = Two_step.reduce sys ~s0:3e8 ~intermediate:16 ~order:6 () in
  let pm = Pmtbr.reduce_uniform ~order:6 sys ~w_max:3e9 ~count:25 in
  let e_two = Freq.max_rel_error href (Freq.sweep two.Two_step.rom om) in
  let e_pm = Freq.max_rel_error href (Freq.sweep pm.Pmtbr.rom om) in
  if e_pm > 10.0 *. e_two +. 1e-14 then
    Alcotest.failf "PMTBR much worse than two-step: %g vs %g" e_pm e_two

(* ------------------------------------------------------------------ *)
(* Time-sampled (POD)                                                  *)
(* ------------------------------------------------------------------ *)

let test_time_sampled_step_training () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let u _ = [| 1e-3 |] in
  let r = Time_sampled.reduce ~order:8 sys ~u ~t1:20e-9 ~dt:0.02e-9 ~snapshots:100 in
  Alcotest.(check bool) "order <= 8" true (Dss.order r.Time_sampled.rom <= 8);
  (* the reduced model must reproduce the training trajectory *)
  let full = Tdsim.simulate sys ~t0:0.0 ~t1:20e-9 ~dt:0.02e-9 ~u in
  let red = Tdsim.simulate r.Time_sampled.rom ~t0:0.0 ~t1:20e-9 ~dt:0.02e-9 ~u in
  let scale = Mat.max_abs full.Tdsim.outputs in
  if Tdsim.output_error full red > 1e-3 *. scale then Alcotest.fail "POD training error too large"

let test_time_sampled_singular_values_decay () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let u t = [| (if t > 0.0 then 1e-3 else 0.0) |] in
  let r = Time_sampled.reduce ~order:10 sys ~u ~t1:20e-9 ~dt:0.02e-9 ~snapshots:80 in
  let s = r.Time_sampled.singular_values in
  Alcotest.(check bool) "decays fast" true (s.(8) < 1e-4 *. s.(0))

(* ------------------------------------------------------------------ *)
(* RRQR order control and frequency weighting                          *)
(* ------------------------------------------------------------------ *)

let test_rrqr_adaptive () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:30 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 3e9 }) ~count:64 in
  let r = Pmtbr.reduce_adaptive_rrqr ~tol:1e-8 ~batch:8 sys pts in
  Alcotest.(check bool) "stops early" true (r.Pmtbr.samples < 64);
  let om = Vec.linspace 0.0 3e9 25 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Pmtbr.rom om) in
  if err > 1e-5 then Alcotest.failf "rrqr-adaptive inaccurate: %g" err

let test_reweight_scales_weights () =
  let pts = Sampling.points (Sampling.Uniform { w_max = 10.0 }) ~count:5 in
  let doubled = Sampling.reweight (fun _ -> 2.0) pts in
  approx ~tol:1e-12 "mass doubled" (2.0 *. Sampling.total_weight pts)
    (Sampling.total_weight doubled)

let test_reweight_changes_emphasis () =
  (* weighting towards high frequency should change the leading basis
     direction measurably on a system with distinct frequency regimes *)
  let sys = Dss.of_netlist (Peec.generate ~cells:8 ()) in
  let w_max = Peec.sample_band () /. 2.0 in
  let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:16 in
  let low = Sampling.reweight (fun w -> if w < w_max /. 2.0 then 1.0 else 1e-6) pts in
  let high = Sampling.reweight (fun w -> if w >= w_max /. 2.0 then 1.0 else 1e-6) pts in
  let b1 = Lazy.force (Pmtbr.reduce ~order:4 sys low).Pmtbr.basis in
  let b2 = Lazy.force (Pmtbr.reduce ~order:4 sys high).Pmtbr.basis in
  let angle = Subspace.max_angle b1 b2 in
  Alcotest.(check bool) "different subspaces" true (angle > 0.1)

(* ------------------------------------------------------------------ *)
(* H-infinity norm                                                     *)
(* ------------------------------------------------------------------ *)

let test_hinf_one_pole () =
  (* ||b c/(s + a)||_inf = |b c| / a, peak at omega = 0 *)
  let a = Mat.of_arrays [| [| -4.0 |] |] in
  let b = Mat.of_arrays [| [| 2.0 |] |] in
  let c = Mat.of_arrays [| [| 3.0 |] |] in
  approx ~tol:1e-3 "one pole" 1.5 (Hinf.norm ~a ~b ~c ())

let test_hinf_resonant () =
  (* second-order resonator x'' + 2 zeta w0 x' + w0^2 x = u, y = x:
     peak gain = 1 / (2 zeta w0^2 sqrt(1 - zeta^2)) *)
  let w0 = 3.0 and zeta = 0.05 in
  let a =
    Mat.of_arrays [| [| 0.0; 1.0 |]; [| -.(w0 *. w0); -2.0 *. zeta *. w0 |] |]
  in
  let b = Mat.of_arrays [| [| 0.0 |]; [| 1.0 |] |] in
  let c = Mat.of_arrays [| [| 1.0; 0.0 |] |] in
  let expect = 1.0 /. (2.0 *. zeta *. w0 *. w0 *. sqrt (1.0 -. (zeta *. zeta))) in
  let got = Hinf.norm ~rtol:1e-6 ~a ~b ~c () in
  if Float.abs (got -. expect) > 1e-3 *. expect then
    Alcotest.failf "resonator: %g vs %g" got expect

let test_hinf_unstable_raises () =
  let a = Mat.of_arrays [| [| 1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0 |] |] in
  let c = Mat.of_arrays [| [| 1.0 |] |] in
  (try
     ignore (Hinf.norm ~a ~b ~c ());
     Alcotest.fail "expected Unstable"
   with Hinf.Unstable -> ())

let test_glover_bound_exact () =
  (* the true H-infinity error of balanced truncation must sit between the
     (q+1)-th Hankel singular value and the Glover bound *)
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let t = Tbr.reduce_dss ~order:5 sys in
  let err = Hinf.error_norm ~rtol:1e-5 sys t.Tbr.rom in
  let upper = Tbr.error_bound t.Tbr.hsv 5 in
  let lower = t.Tbr.hsv.(5) in
  if err > upper *. 1.001 then Alcotest.failf "Glover bound violated: %g > %g" err upper;
  if err < lower *. 0.999 then Alcotest.failf "below hsv lower bound: %g < %g" err lower

let test_hinf_matches_grid_peak () =
  (* cross-check the bisection against a dense frequency sweep *)
  let sys = Dss.of_netlist (Rc_line.generate ~sections:15 ()) in
  let a, b, c = Dss.to_standard sys in
  let hinf = Hinf.norm ~rtol:1e-6 ~a ~b ~c () in
  let grid_peak = ref 0.0 in
  Array.iter
    (fun w -> grid_peak := Float.max !grid_peak (Hinf.peak_gain ~a ~b ~c w))
    (Vec.linspace 0.0 1e11 400);
  if !grid_peak > hinf *. 1.001 then Alcotest.failf "grid %g exceeds hinf %g" !grid_peak hinf;
  if hinf > !grid_peak *. 1.1 then Alcotest.failf "hinf %g far above grid %g" hinf !grid_peak

(* ------------------------------------------------------------------ *)
(* Moments and modal form                                              *)
(* ------------------------------------------------------------------ *)

let test_moments_one_pole () =
  (* Z(s) = 1/(G + sC); at s0: m0 = 1/(G + s0 C), and the moment recurrence
     gives m_k = C_cap^k / (G + s0 C)^{k+1} *)
  let g = 0.01 and c = 1e-12 in
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 (1.0 /. g);
  Netlist.add_c nl 1 0 c;
  ignore (Netlist.add_port nl 1);
  let sys = Dss.of_netlist nl in
  let s0 = { Complex.re = 1e9; im = 0.0 } in
  let ms = Moments.at sys ~s0 ~count:3 in
  let denom = g +. (1e9 *. c) in
  List.iteri
    (fun k m ->
      let expect = (c ** float_of_int k) /. (denom ** float_of_int (k + 1)) in
      let got = (Cmat.get m 0 0).Complex.re in
      if Float.abs (got -. expect) > 1e-6 *. Float.abs expect then
        Alcotest.failf "moment %d: %g vs %g" k got expect)
    ms

let test_prima_matches_moments () =
  (* the defining property: PRIMA with k blocks matches k block moments *)
  let sys = Dss.of_netlist (Rc_line.generate ~sections:30 ()) in
  let s0 = 3e8 in
  let r = Prima.reduce sys ~s0 ~moments:3 in
  let mm = Moments.mismatch sys r.Prima.rom ~s0:{ Complex.re = s0; im = 0.0 } ~count:3 in
  if mm > 1e-7 then Alcotest.failf "PRIMA moment mismatch %g" mm;
  (* on this symmetric (RC, C = B^T) system the Galerkin projection in fact
     matches 2q = 6 moments; the 7th must NOT match, or the test is vacuous *)
  let mm6 = Moments.mismatch sys r.Prima.rom ~s0:{ Complex.re = s0; im = 0.0 } ~count:6 in
  if mm6 > 1e-10 then Alcotest.failf "symmetric system should match 6 moments: %g" mm6;
  let mm7 = Moments.mismatch sys r.Prima.rom ~s0:{ Complex.re = s0; im = 0.0 } ~count:7 in
  Alcotest.(check bool) "7th moment differs" true (mm7 > 1e-6)

let test_multipoint_matches_moment_at_each_point () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:20 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 2e9 }) ~count:4 in
  let r = Multipoint.reduce sys pts ~count:4 in
  Array.iter
    (fun p ->
      let mm = Moments.mismatch sys r.Multipoint.rom ~s0:p.Sampling.s ~count:1 in
      if mm > 1e-6 then Alcotest.failf "multipoint 0th moment mismatch %g" mm)
    pts

let test_modal_reconstructs_response () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let r = Pmtbr.reduce_uniform ~order:8 sys ~w_max:3e9 ~count:20 in
  let modal = Modal.decompose r.Pmtbr.rom in
  Alcotest.(check int) "mode count" (Dss.order r.Pmtbr.rom) modal.Modal.order;
  List.iter
    (fun omega ->
      let s = { Complex.re = 0.0; im = omega } in
      let h_rom = Cmat.get (Freq.eval r.Pmtbr.rom s) 0 0 in
      let h_modal = Cmat.get (Modal.eval modal s) 0 0 in
      let err = Complex.norm (Complex.sub h_rom h_modal) /. Complex.norm h_rom in
      if err > 1e-6 then Alcotest.failf "modal mismatch %g at %g" err omega)
    [ 0.0; 5e8; 1.5e9; 3e9 ]

let test_modal_poles_stable () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:20 ()) in
  let r = Tbr.reduce_dss ~order:6 sys in
  let modal = Modal.decompose r.Tbr.rom in
  List.iter
    (fun { Modal.pole; _ } ->
      if pole.Complex.re > 0.0 then Alcotest.failf "unstable pole %g" pole.Complex.re)
    modal.Modal.modes

let test_modal_dominant () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:20 ()) in
  let r = Tbr.reduce_dss ~order:6 sys in
  let modal = Modal.decompose r.Tbr.rom in
  let top = Modal.dominant ~count:3 modal in
  Alcotest.(check int) "three dominant" 3 (List.length top);
  (* scores must be non-increasing *)
  let score { Modal.pole; residue } =
    Cmat.max_abs residue /. Float.abs pole.Complex.re
  in
  let scores = List.map score top in
  (match scores with
  | [ a; b; c ] ->
      Alcotest.(check bool) "sorted" true (a >= b && b >= c)
  | _ -> Alcotest.fail "unexpected")

(* ------------------------------------------------------------------ *)
(* New generators                                                      *)
(* ------------------------------------------------------------------ *)

let test_coupled_bus_structure () =
  let nl = Coupled_bus.generate ~lines:3 ~sections:10 () in
  let sys = Dss.of_netlist nl in
  Alcotest.(check int) "ports = lines" 3 (Dss.inputs sys);
  Alcotest.(check int) "states" (3 * 11) (Dss.order sys)

let test_coupled_bus_crosstalk () =
  (* injecting on line 0 must produce a response on line 1 (coupling), and
     a larger one on line 0 itself *)
  let sys = Dss.of_netlist (Coupled_bus.generate ()) in
  let w = Coupled_bus.bandwidth () in
  let h = Freq.eval_jw sys (w /. 2.0) in
  let self = Complex.norm (Cmat.get h 0 0) in
  let xtalk = Complex.norm (Cmat.get h 1 0) in
  Alcotest.(check bool) "crosstalk nonzero" true (xtalk > 1e-6 *. self);
  Alcotest.(check bool) "self dominates" true (self > xtalk)

let test_tline_dc_and_delay () =
  let nl = Tline.generate ~cells:20 () in
  let sys = Dss.of_netlist nl in
  (* DC input resistance: series R + termination (leak is ~1 Mohm each) *)
  let h = Freq.eval sys { Complex.re = 10.0; im = 0.0 } in
  let dc = (Cmat.get h 0 0).Complex.re in
  let expect = (20.0 *. 0.5) +. 50.0 in
  if Float.abs (dc -. expect) > 2.0 then Alcotest.failf "dc %.2f vs %.2f" dc expect;
  (* the matched line input impedance is ~z0 in the valid band *)
  let z0 = Tline.z0 () in
  let w = Tline.valid_band () /. 3.0 in
  let zin = Complex.norm (Cmat.get (Freq.eval_jw sys w) 0 0) in
  if Float.abs (zin -. z0) > 0.5 *. z0 then
    Alcotest.failf "matched input impedance %.1f far from z0 %.1f" zin z0

let test_tline_reducible () =
  let sys = Dss.of_netlist (Tline.generate ~cells:25 ()) in
  let w_max = Tline.valid_band () /. 2.0 in
  let r = Pmtbr.reduce_uniform ~order:20 sys ~w_max ~count:30 in
  let om = Vec.linspace (w_max /. 100.0) w_max 40 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep r.Pmtbr.rom om) in
  if err > 1e-3 then Alcotest.failf "tline order-20 error %g" err

let props =
  [
    QCheck2.Test.make ~name:"spice roundtrip preserves element counts" ~count:20
      QCheck2.Gen.(pair (int_range 2 8) (int_range 0 1000))
      (fun (segments, _seed) ->
        let nl = Spiral.generate ~segments () in
        let nl' = Spice.netlist (Spice.parse_string (Spice.to_string nl)) in
        Netlist.stats nl = Netlist.stats nl');
    QCheck2.Test.make ~name:"congruence-reduced RC meshes keep the certificate" ~count:10
      QCheck2.Gen.(pair (int_range 3 6) (int_range 2 5))
      (fun (n, q) ->
        let sys = Dss.of_netlist (Rc_mesh.generate ~rows:n ~cols:n ~ports:1 ()) in
        let r = Pmtbr.reduce_uniform ~order:q sys ~w_max:1e10 ~count:8 in
        Stability.rc_structure_certificate r.Pmtbr.rom = Some true);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmtbr_extensions"
    [
      ( "stability",
        [
          Alcotest.test_case "one-pole poles" `Quick test_poles_one_pole;
          Alcotest.test_case "reduced models stable" `Quick test_reduced_models_stable;
          Alcotest.test_case "rc certificate" `Quick test_congruence_rc_certificate;
          Alcotest.test_case "rc models passive" `Quick test_passivity_of_rc_models;
          Alcotest.test_case "active flagged" `Quick test_passivity_detects_active_system;
          Alcotest.test_case "hermitian min eig" `Quick test_hermitian_min_eig;
        ] );
      ( "spice",
        [
          Alcotest.test_case "values" `Quick test_spice_values;
          Alcotest.test_case "parse" `Quick test_spice_parse;
          Alcotest.test_case "mutual" `Quick test_spice_mutual;
          Alcotest.test_case "roundtrip" `Quick test_spice_roundtrip;
          Alcotest.test_case "errors" `Quick test_spice_errors;
        ] );
      ( "two_step",
        [
          Alcotest.test_case "accuracy" `Quick test_two_step_accuracy;
          Alcotest.test_case "vs pmtbr" `Quick test_two_step_vs_pmtbr;
        ] );
      ( "time_sampled",
        [
          Alcotest.test_case "step training" `Quick test_time_sampled_step_training;
          Alcotest.test_case "singular decay" `Quick test_time_sampled_singular_values_decay;
        ] );
      ( "order_control",
        [
          Alcotest.test_case "rrqr adaptive" `Quick test_rrqr_adaptive;
          Alcotest.test_case "reweight scales" `Quick test_reweight_scales_weights;
          Alcotest.test_case "reweight emphasis" `Quick test_reweight_changes_emphasis;
        ] );
      ( "hinf",
        [
          Alcotest.test_case "one pole" `Quick test_hinf_one_pole;
          Alcotest.test_case "resonator" `Quick test_hinf_resonant;
          Alcotest.test_case "unstable raises" `Quick test_hinf_unstable_raises;
          Alcotest.test_case "glover bound exact" `Quick test_glover_bound_exact;
          Alcotest.test_case "matches grid peak" `Quick test_hinf_matches_grid_peak;
        ] );
      ( "modal",
        [
          Alcotest.test_case "moments one pole" `Quick test_moments_one_pole;
          Alcotest.test_case "prima matches moments" `Quick test_prima_matches_moments;
          Alcotest.test_case "multipoint 0th moments" `Quick test_multipoint_matches_moment_at_each_point;
          Alcotest.test_case "modal reconstructs" `Quick test_modal_reconstructs_response;
          Alcotest.test_case "modal poles stable" `Quick test_modal_poles_stable;
          Alcotest.test_case "modal dominant" `Quick test_modal_dominant;
        ] );
      ( "generators",
        [
          Alcotest.test_case "coupled bus structure" `Quick test_coupled_bus_structure;
          Alcotest.test_case "coupled bus crosstalk" `Quick test_coupled_bus_crosstalk;
          Alcotest.test_case "tline dc and z0" `Quick test_tline_dc_and_delay;
          Alcotest.test_case "tline reducible" `Quick test_tline_reducible;
        ] );
      ("properties", props);
    ]
