(* Regeneration of every figure in the paper's evaluation (Section VI).
   Each function prints the same series the paper plots; EXPERIMENTS.md
   records how the shapes compare. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_circuit
open Pmtbr_signal
open Pmtbr_core

(* ------------------------------------------------------------------ *)
(* Fig. 3: TBR error bounds for a 12x12 RC mesh vs number of inputs    *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Util.header "FIG 3" "TBR error bound of 12x12 RC mesh vs number of inputs";
  let input_counts = [ 1; 2; 4; 8; 16; 32; 64 ] in
  Util.note "normalised Glover bound 2*sum(tail hsv) / (2*sum(all hsv)) per order";
  (* one mesh per port count; grid and element values identical, ports
     nested, so only B changes.  A is shared via the symmetrised form. *)
  let base =
    (* grid grounded only through 50-ohm driver terminations at the ports:
       the extracted-net situation in which the controllable space is rich *)
    Dss.of_netlist (Rc_mesh.generate ~rows:12 ~cols:12 ~ports:64 ~r_port_term:50.0 ())
  in
  let ssym = Dss.symmetrize_rc base in
  let a = Dss.a_dense ssym in
  let b64 = Dss.b_matrix ssym in
  let bs = List.map (fun p -> Mat.sub_cols b64 0 p) input_counts in
  (* symmetric case: hsv are the eigenvalues of the (single) Gramian *)
  let fact = Lyap.factor a in
  let hsvs =
    List.map
      (fun b ->
        let x = Lyap.solve_with fact (Mat.mul b (Mat.transpose b)) in
        Array.map (fun l -> Float.max l 0.0) (Eig_sym.eigenvalues x))
      bs
  in
  let orders = List.init 17 (fun i -> i * 5) in
  Util.row
    ("order" :: List.map (fun p -> Printf.sprintf "p=%d" p) input_counts);
  List.iter
    (fun q ->
      let cells =
        List.map
          (fun hsv ->
            let total = Tbr.error_bound hsv 0 in
            Util.fmt_e (Tbr.error_bound hsv q /. Float.max total 1e-300))
          hsvs
      in
      Util.row (string_of_int q :: cells))
    orders;
  Util.note "order needed for a 20%% relative error bound:";
  List.iteri
    (fun i p ->
      let hsv = List.nth hsvs i in
      let total = Tbr.error_bound hsv 0 in
      let rec search q =
        if q >= Array.length hsv then q
        else if Tbr.error_bound hsv q <= 0.2 *. total then q
        else search (q + 1)
      in
      Printf.printf "#   inputs=%-3d order=%d\n" p (search 0))
    input_counts

(* ------------------------------------------------------------------ *)
(* The clock-tree model shared by Figs. 5 and 6                         *)
(* ------------------------------------------------------------------ *)

let clock_sys () = Dss.symmetrize_rc (Dss.of_netlist (Clock_tree.generate ~levels:7 ()))
let clock_points count = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e13 }) ~count

(* Fig. 5: exact vs PMTBR-estimated Hankel singular values (50 samples) *)
let fig5 () =
  Util.header "FIG 5" "Hankel singular values: exact vs PMTBR estimate (clock tree)";
  let sys = clock_sys () in
  Util.note "clock tree with %d states, 50 log-spaced samples" (Dss.order sys);
  let a, b, c = Dss.to_standard sys in
  let exact = Tbr.hankel_singular_values ~a ~b ~c () in
  let est = Pmtbr.hankel_estimates sys (clock_points 50) in
  Util.row [ "index"; "exact_hsv"; "pmtbr_estimate" ];
  for i = 0 to min 39 (min (Array.length est) (Array.length exact) - 1) do
    Util.row [ string_of_int i; Util.fmt_e exact.(i); Util.fmt_e est.(i) ]
  done

(* Fig. 6: angle between the 2nd principal vector of the Gramian and the
   leading 4-dimensional PMTBR subspace, vs number of samples *)
let fig6 () =
  Util.header "FIG 6" "angle(2nd principal vector, leading PMTBR subspace) vs samples";
  let sys = clock_sys () in
  let a, b, _ = Dss.to_standard sys in
  let x = Gramian.controllability ~a ~b () in
  let _, vx = Eig_sym.decompose x in
  let second = Mat.col vx 1 in
  Util.row [ "samples"; "angle_rad" ];
  List.iter
    (fun count ->
      let r = Pmtbr.reduce ~order:4 sys (clock_points count) in
      let angle = Subspace.vector_to_subspace_angle second (Lazy.force r.Pmtbr.basis) in
      Util.row [ string_of_int count; Util.fmt_e angle ])
    [ 4; 6; 8; 12; 16; 24; 32; 48; 64 ]

(* ------------------------------------------------------------------ *)
(* The spiral-inductor model shared by Figs. 7-9                        *)
(* ------------------------------------------------------------------ *)

let spiral_sys () = Dss.of_netlist (Spiral.generate ())
let spiral_band = Spiral.sample_band ()

let spiral_grid () = Vec.linspace (spiral_band /. 100.0) spiral_band 60

(* Fig. 7: error in the resistance (Re Z), PRIMA vs PMTBR, vs order *)
let fig7 () =
  Util.header "FIG 7" "spiral inductor: resistance error, PRIMA vs PMTBR, vs order";
  let sys = spiral_sys () in
  Util.note "spiral model with %d states, band to %.2f GHz, 30 samples" (Dss.order sys)
    (Util.ghz spiral_band);
  let om = spiral_grid () in
  let href = Freq.sweep sys om in
  let pts = Sampling.points (Sampling.Uniform { w_max = spiral_band }) ~count:30 in
  Util.row [ "order"; "prima_err"; "pmtbr_err" ];
  List.iter
    (fun q ->
      (* the ROM sweeps stream against the one reference; only the
         full-model responses are ever held as an array *)
      let pm = Pmtbr.reduce ~order:q sys pts in
      let epm = Freq.stream_max_real_part_rel_error (Freq.compare_sweep pm.Pmtbr.rom om ~ref_:href) in
      let pr = Prima.reduce_to_order sys ~s0:(spiral_band /. 20.0) ~order:q in
      let epr = Freq.stream_max_real_part_rel_error (Freq.compare_sweep pr.Prima.rom om ~ref_:href) in
      Util.row [ string_of_int q; Util.fmt_e epr; Util.fmt_e epm ])
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]

(* Fig. 8: convergence of the 5 largest singular values of ZW with the
   number of (uniform, "rectangle rule") sample points *)
let fig8 () =
  Util.header "FIG 8" "spiral inductor: 5 largest singular values of ZW vs samples";
  let sys = spiral_sys () in
  Util.row [ "samples"; "s1"; "s2"; "s3"; "s4"; "s5" ];
  List.iter
    (fun count ->
      let pts = Sampling.points (Sampling.Uniform { w_max = spiral_band }) ~count in
      let s = Pmtbr.sample_singular_values sys pts in
      Util.row (string_of_int count :: List.init 5 (fun i -> Util.fmt_e s.(i))))
    [ 10; 20; 30; 40; 60; 80; 100; 140; 200 ]

(* Fig. 9: transfer-function error vs order, with the singular-value error
   estimates, at 100 sample points *)
let fig9 () =
  Util.header "FIG 9" "spiral inductor: error and error estimate vs order (100 samples)";
  let sys = spiral_sys () in
  let om = spiral_grid () in
  let href = Freq.sweep sys om in
  let pts = Sampling.points (Sampling.Uniform { w_max = spiral_band }) ~count:100 in
  let full = Pmtbr.reduce ~tol:1e-16 sys pts in
  let sigma = full.Pmtbr.singular_values in
  let est = Error_est.normalized_curve sigma in
  Util.row [ "order"; "actual_err"; "estimate" ];
  List.iter
    (fun q ->
      let r = Pmtbr.reduce ~order:q sys pts in
      let err = Freq.stream_max_rel_error (Freq.compare_sweep r.Pmtbr.rom om ~ref_:href) in
      Util.row [ string_of_int q; Util.fmt_e err; Util.fmt_e est.(min q (Array.length est - 1)) ])
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: multipoint projection vs PMTBR on the PEEC example          *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Util.header "FIG 10" "PEEC tank chain: multipoint projection vs PMTBR, error vs order";
  let sys = Dss.of_netlist (Peec.generate ~cells:10 ~r_ser:1.0 ~r_shunt:400.0 ()) in
  let w_max = Peec.sample_band () /. 2.0 in
  Util.note "PEEC-like model with %d states, band to %.2f GHz" (Dss.order sys) (Util.ghz w_max);
  let om = Vec.linspace (w_max /. 200.0) w_max 80 in
  let href = Freq.sweep sys om in
  let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:40 in
  let spread = Sampling.spread_order pts in
  Util.row [ "order"; "mpproj_err"; "pmtbr_err" ];
  List.iter
    (fun q ->
      (* multipoint: q/2 complex points -> q real columns, all kept *)
      let mp = Multipoint.reduce sys spread ~count:(max 1 (q / 2)) in
      let emp = Freq.stream_max_rel_error (Freq.compare_sweep mp.Multipoint.rom om ~ref_:href) in
      let pm = Pmtbr.reduce ~order:q sys pts in
      let epm = Freq.stream_max_rel_error (Freq.compare_sweep pm.Pmtbr.rom om ~ref_:href) in
      Util.row [ string_of_int q; Util.fmt_e emp; Util.fmt_e epm ])
    [ 4; 8; 12; 16; 20; 22; 24; 26; 28; 32 ]

(* ------------------------------------------------------------------ *)
(* Fig. 11: frequency-selective PMTBR vs TBR on the connector           *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  Util.header "FIG 11" "connector: |H| exact vs TBR(30) vs band-limited PMTBR(18)";
  let sys = Dss.of_netlist (Connector.generate ()) in
  let w8 = Connector.band_of_interest and w20 = Connector.plot_band in
  Util.note "connector model with %d states; PMTBR sampled on 0-8 GHz only" (Dss.order sys);
  let tbr = Tbr.reduce_dss ~order:30 sys in
  let pm =
    Pmtbr.reduce ~order:18 sys (Sampling.points (Sampling.Bands [ (0.0, w8) ]) ~count:40)
  in
  let om = Array.init 60 (fun i -> w20 *. float_of_int (i + 1) /. 60.0) in
  let h_ref = Freq.sweep sys om in
  let h_tbr = Freq.sweep tbr.Tbr.rom om in
  let h_pm = Freq.sweep pm.Pmtbr.rom om in
  let mag h = Complex.norm (Cmat.get h 0 0) in
  Util.row [ "f_GHz"; "exact"; "tbr30"; "pmtbr18" ];
  Array.iteri
    (fun i w ->
      Util.row
        [
          Printf.sprintf "%.2f" (Util.ghz w);
          Util.fmt_e (mag h_ref.(i));
          Util.fmt_e (mag h_tbr.(i));
          Util.fmt_e (mag h_pm.(i));
        ])
    om;
  (* in-band error summary *)
  let in_band = Array.to_list om |> List.filteri (fun i _ -> om.(i) <= w8) in
  let idx = List.length in_band in
  let sub a = Array.sub a 0 idx in
  Printf.printf "# in-band (<=8 GHz) rel err: TBR30 = %s, PMTBR18 = %s\n"
    (Util.fmt_e (Freq.max_rel_error (sub h_ref) (sub h_tbr)))
    (Util.fmt_e (Freq.max_rel_error (sub h_ref) (sub h_pm)))

(* ------------------------------------------------------------------ *)
(* Figs. 12-14: input-correlated reduction of a 32-port RC mesh         *)
(* ------------------------------------------------------------------ *)

let mesh_ports = 32
let mesh_period = 2e-9
let mesh_t1 = 10e-9
let mesh_dt = 0.02e-9

let mesh_sys () =
  Dss.of_netlist (Rc_mesh.generate ~rows:12 ~cols:12 ~ports:mesh_ports ~r:100.0 ~r_leak:1e5 ())

(* Per-port drive strengths: the ports all carry the same kind of signal but
   with different (fixed) amplitudes and polarities, as signals from a
   common functional block would. *)
let mesh_amplitudes =
  let rng = Rng.create 7 in
  Array.init mesh_ports (fun _ ->
      1e-3
      *. (if Rng.float rng < 0.3 then -1.0 else 1.0)
      *. Rng.uniform rng ~lo:0.3 ~hi:1.5)

(* Input bank of the in-class ensemble (square waves, 10% timing dither). *)
let mesh_waves ~seed =
  Waveform.dithered_square_bank ~rng:(Rng.create seed) ~ports:mesh_ports ~period:mesh_period
    ~dither:0.1

let mesh_scale waves = Array.mapi (fun i w t -> mesh_amplitudes.(i mod mesh_ports) *. w t) waves

let fig12 () =
  Util.header "FIG 12" "input waveform samples: dithered square waves";
  let waves = mesh_waves ~seed:7 in
  Util.row [ "t_ns"; "u1"; "u2"; "u3" ];
  for k = 0 to 60 do
    let t = mesh_period *. 2.0 *. float_of_int k /. 60.0 in
    Util.row
      (Printf.sprintf "%.3f" (t /. 1e-9)
      :: List.init 3 (fun i -> Printf.sprintf "%.1f" (waves.(i) t)))
  done

(* Build the 15-state models once, then simulate against in-class (Fig. 13)
   and out-of-class (Fig. 14) inputs. *)
let mesh_models () =
  let sys = mesh_sys () in
  let model_waves = mesh_scale (mesh_waves ~seed:7) in
  let inputs = Waveform.sample_matrix model_waves ~t0:0.0 ~t1:(4.0 *. mesh_period) ~samples:400 in
  let w_max = 2.0 *. Float.pi *. 10.0 /. mesh_period in
  let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:12 in
  let ic = Input_correlated.reduce ~order:15 ~input_tol:1e-3 sys ~inputs ~points:pts ~draws:40 in
  let tbr = Tbr.reduce_dss ~order:15 sys in
  (sys, ic, tbr)

let run_mesh_comparison ~fig ~title ~sim_waves (sys, ic, tbr) =
  Util.header fig title;
  let u t = Array.map (fun w -> w t) sim_waves in
  let sim s = Tdsim.simulate s ~t0:0.0 ~t1:mesh_t1 ~dt:mesh_dt ~u in
  let full = sim sys in
  let r_ic = sim ic.Input_correlated.rom in
  let r_tbr = sim tbr.Tbr.rom in
  Util.note "15-state models; output shown at port 0 (V)";
  Util.row [ "t_ns"; "full"; "ic_pmtbr15"; "tbr15" ];
  let steps = Array.length full.Tdsim.times in
  let stride = max 1 (steps / 50) in
  let k = ref 0 in
  while !k < steps do
    Util.row
      [
        Printf.sprintf "%.3f" (full.Tdsim.times.(!k) /. 1e-9);
        Util.fmt_e (Mat.get full.Tdsim.outputs 0 !k);
        Util.fmt_e (Mat.get r_ic.Tdsim.outputs 0 !k);
        Util.fmt_e (Mat.get r_tbr.Tdsim.outputs 0 !k);
      ];
    k := !k + stride
  done;
  let scale = Mat.max_abs full.Tdsim.outputs in
  let rms_all ref_res red =
    let p = ref_res.Tdsim.outputs.Mat.rows in
    let acc = ref 0.0 in
    for row = 0 to p - 1 do
      let e = Tdsim.output_rms_error ~row ref_res red in
      acc := !acc +. (e *. e)
    done;
    sqrt (!acc /. float_of_int p)
  in
  Printf.printf "# rms error over all ports / max|y|: ic_pmtbr15 = %s, tbr15 = %s\n"
    (Util.fmt_e (rms_all full r_ic /. scale))
    (Util.fmt_e (rms_all full r_tbr /. scale))

let fig13_14 () =
  let models = mesh_models () in
  run_mesh_comparison ~fig:"FIG 13"
    ~title:"32-port RC mesh transient: in-class inputs (correlated squares)"
    ~sim_waves:(mesh_scale (mesh_waves ~seed:7)) models;
  run_mesh_comparison ~fig:"FIG 14"
    ~title:"32-port RC mesh transient: out-of-class inputs (re-randomised phases)"
    ~sim_waves:
      (mesh_scale
         (Waveform.scrambled_square_bank ~rng:(Rng.create 99) ~ports:mesh_ports
            ~period:mesh_period ~dither:0.1))
    models

(* ------------------------------------------------------------------ *)
(* Fig. 15: 150-port substrate network                                  *)
(* ------------------------------------------------------------------ *)

let substrate_inputs ~rng ~ports =
  (* bulk-current-like signals: a few shared templates (clock feedthrough,
     switching bursts) mixed per port *)
  let templates =
    [|
      (fun t -> sin (2.0 *. Float.pi *. t /. 4e-9));
      (fun t -> Float.max 0.0 (sin (2.0 *. Float.pi *. t /. 1e-9)) ** 3.0);
      Waveform.dithered_square ~rng ~period:2e-9 ~dither:0.05 ();
    |]
  in
  Array.map (fun w t -> 1e-3 *. w t) (Waveform.correlated_ensemble ~rng ~ports ~templates ~noise:0.002)

let fig15 () =
  Util.header "FIG 15" "150-port substrate: full vs 4- and 8-state reduced transients";
  let nl = Substrate.generate ~ports:150 ~internal:50 ~seed:11 () in
  let sys = Dss.of_netlist nl in
  Util.note "substrate network with %d states, 150 ports" (Dss.order sys);
  let rng = Rng.create 21 in
  let waves = substrate_inputs ~rng ~ports:150 in
  let inputs = Waveform.sample_matrix waves ~t0:0.0 ~t1:20e-9 ~samples:400 in
  let w_corner = Substrate.corner_frequency () in
  let pts = Sampling.points (Sampling.Log { w_min = w_corner /. 100.0; w_max = w_corner *. 100.0 }) ~count:8 in
  let reduce order =
    Input_correlated.reduce_deterministic ~order ~input_tol:1e-3 sys ~inputs ~points:pts
  in
  let r4 = reduce 4 and r8 = reduce 8 in
  let u t = Array.map (fun w -> w t) waves in
  let sim s = Tdsim.simulate s ~t0:0.0 ~t1:20e-9 ~dt:0.02e-9 ~u in
  let full = sim sys in
  let s4 = sim r4.Input_correlated.rom and s8 = sim r8.Input_correlated.rom in
  Util.row [ "t_ns"; "full"; "states4"; "states8" ];
  let steps = Array.length full.Tdsim.times in
  let stride = max 1 (steps / 50) in
  let k = ref 0 in
  while !k < steps do
    Util.row
      [
        Printf.sprintf "%.3f" (full.Tdsim.times.(!k) /. 1e-9);
        Util.fmt_e (Mat.get full.Tdsim.outputs 0 !k);
        Util.fmt_e (Mat.get s4.Tdsim.outputs 0 !k);
        Util.fmt_e (Mat.get s8.Tdsim.outputs 0 !k);
      ];
    k := !k + stride
  done;
  let scale = Mat.max_abs full.Tdsim.outputs in
  Printf.printf "# rms error / max|y|: 4 states = %s, 8 states = %s (compression %dx)\n"
    (Util.fmt_e (Tdsim.output_rms_error full s4 /. scale))
    (Util.fmt_e (Tdsim.output_rms_error full s8 /. scale))
    (Dss.order sys / 8)

(* ------------------------------------------------------------------ *)
(* Fig. 16: 1000-port substrate, error estimate vs model order          *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  Util.header "FIG 16" "1000-port substrate: normalised error estimate vs model order";
  let nl = Substrate.generate ~ports:1000 ~internal:100 ~seed:13 () in
  let sys = Dss.of_netlist nl in
  Util.note "substrate network with %d states, 1000 ports" (Dss.order sys);
  let rng = Rng.create 31 in
  let waves = substrate_inputs ~rng ~ports:1000 in
  let inputs = Waveform.sample_matrix waves ~t0:0.0 ~t1:20e-9 ~samples:300 in
  let w_corner = Substrate.corner_frequency () in
  let pts = Sampling.points (Sampling.Log { w_min = w_corner /. 100.0; w_max = w_corner *. 100.0 }) ~count:8 in
  let r, dt =
    Util.time_it (fun () ->
        Input_correlated.reduce_deterministic ~tol:1e-12 ~input_tol:1e-3 sys ~inputs ~points:pts)
  in
  Util.note "sampling + SVD took %.2f s; retained input rank %d" dt r.Input_correlated.input_rank;
  let est = Error_est.normalized_curve r.Input_correlated.singular_values in
  Util.row [ "order"; "normalised_error_estimate" ];
  let q = ref 0 in
  while !q < min 60 (Array.length est) do
    Util.row [ string_of_int !q; Util.fmt_e est.(!q) ];
    q := !q + 2
  done;
  let q_est, met = Error_est.order_for r.Input_correlated.singular_values ~tol:1e-4 in
  Printf.printf "# order for 1e-4 estimate: %d%s (model compression %dx)\n" q_est
    (if met then "" else " [estimate never meets 1e-4]")
    (Dss.order sys / max 1 q_est)

let all : (string * (unit -> unit)) list =
  [
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13_14);
    ("fig15", fig15);
    ("fig16", fig16);
  ]
