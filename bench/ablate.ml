(* Ablation studies for the design choices called out in DESIGN.md:
   sampling schemes, realification, one- vs two-sided projection, sparse
   orderings, and the retained input rank of the input-correlated variant. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_circuit
open Pmtbr_core
open Pmtbr_oracle

(* Sampling scheme: accuracy of an order-10 spiral model per scheme. *)
let sampling_schemes () =
  Util.header "ABLATE A" "sampling scheme vs model accuracy (spiral, order 10)";
  let sys = Dss.of_netlist (Spiral.generate ()) in
  let w_max = Spiral.sample_band () in
  let om = Vec.linspace (w_max /. 100.0) w_max 50 in
  let href = Freq.sweep sys om in
  Util.row [ "scheme"; "count"; "rel_err" ];
  List.iter
    (fun (name, scheme) ->
      List.iter
        (fun count ->
          let pts = Sampling.points scheme ~count in
          let r = Pmtbr.reduce ~order:10 sys pts in
          let err = Freq.stream_max_rel_error (Freq.compare_sweep r.Pmtbr.rom om ~ref_:href) in
          Util.row [ name; string_of_int count; Util.fmt_e err ])
        [ 15; 30 ])
    [
      ("uniform", Sampling.Uniform { w_max });
      ("gauss", Sampling.Gauss { w_max });
      ("log", Sampling.Log { w_min = w_max /. 1e4; w_max });
    ]

(* Realification: [Re z, Im z] spans the same space as [z, z*]; verify the
   projection subspaces agree numerically. *)
let realification () =
  Util.header "ABLATE B" "realification: [Re z, Im z] vs explicit conjugate pair";
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 3e9 }) ~count:8 in
  let z_re_im = Zmat.build sys pts in
  (* explicit conjugate-pair real representation: the sum and the scaled
     difference of the pair, i.e. [2 Re z, 2 Im z]; spans must match *)
  let pair =
    Array.map
      (fun p ->
        let cols = Dss.shifted_solve sys p.Sampling.s in
        let n = Array.length cols.(0) in
        Mat.init n 2 (fun i j ->
            let z = cols.(0).(i) in
            if j = 0 then 2.0 *. z.Complex.re else 2.0 *. z.Complex.im))
      pts
  in
  let z_pair = Array.fold_left Mat.hcat (Array.get pair 0) (Array.sub pair 1 (Array.length pair - 1)) in
  let angle = Subspace.max_angle z_re_im z_pair in
  Util.row [ "max_principal_angle_rad"; Util.fmt_e angle ]

(* One-sided congruence vs two-sided cross-Gramian on a nonsymmetric
   (RLC) example. *)
let projection_sides () =
  Util.header "ABLATE C" "one-sided (congruence) vs two-sided (cross-Gramian) projection";
  let sys = Dss.of_netlist (Peec.generate ~cells:12 ()) in
  let w_max = Peec.sample_band () /. 2.0 in
  let om = Vec.linspace (w_max /. 100.0) w_max 40 in
  let href = Freq.sweep sys om in
  let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:20 in
  Util.row [ "order"; "congruence_err"; "cross_gramian_err" ];
  List.iter
    (fun q ->
      let one = Pmtbr.reduce ~order:q sys pts in
      let e1 = Freq.stream_max_rel_error (Freq.compare_sweep one.Pmtbr.rom om ~ref_:href) in
      let two = Cross_gramian.reduce ~order:q sys pts in
      let e2 = Freq.stream_max_rel_error (Freq.compare_sweep two.Cross_gramian.rom om ~ref_:href) in
      Util.row [ string_of_int q; Util.fmt_e e1; Util.fmt_e e2 ])
    [ 8; 16; 24; 32 ]

(* Sparse orderings: fill-in and factor time on a substrate matrix. *)
let orderings () =
  Util.header "ABLATE D" "sparse LU ordering: fill-in and factor time (substrate 400)";
  let m = Pmtbr_circuit.Mna.stamp (Substrate.generate ~ports:400 ~seed:7 ()) in
  let pencil = Pmtbr_sparse.Shifted.pencil ~e:m.Pmtbr_circuit.Mna.e ~a:m.Pmtbr_circuit.Mna.a in
  let s = { Complex.re = 0.0; im = Substrate.corner_frequency () } in
  Util.row [ "ordering"; "nnz(L+U)"; "time_ms" ];
  List.iter
    (fun (name, ordering) ->
      let f, dt = Util.time_it (fun () -> Pmtbr_sparse.Shifted.factorize ~ordering pencil s) in
      Util.row [ name; string_of_int (Pmtbr_sparse.Sparse_lu.C.nnz f); Printf.sprintf "%.1f" (dt *. 1e3) ])
    [
      ("natural", Pmtbr_sparse.Ordering.Natural);
      ("rcm", Pmtbr_sparse.Ordering.Rcm);
      ("min_degree", Pmtbr_sparse.Ordering.Min_degree);
    ]

(* Input rank: accuracy of the input-correlated reduction as the retained
   number of input directions varies. *)
let input_rank () =
  Util.header "ABLATE E" "input-correlated reduction vs retained input rank (mesh)";
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:8 ~cols:8 ~ports:32 ()) in
  let rng = Pmtbr_signal.Rng.create 17 in
  let waves =
    Pmtbr_signal.Waveform.dithered_square_bank ~rng ~ports:32 ~period:2e-9 ~dither:0.1
  in
  let inputs = Pmtbr_signal.Waveform.sample_matrix waves ~t0:0.0 ~t1:8e-9 ~samples:400 in
  let w_max = 2.0 *. Float.pi *. 5e9 in
  let pts = Sampling.points (Sampling.Uniform { w_max }) ~count:10 in
  let u t = Array.map (fun w -> 1e-3 *. w t) waves in
  let full = Tdsim.simulate sys ~t0:0.0 ~t1:8e-9 ~dt:0.02e-9 ~u in
  let scale = Mat.max_abs full.Tdsim.outputs in
  Util.row [ "input_rank"; "model_order"; "rms_err" ];
  List.iter
    (fun directions ->
      let r =
        Input_correlated.reduce_deterministic ~order:15 ~input_tol:1e-9 ~directions sys ~inputs
          ~points:pts
      in
      let red = Tdsim.simulate r.Input_correlated.rom ~t0:0.0 ~t1:8e-9 ~dt:0.02e-9 ~u in
      Util.row
        [
          string_of_int r.Input_correlated.input_rank;
          string_of_int (Dss.order r.Input_correlated.rom);
          Util.fmt_e (Tdsim.output_rms_error full red /. scale);
        ])
    [ 1; 2; 4; 8 ]

(* Adaptive order control: SVD-per-batch vs RRQR-per-batch monitoring. *)
let order_control () =
  Util.header "ABLATE F" "adaptive order control: SVD vs RRQR monitoring (rc line)";
  let sys = Dss.of_netlist (Rc_line.generate ~sections:60 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 3e9 }) ~count:64 in
  let om = Vec.linspace 0.0 3e9 30 in
  let href = Freq.sweep sys om in
  Util.row [ "monitor"; "samples_used"; "rel_err"; "time_ms" ];
  let measure name f =
    let r, dt = Util.time_it f in
    let err = Freq.stream_max_rel_error (Freq.compare_sweep r.Pmtbr.rom om ~ref_:href) in
    Util.row
      [ name; string_of_int r.Pmtbr.samples; Util.fmt_e err; Printf.sprintf "%.1f" (dt *. 1e3) ]
  in
  measure "svd" (fun () -> Pmtbr.reduce_adaptive ~tol:1e-9 ~batch:8 sys pts);
  measure "rrqr" (fun () -> Pmtbr.reduce_adaptive_rrqr ~tol:1e-9 ~batch:8 sys pts)

(* One-pass PMTBR vs the two-step PRIMA+TBR pipeline at equal final order. *)
let one_pass_vs_two_step () =
  Util.header "ABLATE G" "one-pass PMTBR vs two-step PRIMA+TBR (connector, in band)";
  let sys = Dss.of_netlist (Connector.generate ()) in
  let w8 = Connector.band_of_interest in
  let om = Vec.linspace (w8 /. 40.0) w8 40 in
  let href = Freq.sweep sys om in
  Util.row [ "order"; "pmtbr_err"; "two_step_err" ];
  List.iter
    (fun q ->
      let pm =
        Freq_selective.reduce ~order:q sys ~bands:[ Freq_selective.band ~lo:0.0 ~hi:w8 ] ~count:40
      in
      let e_pm = Freq.stream_max_rel_error (Freq.compare_sweep pm.Pmtbr.rom om ~ref_:href) in
      let ts = Two_step.reduce sys ~s0:(w8 /. 20.0) ~intermediate:(3 * q) ~order:q () in
      let e_ts = Freq.stream_max_rel_error (Freq.compare_sweep ts.Two_step.rom om ~ref_:href) in
      Util.row [ string_of_int q; Util.fmt_e e_pm; Util.fmt_e e_ts ])
    [ 10; 14; 18; 22 ]

(* Frequency-domain vs time-domain (POD) sampling for a step workload. *)
let freq_vs_time_sampling () =
  Util.header "ABLATE H" "frequency sampling (PMTBR) vs time snapshots (POD), step drive";
  let sys = Dss.of_netlist (Rc_line.generate ~sections:40 ()) in
  let u _ = [| 1e-3 |] in
  let full = Tdsim.simulate sys ~t0:0.0 ~t1:30e-9 ~dt:0.03e-9 ~u in
  let scale = Mat.max_abs full.Tdsim.outputs in
  Util.row [ "order"; "pmtbr_transient_err"; "pod_transient_err" ];
  List.iter
    (fun q ->
      let pm = Pmtbr.reduce_uniform ~order:q sys ~w_max:1e9 ~count:20 in
      let pod = Time_sampled.reduce ~order:q sys ~u ~t1:30e-9 ~dt:0.03e-9 ~snapshots:120 in
      let sim s = Tdsim.simulate s ~t0:0.0 ~t1:30e-9 ~dt:0.03e-9 ~u in
      Util.row
        [
          string_of_int q;
          Util.fmt_e (Tdsim.output_rms_error full (sim pm.Pmtbr.rom) /. scale);
          Util.fmt_e (Tdsim.output_rms_error full (sim pod.Time_sampled.rom) /. scale);
        ])
    [ 2; 4; 6; 8 ]

(* How tight is the Glover bound?  Exact H-infinity error via the
   Hamiltonian bisection, boxed by the hsv lower bound and the 2*tail upper
   bound. *)
let bound_tightness () =
  Util.header "ABLATE I" "Glover bound tightness: hsv(q) <= true Hinf error <= 2*tail";
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let t_full = Tbr.reduce_dss sys in
  let hsv = t_full.Tbr.hsv in
  Util.row [ "order"; "hsv_lower"; "true_hinf_error"; "glover_bound" ];
  List.iter
    (fun q ->
      let t = Tbr.reduce_dss ~order:q sys in
      let err = Hinf.error_norm ~rtol:1e-4 sys t.Tbr.rom in
      Util.row
        [
          string_of_int q;
          Util.fmt_e hsv.(q);
          Util.fmt_e err;
          Util.fmt_e (Tbr.error_bound hsv q);
        ])
    [ 2; 4; 6; 8 ]

let all () =
  sampling_schemes ();
  realification ();
  projection_sides ();
  orderings ();
  input_rank ();
  order_control ();
  one_pass_vs_two_step ();
  freq_vs_time_sampling ();
  bound_tightness ()
