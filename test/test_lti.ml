(* Tests for the LTI toolkit: descriptor systems, frequency responses,
   Gramians, exact TBR, transient simulation. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_circuit

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

let approx ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* single-node RC: port current in, R and C to ground: Z(s) = 1/(G + sC) *)
let one_pole ~r ~c =
  let nl = Netlist.create () in
  Netlist.add_r nl 1 0 r;
  Netlist.add_c nl 1 0 c;
  ignore (Netlist.add_port nl 1);
  Dss.of_netlist nl

let random_stable_sys ?(seed = 3) n p =
  let m = Mat.random ~seed n n in
  let mmt = Mat.mul m (Mat.transpose m) in
  let a = Mat.init n n (fun i j -> -.(Mat.get mmt i j /. float_of_int n) -. if i = j then 0.3 else 0.0) in
  let b = Mat.random ~seed:(seed + 1) n p in
  let c = Mat.random ~seed:(seed + 2) p n in
  (a, b, c)

(* ------------------------------------------------------------------ *)
(* Dss / Freq                                                          *)
(* ------------------------------------------------------------------ *)

let test_one_pole_impedance () =
  let r = 100.0 and c = 1e-12 in
  let sys = one_pole ~r ~c in
  List.iter
    (fun omega ->
      let h = Freq.eval_jw sys omega in
      let z = Cmat.get h 0 0 in
      let expect = Complex.div Complex.one { Complex.re = 1.0 /. r; im = omega *. c } in
      check_small ~tol:1e-9 "Z(jw)" (Complex.norm (Complex.sub z expect)))
    [ 0.0; 1e9; 1e10; 1e11 ]

let test_dense_vs_sparse_eval () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:15 ()) in
  let e = Dss.e_dense sys and a = Dss.a_dense sys in
  let dense = Dss.of_dense ~e ~a ~b:(Dss.b_matrix sys) ~c:(Dss.c_matrix sys) in
  List.iter
    (fun omega ->
      let h1 = Freq.eval_jw sys omega and h2 = Freq.eval_jw dense omega in
      check_small ~tol:1e-9 "dense = sparse" (Cmat.max_abs (Cmat.sub h1 h2)))
    [ 0.0; 1e8; 1e10 ]

let test_to_standard_preserves_response () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:12 ()) in
  let a, b, c = Dss.to_standard sys in
  let std = Dss.of_standard ~a ~b ~c in
  let om = Vec.linspace 0.0 1e10 7 in
  check_small ~tol:1e-7 "standard form response"
    (Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep std om))

let test_symmetrize_rc_preserves_response () =
  let sys = Dss.of_netlist (Rc_mesh.generate ~rows:4 ~cols:4 ~ports:2 ()) in
  let ssym = Dss.symmetrize_rc sys in
  let om = Vec.linspace 0.0 1e10 7 in
  check_small ~tol:1e-9 "symmetrized response"
    (Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep ssym om));
  (* and the symmetrized A must be symmetric with C = B^T *)
  let a = Dss.a_dense ssym in
  if not (Mat.is_symmetric a) then Alcotest.fail "A~ not symmetric";
  check_small "C~ = B~^T"
    (Mat.frobenius (Mat.sub (Dss.c_matrix ssym) (Mat.transpose (Dss.b_matrix ssym))))

let test_symmetrize_rejects_rlc () =
  let sys = Dss.of_netlist (Spiral.generate ~segments:4 ()) in
  (try
     ignore (Dss.symmetrize_rc sys);
     Alcotest.fail "expected Not_rc_like"
   with Dss.Not_rc_like -> ())

let test_projection_identity () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:10 ()) in
  let n = Dss.order sys in
  let rom = Dss.project_congruence sys (Mat.identity n) in
  let om = Vec.linspace 0.0 1e10 5 in
  check_small ~tol:1e-8 "identity projection"
    (Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep rom om))

let test_oblique_projection_biorthogonal () =
  (* with W = V the oblique projection equals the congruence one *)
  let sys = Dss.of_netlist (Rc_line.generate ~sections:10 ()) in
  let v = Qr.orth (Mat.random ~seed:5 (Dss.order sys) 4) in
  let r1 = Dss.project_congruence sys v in
  let r2 = Dss.project_oblique sys ~w:v ~v in
  let om = Vec.linspace 0.0 1e10 5 in
  check_small ~tol:1e-9 "oblique = congruence when W = V"
    (Freq.max_abs_error (Freq.sweep r1 om) (Freq.sweep r2 om))

(* ------------------------------------------------------------------ *)
(* Gramians / TBR                                                      *)
(* ------------------------------------------------------------------ *)

let test_gramian_lyapunov_residuals () =
  let a, b, c = random_stable_sys 12 2 in
  let x = Gramian.controllability ~a ~b () in
  check_small ~tol:1e-7 "ctrb residual"
    (Lyap.lyapunov_residual a x (Mat.mul b (Mat.transpose b)));
  let y = Gramian.observability ~a ~c () in
  check_small ~tol:1e-7 "obsv residual"
    (Lyap.lyapunov_residual (Mat.transpose a) y (Mat.mul (Mat.transpose c) c))

let test_gramian_correlated_scales () =
  (* K = 4I quadruples the Gramian *)
  let a, b, _ = random_stable_sys ~seed:7 8 2 in
  let x1 = Gramian.controllability ~a ~b () in
  let k = Mat.scale 4.0 (Mat.identity 2) in
  let x4 = Gramian.controllability ~k ~a ~b () in
  check_small ~tol:1e-8 "K=4I" (Mat.frobenius (Mat.sub x4 (Mat.scale 4.0 x1)))

let test_hsv_descending_positive () =
  let a, b, c = random_stable_sys ~seed:11 10 2 in
  let hsv = Tbr.hankel_singular_values ~a ~b ~c () in
  Array.iteri
    (fun i s ->
      if s < 0.0 then Alcotest.fail "negative hsv";
      if i > 0 && s > hsv.(i - 1) +. 1e-12 then Alcotest.fail "hsv not descending")
    hsv

let test_tbr_exact_at_full_order () =
  let a, b, c = random_stable_sys ~seed:13 8 1 in
  let { Tbr.rom; _ } = Tbr.reduce ~order:8 ~a ~b ~c () in
  let sys = Dss.of_standard ~a ~b ~c in
  let om = Vec.linspace 0.0 5.0 9 in
  check_small ~tol:1e-6 "full order TBR is exact"
    (Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep rom om))

let test_tbr_error_bound_holds () =
  let a, b, c = random_stable_sys ~seed:17 12 1 in
  let sys = Dss.of_standard ~a ~b ~c in
  List.iter
    (fun q ->
      let { Tbr.rom; hsv; _ } = Tbr.reduce ~order:q ~a ~b ~c () in
      let bound = Tbr.error_bound hsv q in
      (* sample |H - Hr| on the jw axis; must stay below the bound *)
      let om = Vec.linspace 0.0 20.0 60 in
      let err = Freq.max_abs_error (Freq.sweep sys om) (Freq.sweep rom om) in
      if err > bound *. (1.0 +. 1e-6) +. 1e-12 then
        Alcotest.failf "Glover bound violated at q=%d: err %g > bound %g" q err bound)
    [ 2; 4; 6 ]

(* [tol] is the tail relative to sigma_0: the tail past order 4 picks at
   most order 4, and the same [tol] picks the same order when the input
   map, and with it every Hankel singular value, is scaled by 1e3. *)
let test_tbr_tol_vs_order () =
  let a, b, c = random_stable_sys ~seed:19 10 1 in
  let hsv = Tbr.hankel_singular_values ~a ~b ~c () in
  let tol = 1.01 *. Tbr.error_bound hsv 4 /. (2.0 *. hsv.(0)) in
  let q = (Tbr.reduce ~tol ~a ~b ~c ()).Tbr.order in
  Alcotest.(check bool) "tol picks order <= 4" true (q <= 4);
  Alcotest.(check int) "same order at 1e3 the scale" q
    (Tbr.reduce ~tol ~a ~b:(Mat.scale 1e3 b) ~c ()).Tbr.order

let test_tbr_balances () =
  (* the reduced model of a balanced truncation is itself balanced:
     its Gramians are diag(hsv_1..q) *)
  let a, b, c = random_stable_sys ~seed:23 9 1 in
  let { Tbr.rom; hsv; order } = Tbr.reduce ~order:4 ~a ~b ~c () in
  let ar, br, cr = Dss.to_standard rom in
  let xr = Gramian.controllability ~a:ar ~b:br () in
  let yr = Gramian.observability ~a:ar ~c:cr () in
  for i = 0 to order - 1 do
    approx ~tol:1e-6 "Xr diagonal = hsv" hsv.(i) (Mat.get xr i i);
    approx ~tol:1e-6 "Yr diagonal = hsv" hsv.(i) (Mat.get yr i i)
  done;
  check_small ~tol:1e-6 "Xr - Yr" (Mat.frobenius (Mat.sub xr yr))

let test_tbr_dss_on_circuit () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:30 ()) in
  let t = Tbr.reduce_dss ~order:8 sys in
  let w_max = 1e10 in
  let om = Vec.linspace 0.0 w_max 25 in
  let err = Freq.max_rel_error (Freq.sweep sys om) (Freq.sweep t.Tbr.rom om) in
  if err > 1e-4 then Alcotest.failf "order-8 TBR of RC line too inaccurate: %g" err

let test_input_correlated_tbr_smaller () =
  (* rank-1 input correlation: the correlated Gramian has (numerically)
     rank <= n but decays much faster than the white-input one *)
  let a, b, _ = random_stable_sys ~seed:29 10 4 in
  let dir = Mat.random ~seed:31 4 1 in
  let k = Mat.mul dir (Mat.transpose dir) in
  let x_white = Gramian.controllability ~a ~b () in
  let x_corr = Gramian.controllability ~k ~a ~b () in
  let e_white = Eig_sym.eigenvalues x_white in
  let e_corr = Eig_sym.eigenvalues x_corr in
  (* normalised 5th eigenvalue must drop much faster under correlation *)
  let r_white = e_white.(4) /. e_white.(0) and r_corr = e_corr.(4) /. e_corr.(0) in
  if r_corr > r_white /. 10.0 then
    Alcotest.failf "correlated Gramian does not decay faster: %g vs %g" r_corr r_white

(* ------------------------------------------------------------------ *)
(* Transient simulation                                                *)
(* ------------------------------------------------------------------ *)

let test_step_response_one_pole () =
  (* v(t) = R I0 (1 - exp(-t/RC)) for a current step I0 *)
  let r = 1000.0 and c = 1e-9 in
  let sys = one_pole ~r ~c in
  let tau = r *. c in
  let i0 = 1e-3 in
  let res = Tdsim.simulate sys ~t0:0.0 ~t1:(5.0 *. tau) ~dt:(tau /. 200.0) ~u:(fun _ -> [| i0 |]) in
  Array.iteri
    (fun k t ->
      let expect = r *. i0 *. (1.0 -. exp (-.t /. tau)) in
      approx ~tol:(2e-4 *. r *. i0) "step response" expect (Mat.get res.Tdsim.outputs 0 k))
    res.Tdsim.times

let test_trapezoidal_second_order () =
  let r = 1000.0 and c = 1e-9 in
  let sys = one_pole ~r ~c in
  let tau = r *. c in
  let err dt =
    let res = Tdsim.simulate sys ~t0:0.0 ~t1:(3.0 *. tau) ~dt ~u:(fun _ -> [| 1e-3 |]) in
    let worst = ref 0.0 in
    Array.iteri
      (fun k t ->
        let expect = r *. 1e-3 *. (1.0 -. exp (-.t /. tau)) in
        worst := Float.max !worst (Float.abs (expect -. Mat.get res.Tdsim.outputs 0 k)))
      res.Tdsim.times;
    !worst
  in
  let e1 = err (tau /. 50.0) and e2 = err (tau /. 100.0) in
  if e2 > e1 /. 3.0 then Alcotest.failf "trapezoidal not ~2nd order: %g -> %g" e1 e2

let test_sim_reduced_matches_full () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:25 ()) in
  let t = Tbr.reduce_dss ~order:10 sys in
  let u t = [| if t > 0.0 then 1e-3 else 0.0 |] in
  let full = Tdsim.simulate sys ~t0:0.0 ~t1:20e-9 ~dt:0.02e-9 ~u in
  let red = Tdsim.simulate t.Tbr.rom ~t0:0.0 ~t1:20e-9 ~dt:0.02e-9 ~u in
  let scale = Mat.max_abs full.Tdsim.outputs in
  if Tdsim.output_error full red > 1e-4 *. scale then Alcotest.fail "reduced transient mismatch"

let test_sim_initial_state () =
  (* zero input, nonzero initial state decays like exp(-t/tau) *)
  let r = 1000.0 and c = 1e-9 in
  let sys = one_pole ~r ~c in
  let tau = r *. c in
  let res =
    Tdsim.simulate ~x0:[| 1.0 |] sys ~t0:0.0 ~t1:(2.0 *. tau) ~dt:(tau /. 100.0)
      ~u:(fun _ -> [| 0.0 |])
  in
  Array.iteri
    (fun k t -> approx ~tol:1e-4 "decay" (exp (-.t /. tau)) (Mat.get res.Tdsim.outputs 0 k))
    res.Tdsim.times

let test_sim_keep_states () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:5 ()) in
  let res =
    Tdsim.simulate ~keep_states:true sys ~t0:0.0 ~t1:1e-9 ~dt:0.1e-9 ~u:(fun _ -> [| 1e-3 |])
  in
  match res.Tdsim.states with
  | None -> Alcotest.fail "states not kept"
  | Some s -> Alcotest.(check int) "state rows" (Dss.order sys) s.Mat.rows

(* properties *)
let props =
  [
    QCheck2.Test.make ~name:"TBR error decreases with order" ~count:15
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let a, b, c = random_stable_sys ~seed 10 1 in
        let sys = Dss.of_standard ~a ~b ~c in
        let om = Vec.linspace 0.0 10.0 20 in
        let href = Freq.sweep sys om in
        let err q =
          let { Tbr.rom; _ } = Tbr.reduce ~order:q ~a ~b ~c () in
          Freq.max_abs_error href (Freq.sweep rom om)
        in
        err 6 <= (err 2 *. 1.5) +. 1e-12);
    QCheck2.Test.make ~name:"Glover bound holds on random systems" ~count:15
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let a, b, c = random_stable_sys ~seed 8 1 in
        let sys = Dss.of_standard ~a ~b ~c in
        let { Tbr.rom; hsv; _ } = Tbr.reduce ~order:3 ~a ~b ~c () in
        let om = Vec.linspace 0.0 30.0 40 in
        let err = Freq.max_abs_error (Freq.sweep sys om) (Freq.sweep rom om) in
        err <= (Tbr.error_bound hsv 3 *. (1.0 +. 1e-6)) +. 1e-12);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pmtbr_lti"
    [
      ( "freq",
        [
          Alcotest.test_case "one-pole impedance" `Quick test_one_pole_impedance;
          Alcotest.test_case "dense vs sparse" `Quick test_dense_vs_sparse_eval;
          Alcotest.test_case "to_standard" `Quick test_to_standard_preserves_response;
          Alcotest.test_case "symmetrize rc" `Quick test_symmetrize_rc_preserves_response;
          Alcotest.test_case "symmetrize rejects rlc" `Quick test_symmetrize_rejects_rlc;
          Alcotest.test_case "identity projection" `Quick test_projection_identity;
          Alcotest.test_case "oblique w=v" `Quick test_oblique_projection_biorthogonal;
        ] );
      ( "tbr",
        [
          Alcotest.test_case "gramian residuals" `Quick test_gramian_lyapunov_residuals;
          Alcotest.test_case "correlated gramian scales" `Quick test_gramian_correlated_scales;
          Alcotest.test_case "hsv descending" `Quick test_hsv_descending_positive;
          Alcotest.test_case "exact at full order" `Quick test_tbr_exact_at_full_order;
          Alcotest.test_case "error bound holds" `Quick test_tbr_error_bound_holds;
          Alcotest.test_case "tol vs order" `Quick test_tbr_tol_vs_order;
          Alcotest.test_case "reduced model balanced" `Quick test_tbr_balances;
          Alcotest.test_case "descriptor circuit" `Quick test_tbr_dss_on_circuit;
          Alcotest.test_case "input correlation shrinks gramian" `Quick test_input_correlated_tbr_smaller;
        ] );
      ( "tdsim",
        [
          Alcotest.test_case "one-pole step" `Quick test_step_response_one_pole;
          Alcotest.test_case "second order" `Quick test_trapezoidal_second_order;
          Alcotest.test_case "reduced matches full" `Quick test_sim_reduced_matches_full;
          Alcotest.test_case "initial state decay" `Quick test_sim_initial_state;
          Alcotest.test_case "keep states" `Quick test_sim_keep_states;
        ] );
      ("properties", props);
    ]
