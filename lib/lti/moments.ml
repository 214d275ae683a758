(* Moments of the transfer function about an expansion point:

     H(s) = sum_k m_k (s0 - s)^k,
     m_k  = C [(s0 E - A)^{-1} E]^k (s0 E - A)^{-1} B

   Moment matching is the defining property of the Krylov baselines (PRIMA
   matches the first [moments] block moments); this module makes the
   property checkable, and moment comparison is itself a quick model
   validation tool. *)

open Pmtbr_la

(* First [count] block moments of [sys] at the (complex) point [s0];
   each is an outputs x inputs complex matrix. *)
let at sys ~(s0 : Complex.t) ~count =
  assert (count >= 1);
  let f = Dss.factor_shifted sys s0 in
  let b = Dss.b_matrix sys in
  let c = Dss.c_matrix sys in
  let p_out = c.Mat.rows in
  let cols_to_cmat (cols : Complex.t array array) =
    Cmat.init (Array.length cols.(0)) (Array.length cols) (fun i j -> cols.(j).(i))
  in
  (* complex n x p iterate v_k = [(s0 E - A)^{-1} E]^k (s0 E - A)^{-1} B *)
  let apply_e_complex (v : Cmat.t) =
    let re = Dss.apply_e sys (Cmat.re v) in
    let im = Dss.apply_e sys (Cmat.im v) in
    Cmat.init re.Mat.rows re.Mat.cols (fun i j ->
        { Complex.re = Mat.get re i j; im = Mat.get im i j })
  in
  let solve_complex (v : Cmat.t) =
    let re = cols_to_cmat (Dss.solve_factored f (Cmat.re v)) in
    let im = cols_to_cmat (Dss.solve_factored f (Cmat.im v)) in
    Cmat.add re (Cmat.scale_elt { Complex.re = 0.0; im = 1.0 } im)
  in
  let project (v : Cmat.t) =
    Cmat.init p_out v.Cmat.cols (fun i j ->
        let acc = ref Complex.zero in
        for k = 0 to c.Mat.cols - 1 do
          acc := Complex.add !acc (Cmat.real_mul (Mat.get c i k) (Cmat.get v k j))
        done;
        !acc)
  in
  let v0 = cols_to_cmat (Dss.solve_factored f b) in
  let rec go v k acc =
    if k >= count then List.rev acc
    else begin
      let next = if k + 1 >= count then v else solve_complex (apply_e_complex v) in
      go next (k + 1) (project v :: acc)
    end
  in
  go v0 0 []

(* Worst relative mismatch of the first [count] moments of two systems. *)
let mismatch sys1 sys2 ~s0 ~count =
  let m1 = at sys1 ~s0 ~count and m2 = at sys2 ~s0 ~count in
  List.fold_left2
    (fun acc a b ->
      let scale = Float.max 1e-300 (Cmat.max_abs a) in
      Float.max acc (Cmat.max_abs (Cmat.sub a b) /. scale))
    0.0 m1 m2
