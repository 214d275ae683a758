(* Time-domain sampled Gramian reduction (proper orthogonal decomposition,
   POD).  The paper's statistical interpretation (Section IV-A) views the
   Gramian as the covariance of the state under the assumed input process;
   here the covariance is estimated from state snapshots of an actual
   training simulation instead of from frequency samples.  This is the
   time-domain twin of PMTBR: the same SVD-and-project machinery, with the
   sample matrix drawn from x(t_k) rather than (s_k E - A)^{-1} B, and the
   input correlation captured implicitly by simulating the training
   inputs. *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;
  basis : Mat.t;
  singular_values : float array; (* of the weighted snapshot matrix *)
  snapshots : int;
}

(* [reduce sys ~u ~t1 ~dt ~snapshots] simulates from rest with the training
   input [u] over [0, t1], keeps [snapshots] equispaced state snapshots —
   always including the initial and final states — and projects onto their
   dominant left singular subspace. *)
let reduce ?order ?tol sys ~(u : float -> float array) ~t1 ~dt ~snapshots =
  if snapshots < 2 then invalid_arg "Time_sampled.reduce: snapshots must be >= 2";
  if not (t1 > 0.0 && dt > 0.0 && dt <= t1) then
    invalid_arg "Time_sampled.reduce: need 0 < dt <= t1";
  let res = Tdsim.simulate ~keep_states:true sys ~t0:0.0 ~t1 ~dt ~u in
  let states =
    match res.Tdsim.states with
    | Some s -> s
    | None -> assert false (* keep_states:true always yields states *)
  in
  let steps = Array.length res.Tdsim.times in
  (* exactly [snapshots] strictly increasing step indices over [0, steps-1]
     (the old backwards stride walk could keep more or fewer than requested
     and skip the t=0 state), clamped when the run has fewer steps.  The
     indices follow a quadratic ramp clustered towards t=0: a training
     simulation from rest spends its fast modes in the first few steps, and
     an equispaced grid at typical snapshot counts skips straight over
     them, losing the very directions that dominate the transient. *)
  let m = min snapshots steps in
  let idx = Array.make m 0 in
  for j = 1 to m - 1 do
    let frac = float_of_int j /. float_of_int (m - 1) in
    let raw = int_of_float (Float.round (frac *. frac *. float_of_int (steps - 1))) in
    idx.(j) <- max (idx.(j - 1) + 1) (min raw (steps - 1))
  done;
  let n = Dss.order sys in
  (* columns weighted by sqrt of the local time interval (trapezoid rule),
     so X X^T is a quadrature estimate of the covariance integral
     \int x x^T dt with the non-uniform spacing accounted for *)
  let w =
    Array.init m (fun j ->
        let lo = if j = 0 then float_of_int idx.(0) else float_of_int (idx.(j - 1) + idx.(j)) /. 2.0 in
        let hi =
          if j = m - 1 then float_of_int idx.(m - 1)
          else float_of_int (idx.(j) + idx.(j + 1)) /. 2.0
        in
        sqrt (dt *. (hi -. lo)))
  in
  let x = Mat.init n m (fun i j -> w.(j) *. Mat.get states i idx.(j)) in
  let uu, sigma = Svd.left x in
  let q = Tbr.truncation_order ~floor:1e-14 ~sigma ?order ?tol () in
  let basis = Mat.sub_cols uu 0 q in
  { rom = Dss.project_congruence sys basis; basis; singular_values = sigma; snapshots = m }
