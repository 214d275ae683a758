(* Low-rank square-root balanced truncation on top of Lr_lyap.

   Both Gramian sides run through the shared multi-shift solver in
   Lyap_ops: one symbolic analysis, one numeric refactorisation per
   distinct ADI shift, observability factors reused from the
   controllability side via hermitian solves (see Lyap_ops). *)

open Pmtbr_la

type stats = {
  ctrl : Lr_lyap.stats;
  obs : Lr_lyap.stats;
  shifts : Complex.t array;
  symbolic : int;
  refactorizations : int;
  solves : int;
  col_solves : int;
  wall_s : float;
}

type t = { rom : Dss.t; hsv : float array; order : int; stats : stats }

let now () = Unix.gettimeofday ()

let controllability_factor ?shifts ?num_shifts ?(tol = 1e-10) ?max_steps ?stop sys =
  let solve, _ = Lyap_ops.shared_solver sys in
  let ctrl, _ = Lyap_ops.ops_of_dss solve sys in
  Lr_lyap.lr_adi ?shifts ?num_shifts ~tol ?max_steps ?stop ctrl (Dss.b_matrix sys)

(* Both Gramian factors through one shared handle; the core of every public
   entry point. *)
let gramian_factors ?shifts ?num_shifts ?(adi_tol = 1e-10) ?max_steps ?stop sys =
  let solve, counters = Lyap_ops.shared_solver sys in
  let ctrl_ops, obs_ops = Lyap_ops.ops_of_dss solve sys in
  let b = Dss.b_matrix sys and ct = Mat.transpose (Dss.c_matrix sys) in
  let shifts_used =
    match shifts with
    | Some s -> Array.copy s
    | None -> Lr_lyap.penzl_shifts ?num:num_shifts ctrl_ops b
  in
  let side ops rhs shifts = Lr_lyap.lr_adi ~shifts ~tol:adi_tol ?max_steps ?stop ops rhs in
  let zc, st_c = side ctrl_ops b shifts_used in
  (* the observability side conjugates the shifts onto the same keys *)
  let zo, st_o = side obs_ops ct (Array.map Complex.conj shifts_used) in
  (zc, zo, st_c, st_o, shifts_used, counters)

let hankel_core ?workers sys zc zo =
  Par_kernel.mul ?workers (Mat.transpose zo) (Dss.apply_e sys zc)

let hankel_singular_values ?shifts ?num_shifts ?adi_tol ?max_steps ?stop ?workers sys =
  let zc, zo, _, _, _, _ = gramian_factors ?shifts ?num_shifts ?adi_tol ?max_steps ?stop sys in
  Svd.values ?workers (hankel_core ?workers sys zc zo)

let reduce ?order ?tol ?shifts ?num_shifts ?adi_tol ?max_steps ?stop ?workers sys =
  let t0 = now () in
  let zc, zo, st_c, st_o, shifts_used, counters =
    gramian_factors ?shifts ?num_shifts ?adi_tol ?max_steps ?stop sys
  in
  if zc.Mat.cols = 0 || zo.Mat.cols = 0 then
    invalid_arg "Tbr_lr.reduce: empty Gramian factor";
  let { Svd.u; sigma; v } = Svd.decompose ?workers (hankel_core ?workers sys zc zo) in
  let q = Tbr.truncation_order ~floor:1e-13 ~sigma ?order ?tol () in
  (* T_r = Zc V_q S_q^{-1/2}, T_l = Zo U_q S_q^{-1/2}: the square-root
     projection, with the Gramian factors standing in for the dense
     Cholesky-like factors of Tbr.reduce. *)
  let scale_cols mat cols =
    Mat.init mat.Mat.rows q (fun i j -> Mat.get mat i j *. cols.(j))
  in
  let inv_sqrt = Array.init q (fun i -> 1.0 /. sqrt sigma.(i)) in
  let t_r = scale_cols (Par_kernel.mul ?workers zc (Mat.sub_cols v 0 q)) inv_sqrt in
  let t_l = scale_cols (Par_kernel.mul ?workers zo (Mat.sub_cols u 0 q)) inv_sqrt in
  let rom = Dss.project_oblique sys ~w:t_l ~v:t_r in
  {
    rom;
    hsv = sigma;
    order = q;
    stats =
      {
        ctrl = st_c;
        obs = st_o;
        shifts = shifts_used;
        symbolic = counters.Lyap_ops.symbolic;
        refactorizations = counters.Lyap_ops.numeric;
        solves = counters.Lyap_ops.solve_count;
        col_solves = counters.Lyap_ops.col_solves;
        wall_s = now () -. t0;
      };
  }
