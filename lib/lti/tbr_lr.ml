(* Low-rank square-root balanced truncation on top of Lr_lyap.

   Both Gramian sides run through the shared multi-shift solver in
   Lyap_ops: one symbolic analysis, one numeric refactorisation per
   distinct ADI shift, observability factors reused from the
   controllability side via hermitian solves (see Lyap_ops). *)

open Pmtbr_la

type meth = Adi | Extended_krylov

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

let run_side ?shifts ?num_shifts ?(tol = 1e-10) ?max_steps ?stop ~meth ops rhs
    =
  match meth with
  | Adi -> Lr_lyap.lr_adi ?shifts ?num_shifts ~tol ?max_steps ?stop ops rhs
  | Extended_krylov -> (
      match stop with
      | Some (Lr_lyap.Band_residual _) ->
          invalid_arg "Tbr_lr: band-limited stopping requires the ADI engine"
      | _ -> Lr_lyap.extended_krylov ~tol ?max_steps ops rhs)

let controllability_factor ?shifts ?num_shifts ?tol ?max_steps ?stop
    ?(meth = Adi) sys =
  let solve, _ = Lyap_ops.shared_solver sys in
  let ctrl, _ = Lyap_ops.ops_of_dss solve sys in
  run_side ?shifts ?num_shifts ?tol ?max_steps ?stop ~meth ctrl
    (Dss.b_matrix sys)

let observability_factor ?shifts ?num_shifts ?tol ?max_steps ?stop
    ?(meth = Adi) sys =
  let solve, _ = Lyap_ops.shared_solver sys in
  let ctrl, obs = Lyap_ops.ops_of_dss solve sys in
  let shifts =
    match (meth, shifts) with
    | Adi, None ->
        (* same selection the paired run would use, then conjugated *)
        Some
          (Array.map Complex.conj
             (Lr_lyap.penzl_shifts ?num:num_shifts ctrl (Dss.b_matrix sys)))
    | _, s -> Option.map (Array.map Complex.conj) s
  in
  run_side ?shifts ?num_shifts ?tol ?max_steps ?stop ~meth obs
    (Mat.transpose (Dss.c_matrix sys))

(* Both Gramian factors through one shared handle; the core of every public
   entry point. *)
let gramian_factors ?shifts ?num_shifts ?(adi_tol = 1e-10) ?max_steps ?stop
    ~meth sys =
  let solve, counters = Lyap_ops.shared_solver sys in
  let ctrl_ops, obs_ops = Lyap_ops.ops_of_dss solve sys in
  let b = Dss.b_matrix sys and ct = Mat.transpose (Dss.c_matrix sys) in
  let shifts_used =
    match meth with
    | Extended_krylov -> [||]
    | Adi -> (
        match shifts with
        | Some s -> Array.copy s
        | None -> Lr_lyap.penzl_shifts ?num:num_shifts ctrl_ops b)
  in
  let side ops rhs conj_shifts =
    let shifts =
      match meth with
      | Extended_krylov -> None
      | Adi ->
          Some
            (if conj_shifts then Array.map Complex.conj shifts_used
             else shifts_used)
    in
    run_side ?shifts ~tol:adi_tol ?max_steps ?stop ~meth ops rhs
  in
  let zc, st_c = side ctrl_ops b false in
  let zo, st_o = side obs_ops ct true in
  (zc, zo, st_c, st_o, shifts_used, counters)

let hankel_core ?workers sys zc zo =
  Par_kernel.mul ?workers (Mat.transpose zo) (Dss.apply_e sys zc)

let hankel_singular_values ?shifts ?num_shifts ?adi_tol ?max_steps ?stop
    ?(meth = Adi) ?workers sys =
  let zc, zo, _, _, _, _ =
    gramian_factors ?shifts ?num_shifts ?adi_tol ?max_steps ?stop ~meth sys
  in
  Svd.values ?workers (hankel_core ?workers sys zc zo)

let reduce ?order ?tol ?shifts ?num_shifts ?adi_tol ?max_steps ?stop
    ?(meth = Adi) ?workers sys =
  let t0 = now () in
  let zc, zo, st_c, st_o, shifts_used, counters =
    gramian_factors ?shifts ?num_shifts ?adi_tol ?max_steps ?stop ~meth sys
  in
  if zc.Mat.cols = 0 || zo.Mat.cols = 0 then
    invalid_arg "Tbr_lr.reduce: empty Gramian factor";
  let { Svd.u; sigma; v } = Svd.decompose ?workers (hankel_core ?workers sys zc zo) in
  (* order selection mirrors Tbr.reduce *)
  let max_rank =
    let smax = if Array.length sigma = 0 then 0.0 else sigma.(0) in
    let r = ref 0 in
    Array.iter (fun s -> if s > 1e-13 *. smax && s > 0.0 then incr r) sigma;
    !r
  in
  let q =
    match (order, tol) with
    | Some q, None -> min q max_rank
    | None, Some t -> min (Tbr.order_for_tolerance sigma t) max_rank
    | None, None -> max_rank
    | Some _, Some _ -> invalid_arg "Tbr_lr.reduce: give either ~order or ~tol"
  in
  let q = max q 1 in
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
