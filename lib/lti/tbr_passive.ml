(* Passivity-preserving balanced truncation for reciprocal RC/RLCk
   descriptor systems — the one-Gramian scheme of Tanji
   (arXiv 1811.04630).

   A current-driven MNA system with states [node voltages; inductor
   currents] has E symmetric block-diagonal, A with the skew incidence
   blocks, C = B^T, and the signature J = diag(I_nodes, -I_ind)
   satisfies

       J E J = E,   J A J = A^T,   J B = B.

   Substituting into the observability Lyapunov equation shows
   Y = J Xc J: the observability Gramian IS the (J-reflected)
   controllability Gramian, so one low-rank solve delivers both factors —
   Zo = J Zc — halving the shifted-solve columns of the two-sided
   Tbr_lr run on the same system (the Ritz solves for shift selection
   are shared and cost both methods the same; compare col_solves, not
   call counts).

   Balancing then needs no SVD: the Hankel core
   M = Zo^T E Zc = Zc^T (J E) Zc is symmetric ((JE)^T = E J = J E since
   E is block-diagonal with respect to the signature), so an eigen-
   decomposition M = V L V^T gives the singular values |l_i| and the
   projection bases

       t_r = Zc V_q |L_q|^{-1/2},   t_l = (J Zc) V_q S_q |L_q|^{-1/2}

   with S = diag(sign l_i); t_l^T E t_r = I by construction.  For RC
   systems (no inductors, J = I) M is positive semidefinite, t_l = t_r,
   and the projection is a pure congruence — E_r stays PSD, A_r stays
   NSD, C_r = B_r^T, so the reduced model is provably passive and
   {!synthesize} can realise it as an R/C netlist.  For RLCk the
   projection preserves the J-structure instead (W = J V S), keeping the
   reduced model reciprocal; passivity is checked a posteriori with
   {!positive_real_residual}. *)

open Pmtbr_la

type stats = {
  gramian : Lr_lyap.stats;
  shifts : Complex.t array;
  symbolic : int;
  refactorizations : int;
  solves : int;
  col_solves : int;
  wall_s : float;
}

type t = { rom : Dss.t; hsv : float array; order : int; stats : stats }

let now () = Unix.gettimeofday ()

(* J V: negate the trailing [inductors] rows (states are nodes first,
   then inductor currents — the Mna stamp order). *)
let apply_j ~inductors (v : Mat.t) =
  if inductors = 0 then v
  else
    Mat.init v.Mat.rows v.Mat.cols (fun i j ->
        let x = Mat.get v i j in
        if i >= v.Mat.rows - inductors then -.x else x)

let check_reciprocal sys =
  let b = Dss.b_matrix sys and c = Dss.c_matrix sys in
  let scale = Float.max (Mat.max_abs b) 1e-300 in
  if
    b.Mat.rows <> c.Mat.cols
    || b.Mat.cols <> c.Mat.rows
    || Mat.max_abs (Mat.sub c (Mat.transpose b)) > 1e-12 *. scale
  then
    invalid_arg
      "Tbr_passive: C <> B^T — the one-Gramian scheme needs a reciprocal \
       (current-driven MNA) system"

let asym m =
  let worst = ref 0.0 in
  for i = 0 to m.Mat.rows - 1 do
    for j = i + 1 to m.Mat.cols - 1 do
      worst := Float.max !worst (Float.abs (Mat.get m i j -. Mat.get m j i))
    done
  done;
  !worst

let reduce ?order ?tol ?shifts ?num_shifts ?(adi_tol = 1e-10) ?max_steps
    ?stop ?(meth = Tbr_lr.Adi) ?(inductors = 0) ?ms ?workers sys =
  let t0 = now () in
  let n = Dss.order sys in
  if inductors < 0 || inductors > n then
    invalid_arg "Tbr_passive: inductors out of range";
  check_reciprocal sys;
  let solve, counters = Lyap_ops.shared_solver ?ms sys in
  let ctrl_ops, obs_ops = Lyap_ops.ops_of_dss solve sys in
  (* structural probe on one deterministic vector: the scheme is only
     valid when J E J = E and J A J = A^T — a wrong [inductors] split
     breaks both even when E is diagonal (where the Hankel-core symmetry
     check below cannot fire) *)
  let v = Mat.of_fun n 1 (fun i _ -> 1.0 +. (float_of_int (i mod 17) /. 17.0)) in
  let jv = apply_j ~inductors v in
  let jaj = apply_j ~inductors (Dss.apply_a sys jv) in
  let at_v = obs_ops.Lr_lyap.mul_a v in
  let jej = apply_j ~inductors (Dss.apply_e sys jv) in
  let e_v = Dss.apply_e sys v in
  let bad m1 m2 =
    Mat.max_abs (Mat.sub m1 m2)
    > 1e-8 *. Float.max (Mat.max_abs m2) 1e-300
  in
  if bad jaj at_v || bad jej e_v then
    invalid_arg
      "Tbr_passive: system is not J-symmetric (check ~inductors and the \
       E/A structure)";
  let b = Dss.b_matrix sys in
  let shifts_used =
    match meth with
    | Tbr_lr.Extended_krylov -> [||]
    | Tbr_lr.Adi -> (
        match shifts with
        | Some s -> Array.copy s
        | None -> Lr_lyap.penzl_shifts ?num:num_shifts ctrl_ops b)
  in
  let zc, st =
    match meth with
    | Tbr_lr.Adi ->
        Lr_lyap.lr_adi ~shifts:shifts_used ~tol:adi_tol ?max_steps ?stop
          ctrl_ops b
    | Tbr_lr.Extended_krylov -> (
        match stop with
        | Some (Lr_lyap.Band_residual _) ->
            invalid_arg
              "Tbr_passive: band-limited stopping requires the ADI engine"
        | _ -> Lr_lyap.extended_krylov ~tol:adi_tol ?max_steps ctrl_ops b)
  in
  if zc.Mat.cols = 0 then invalid_arg "Tbr_passive: empty Gramian factor";
  (* one Gramian, both factors: Zo = J Zc *)
  let jz = apply_j ~inductors zc in
  let m_raw =
    Par_kernel.mul ?workers (Mat.transpose jz) (Dss.apply_e sys zc)
  in
  (* exact symmetry of M is structural ((JE)^T = JE), independent of the
     solver tolerance — a large asymmetry means the system is not
     J-symmetric (wrong [inductors], or E not symmetric) *)
  if asym m_raw > 1e-8 *. Float.max (Mat.max_abs m_raw) 1e-300 then
    invalid_arg
      "Tbr_passive: Zc^T (J E) Zc is not symmetric — system is not \
       J-symmetric (check ~inductors and the E/A structure)";
  let m = Mat.symmetrize m_raw in
  let values, vectors = Eig_sym.decompose m in
  (* balance by |l|: indices sorted by magnitude, descending *)
  let idx = Array.init (Array.length values) Fun.id in
  Array.sort
    (fun i j -> compare (Float.abs values.(j)) (Float.abs values.(i)))
    idx;
  let hsv = Array.map (fun i -> Float.abs values.(i)) idx in
  let max_rank =
    let smax = if Array.length hsv = 0 then 0.0 else hsv.(0) in
    let r = ref 0 in
    Array.iter (fun s -> if s > 1e-13 *. smax && s > 0.0 then incr r) hsv;
    !r
  in
  let q =
    match (order, tol) with
    | Some q, None -> min q max_rank
    | None, Some t -> min (Tbr.order_for_tolerance hsv t) max_rank
    | None, None -> max_rank
    | Some _, Some _ ->
        invalid_arg "Tbr_passive.reduce: give either ~order or ~tol"
  in
  let q = max q 1 in
  (* t_r = Zc V_q |L_q|^{-1/2}, t_l = (J Zc) V_q S_q |L_q|^{-1/2} *)
  let vq = Mat.init vectors.Mat.rows q (fun i j -> Mat.get vectors i idx.(j)) in
  let scale_cols mat cols =
    Mat.init mat.Mat.rows q (fun i j -> Mat.get mat i j *. cols.(j))
  in
  let inv_sqrt = Array.init q (fun j -> 1.0 /. sqrt hsv.(j)) in
  let signed =
    Array.init q (fun j ->
        (if values.(idx.(j)) < 0.0 then -1.0 else 1.0) *. inv_sqrt.(j))
  in
  let t_r = scale_cols (Par_kernel.mul ?workers zc vq) inv_sqrt in
  let t_l = scale_cols (Par_kernel.mul ?workers jz vq) signed in
  let rom = Dss.project_oblique sys ~w:t_l ~v:t_r in
  {
    rom;
    hsv;
    order = q;
    stats =
      {
        gramian = st;
        shifts = shifts_used;
        symbolic = counters.Lyap_ops.symbolic;
        refactorizations = counters.Lyap_ops.numeric;
        solves = counters.Lyap_ops.solve_count;
        col_solves = counters.Lyap_ops.col_solves;
        wall_s = now () -. t0;
      };
  }

let synthesize ?drop_tol ?workers t =
  let rom = t.rom in
  Pmtbr_circuit.Synth.realize ?drop_tol ?workers ~e:(Dss.e_dense rom)
    ~a:(Dss.a_dense rom) ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom) ()

(* Worst positive-real violation of the hermitian part of H(s) over the
   sample points: the most negative eigenvalue of H + H^H, clamped at 0.
   The 2p x 2p real embedding [[Re K, -Im K]; [Im K, Re K]] of the
   hermitian K has K's eigenvalues (each twice), so the symmetric real
   eigensolver suffices. *)
let positive_real_residual sys points =
  let worst = ref 0.0 in
  Array.iter
    (fun s ->
      let h = Freq.eval sys s in
      let p = h.Cmat.rows in
      let re = Cmat.re h and im = Cmat.im h in
      (* K = (H + H^H)/2: Re K = sym(Re H), Im K = skew(Im H) *)
      let embed =
        Mat.of_fun (2 * p) (2 * p) (fun i j ->
            let kre i j = 0.5 *. (Mat.get re i j +. Mat.get re j i) in
            let kim i j = 0.5 *. (Mat.get im i j -. Mat.get im j i) in
            match (i < p, j < p) with
            | true, true -> kre i j
            | true, false -> -.kim i (j - p)
            | false, true -> kim (i - p) j
            | false, false -> kre (i - p) (j - p))
      in
      let ev = Eig_sym.eigenvalues embed in
      let lmin = ev.(Array.length ev - 1) in
      if -.lmin > !worst then worst := -.lmin)
    points;
  !worst
