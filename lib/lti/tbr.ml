(* Exact truncated balanced realisation (TBR), the baseline the paper's
   method approximates.  Implemented with the square-root method: factor
   both Gramians, SVD the product of the factors, build the oblique
   balancing projection.  The Hankel singular values come out of the SVD and
   give Glover's error bound 2 * sum of the truncated tail. *)

open Pmtbr_la

type t = {
  rom : Dss.t; (* reduced standard-form model *)
  hsv : float array; (* all Hankel singular values, descending *)
  order : int;
}

(* Glover bound for truncating at [order]: 2 * sum_{i>order} sigma_i. *)
let error_bound hsv order =
  let acc = ref 0.0 in
  Array.iteri (fun i s -> if i >= order then acc := !acc +. s) hsv;
  2.0 *. !acc

(* The one order rule of every method that truncates by singular values
   (Section V-B): keep sigma_i while the *tail sum* exceeds [tol]
   relative to sigma_0, so [tol] means the same on every network scale.
   An explicit [order] wins outright (clamped to the number of values);
   only when the caller passes [tol] as well does the tail criterion cap
   it — a *default* tolerance must never shrink a model the caller sized
   explicitly. *)
let choose_order ~(sigma : float array) ?order ?tol () =
  let n = Array.length sigma in
  if n = 0 then 0
  else begin
    (* smallest q with sum_{i>=q} sigma_i <= tol * sigma_0 *)
    let from_tol tol =
      let smax = Float.max sigma.(0) 1e-300 in
      let tail = Array.make (n + 1) 0.0 in
      for i = n - 1 downto 0 do
        tail.(i) <- tail.(i + 1) +. sigma.(i)
      done;
      let rec search q =
        if q >= n then n else if tail.(q) <= tol *. smax then q else search (q + 1)
      in
      max 1 (search 0)
    in
    match (order, tol) with
    | Some q, None -> max 1 (min q n)
    | Some q, Some tol -> max 1 (min q (from_tol tol))
    | None, _ -> from_tol (Option.value tol ~default:1e-10)
  end

(* [choose_order], then never keep a value at or below [floor] * sigma_0:
   those directions are numerical noise (a square-root truncation would
   divide by them).  At least one value is kept. *)
let truncation_order ~floor ~sigma ?order ?tol () =
  let q = choose_order ~sigma ?order ?tol () in
  if Array.length sigma = 0 then 1
  else
    let smax = Float.max sigma.(0) 1e-300 in
    let rec cap k =
      if k <= 1 then 1 else if sigma.(k - 1) > floor *. smax then k else cap (k - 1)
    in
    cap q

let hankel_singular_values ?k ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) () =
  let x = Gramian.controllability ?k ~a ~b () in
  let y = Gramian.observability ~a ~c () in
  let l = Eig_sym.psd_factor x in
  let m = Eig_sym.psd_factor y in
  Svd.values (Mat.mul (Mat.transpose m) l)

(* Balanced truncation of a standard-form model; [order] and [tol] choose
   the reduced size through [choose_order].  [k] is the optional input
   correlation matrix for input-correlated TBR. *)
let reduce ?order ?tol ?k ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) () =
  let x = Gramian.controllability ?k ~a ~b () in
  let y = Gramian.observability ~a ~c () in
  let l = Eig_sym.psd_factor x in
  let m = Eig_sym.psd_factor y in
  let { Svd.u; sigma; v } = Svd.decompose (Mat.mul (Mat.transpose m) l) in
  let q = truncation_order ~floor:1e-13 ~sigma ?order ?tol () in
  (* T_r = L V_q S_q^{-1/2}, T_l = M U_q S_q^{-1/2} *)
  let scale_cols mat cols =
    Mat.init mat.Mat.rows q (fun i j -> Mat.get mat i j *. cols.(j))
  in
  let inv_sqrt = Array.init q (fun i -> 1.0 /. sqrt sigma.(i)) in
  let t_r = scale_cols (Mat.mul l (Mat.sub_cols v 0 q)) inv_sqrt in
  let t_l = scale_cols (Mat.mul m (Mat.sub_cols u 0 q)) inv_sqrt in
  let a_r = Mat.mul (Mat.transpose t_l) (Mat.mul a t_r) in
  let b_r = Mat.mul (Mat.transpose t_l) b in
  let c_r = Mat.mul c t_r in
  { rom = Dss.of_standard ~a:a_r ~b:b_r ~c:c_r; hsv = sigma; order = q }

(* Balanced truncation of a descriptor system with invertible E. *)
let reduce_dss ?order ?tol ?k sys =
  let a, b, c = Dss.to_standard sys in
  reduce ?order ?tol ?k ~a ~b ~c ()

let hsv_dss sys =
  let a, b, c = Dss.to_standard sys in
  hankel_singular_values ~a ~b ~c ()
