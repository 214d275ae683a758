(* Sampled cross-Gramian reduction (paper Section V-D).  Two sample sets are
   taken: controllability samples Z^R = (s_k E - A)^{-1} B and observability
   samples Z^L = (s_k E - A)^{-H} C^T.  The dominant eigenvectors of
   Z^R (Z^L)^T approximate the dominant eigenspace of the cross-Gramian.

   Two routes to the compressed eigenproblem:

   - [of_samples] (the dense kernel over pre-built sample blocks): a
     state-dimension QR of the joint sample block [zr zl] = Q [R^R R^L]
     and the pencil R^R (R^L)^T at the joint column dimension.

   - [reduce] / [reduce_adaptive]: both sides held in
     [Sample_cache]s (sharing one multi-shift handle, so the adjoint
     solves reuse the same symbolic sparse-LU analysis), with
     Z^R = Q_R S_R and Z^L = Q_L S_L maintained as incremental thin QRs.
     An eigenvector v = Q_R y of Z^R (Z^L)^T then satisfies

         S_R S_L^T (Q_L^T Q_R) y = lambda y,

     a pencil built from the two small factors and the small Gram matrix
     [Sample_cache.cross_q], truncated to the right side's numerical rank
     (see [pencil] below) — no state-dimension QR, no dense product
     against an n x cols matrix, and a Schur solve at the numerical-rank
     dimension rather than the joint column dimension.  The adaptive
     variant extends both caches batch by batch (each shift solved once
     per side for the whole run) and stops when the leading pencil
     eigenvalue magnitudes converge. *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;
  basis : Mat.t;
  eigenvalues : Complex.t array; (* of the compressed pencil, |.| descending *)
  samples : int;
  stats : Sample_cache.stats; (* both sides' counters, merged *)
}

(* Rank the pencil eigenvalues by magnitude and pick the model order:
   explicit [order], or count of eigenvalues above [tol] relative to the
   largest magnitude. *)
let select ?order ~tol (evs : Complex.t array) =
  let k = Array.length evs in
  let order_idx = Array.init k (fun i -> i) in
  Array.sort (fun i j -> compare (Complex.norm evs.(j)) (Complex.norm evs.(i))) order_idx;
  let magmax = Float.max 1e-300 (Complex.norm evs.(order_idx.(0))) in
  let q_model =
    match order with
    | Some q -> min q k
    | None ->
        let r = ref 0 in
        Array.iter (fun i -> if Complex.norm evs.(i) > tol *. magmax then incr r) order_idx;
        max 1 !r
  in
  (order_idx, q_model)

(* Real coefficient columns spanning the dominant eigenvectors: Re and Im
   parts of each retained eigenvector, at the pencil dimension [k]. *)
let eigen_coeff schur (order_idx : int array) q_model k =
  let vec_cols = ref [] in
  for rank = q_model - 1 downto 0 do
    let i = order_idx.(rank) in
    let v = Cschur.eigenvector schur i in
    let re = Cvec.re v and im = Cvec.im v in
    if Vec.norm2 im > 1e-12 *. Vec.norm2 re then vec_cols := im :: !vec_cols;
    vec_cols := re :: !vec_cols
  done;
  let cols = Array.of_list !vec_cols in
  Mat.init k (Array.length cols) (fun i j -> cols.(j).(i))

(* ------------------------------------------------------------------ *)
(* Dense kernel (state-dimension QR)                                   *)
(* ------------------------------------------------------------------ *)

(* The original pipeline from pre-built sample blocks — the reference the
   compressed pencil is tested against, and the baseline
   bench/variants_bench.ml gates it on.  The blocks arrive solved, so the
   counters record the columns but no solves. *)
let of_samples ?(order : int option) ?(tol = 1e-8) sys ~(zr : Mat.t) ~(zl : Mat.t) ~samples =
  let q = Qr.orth (Mat.hcat zr zl) in
  let rr = Mat.mul (Mat.transpose q) zr in
  let rl = Mat.mul (Mat.transpose q) zl in
  let m = Mat.mul rr (Mat.transpose rl) in
  let schur = Cschur.of_real m in
  let evs = Cschur.eigenvalues schur in
  let order_idx, q_model = select ?order ~tol evs in
  let small = eigen_coeff schur order_idx q_model (Array.length evs) in
  let small_orth = Qr.orth small in
  let basis = Mat.mul q small_orth in
  let evs_sorted = Array.map (fun i -> evs.(i)) order_idx in
  let stats =
    {
      Sample_cache.solves = 0;
      svds = 0;
      points = 2 * samples;
      columns = zr.Mat.cols + zl.Mat.cols;
      batches = 0;
      factor_s = 0.0;
      solve_s = 0.0;
      batch_wall_s = [||];
      ordering = None;
    }
  in
  { rom = Dss.project_congruence sys basis; basis; eigenvalues = evs_sorted; samples; stats }

(* ------------------------------------------------------------------ *)
(* Compressed-pencil path (column dimension)                           *)
(* ------------------------------------------------------------------ *)

(* S_R S_L^T (Q_L^T Q_R), truncated to the right side's numerical rank.

   Once the sample count exceeds the reachable rank, the thin factors span
   many numerically dead directions, and a Schur solve on the full
   column-dimension pencil grinds through the resulting cluster of
   near-zero eigenvalues (the dense reference never sees them: its
   state-dimension [Qr.orth] truncates rank up front).  [S_R = R D] is
   upper triangular, so one column-pivoted QR — [S_R = W T P^T], [W]'s
   first [r] columns an orthonormal basis of [range S_R] — exposes the
   rank cheaply.  Since [range (Z^R (Z^L)^T) = Q_R (range S_R)], an
   eigenvector [v = Q_R W y] of the full product satisfies

       W^T S_R S_L^T (Q_L^T Q_R) W y = lambda y

   at dimension [r], with no spectrum truncated beyond the rank cut.
   Returns the small pencil and the lift [W]. *)
let pencil ?workers ~right ~left ~scale () =
  let sr = Sample_cache.small_factor right ~scale in
  let sl = Sample_cache.small_factor left ~scale in
  if sr.Mat.cols <> sl.Mat.cols then
    invalid_arg
      (Printf.sprintf
         "Cross_gramian: %d right columns vs %d left columns (system has inputs <> outputs?)"
         sr.Mat.cols sl.Mat.cols);
  let w = Qr.orth ?workers sr in
  let gw = Par_kernel.mul ?workers (Sample_cache.cross_q left right) w in
  let p =
    Par_kernel.mul ?workers (Mat.transpose w)
      (Par_kernel.mul ?workers sr (Par_kernel.mul ?workers (Mat.transpose sl) gw))
  in
  (p, w)

let merged_stats right left =
  Sample_cache.merge_stats (Sample_cache.stats right) (Sample_cache.stats left)

let of_caches ?order ?(tol = 1e-8) ?workers sys ~right ~left ~scale ~samples =
  let p, w = pencil ?workers ~right ~left ~scale () in
  let schur = Cschur.of_real p in
  let evs = Cschur.eigenvalues schur in
  let order_idx, q_model = select ?order ~tol evs in
  let coeff = eigen_coeff schur order_idx q_model (Array.length evs) in
  (* Q_R W is orthonormal up to roundoff, so one thin QR of the lifted
     n x q block — q the model order, not the sample column count —
     restores orthonormality cheaply. *)
  let basis = Qr.orth ?workers (Sample_cache.apply_q right (Par_kernel.mul ?workers w coeff)) in
  let evs_sorted = Array.map (fun i -> evs.(i)) order_idx in
  {
    rom = Dss.project_congruence sys basis;
    basis;
    eigenvalues = evs_sorted;
    samples;
    stats = merged_stats right left;
  }

(* Both sides' caches over one shared multi-shift handle. *)
let make_caches ?workers sys (template : Sampling.point) =
  let ms = Dss.multi_shift ~template:template.Sampling.s sys in
  let right = Sample_cache.create ?workers ~ms sys in
  let left = Sample_cache.create ?workers ~ms ~source:Sample_cache.Observability sys in
  (right, left)

let reduce ?order ?tol ?workers sys (pts : Sampling.point array) =
  if Array.length pts = 0 then invalid_arg "Cross_gramian.reduce: no sample points";
  let right, left = make_caches ?workers sys pts.(0) in
  Sample_cache.extend right pts;
  Sample_cache.extend left pts;
  of_caches ?order ?tol ?workers sys ~right ~left ~scale:1.0 ~samples:(Array.length pts)

(* ------------------------------------------------------------------ *)
(* Adaptive sampling with per-batch eigenvalue convergence             *)
(* ------------------------------------------------------------------ *)

let reduce_adaptive ?order ?(tol = 1e-8) ?(batch = 8) ?(converge_tol = 0.02) ?workers sys
    (pts : Sampling.point array) =
  if Array.length pts = 0 then invalid_arg "Cross_gramian.reduce_adaptive: no sample points";
  if batch < 1 then invalid_arg "Cross_gramian.reduce_adaptive: batch must be >= 1";
  (* prefixes must cover the whole band: consume in bit-reversed order *)
  let pts = Sampling.spread_order pts in
  let n_pts = Array.length pts in
  let right, left = make_caches ?workers sys pts.(0) in
  let finish upto =
    let scale = float_of_int n_pts /. float_of_int upto in
    of_caches ?order ~tol ?workers sys ~right ~left ~scale ~samples:upto
  in
  let rec loop consumed prev =
    let upto = min n_pts (consumed + batch) in
    let chunk = Array.sub pts consumed (upto - consumed) in
    Sample_cache.extend right chunk;
    Sample_cache.extend left chunk;
    (* prefix rescaling keeps every batch approximating the same Gramian
       integral, so the pencil eigenvalues converge instead of growing
       with the sample count; it is a diagonal at assembly, no re-solve *)
    let scale = float_of_int n_pts /. float_of_int upto in
    let mags =
      let p, _ = pencil ?workers ~right ~left ~scale () in
      let m = Array.map Complex.norm (Cschur.eigenvalues (Cschur.of_real p)) in
      Array.sort (fun a b -> compare b a) m;
      m
    in
    let magmax = Float.max 1e-300 mags.(0) in
    let q =
      match order with
      | Some q -> min q (Array.length mags)
      | None ->
          max 1 (Array.fold_left (fun acc m -> if m > tol *. magmax then acc + 1 else acc) 0 mags)
    in
    let converged =
      match prev with
      | None -> false
      | Some prev ->
          let k = min q (min (Array.length prev) (Array.length mags)) in
          let ok = ref (k > 0) in
          for i = 0 to k - 1 do
            let denom = Float.max mags.(i) 1e-300 in
            if Float.abs (mags.(i) -. prev.(i)) /. denom > converge_tol then ok := false
          done;
          !ok
    in
    (* Section V-B's sample-budget guard, in columns (per side) *)
    let enough_columns = Sample_cache.columns right >= 2 * q in
    if upto >= n_pts || (converged && enough_columns) then finish upto
    else loop upto (Some mags)
  in
  loop 0 None
