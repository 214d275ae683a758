(* One-shot assembly of the weighted, realified sample matrix Z W — the
   reference the [Sample_cache] sources are tested bitwise against, and
   the baseline the benches time the engine against.

   Each frequency point s_k contributes the columns of
   sqrt(w_k) * (s_k E - A)^{-1} B.  Complex samples at +j w also stand for
   their conjugates at -j w (step 5 of Algorithm 1); since
   span{z, z*} = span{Re z, Im z} over the reals, the real and imaginary
   parts are stored as two real columns.  Points with (numerically) zero
   imaginary part contribute only their real columns.

   The builders run the points through [Shift_engine.run] in one batch
   (one shared symbolic analysis, shifts over [?workers] domains, results
   identical for every worker count) and weight its raw columns here,
   independently of the cache's per-column diagonal; each matches one
   cache source: [build] = Controllability, [build_left] = Observability,
   [build_rhs] = Fixed_rhs, [build_per_point] = Per_point. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

(* Weighted real column block for one solved sample: every entry is
   [sqrt w *. x] for the raw realified entry [x]. *)
let realify_block ~(weight : float) (cols : Complex.t array array) ~(is_real : bool) =
  let p = Array.length cols in
  assert (p > 0);
  let n = Array.length cols.(0) in
  let w = sqrt (Float.max 0.0 weight) in
  if is_real then Mat.init n p (fun i j -> w *. cols.(j).(i).Complex.re)
  else
    (* conjugate pair weight: both half-axes contribute; the constant
       factor 2 folds into the weight and is irrelevant to the subspace *)
    Mat.init n (2 * p) (fun i j ->
        let z = cols.(j / 2).(i) in
        w *. (if j mod 2 = 0 then z.Complex.re else z.Complex.im))

(* Legacy one-shot block: full symbolic + numeric factorisation at this
   single point, nothing shared.  Kept as the serial baseline that
   bench/shift_bench.ml measures the engine against. *)
let point_block sys ~(rhs : Mat.t) (p : Sampling.point) =
  let cols = Dss.shifted_solve_rhs sys p.Sampling.s rhs in
  realify_block ~weight:p.Sampling.weight cols
    ~is_real:(Shift_engine.is_effectively_real p.Sampling.s)

let task ~hermitian ((p : Sampling.point), rhs) = { Shift_engine.s = p.s; rhs; hermitian }

(* Engine tasks solving [rhs] (adjoint side when [hermitian]) at every
   point. *)
let tasks ~rhs ~hermitian pts = Array.map (fun p -> task ~hermitian (p, rhs)) pts

(* Solve every (point, rhs) through the engine and scale point k's raw
   columns by sqrt w_k, in point order. *)
let run ~name ?workers ~hermitian sys (pts_rhs : (Sampling.point * Mat.t) array) =
  if Array.length pts_rhs = 0 then invalid_arg (name ^ ": no sample points");
  let cols, _ = Shift_engine.run ?workers sys (Array.map (task ~hermitian) pts_rhs) in
  let weights =
    Array.concat
      (Array.to_list
         (Array.map
            (fun ((p : Sampling.point), (rhs : Mat.t)) ->
              let per = if Shift_engine.is_effectively_real p.s then 1 else 2 in
              Array.make (per * rhs.Mat.cols) (sqrt (Float.max 0.0 p.weight)))
            pts_rhs))
  in
  Mat.init (Dss.order sys) (Array.length cols) (fun i j -> weights.(j) *. cols.(j).(i))

let with_rhs rhs pts = Array.map (fun p -> (p, rhs)) pts

(* Full ZW matrix for a point set, with B as the right-hand side. *)
let build ?workers sys pts =
  run ~name:"Zmat.build" ?workers ~hermitian:false sys (with_rhs (Dss.b_matrix sys) pts)

(* Same, but with one fixed arbitrary right-hand side. *)
let build_rhs ?workers sys ~rhs pts =
  run ~name:"Zmat.build_rhs" ?workers ~hermitian:false sys (with_rhs rhs pts)

(* Same, but with an arbitrary right-hand side per point (the
   input-correlated variant, where each point gets its own input draw). *)
let build_per_point ?workers sys (pts_rhs : (Sampling.point * Mat.t) list) =
  run ~name:"Zmat.build_per_point" ?workers ~hermitian:false sys (Array.of_list pts_rhs)

(* Observability-side samples (sE - A)^{-H} C^T for the cross-Gramian
   method. *)
let build_left ?workers sys pts =
  run ~name:"Zmat.build_left" ?workers ~hermitian:true sys
    (with_rhs (Mat.transpose (Dss.c_matrix sys)) pts)
