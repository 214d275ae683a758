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
   identical for every worker count); each matches one cache source:
   [build] = Controllability, [build_left] = Observability,
   [build_rhs] = Fixed_rhs, [build_per_point] = Per_point. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

(* Legacy one-shot block: full symbolic + numeric factorisation at this
   single point, nothing shared.  Kept as the serial baseline that
   bench/shift_bench.ml measures the engine against. *)
let point_block sys ~(rhs : Mat.t) (p : Sampling.point) =
  let cols = Dss.shifted_solve_rhs sys p.Sampling.s rhs in
  Shift_engine.realify_block ~weight:p.Sampling.weight cols
    ~is_real:(Shift_engine.is_effectively_real p.Sampling.s)

(* Engine tasks solving [rhs] (adjoint side when [hermitian]) at every
   point. *)
let tasks ~rhs ~hermitian (pts : Sampling.point array) =
  Array.map (fun point -> { Shift_engine.point; rhs; hermitian }) pts

let run ~name ?workers ?oversubscribe ?chunk sys (tasks : Shift_engine.task array) =
  if Array.length tasks = 0 then invalid_arg (name ^ ": no sample points");
  fst (Shift_engine.run ?workers ?oversubscribe ?chunk sys tasks)

(* Full ZW matrix for a point set, with B as the right-hand side. *)
let build ?workers ?oversubscribe ?chunk sys pts =
  run ~name:"Zmat.build" ?workers ?oversubscribe ?chunk sys
    (tasks ~rhs:(Dss.b_matrix sys) ~hermitian:false pts)

(* Same, but with one fixed arbitrary right-hand side. *)
let build_rhs ?workers sys ~rhs pts =
  run ~name:"Zmat.build_rhs" ?workers sys (tasks ~rhs ~hermitian:false pts)

(* Same, but with an arbitrary right-hand side per point (the
   input-correlated variant, where each point gets its own input draw). *)
let build_per_point ?workers sys (pts_rhs : (Sampling.point * Mat.t) list) =
  run ~name:"Zmat.build_per_point" ?workers sys
    (Array.of_list
       (List.map (fun (point, rhs) -> { Shift_engine.point; rhs; hermitian = false }) pts_rhs))

(* Observability-side samples (sE - A)^{-H} C^T for the cross-Gramian
   method. *)
let build_left ?workers ?oversubscribe sys pts =
  run ~name:"Zmat.build_left" ?workers ?oversubscribe sys
    (tasks ~rhs:(Mat.transpose (Dss.c_matrix sys)) ~hermitian:true pts)
