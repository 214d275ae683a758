(* State-dimension reference paths that the production finishes
   ([Pmtbr.of_cache], [Cross_gramian.reduce]) are pinned against. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

type finish = { rom : Dss.t; basis : Mat.t; singular_values : float array }

(* PMTBR's finish on an assembled n x c sample matrix: SVD at the state
   dimension, the dominant left singular vectors as the basis, congruence
   projection.  [Pmtbr.of_cache] runs exactly this on wide caches (c > n),
   so there the two agree bit for bit; on tall ones it reaches the same
   subspace through the c x c factor. *)
let pmtbr_finish sys ~(zw : Mat.t) ?order ?tol ?workers () =
  let u, sigma = Svd.left ?workers zw in
  (* never keep directions below numerical noise *)
  let q = Tbr.truncation_order ~floor:1e-14 ~sigma ?order ?tol () in
  let basis = Mat.sub_cols u 0 q in
  { rom = Dss.project_congruence sys basis; basis; singular_values = sigma }

(* The dense cross-Gramian pipeline: both sides' one-shot sample blocks
   through the state-dimension QR of [Cross_gramian.of_samples]. *)
let cross_gramian ?order ?tol ?workers sys (pts : Sampling.point array) =
  Cross_gramian.of_samples ?order ?tol sys ~zr:(Zmat.build ?workers sys pts)
    ~zl:(Zmat.build_left ?workers sys pts) ~samples:(Array.length pts)
