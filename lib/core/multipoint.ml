(* Plain multipoint rational projection (the paper's MPPROJ baseline,
   Section II-C): the same sample vectors as PMTBR, but the basis keeps
   every (orthogonalised) sample column instead of truncating by singular
   value.  The model order therefore equals the number of realified sample
   columns, and redundant information among samples is not pruned - exactly
   the weakness Fig. 10 exposes.

   The samples run through a [Sample_cache] (controllability source) like
   every other variant, and the result carries the shared counters — one
   solve per point through one symbolic analysis. *)

open Pmtbr_la
open Pmtbr_lti

type result = { rom : Dss.t; basis : Mat.t; samples : int; stats : Sample_cache.stats }

(* Reduce with the first [count] points of [pts] (unweighted: multipoint
   projection has no quadrature interpretation). *)
let reduce ?workers sys (pts : Sampling.point array) ~count =
  if count < 1 || count > Array.length pts then
    invalid_arg
      (Printf.sprintf "Multipoint.reduce: count %d out of range [1, %d]" count
         (Array.length pts));
  let used = Array.sub pts 0 count in
  let unweighted = Array.map (fun p -> { p with Sampling.weight = 1.0 }) used in
  let cache = Sample_cache.create ?workers sys in
  Sample_cache.extend cache unweighted;
  let z = Sample_cache.assemble cache ~scale:1.0 in
  let basis = Qr.orth z in
  {
    rom = Dss.project_congruence sys basis;
    basis;
    samples = count;
    stats = Sample_cache.stats cache;
  }
