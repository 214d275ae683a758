(** Plain multipoint rational projection (the paper's MPPROJ baseline,
    Section II-C): the same sample vectors as PMTBR, but the basis keeps
    every orthogonalised sample column instead of truncating by singular
    value — so redundancy among samples is not pruned, which is exactly the
    weakness Fig. 10 exposes. *)

open Pmtbr_la
open Pmtbr_lti

type result = {
  rom : Dss.t;
  basis : Mat.t;
  samples : int;
  stats : Sample_cache.stats;  (** cache counters ([solves = points = count]) *)
}

val reduce : ?workers:int -> Dss.t -> Sampling.point array -> count:int -> result
(** Reduce with the first [count] points (weights ignored: multipoint
    projection has no quadrature interpretation).  The model interpolates
    the transfer function at the sample points.  Runs through a
    {!Sample_cache}.  Raises [Invalid_argument] when [count] is outside
    [\[1, Array.length pts\]]. *)
