(* Frequency-selective TBR (Algorithm 2): identical to PMTBR except that
   the sample points are restricted to the union of the frequency bands of
   interest, which makes the implied Gramian the finite-bandwidth Gramian of
   eq. 16-18.  The reduced model concentrates its accuracy inside the bands
   and ignores out-of-band behaviour.  Being a pure re-parameterisation of
   the point selection, it inherits the whole cache pipeline — adaptive
   order control, solve-once counters — from [Pmtbr]. *)

type band = { lo : float; hi : float } (* rad/s *)

let band ~lo ~hi =
  if not (hi > lo && lo >= 0.0) then
    invalid_arg (Printf.sprintf "Freq_selective.band: bad band [%g, %g]" lo hi);
  { lo; hi }

let scheme_of_bands bands = Sampling.Bands (List.map (fun b -> (b.lo, b.hi)) bands)

(* Reduce with points drawn only from [bands]. *)
let reduce ?order ?tol ?workers sys ~bands ~count =
  Pmtbr.reduce ?order ?tol ?workers sys (Sampling.points (scheme_of_bands bands) ~count)

(* Adaptive variant with on-the-fly order control. *)
let reduce_adaptive ?order ?tol ?batch ?converge_tol ?workers sys ~bands ~count =
  Pmtbr.reduce_adaptive ?order ?tol ?batch ?converge_tol ?workers sys
    (Sampling.points (scheme_of_bands bands) ~count)
