(** Frequency-selective TBR (Algorithm 2): PMTBR with sample points
    restricted to the union of the frequency bands of interest, making the
    implied Gramian the finite-bandwidth Gramian of paper eq. 16-18.  The
    reduced model concentrates its accuracy inside the bands and ignores
    out-of-band behaviour. *)

type band = { lo : float; hi : float }
(** A frequency interval in rad/s. *)

val band : lo:float -> hi:float -> band
(** Validated constructor ([0 <= lo < hi]); raises [Invalid_argument]
    otherwise. *)

val scheme_of_bands : band list -> Sampling.scheme
(** The sampling scheme drawing Gauss-Legendre points in each band. *)

val reduce : ?order:int -> ?tol:float -> ?workers:int -> Pmtbr_lti.Dss.t -> bands:band list ->
  count:int -> Pmtbr.result
(** Reduce with [count] points drawn only from [bands], through
    {!Pmtbr.reduce} ([result.stats] carries the solve counters). *)

val reduce_adaptive : ?order:int -> ?tol:float -> ?batch:int -> ?converge_tol:float ->
  ?workers:int -> Pmtbr_lti.Dss.t -> bands:band list -> count:int -> Pmtbr.result
(** Adaptive variant with on-the-fly order control (see
    {!Pmtbr.reduce_adaptive}). *)
