(** Two-step Krylov + TBR reduction (the hybrid scheme of the paper's
    references [5], [13]): PRIMA to an intermediate order, then exact dense
    TBR to the final size.  PMTBR subsumes this pipeline in one pass; the
    module exists as a measurable baseline. *)

type result = {
  rom : Pmtbr_lti.Dss.t;
  intermediate_order : int;  (** order after the Krylov stage *)
  hsv : float array;  (** Hankel singular values of the intermediate model *)
}

val reduce : Pmtbr_lti.Dss.t -> s0:float -> intermediate:int -> ?order:int -> ?tol:float ->
  unit -> result
(** Run PRIMA to [intermediate] states at expansion point [s0], then
    balanced truncation at [order] and [tol] (see {!Pmtbr_lti.Tbr.reduce}). *)
