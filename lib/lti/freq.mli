(** Frequency responses and response-error metrics.

    [eval] is the one-shot per-point evaluation (a fresh factorisation
    of [(sE - A)]); [sweep] and the streaming comparison helpers route
    through {!Sweep_engine}, so grids cost one symbolic analysis (or one
    Hessenberg reduction) plus a cheap per-point replay, fanned across a
    domain pool. *)

open Pmtbr_la

val eval : Dss.t -> Complex.t -> Cmat.t
(** [eval sys s] is the transfer matrix [H(s) = C (sE - A)^{-1} B]
    (outputs x inputs).  One-shot: factors [(sE - A)] from scratch. *)

val eval_jw : Dss.t -> float -> Cmat.t
(** [eval_jw sys omega] is [eval sys (j omega)]. *)

val sweep : ?workers:int -> Dss.t -> float array -> Cmat.t array
(** Responses over a grid of frequencies (rad/s), through the two-tier
    {!Sweep_engine} (plan prepared against the first grid point).  The
    result is a pure function of [(sys, omegas)] — bitwise-identical for
    every worker count. *)

(** {1 Streaming error metrics}

    One {!error_stream} accumulates every metric below over a sequence of
    (reference, approximation) response pairs, so verification loops can
    compare sweeps point by point without materialising either array.
    The readouts are exactly equal to the array-based metrics fed the
    same pairs in the same order. *)

type error_stream

val error_stream : ?i:int -> ?j:int -> unit -> error_stream
(** Fresh accumulator; [(i, j)] (default [(0, 0)]) selects the entry for
    the real-part metrics. *)

val stream_add : error_stream -> ref_:Cmat.t -> apx:Cmat.t -> unit
(** Fold one response pair into the accumulator.  Raises
    [Invalid_argument] when the shapes differ. *)

val stream_max_abs_error : error_stream -> float
val stream_max_rel_error : error_stream -> float
val stream_rms_error : error_stream -> float
val stream_max_real_part_error : error_stream -> float
val stream_max_real_part_rel_error : error_stream -> float

val compare_sweep :
  ?workers:int -> ?i:int -> ?j:int -> Dss.t -> float array -> ref_:Cmat.t array -> error_stream
(** [compare_sweep sys omegas ~ref_] sweeps [sys] over [omegas] through
    the engine, streaming each response against [ref_] — the model's
    responses are never held as an array.  Raises [Invalid_argument] when
    the grid and reference lengths differ. *)

(** {1 Array-based metrics}

    Folds of the stream above over materialised sweeps.  All raise
    [Invalid_argument] (not an [assert], which vanishes in release
    builds) when the sweep lengths differ. *)

val max_abs_error : Cmat.t array -> Cmat.t array -> float
(** Worst-case absolute entrywise difference between two sweeps on the
    same grid. *)

val max_rel_error : Cmat.t array -> Cmat.t array -> float
(** {!max_abs_error} normalised by the largest reference magnitude. *)

val rms_error : Cmat.t array -> Cmat.t array -> float
(** Root-mean-square entrywise error over the sweep. *)

val max_real_part_error : ?i:int -> ?j:int -> Cmat.t array -> Cmat.t array -> float
(** Error restricted to the real part of entry (i, j) — the
    spiral-inductor resistance metric of paper Fig. 7. *)

val max_real_part_rel_error : ?i:int -> ?j:int -> Cmat.t array -> Cmat.t array -> float
(** {!max_real_part_error} normalised by the largest reference real
    part. *)
