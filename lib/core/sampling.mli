(** Frequency-point selection for PMTBR.  Every scheme produces weighted
    points on the imaginary axis; the weights make [Z W^2 Z^H] a quadrature
    approximation of the Gramian integral (paper eq. 8-11).  Band schemes
    implement the point selection of Algorithm 2 (frequency-selective TBR):
    every choice of points/weights is an implicit frequency weighting
    (Section IV-B). *)

type point = { s : Complex.t; weight : float }

type scheme =
  | Uniform of { w_max : float }  (** midpoint rule on [0, w_max] *)
  | Log of { w_min : float; w_max : float }  (** log-spaced points *)
  | Gauss of { w_max : float }  (** Gauss-Legendre on [0, w_max] *)
  | Bands of (float * float) list  (** union of intervals, Gauss in each *)

val of_rule : Pmtbr_signal.Quad.rule -> point array
(** Turn a quadrature rule over omega into points [s = j omega]. *)

val points : scheme -> count:int -> point array
(** Generate [count] weighted points.  [Bands] distributes the count over
    the bands — [count / nb] points each plus one more in the leading
    [count mod nb] bands — so exactly [count] points come back whenever
    [count >= nb]; with fewer, every band still gets one point ([nb]
    total).  Raises [Invalid_argument] on [count < 1], an empty band list,
    or a band with [hi <= lo]. *)

val of_band : float * float -> scheme
(** The band convention of the CLI's [--band] and the daemon's band
    field: [(lo, hi)] with [lo > 0] is [Bands [(lo, hi)]] (Gauss points
    in the band), otherwise [Uniform { w_max = hi }] (the midpoint rule
    on [[0, hi]]). *)

val band_stop : float * float -> Pmtbr_la.Lr_lyap.stop option
(** The band-limited Lyapunov stop both front ends use for the low-rank
    TBR methods: for [lo > 0], {!Pmtbr_la.Lr_lyap.Band_residual} at 8
    Gauss points of [(lo, hi)] with their weights; [None] (the default
    Frobenius stop) otherwise. *)

val total_weight : point array -> float
(** Total quadrature mass, i.e. the implied bandwidth of the weighting. *)

val reweight : (float -> float) -> point array -> point array
(** Frequency-weighted Gramian sampling (paper eq. 18): multiply each
    quadrature weight by the non-negative weighting function [w omega],
    turning the implied Gramian into the frequency-weighted
    [X_FW = integral (jwE - A)^{-1} B B^T (jwE - A)^{-H} w(omega) dw].
    Raises [Invalid_argument] if [w] returns a negative (or nan) value. *)

val prefixes : point array -> batch:int -> point array list
(** Leading prefixes of sizes [batch, 2*batch, ...], ending with the full
    set. *)

val spread_order : point array -> point array
(** Reorder points so that every prefix covers the whole range roughly
    uniformly (bit-reversal order).  Adaptive order control consumes
    prefixes; a frequency-ordered grid would make each prefix a sub-band
    instead of a coarser sampling of the full band. *)
