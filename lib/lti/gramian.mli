(** Gramians of standard-form systems ([E = I]), with optional input
    correlation: paper Section IV-C replaces [B B^T] by [B K B^T]. *)

open Pmtbr_la

val controllability : ?k:Mat.t -> a:Mat.t -> b:Mat.t -> unit -> Mat.t
(** Solve [A X + X A^T + B K B^T = 0] ([K] defaults to the identity). *)

val observability : a:Mat.t -> c:Mat.t -> unit -> Mat.t
(** Solve [A^T Y + Y A + C^T C = 0]. *)

val cross : a:Mat.t -> b:Mat.t -> c:Mat.t -> unit -> Mat.t
(** Cross Gramian: solve [A X + X A + B C = 0] (square systems). *)

