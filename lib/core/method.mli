(** The one table of reduction methods.  Each entry names a method, its
    sampling scheme, the job options it reads and its [run]; {!validate}
    goes with the table.  The CLI's [reduce] and [batch], the wire
    protocol's parser and the daemon's store all name methods through
    {!find} and check jobs through {!validate}, so an option means the
    same thing on every route.

    Every method that truncates by singular values reads [order] and
    [tol] through {!Pmtbr_lti.Tbr.choose_order}: [tol] is the tail
    [sum_{i >= q} sigma_i] relative to [sigma_0], and an explicit [order]
    is capped by [tol] when both are given. *)

open Pmtbr_lti

type partition =
  | Parts of int  (** fixed leaf-count dissection goal, in [[2, 4096]] *)
  | Auto  (** recurse to the per-part state budget ([max_part_states]) *)

(** The options of one reduction job. *)
type options = {
  band : float * float;  (** rad/s, finite [0 <= lo < hi] *)
  order : int option;  (** explicit reduced order, [>= 1] *)
  tol : float option;  (** relative singular-value tail, finite [> 0] *)
  samples : int;  (** frequency points, in [[1, 100000]] *)
  partition : partition option;  (** dissection goal (hier) *)
  max_part_states : int option;
      (** per-part state budget in [[1, 1e8]]; only with [partition = Some Auto] *)
  interface_tol : float option;  (** interface-compression tolerance (hier), finite [> 0] *)
  adaptive : bool;  (** on-the-fly order control over the sample cache *)
  draws : int option;  (** random input draws (correlated; default 40), [>= 1] *)
  seed : int;  (** random input draws' seed (correlated) *)
}

val defaults : band:float * float -> options
(** No option given: [samples = 30], [seed = 42]. *)

(** The options a method may read; any other one given is refused by its
    wire name, which is also its CLI flag without [--].  [samples] is the
    exception: every client sends it, so {!validate} accepts it on every
    method, and [Samples] in [reads] only says that the run reads it (the
    daemon's ROM key holds the count for those methods alone). *)
type key = Order | Tol | Samples | Partition | Max_part_states | Interface_tol | Adaptive | Draws

(** What a method runs on: the network and where its sample columns come
    from.  The daemon's store backs [columns], [split] and [part_columns]
    with its tiers; {!source} builds fresh ones. *)
type source = {
  netlist : Pmtbr_circuit.Netlist.t;
  sys : Dss.t;  (** the stamp of [netlist] *)
  ms : Dss.multi_shift Lazy.t;  (** the prepared multi-shift handle of [sys] *)
  workers : int option;  (** solver and dense-kernel pool size *)
  columns : Sampling.point array -> Sample_cache.t;
      (** controllability samples of [sys] at these points, on [ms] *)
  split : partition -> max_part_states:int -> Partition.t;
  part_columns : int -> Partition.part -> Sampling.point array -> Sample_cache.t;
      (** subdomain [i]'s samples at these points; must be domain-safe *)
}

val source : workers:int option -> Pmtbr_circuit.Netlist.t -> source
(** A source that stamps the netlist and samples afresh. *)

(** The counters a run keeps, by kind. *)
type stats =
  | Cache of Sample_cache.stats
  | Hier of Partition.t * float * Hier_reduce.stats  (** partition, its wall (s), stats *)
  | Low_rank of Tbr_lr.stats
  | Passive of Tbr_passive.stats
  | No_counters

type result = {
  rom : Dss.t;
  singular_values : float array;  (** the values the order was chosen from *)
  consumed : (int * int) option;  (** adaptive runs: (used, offered) points or draws *)
  stats : stats;
}

type t = {
  name : string;
  scheme : float * float -> Sampling.scheme;  (** the job's band to its sampling scheme *)
  reads : key list;
  served : bool;  (** the daemon serves it *)
  run : source -> options -> result;
}

val all : t list
(** pmtbr, hier, fs-pmtbr, prima, tbr, tbr-lr, tbr-passive, multipoint,
    cross-gramian, correlated, two-step, pod. *)

val pmtbr : t
val hier : t

val names : string
(** The names of {!all}, comma-separated, for help texts. *)

val find : string -> (t, string) Stdlib.result
(** The method of that name, or an error listing the names. *)

val check_served : t -> (unit, string) Stdlib.result
(** [Error] naming the method as CLI-only unless the daemon serves it. *)

val points : t -> options -> Sampling.point array
(** The job's sample points: [samples] points of the method's scheme. *)

val parse_band : string -> (float * float, string) Stdlib.result
(** Parse ["LO:HI"] (rad/s) and require finite [0 <= lo < hi]. *)

val validate : t -> options -> (options, string) Stdlib.result
(** Every range check of every option, each option the method does not
    read refused by name, and the method's own limits (multipoint keeps
    [order / 2] points, so [order <= 2 * samples]).  The messages name the
    option. *)

exception Refused of string
(** Raised by a run whose options the network cannot take (hier's
    partition count beyond its state count); prints as the message. *)
