(** Content-addressed model store: the three persistent tiers that make
    repeat and incremental reduction queries cheap, in one size-bounded
    {!Lru}.

    - {b Network tier} (keyed by netlist hash): the canonical netlist and
      its stamp, a sparse {!Pmtbr_lti.Dss.t}, plus one prepared
      [Dss.multi_shift] handle — the symbolic sparse-LU analysis is paid
      once per network, ever.  Beside it, one memo entry per verbatim job
      text (keyed by the exact text) holds the text's canonical hash: a
      repeat of the text whose network is resident skips the parse.
    - {b Samples tier} (keyed by hash + sampling scheme): the
      {!Pmtbr_core.Sample_cache} of solved shift columns, so a repeat
      query with a {e tighter tolerance or different order} re-finishes
      through [Pmtbr.of_cache] with zero new solves and no SVD — the
      cache keeps its first finish's decomposition
      ({!Pmtbr_core.Sample_cache.left_svd}), and a re-finish truncates
      it and projects the cache's [c x c] pencil, never the [n]-state
      model.
    - {b ROM tier} (keyed by hash + method + band + tol + order +
      partition, and samples for a method that reads them —
      [Method.Samples] in its [reads]): the finished reduced model,
      returned outright on exact repeats.  A tbr-passive job that
      differs only in [samples] is a ROM hit.

    Hierarchical jobs (method [hier]) add two more tiers: a {b partition
    tier} (hash + part count: the {!Pmtbr_core.Partition.t}) and
    {b per-subdomain sample tiers} keyed by the subdomain's canonical
    sub-netlist hash + its sampling right-hand side + the point scheme —
    so a warm job reuses every subdomain's solved columns, and two
    networks sharing an identical subdomain share its columns too.  The
    network tier's global symbolic analysis is {e lazy}: hierarchical
    jobs never pay it (their factorizations live per subdomain), flat
    methods force it once per network.

    {b Determinism.}  Every tier is a pure function of the job key: the
    multi-shift handle always uses the canonical template shift, sample
    caches are always extended with the full point set in one batch, and
    the reduction finishes through the worker-invariant dense kernels.  A
    job therefore produces a bitwise-identical ROM whether it misses every
    tier, lands on a warm network, or re-finishes a cached sample set —
    and regardless of which jobs ran before it (asserted in the test
    suite and the serve bench).

    Domain-safe: a global lock guards the LRU and counters, a per-network
    lock serialises sample-cache construction and use, so concurrent jobs
    on different networks overlap while same-network jobs queue. *)

open Pmtbr_lti

type t

val create : ?max_cost:int -> ?job_workers:int -> unit -> t
(** [max_cost] is the LRU budget in approximate bytes across every tier
    and the text memo (default 256 MiB); [job_workers] sizes the per-job
    solver and dense-kernel pools (default 1 — service concurrency comes
    from scheduling jobs, results are bitwise-identical either way). *)

type tier = Rom_hit | Samples_hit | Network_hit | Miss

val tier_name : tier -> string
(** ["rom-hit" | "samples-hit" | "network-hit" | "miss"]. *)

type outcome = {
  rom : Dss.t;
  states : int;  (** full-model order *)
  order : int;  (** reduced order *)
  singular_values : float array;
  tier : tier;  (** deepest tier that was already warm *)
  hash : string;  (** content hash of the canonical netlist *)
  digest : string;  (** hex digest of the ROM matrices (bitwise identity) *)
  job_solves : int;  (** shifted solves this job performed *)
  wall_s : float;
  netlist : string option;
      (** canonical synthesized ROM netlist, when the job asked for
          [export] (realizable ROMs only) *)
}

type counters = {
  jobs : int;
  rom_hits : int;
  samples_hits : int;
  network_hits : int;
  misses : int;
  parses : int;  (** network-tier builds (parse + MNA stamp) *)
  hash_hits : int;
      (** jobs whose verbatim text was addressed from the memo, with no
          parse *)
  symbolic : int;  (** multi-shift handles prepared (symbolic analyses) *)
  solves : int;  (** shifted solves across the store lifetime *)
  evictions : int;
}

val counters : t -> counters
(** Snapshot of the lifetime counters. *)

(** Per-network hierarchical counters: the part count of the network's
    last partition and, per subdomain slot, how many jobs found that
    subdomain's sample columns warm ([sub_hits]) vs. had to solve them
    ([sub_misses]).  Reset when a job re-partitions the network with a
    different part count. *)
type hier_net = {
  partitions : int;
  sub_hits : int array;
  sub_misses : int array;
}

val hier_stats : t -> (string * hier_net) list
(** Snapshot of the hierarchical counters, sorted by network hash
    (deterministic order for the stats response). *)

val canonical_hash : string -> (string, string) result
(** Content hash of a netlist text: parse, re-render canonically, digest —
    so formatting, comments and node names do not perturb the address.
    [Error] carries the parse failure.  Pure: the store's memo of
    verbatim texts sits in front of it in {!reduce}, never inside. *)

val rom_digest : Dss.t -> string
(** Hex digest of a model's dense (E, A, B, C) — equal digests certify
    bitwise-identical ROMs. *)

val reduce : t -> Protocol.job -> (outcome, string) result
(** Run (or answer from cache) one reduction job, as {!Protocol} parsed
    it: the tier layer around the method's
    {!Pmtbr_core.Method.t.run}.  The job is checked again through
    {!Pmtbr_core.Method.validate}, and a method the daemon does not serve
    is refused by name; violations, netlist parse errors, port-less
    netlists, singular pencils and a run's failure (["<method> reduction
    failed: ..."]) come back as [Error].

    The run's source is the store's tiers.  Flat columns (pmtbr,
    fs-pmtbr) come from the samples tier, solved on the network tier's
    shared multi-shift handle, which tbr-passive's Gramian solves reuse
    too (tbr-passive has no samples tier — its ADI columns are
    method-specific).  A hier job's partition comes from the partition
    tier, keyed by the dissection mode, and each leaf's columns from a
    per-subdomain samples tier keyed by the leaf's canonical sub-netlist
    hash — re-partitioning that leaves a subtree's leaves unchanged
    re-finds their columns warm; its singular values are the parts'
    concatenated in partition order.  A job's tier is [Samples_hit] when
    it looked up at least one samples entry and none missed.
    [interface_tol] only enters the ROM key: the partition and sample
    tiers are shared across tolerances.  [export] synthesizes the ROM
    back into a canonical netlist ({!outcome.netlist}) — an error if the
    ROM is not RC-realizable. *)
