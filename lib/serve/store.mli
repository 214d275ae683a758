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
      through [Pmtbr.of_cache] with zero new solves — a re-finish
      projects the cache's [c x c] pencil, never the [n]-state model.
    - {b ROM tier} (keyed by hash + method + band + tol + order +
      samples + partition): the finished reduced model, returned outright
      on exact repeats.

    Hierarchical jobs ([meth = Hier]) add two more tiers: a {b partition
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
    it: the tier layer around the library's reducers.  The band must
    satisfy {!Protocol.validate_band} and [samples] must be positive;
    violations, netlist parse errors, port-less netlists and singular
    pencils come back as [Error].

    [meth = Pmtbr | Fs_pmtbr] finishes through [Pmtbr.of_cache] on the
    samples tier.

    [meth = Tbr_passive] runs the one-Gramian passivity-preserving
    truncation through the network tier's shared multi-shift handle (no
    samples tier — the ADI columns are method-specific); a band with
    [lo > 0] switches the Gramian solver to the band-limited residual
    criterion ({!Pmtbr_core.Sampling.band_stop}).  [meth = Hier] dissects
    per [partition] ([Parts k], default
    {!Pmtbr_core.Partition.default_parts}, or [Auto] recursing to
    [max_part_states] states per part, default
    {!Pmtbr_core.Partition.default_max_states}; ignored by other methods)
    and runs {!Pmtbr_core.Hier_reduce.reduce_with_columns}, the driver
    behind [reduce_partitioned], feeding it each leaf's columns from the
    per-subdomain sample tiers (sampling and caching them on a miss); its
    tier is [Samples_hit] when at least one subdomain was sampled and
    every sampled one was warm, and its singular values are the parts'
    concatenated in partition order.
    The partition tier is keyed by the dissection mode, and the
    per-subdomain sample tiers by each leaf's canonical sub-netlist hash
    — re-partitioning that leaves a subtree's leaves unchanged re-finds
    their columns warm.  [interface_tol] compresses the assembled
    interface block through the second-pass PMTBR (the partition and
    sample tiers are shared across tolerances; only the ROM key carries
    it).  [export] synthesizes the ROM back into a canonical netlist
    ({!outcome.netlist}) — an error if the ROM is not RC-realizable. *)
