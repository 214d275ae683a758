(* Content-addressed model store.  See the interface for the tier layout
   and the determinism argument; the load-bearing choices are:

   - The canonical address is the hash of the *re-rendered* parse, so two
     texts that stamp the same network share every tier.  A verbatim
     repeat of a text skips the parse: the LRU memoises each text's hash,
     keyed by the exact text.

   - The network tier's multi-shift handle is built with the canonical
     default template shift, never a job's first sample point: the handle
     (and hence every solved column downstream) is a function of the
     network alone, which is what makes a warm-path ROM bitwise-identical
     to the cold-path one for any job history.

   - Sample caches are always extended with the whole point set in one
     batch, so a cache built on a warm network holds exactly the columns a
     cold run would have produced.

   - Locking: [t.lock] (innermost) guards the LRU and counters only;
     [network.lock] (outermost) serialises cache construction and use per
     network.  Nothing acquires [network.lock] while holding [t.lock], so
     the order is acyclic. *)

open Pmtbr_core
open Pmtbr_lti

(* The multi-shift handle is lazy: flat methods force it (paying the
   global symbolic analysis once per network), while hierarchical jobs
   never do — their factorizations live per subdomain, which is the whole
   point of serving networks beyond one global sparse LU. *)
type network = {
  sys : Dss.t;
  nl : Pmtbr_circuit.Netlist.t; (* canonical: hier partitions and passive's inductor count *)
  ms : Dss.multi_shift Lazy.t;
  lock : Mutex.t;
}

type rom_entry = { r_rom : Dss.t; r_sigma : float array; r_digest : string }

type entry =
  | Network of network
  | Hash of string (* the canonical hash of one verbatim job text *)
  | Samples of Sample_cache.t
  | Rom of rom_entry
  | Part of Partition.t

(* Per-network hierarchical counters (satellite of the stats response):
   how the network was last partitioned and, per subdomain slot, how
   often its sample columns were already warm.  Guarded by [t.lock]. *)
type hier_net = {
  partitions : int;
  sub_hits : int array;
  sub_misses : int array;
}

type mutable_counters = {
  mutable c_jobs : int;
  mutable c_rom_hits : int;
  mutable c_samples_hits : int;
  mutable c_network_hits : int;
  mutable c_misses : int;
  mutable c_parses : int;
  mutable c_hash_hits : int;
  mutable c_symbolic : int;
  mutable c_solves : int;
  mutable c_evictions : int;
}

type t = {
  lru : entry Lru.t;
  lock : Mutex.t;
  ctr : mutable_counters;
  hier : (string, hier_net) Hashtbl.t;  (* network hash -> counters *)
  job_workers : int;
}

let create ?(max_cost = 256 * 1024 * 1024) ?(job_workers = 1) () =
  let ctr =
    {
      c_jobs = 0;
      c_rom_hits = 0;
      c_samples_hits = 0;
      c_network_hits = 0;
      c_misses = 0;
      c_parses = 0;
      c_hash_hits = 0;
      c_symbolic = 0;
      c_solves = 0;
      c_evictions = 0;
    }
  in
  (* on_evict runs inside Lru.add, which the store only calls under
     [t.lock] — the counter bump is already serialised *)
  let lru = Lru.create ~on_evict:(fun _ _ -> ctr.c_evictions <- ctr.c_evictions + 1) ~max_cost ()
  in
  { lru; lock = Mutex.create (); ctr; hier = Hashtbl.create 16; job_workers = max 1 job_workers }

type tier = Rom_hit | Samples_hit | Network_hit | Miss

let tier_name = function
  | Rom_hit -> "rom-hit"
  | Samples_hit -> "samples-hit"
  | Network_hit -> "network-hit"
  | Miss -> "miss"

type outcome = {
  rom : Dss.t;
  states : int;
  order : int;
  singular_values : float array;
  tier : tier;
  hash : string;
  digest : string;
  job_solves : int;
  wall_s : float;
  netlist : string option;
}

type counters = {
  jobs : int;
  rom_hits : int;
  samples_hits : int;
  network_hits : int;
  misses : int;
  parses : int;
  hash_hits : int;
  symbolic : int;
  solves : int;
  evictions : int;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let counters t =
  with_lock t.lock (fun () ->
      {
        jobs = t.ctr.c_jobs;
        rom_hits = t.ctr.c_rom_hits;
        samples_hits = t.ctr.c_samples_hits;
        network_hits = t.ctr.c_network_hits;
        misses = t.ctr.c_misses;
        parses = t.ctr.c_parses;
        hash_hits = t.ctr.c_hash_hits;
        symbolic = t.ctr.c_symbolic;
        solves = t.ctr.c_solves;
        evictions = t.ctr.c_evictions;
      })

let hier_stats t =
  with_lock t.lock (fun () ->
      Hashtbl.fold
        (fun hash hn acc ->
          (hash, { hn with sub_hits = Array.copy hn.sub_hits; sub_misses = Array.copy hn.sub_misses })
          :: acc)
        t.hier []
      |> List.sort compare)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

(* The netlist that gets STAMPED is rebuilt from the canonical IR, not
   from the submitted text's own node numbering: the network tier (and
   every ROM derived from it) must be a pure function of the canonical
   hash, so two reformatted texts of the same circuit produce
   bitwise-identical ROMs no matter which of them built the tier first. *)
let canonicalize text =
  match Pmtbr_circuit.Spice.parse_string text with
  | parsed ->
      let ir = Pmtbr_circuit.Spice_ir.canonical (Pmtbr_circuit.Spice.ir parsed) in
      let nl = Pmtbr_circuit.Spice_ir.to_netlist ir in
      let* () = Pmtbr_circuit.Netlist.check_reducible nl in
      Ok (nl, Pmtbr_circuit.Spice_ir.render ir)
  | exception (Pmtbr_circuit.Spice.Parse_error _ as e) -> Error (Printexc.to_string e)

let hash_of_canonical canonical = Digest.to_hex (Digest.string canonical)

let canonical_hash text =
  Result.map (fun (_, canonical) -> hash_of_canonical canonical) (canonicalize text)

let rom_digest rom =
  let e = Dss.e_dense rom
  and a = Dss.a_dense rom
  and b = Dss.b_matrix rom
  and c = Dss.c_matrix rom in
  Digest.to_hex (Digest.string (Marshal.to_string (e, a, b, c) []))

(* ------------------------------------------------------------------ *)
(* Keys, points and costs                                              *)
(* ------------------------------------------------------------------ *)

(* The solved columns depend on the method's sampling scheme, the band
   and the count; pmtbr and hier follow the shared band convention
   ([Sampling.of_band]), fs-pmtbr and tbr-passive Gauss points in the
   band — so an in-band pmtbr and fs-pmtbr request share the samples
   tier. *)
let scheme_descriptor (m : Method.t) (o : Method.options) =
  let lo, hi = o.Method.band in
  let kind =
    match m.Method.scheme o.Method.band with Sampling.Uniform _ -> "uniform" | _ -> "bands"
  in
  Printf.sprintf "%s|%.17g:%.17g|%d" kind lo hi o.Method.samples

let network_key hash = "net|" ^ hash

(* The exact text, never a digest of it: two different texts can never
   share a memo entry. *)
let memo_key text = "raw|" ^ text

let samples_key hash m o = Printf.sprintf "smp|%s|%s" hash (scheme_descriptor m o)

(* The dissection goal, as a key fragment: fixed leaf count or the
   budget-driven recursive mode.  Everything the partition tree is a
   function of (beyond the network hash) must appear here. *)
let partition_descriptor spec ~max_part_states =
  match spec with
  | Method.Parts k -> Printf.sprintf "k=%d" k
  | Method.Auto -> Printf.sprintf "auto|budget=%d" max_part_states

(* The ROM key carries the method, its band, tol and order, the sample
   count only for a method that reads it ([Method.Samples]: the wire
   sends a count with every job, and tbr-passive's Gramian never reads
   it); a hierarchical one also the dissection goal (and budget when
   auto) and the interface-compression tolerance. *)
let rom_key hash (m : Method.t) (o : Method.options) =
  let points =
    if List.mem Method.Samples m.Method.reads then scheme_descriptor m o
    else
      let lo, hi = o.Method.band in
      Printf.sprintf "band|%.17g:%.17g" lo hi
  in
  let hier =
    if not (List.mem Method.Partition m.Method.reads) then ""
    else
      let spec = Option.value o.Method.partition ~default:(Method.Parts Partition.default_parts) in
      "|"
      ^ partition_descriptor spec
          ~max_part_states:
            (Option.value o.Method.max_part_states ~default:Partition.default_max_states)
      ^ match o.Method.interface_tol with Some it -> Printf.sprintf "|itol=%.17g" it | None -> ""
  in
  Printf.sprintf "rom|%s|%s|%s|tol=%s|order=%s%s" hash m.Method.name points
    (match o.Method.tol with Some t -> Printf.sprintf "%.17g" t | None -> "default")
    (match o.Method.order with Some q -> string_of_int q | None -> "auto")
    hier

let part_key hash ~mode = Printf.sprintf "part|%s|%s" hash mode

(* Subdomain sample columns are addressed by what they are a pure
   function of: the interior's canonical sub-netlist render, the sampling
   right-hand side, and the point scheme — so two networks sharing an
   identical subdomain share its solved columns, and a re-partitioned
   network re-finds any subdomain that came out the same. *)
let sub_hash (part : Partition.part) =
  let ir = Pmtbr_circuit.Spice_ir.of_netlist part.Partition.sub_netlist in
  Digest.to_hex (Digest.string (Pmtbr_circuit.Spice_ir.render (Pmtbr_circuit.Spice_ir.canonical ir)))

let hier_samples_key part m o =
  Printf.sprintf "hsmp|%s|%s|%s" (sub_hash part)
    (Digest.to_hex (Digest.string (Marshal.to_string part.Partition.rhs [])))
    (scheme_descriptor m o)

(* Approximate byte footprints driving the LRU budget — the daemon's only
   memory bound. *)
let network_cost nl sys =
  (* a netlist element is a cons cell, its record and a boxed value *)
  let r, c, l, k = Pmtbr_circuit.Netlist.stats nl in
  (72 * (r + c + l + k)) + (64 * Dss.order sys) + 1024

let memo_cost key = String.length key + 128

(* What a samples entry can come to hold: its raw columns, the finish's
   decomposition (k x k left vectors and k singular values, k = min n c)
   and — for a tall cache, once a finish reads them — the thin Q, the
   triangular R and the c x c Galerkin pencil with its port maps.  A wide
   cache never builds any of those three. *)
let samples_cost sys cache =
  let n = Dss.order sys and c = Sample_cache.columns cache in
  let raw = 8 * n * c and k = min n c in
  let svd = (8 * k * k) + (8 * k) in
  if Sample_cache.wide cache then raw + svd + 4096
  else
    let ports = Dss.inputs sys + Dss.outputs sys in
    (2 * raw) + (4 * c * (c + 1)) + (16 * c * c) + (8 * c * ports) + svd + 4096

let rom_cost (r : rom_entry) =
  let q = Dss.order r.r_rom in
  (32 * q * q) + (8 * Array.length r.r_sigma) + 1024

let part_cost (pt : Partition.t) =
  Array.fold_left
    (fun acc (p : Partition.part) ->
      acc
      + (8 * p.Partition.rhs.Pmtbr_la.Mat.rows * p.Partition.rhs.Pmtbr_la.Mat.cols)
      + 48
        * (Array.length p.Partition.e_ig + Array.length p.Partition.a_ig
          + Array.length p.Partition.e_gi + Array.length p.Partition.a_gi))
    ((64 * pt.Partition.n) + 4096)
    pt.Partition.parts

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let find_network t key =
  match Lru.find t.lru key with Some (Network n) -> Some n | Some _ | None -> None

let find_samples t key =
  match Lru.find t.lru key with Some (Samples c) -> Some c | Some _ | None -> None

let find_rom t key =
  match Lru.find t.lru key with Some (Rom r) -> Some r | Some _ | None -> None

let find_part t key =
  match Lru.find t.lru key with Some (Part p) -> Some p | Some _ | None -> None

(* A job text's canonical hash and canonical netlist.  A text seen
   verbatim before whose network entry is still resident skips the
   parse: its memoised hash leads to the network, which holds the
   netlist.  Any other text is canonicalized as on first sight, and its
   hash memoised once it parsed — parse errors never are. *)
let address t text =
  let mkey = memo_key text in
  let memo =
    with_lock t.lock (fun () ->
        match Lru.find t.lru mkey with
        | Some (Hash hash) ->
            Option.map
              (fun n ->
                t.ctr.c_hash_hits <- t.ctr.c_hash_hits + 1;
                (hash, n.nl))
              (find_network t (network_key hash))
        | Some _ | None -> None)
  in
  match memo with
  | Some hit -> Ok hit
  | None ->
      let* nl, canonical = canonicalize text in
      let hash = hash_of_canonical canonical in
      with_lock t.lock (fun () -> Lru.add t.lru mkey ~cost:(memo_cost mkey) (Hash hash));
      Ok (hash, nl)

(* Export synthesis runs on demand from the cached ROM (deterministic, so
   a warm-tier export is byte-identical to a cold one) and is never part
   of the cached entry.  Its QR and products run on the job's pool, like
   every other stage of the job. *)
let export_of_rom t ~export rom =
  if not export then Ok None
  else
    match
      Pmtbr_circuit.Synth.realize ~workers:t.job_workers ~e:(Dss.e_dense rom)
        ~a:(Dss.a_dense rom) ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom) ()
    with
    | ir -> Ok (Some (Pmtbr_circuit.Spice_ir.render ir))
    | exception Pmtbr_circuit.Synth.Unrealizable msg ->
        Error ("export failed: ROM is not realizable: " ^ msg)

(* The store's tiers as the method's source.  Flat columns come from the
   samples tier (solved once, extended with the whole point set in one
   batch, on the network's shared multi-shift handle); a hierarchical
   job's partition from the partition tier and each leaf's columns from
   its own samples tier — never the global multi-shift.  Part lookups run
   on the fan's domains, the calling one included, so each records into
   its own slot and takes only [t.lock] (the caller holds the network
   lock: outer, never taken inside).  Returns the source and a reader of
   what the job found: its tier, the solves its columns cost, and the
   per-slot hits and misses. *)
let tiered_source t network ~hash (m : Method.t) (o : Method.options) ~net_tier =
  let solves = Atomic.make 0 in
  let slots = ref ([||], [||]) in
  let cached key ~slot ~sys sample =
    match with_lock t.lock (fun () -> find_samples t key) with
    | Some cache ->
        (fst !slots).(slot) <- 1;
        cache
    | None ->
        (snd !slots).(slot) <- 1;
        let cache = sample () in
        let n = (Sample_cache.stats cache).Sample_cache.solves in
        ignore (Atomic.fetch_and_add solves n);
        with_lock t.lock (fun () ->
            t.ctr.c_solves <- t.ctr.c_solves + n;
            Lru.add t.lru key ~cost:(samples_cost sys cache) (Samples cache));
        cache
  in
  let columns pts =
    slots := ([| 0 |], [| 0 |]);
    cached (samples_key hash m o) ~slot:0 ~sys:network.sys (fun () ->
        let cache =
          Sample_cache.create ~workers:t.job_workers ~ms:(Lazy.force network.ms) network.sys
        in
        Sample_cache.extend cache pts;
        cache)
  in
  let split spec ~max_part_states =
    let pkey = part_key hash ~mode:(partition_descriptor spec ~max_part_states) in
    let pt =
      match with_lock t.lock (fun () -> find_part t pkey) with
      | Some pt -> pt
      | None ->
          let pt =
            match spec with
            | Method.Parts k -> Partition.split ~parts:k network.nl
            | Method.Auto -> Partition.split_auto ~max_states:max_part_states network.nl
          in
          with_lock t.lock (fun () -> Lru.add t.lru pkey ~cost:(part_cost pt) (Part pt));
          pt
    in
    let k = Partition.part_count pt in
    slots := (Array.make k 0, Array.make k 0);
    pt
  in
  let part_columns i part pts =
    cached (hier_samples_key part m o) ~slot:i ~sys:part.Partition.sys (fun () ->
        Hier_reduce.sample_part part pts)
  in
  let found () =
    let hits, misses = !slots in
    (* samples-warm when at least one cache was looked up and none missed *)
    ( (if Array.mem 1 hits && not (Array.mem 1 misses) then Samples_hit else net_tier),
      Atomic.get solves,
      (hits, misses) )
  in
  ( { Method.netlist = network.nl; sys = network.sys; ms = network.ms;
      workers = Some t.job_workers; columns; split; part_columns },
    found )

(* Per-network hierarchical counters: the last partition's part count
   and, per slot, how often its columns were warm. *)
let record_hier t hash (hits, misses) =
  let k = Array.length hits in
  with_lock t.lock (fun () ->
      let hn =
        match Hashtbl.find_opt t.hier hash with
        | Some hn when hn.partitions = k -> hn
        | _ ->
            let hn = { partitions = k; sub_hits = Array.make k 0; sub_misses = Array.make k 0 } in
            Hashtbl.replace t.hier hash hn;
            hn
      in
      Array.iteri (fun i h -> hn.sub_hits.(i) <- hn.sub_hits.(i) + h) hits;
      Array.iteri (fun i m -> hn.sub_misses.(i) <- hn.sub_misses.(i) + m) misses)

let run_method t network ~hash (m : Method.t) o ~net_tier =
  let src, found = tiered_source t network ~hash m o ~net_tier in
  match m.Method.run src o with
  | exception e ->
      Error (Printf.sprintf "%s reduction failed: %s" m.Method.name (Printexc.to_string e))
  | r ->
      let tier, solves, slots = found () in
      (* a method with its own solver handle (tbr-passive's ADI) reports
         its solves itself *)
      let own =
        match r.Method.stats with
        | Method.Passive st -> st.Tbr_passive.solves
        | Method.Cache _ | Method.Hier _ | Method.Low_rank _ | Method.No_counters -> 0
      in
      with_lock t.lock (fun () -> t.ctr.c_solves <- t.ctr.c_solves + own);
      (match r.Method.stats with Method.Hier _ -> record_hier t hash slots | _ -> ());
      Ok (r.Method.rom, r.Method.singular_values, tier, solves + own)

let reduce t (job : Protocol.job) =
  let t0 = Unix.gettimeofday () in
  let m = job.Protocol.meth in
  let* () = Method.check_served m in
  let* o = Method.validate m job.Protocol.options in
  let* hash, nl = address t job.Protocol.netlist in
  let rkey = rom_key hash m o in
  let nkey = network_key hash in
  let* network, tier, solves, r =
    (* fast path: exact repeat on a warm network *)
    match
      with_lock t.lock (fun () ->
          t.ctr.c_jobs <- t.ctr.c_jobs + 1;
          let n = find_network t nkey in
          match (n, find_rom t rkey) with Some n, Some r -> Some (n, r) | _ -> None)
    with
    | Some (n, r) -> Ok (n, Rom_hit, 0, r)
    | None ->
        (* find-or-build the network entry.  The build (MNA stamp +
           symbolic analysis) runs under the store lock: it is quick next
           to the solves, and holding the lock makes the build unique. *)
        let* network, net_was_warm =
          with_lock t.lock (fun () ->
              match find_network t nkey with
              | Some n -> Ok (n, true)
              | None -> (
                  match Dss.of_netlist nl with
                  | sys ->
                      t.ctr.c_parses <- t.ctr.c_parses + 1;
                      (* the global symbolic analysis is deferred until a
                         flat method forces it; the counter bump happens
                         at force time, under [t.lock] only (we are never
                         forced while holding it) *)
                      let ms =
                        lazy
                          (let handle = Dss.multi_shift sys in
                           with_lock t.lock (fun () -> t.ctr.c_symbolic <- t.ctr.c_symbolic + 1);
                           handle)
                      in
                      let n = { sys; nl; ms; lock = Mutex.create () } in
                      Lru.add t.lru nkey ~cost:(network_cost nl sys) (Network n);
                      Ok (n, false)
                  | exception e ->
                      Error (Printf.sprintf "MNA stamping failed: %s" (Printexc.to_string e))))
        in
        (* all sample-cache work for one network is serialised *)
        with_lock network.lock (fun () ->
            (* a racing job may have finished the same ROM while we
               waited; answer from it so the hit counters stay honest *)
            match with_lock t.lock (fun () -> find_rom t rkey) with
            | Some r -> Ok (network, Rom_hit, 0, r)
            | None ->
                let net_tier = if net_was_warm then Network_hit else Miss in
                let* rom, sigma, tier, solves = run_method t network ~hash m o ~net_tier in
                let r = { r_rom = rom; r_sigma = sigma; r_digest = rom_digest rom } in
                with_lock t.lock (fun () -> Lru.add t.lru rkey ~cost:(rom_cost r) (Rom r));
                Ok (network, tier, solves, r))
  in
  (* every job that got a ROM, hit or built, is answered here *)
  with_lock t.lock (fun () ->
      match tier with
      | Rom_hit -> t.ctr.c_rom_hits <- t.ctr.c_rom_hits + 1
      | Samples_hit -> t.ctr.c_samples_hits <- t.ctr.c_samples_hits + 1
      | Network_hit -> t.ctr.c_network_hits <- t.ctr.c_network_hits + 1
      | Miss -> t.ctr.c_misses <- t.ctr.c_misses + 1);
  let* netlist = export_of_rom t ~export:job.Protocol.export r.r_rom in
  Ok
    {
      rom = r.r_rom;
      states = Dss.order network.sys;
      order = Dss.order r.r_rom;
      singular_values = r.r_sigma;
      tier;
      hash;
      digest = r.r_digest;
      job_solves = solves;
      wall_s = Unix.gettimeofday () -. t0;
      netlist;
    }
