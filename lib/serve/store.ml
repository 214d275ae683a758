(* Content-addressed model store.  See the interface for the tier layout
   and the determinism argument; the load-bearing choices are:

   - The canonical address is the hash of the *re-rendered* parse, so two
     texts that stamp the same network share every tier.

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
type network = { sys : Dss.t; ms : Dss.multi_shift Lazy.t; lock : Mutex.t }

type samples_entry = { cache : Sample_cache.t }

type rom_entry = {
  r_rom : Dss.t;
  r_order : int;
  r_sigma : float array;
  r_digest : string;
}

type entry =
  | Network of network
  | Samples of samples_entry
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
      if Pmtbr_circuit.Netlist.port_count nl < 1 then
        Error "netlist declares no .port — a reduction job needs at least one"
      else if Pmtbr_circuit.Netlist.node_count nl < 1 then
        Error "netlist has no internal nodes"
      else Ok (nl, Pmtbr_circuit.Spice_ir.render ir)
  | exception Pmtbr_circuit.Spice.Parse_error (line, msg) ->
      Error (Printf.sprintf "netlist parse error at line %d: %s" line msg)

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

(* The sampling scheme is what the solved columns depend on; both methods
   over an in-band request draw the same Bands points, so they share the
   samples tier.  (The CLI convention is preserved: a pmtbr band starting
   at 0 means uniform sampling of [0, hi].) *)
let scheme_of ~meth ~band:(lo, hi) =
  match (meth : Protocol.meth) with
  | (Pmtbr | Hier) when lo <= 0.0 -> Sampling.Uniform { w_max = hi }
  | Pmtbr | Fs_pmtbr | Tbr_passive | Hier -> Sampling.Bands [ (lo, hi) ]

let scheme_descriptor ~meth ~band:(lo, hi) ~samples =
  let kind =
    match scheme_of ~meth ~band:(lo, hi) with Sampling.Uniform _ -> "uniform" | _ -> "bands"
  in
  Printf.sprintf "%s|%.17g:%.17g|%d" kind lo hi samples

let network_key hash = "net|" ^ hash

let samples_key hash ~meth ~band ~samples =
  Printf.sprintf "smp|%s|%s" hash (scheme_descriptor ~meth ~band ~samples)

(* The dissection goal, as a key fragment: fixed leaf count or the
   budget-driven recursive mode.  Everything the partition tree is a
   function of (beyond the network hash) must appear here. *)
let partition_descriptor ~spec ~max_part_states =
  match (spec : Protocol.partition_spec) with
  | Protocol.Parts k -> Printf.sprintf "k=%d" k
  | Protocol.Auto -> Printf.sprintf "auto|budget=%d" max_part_states

let rom_key hash ~meth ~band ~tol ~order ~samples ~hier =
  Printf.sprintf "rom|%s|%s|%s|tol=%s|order=%s%s" hash (Protocol.meth_name meth)
    (scheme_descriptor ~meth ~band ~samples)
    (match tol with Some t -> Printf.sprintf "%.17g" t | None -> "default")
    (match order with Some q -> string_of_int q | None -> "auto")
    (match hier with Some d -> "|" ^ d | None -> "")

let part_key hash ~mode = Printf.sprintf "part|%s|%s" hash mode

(* Subdomain sample columns are addressed by what they are a pure
   function of: the interior's canonical sub-netlist render, the sampling
   right-hand side, and the point scheme — so two networks sharing an
   identical subdomain share its solved columns, and a re-partitioned
   network re-finds any subdomain that came out the same. *)
let sub_hash (part : Partition.part) =
  let ir = Pmtbr_circuit.Spice_ir.of_netlist part.Partition.sub_netlist in
  Digest.to_hex (Digest.string (Pmtbr_circuit.Spice_ir.render (Pmtbr_circuit.Spice_ir.canonical ir)))

let hier_samples_key part ~meth ~band ~samples =
  Printf.sprintf "hsmp|%s|%s|%s" (sub_hash part)
    (Digest.to_hex (Digest.string (Marshal.to_string part.Partition.rhs [])))
    (scheme_descriptor ~meth ~band ~samples)

(* Approximate byte footprints driving the LRU budget. *)
let network_cost ~canonical sys = String.length canonical + (64 * Dss.order sys) + 1024

let samples_cost sys cache =
  (* raw columns, plus the thin Q and small R once a finish reads them —
     all [n x columns]-dominated *)
  (24 * Dss.order sys * Sample_cache.columns cache) + 4096

let rom_cost (r : rom_entry) =
  (32 * r.r_order * r.r_order) + (8 * Array.length r.r_sigma) + 1024

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
  match Lru.find t.lru key with Some (Samples s) -> Some s | Some _ | None -> None

let find_rom t key =
  match Lru.find t.lru key with Some (Rom r) -> Some r | Some _ | None -> None

let find_part t key =
  match Lru.find t.lru key with Some (Part p) -> Some p | Some _ | None -> None

let outcome_of_rom ~tier ~hash ~solves ~wall ~netlist sys (r : rom_entry) =
  {
    rom = r.r_rom;
    states = Dss.order sys;
    order = r.r_order;
    singular_values = r.r_sigma;
    tier;
    hash;
    digest = r.r_digest;
    job_solves = solves;
    wall_s = wall;
    netlist;
  }

(* Export synthesis runs on demand from the cached ROM (deterministic, so
   a warm-tier export is byte-identical to a cold one) and is never part
   of the cached entry. *)
let export_of_rom ~export rom =
  if not export then Ok None
  else
    match
      Pmtbr_circuit.Synth.realize ~e:(Dss.e_dense rom) ~a:(Dss.a_dense rom)
        ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom) ()
    with
    | ir -> Ok (Some (Pmtbr_circuit.Spice_ir.render ir))
    | exception Pmtbr_circuit.Synth.Unrealizable msg ->
        Error ("export failed: ROM is not realizable: " ^ msg)

let default_partition = 4
let default_max_part_states = 20_000

let reduce t ~netlist ~meth ~band ?tol ?order ?partition ?max_part_states ?interface_tol
    ?(export = false) ~samples () =
  let t0 = Unix.gettimeofday () in
  let ( let* ) = Result.bind in
  let* band = Protocol.validate_band band in
  if samples < 1 then Error (Printf.sprintf "samples must be >= 1 (got %d)" samples)
  else
    let partition =
      match (meth, partition) with
      | Protocol.Hier, None -> Some (Protocol.Parts default_partition)
      | Protocol.Hier, some -> some
      | _, _ -> None
    in
    let budget = Option.value max_part_states ~default:default_max_part_states in
    (* the ROM key carries the full hierarchical mode: dissection goal
       (and budget when auto) plus the interface-compression tolerance *)
    let hier_desc =
      Option.map
        (fun spec ->
          partition_descriptor ~spec ~max_part_states:budget
          ^ match interface_tol with
            | Some it -> Printf.sprintf "|itol=%.17g" it
            | None -> "")
        partition
    in
    let* nl, canonical = canonicalize netlist in
    let hash = hash_of_canonical canonical in
    let rkey = rom_key hash ~meth ~band ~tol ~order ~samples ~hier:hier_desc in
    let nkey = network_key hash in
    let skey = samples_key hash ~meth ~band ~samples in
    (* fast path: exact repeat *)
    let fast =
      with_lock t.lock (fun () ->
          t.ctr.c_jobs <- t.ctr.c_jobs + 1;
          match (find_rom t rkey, find_network t nkey) with
          | Some r, Some n ->
              t.ctr.c_rom_hits <- t.ctr.c_rom_hits + 1;
              Some (n, r)
          | _ -> None)
    in
    match fast with
    | Some (n, r) ->
        let* netlist = export_of_rom ~export r.r_rom in
        Ok
          (outcome_of_rom ~tier:Rom_hit ~hash ~solves:0
             ~wall:(Unix.gettimeofday () -. t0)
             ~netlist n.sys r)
    | None -> (
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
                           with_lock t.lock (fun () ->
                               t.ctr.c_symbolic <- t.ctr.c_symbolic + 1);
                           handle)
                      in
                      let n = { sys; ms; lock = Mutex.create () } in
                      Lru.add t.lru nkey ~cost:(network_cost ~canonical sys) (Network n);
                      Ok (n, false)
                  | exception e ->
                      Error (Printf.sprintf "MNA stamping failed: %s" (Printexc.to_string e))))
        in
        (* all sample-cache work for one network is serialised *)
        with_lock network.lock (fun () ->
            (* a racing job may have finished the same ROM while we
               waited; answer from it so the hit counters stay honest *)
            match with_lock t.lock (fun () -> find_rom t rkey) with
            | Some r ->
                with_lock t.lock (fun () -> t.ctr.c_rom_hits <- t.ctr.c_rom_hits + 1);
                let* netlist = export_of_rom ~export r.r_rom in
                Ok
                  (outcome_of_rom ~tier:Rom_hit ~hash ~solves:0
                     ~wall:(Unix.gettimeofday () -. t0)
                     ~netlist network.sys r)
            | None when meth = Protocol.Hier -> (
                (* hierarchical path: partition tier (keyed by the
                   dissection mode), then per-subdomain sample tiers keyed
                   by the sub-netlist hash — never the global samples
                   tier, never the global multi-shift.  The partition
                   tree is shared across interface tolerances: compression
                   happens after recombination, on the assembled pencil *)
                let spec = Option.value partition ~default:(Protocol.Parts default_partition) in
                match
                  let pkey =
                    part_key hash ~mode:(partition_descriptor ~spec ~max_part_states:budget)
                  in
                  let pt =
                    match with_lock t.lock (fun () -> find_part t pkey) with
                    | Some pt -> pt
                    | None ->
                        let pt =
                          match spec with
                          | Protocol.Parts k -> Partition.split ~parts:k nl
                          | Protocol.Auto -> Partition.split_auto ~max_states:budget nl
                        in
                        with_lock t.lock (fun () ->
                            Lru.add t.lru pkey ~cost:(part_cost pt) (Part pt));
                        pt
                  in
                  let pts = Sampling.points (scheme_of ~meth ~band) ~count:samples in
                  let k = Partition.part_count pt in
                  let hits = Array.make k 0 and misses = Array.make k 0 in
                  let job_solves = ref 0 in
                  let all_warm = ref true in
                  let sampled = ref false in
                  let subs =
                    Array.mapi
                      (fun i (part : Partition.part) ->
                        if part.Partition.rhs.Pmtbr_la.Mat.cols = 0 then
                          Hier_reduce.reduce_part ?order ?tol part pts
                        else begin
                          sampled := true;
                          let hkey = hier_samples_key part ~meth ~band ~samples in
                          let cache =
                            match with_lock t.lock (fun () -> find_samples t hkey) with
                            | Some s ->
                                hits.(i) <- 1;
                                s.cache
                            | None ->
                                all_warm := false;
                                misses.(i) <- 1;
                                let cache =
                                  Hier_reduce.sample_part ~workers:t.job_workers part pts
                                in
                                job_solves :=
                                  !job_solves + (Sample_cache.stats cache).Sample_cache.solves;
                                with_lock t.lock (fun () ->
                                    Lru.add t.lru hkey
                                      ~cost:(samples_cost part.Partition.sys cache)
                                      (Samples { cache }));
                                cache
                          in
                          Hier_reduce.basis_of_part ?order ?tol ~workers:t.job_workers part
                            cache ~samples ()
                        end)
                      pt.Partition.parts
                  in
                  let rom =
                    Hier_reduce.recombine ~workers:t.job_workers pt
                      (Array.map (fun (s : Hier_reduce.sub) -> s.Hier_reduce.basis) subs)
                  in
                  let rom =
                    match interface_tol with
                    | None -> rom
                    | Some itol ->
                        fst
                          (Hier_reduce.compress_interface ~workers:t.job_workers ~tol:itol pt
                             rom pts)
                  in
                  let sigma =
                    Array.concat
                      (Array.to_list
                         (Array.map
                            (fun (s : Hier_reduce.sub) -> s.Hier_reduce.singular_values)
                            subs))
                  in
                  let tier =
                    if !sampled && !all_warm then Samples_hit
                    else if net_was_warm then Network_hit
                    else Miss
                  in
                  (rom, sigma, hits, misses, !job_solves, tier, k)
                with
                | rom, sigma, hits, misses, job_solves, tier, k ->
                    let r =
                      {
                        r_rom = rom;
                        r_order = Dss.order rom;
                        r_sigma = sigma;
                        r_digest = rom_digest rom;
                      }
                    in
                    with_lock t.lock (fun () ->
                        (match tier with
                        | Samples_hit -> t.ctr.c_samples_hits <- t.ctr.c_samples_hits + 1
                        | Network_hit -> t.ctr.c_network_hits <- t.ctr.c_network_hits + 1
                        | _ -> t.ctr.c_misses <- t.ctr.c_misses + 1);
                        t.ctr.c_solves <- t.ctr.c_solves + job_solves;
                        let hn =
                          match Hashtbl.find_opt t.hier hash with
                          | Some hn when hn.partitions = k -> hn
                          | _ ->
                              let hn =
                                {
                                  partitions = k;
                                  sub_hits = Array.make k 0;
                                  sub_misses = Array.make k 0;
                                }
                              in
                              Hashtbl.replace t.hier hash hn;
                              hn
                        in
                        Array.iteri (fun i h -> hn.sub_hits.(i) <- hn.sub_hits.(i) + h) hits;
                        Array.iteri
                          (fun i m -> hn.sub_misses.(i) <- hn.sub_misses.(i) + m)
                          misses;
                        Lru.add t.lru rkey ~cost:(rom_cost r) (Rom r));
                    let* netlist = export_of_rom ~export r.r_rom in
                    Ok
                      (outcome_of_rom ~tier ~hash ~solves:job_solves
                         ~wall:(Unix.gettimeofday () -. t0)
                         ~netlist network.sys r)
                | exception e ->
                    Error
                      (Printf.sprintf "hierarchical reduction failed: %s"
                         (Printexc.to_string e)))
            | None when meth = Protocol.Tbr_passive -> (
                (* one-Gramian symmetric path: no samples tier — the ADI
                   columns are method-specific and cheap next to the ROM;
                   the shared multi-shift handle is still reused *)
                let stop =
                  let lo, _ = band in
                  if lo > 0.0 then
                    let pts = Sampling.points (Sampling.Bands [ band ]) ~count:8 in
                    Some
                      (Pmtbr_la.Lr_lyap.Band_residual
                         (Array.map (fun p -> (p.Sampling.s, p.Sampling.weight)) pts))
                  else None
                in
                let inductors = Pmtbr_circuit.Netlist.inductor_count nl in
                match
                  Tbr_passive.reduce ?order ?tol ?stop ~inductors
                    ~ms:(Lazy.force network.ms) ~workers:t.job_workers network.sys
                with
                | red ->
                    let solves = red.Tbr_passive.stats.Tbr_passive.solves in
                    let tier = if net_was_warm then Network_hit else Miss in
                    let r =
                      {
                        r_rom = red.Tbr_passive.rom;
                        r_order = red.Tbr_passive.order;
                        r_sigma = red.Tbr_passive.hsv;
                        r_digest = rom_digest red.Tbr_passive.rom;
                      }
                    in
                    with_lock t.lock (fun () ->
                        (match tier with
                        | Network_hit -> t.ctr.c_network_hits <- t.ctr.c_network_hits + 1
                        | _ -> t.ctr.c_misses <- t.ctr.c_misses + 1);
                        t.ctr.c_solves <- t.ctr.c_solves + solves;
                        Lru.add t.lru rkey ~cost:(rom_cost r) (Rom r));
                    let* netlist = export_of_rom ~export r.r_rom in
                    Ok
                      (outcome_of_rom ~tier ~hash ~solves
                         ~wall:(Unix.gettimeofday () -. t0)
                         ~netlist network.sys r)
                | exception e ->
                    Error
                      (Printf.sprintf "passive reduction failed: %s"
                         (Printexc.to_string e)))
            | None -> (
                let cached = with_lock t.lock (fun () -> find_samples t skey) in
                let* cache, tier, job_solves =
                  match cached with
                  | Some s ->
                      with_lock t.lock (fun () ->
                          t.ctr.c_samples_hits <- t.ctr.c_samples_hits + 1);
                      Ok (s.cache, Samples_hit, 0)
                  | None -> (
                      let pts = Sampling.points (scheme_of ~meth ~band) ~count:samples in
                      match
                        let cache =
                          Sample_cache.create ~workers:t.job_workers
                            ~ms:(Lazy.force network.ms) network.sys
                        in
                        Sample_cache.extend cache pts;
                        cache
                      with
                      | cache ->
                          let st = Sample_cache.stats cache in
                          let tier = if net_was_warm then Network_hit else Miss in
                          with_lock t.lock (fun () ->
                              (match tier with
                              | Network_hit ->
                                  t.ctr.c_network_hits <- t.ctr.c_network_hits + 1
                              | _ -> t.ctr.c_misses <- t.ctr.c_misses + 1);
                              t.ctr.c_solves <- t.ctr.c_solves + st.Sample_cache.solves;
                              Lru.add t.lru skey
                                ~cost:(samples_cost network.sys cache)
                                (Samples { cache }));
                          Ok (cache, tier, st.Sample_cache.solves)
                      | exception e ->
                          Error
                            (Printf.sprintf "shifted solves failed: %s" (Printexc.to_string e)))
                in
                match
                  Pmtbr.of_cache network.sys cache ~scale:1.0 ?order ?tol
                    ~workers:t.job_workers ~samples ()
                with
                | result ->
                    let r =
                      {
                        r_rom = result.Pmtbr.rom;
                        r_order = Dss.order result.Pmtbr.rom;
                        r_sigma = result.Pmtbr.singular_values;
                        r_digest = rom_digest result.Pmtbr.rom;
                      }
                    in
                    with_lock t.lock (fun () -> Lru.add t.lru rkey ~cost:(rom_cost r) (Rom r));
                    let* netlist = export_of_rom ~export r.r_rom in
                    Ok
                      (outcome_of_rom ~tier ~hash ~solves:job_solves
                         ~wall:(Unix.gettimeofday () -. t0)
                         ~netlist network.sys r)
                | exception e ->
                    Error (Printf.sprintf "reduction failed: %s" (Printexc.to_string e)))))
