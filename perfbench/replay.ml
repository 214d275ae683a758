(* In-process replay of daemon jobs for the traced run.  It calls the
   layers' public functions in the order the store composes them and keeps
   its own copy of the store's tiers (network, samples, ROM, partition,
   subdomain samples), so each replayed job does the work its daemon
   counterpart did, with one span per layer call.  The replayed ROM's
   digest is compared with the daemon's: a mismatch means the replay no
   longer mirrors the store, and its breakdown cannot be trusted. *)

open Pmtbr_core
open Pmtbr_lti
module W = Workload

type net = { sys : Dss.t; nl : Pmtbr_circuit.Netlist.t; ms : Dss.multi_shift Lazy.t }

type t = {
  sp : Spans.t;
  nets : (string, net) Hashtbl.t;
  samples : (string, Sample_cache.t) Hashtbl.t;
  roms : (string, Dss.t * Dss.t) Hashtbl.t;  (* ROM, full model *)
  parts : (string, Partition.t) Hashtbl.t;
  subs : (string, Sample_cache.t) Hashtbl.t;
}

let create sp =
  {
    sp;
    nets = Hashtbl.create 16;
    samples = Hashtbl.create 16;
    roms = Hashtbl.create 64;
    parts = Hashtbl.create 4;
    subs = Hashtbl.create 16;
  }

type outcome = {
  rom : Dss.t;
  digest : string;
  sys : Dss.t;  (** the full model *)
  cache : Sample_cache.t option;  (** the columns a flat pmtbr job finished from *)
  parts : int;  (** hierarchical jobs: subdomains *)
  interface : int;  (** hierarchical jobs: interface states *)
}

let span t = Spans.span t.sp

(* Names of the spans that make up a job; the probes below are not part
   of what the daemon does. *)
let layers =
  [
    "serve.hash"; "circuit.parse"; "lti.stamp"; "sparse.symbolic"; "core.sample"; "core.finish";
    "core.partition"; "core.hier_sample"; "core.hier_basis"; "core.recombine"; "core.compress";
    "lti.passive"; "circuit.synth";
  ]

let scheme_key (j : W.job) =
  let lo, hi = j.W.band in
  Printf.sprintf "%s|%.17g:%.17g|%d"
    (match Heldout.scheme j with Sampling.Uniform _ -> "uniform" | _ -> "bands")
    lo hi j.W.samples

let network t hash text =
  match Hashtbl.find_opt t.nets hash with
  | Some n -> n
  | None ->
      let nl =
        span t "circuit.parse" (fun () ->
            Pmtbr_circuit.(
              Spice_ir.to_netlist (Spice_ir.canonical (Spice.ir (Spice.parse_string text)))))
      in
      let sys = span t "lti.stamp" (fun () -> Dss.of_netlist nl) in
      let n = { sys; nl; ms = lazy (Dss.multi_shift sys) } in
      Hashtbl.replace t.nets hash n;
      n

(* The store builds the global multi-shift handle on the first flat job of
   a network and keeps it. *)
let multi_shift t n =
  if Lazy.is_val n.ms then Lazy.force n.ms
  else span t "sparse.symbolic" (fun () -> Lazy.force n.ms)

let points (j : W.job) = Sampling.points (Heldout.scheme j) ~count:j.W.samples

let flat t (j : W.job) hash n =
  let key = hash ^ "|" ^ scheme_key j in
  let cache =
    match Hashtbl.find_opt t.samples key with
    | Some c -> c
    | None ->
        let ms = multi_shift t n in
        let c =
          span t "core.sample" (fun () ->
              let c = Sample_cache.create ~workers:1 ~ms n.sys in
              Sample_cache.extend c (points j);
              c)
        in
        Hashtbl.replace t.samples key c;
        c
  in
  let r =
    span t "core.finish" (fun () ->
        Pmtbr.of_cache n.sys cache ~scale:1.0 ?order:j.W.order ?tol:j.W.tol ~workers:1
          ~samples:j.W.samples ())
  in
  (r.Pmtbr.rom, cache)

let passive t (j : W.job) n =
  let lo, _ = j.W.band in
  let stop =
    if lo > 0.0 then
      Some
        (Pmtbr_la.Lr_lyap.Band_residual
           (Array.map
              (fun p -> (p.Sampling.s, p.Sampling.weight))
              (Sampling.points (Sampling.Bands [ j.W.band ]) ~count:8)))
    else None
  in
  let inductors = Pmtbr_circuit.Netlist.inductor_count n.nl in
  let ms = multi_shift t n in
  span t "lti.passive" (fun () ->
      (Tbr_passive.reduce ?order:j.W.order ?tol:j.W.tol ?stop ~inductors ~ms ~workers:1 n.sys)
        .Tbr_passive.rom)

(* Subdomain columns are addressed, as in the store, by the part's
   canonical sub-netlist, its sampling right-hand side and the points. *)
let sub_key (part : Partition.part) j =
  let render =
    Pmtbr_circuit.(
      Spice_ir.render (Spice_ir.canonical (Spice_ir.of_netlist part.Partition.sub_netlist)))
  in
  String.concat "|"
    [
      Digest.string render;
      Digest.string (Marshal.to_string part.Partition.rhs []);
      scheme_key j;
    ]

let hier (t : t) (j : W.job) hash n =
  let spec = Option.value j.W.partition ~default:"4" in
  let budget = Option.value j.W.max_part_states ~default:20_000 in
  let pkey = Printf.sprintf "%s|%s|%d" hash spec budget in
  let pt =
    match Hashtbl.find_opt t.parts pkey with
    | Some pt -> pt
    | None ->
        let pt =
          span t "core.partition" (fun () ->
              if spec = "auto" then Partition.split_auto ~max_states:budget n.nl
              else Partition.split ~parts:(int_of_string spec) n.nl)
        in
        Hashtbl.replace t.parts pkey pt;
        pt
  in
  let pts = points j in
  let order = j.W.order and tol = j.W.tol in
  let bases =
    Array.map
      (fun (part : Partition.part) ->
        if part.Partition.rhs.Pmtbr_la.Mat.cols = 0 then
          (Hier_reduce.reduce_part ?order ?tol part pts).Hier_reduce.basis
        else
          let key = sub_key part j in
          let cache =
            match Hashtbl.find_opt t.subs key with
            | Some c -> c
            | None ->
                let c =
                  span t "core.hier_sample" (fun () -> Hier_reduce.sample_part ~workers:1 part pts)
                in
                Hashtbl.replace t.subs key c;
                c
          in
          span t "core.hier_basis" (fun () ->
              (Hier_reduce.basis_of_part ?order ?tol ~workers:1 part cache
                 ~samples:j.W.samples ())
                .Hier_reduce.basis))
      pt.Partition.parts
  in
  let rom = span t "core.recombine" (fun () -> Hier_reduce.recombine ~workers:1 pt bases) in
  let rom =
    match j.W.interface_tol with
    | None -> rom
    | Some tol ->
        span t "core.compress" (fun () ->
            fst (Hier_reduce.compress_interface ~workers:1 ~tol pt rom pts))
  in
  (rom, Partition.part_count pt, Partition.interface_count pt)

(* Replay one job as job [id]: the "job" root span covers what the daemon
   did for it. *)
let run t ~id (j : W.job) =
  Spans.with_job t.sp id (fun () ->
      span t "job" (fun () ->
          let hash =
            span t "serve.hash" (fun () ->
                match Pmtbr_serve.Store.canonical_hash j.W.net.W.text with
                | Ok h -> h
                | Error e -> failwith e)
          in
          let key = W.rom_key j in
          let rom, sys, cache, parts, interface =
            match Hashtbl.find_opt t.roms key with
            | Some (rom, sys) -> (rom, sys, None, 0, 0)
            | None ->
                let n = network t hash j.W.net.W.text in
                let rom, cache, parts, interface =
                  match j.W.meth with
                  | "hier" ->
                      let rom, parts, interface = hier t j hash n in
                      (rom, None, parts, interface)
                  | "tbr-passive" -> (passive t j n, None, 0, 0)
                  | _ ->
                      let rom, cache = flat t j hash n in
                      (rom, Some cache, 0, 0)
                in
                Hashtbl.replace t.roms key (rom, n.sys);
                (rom, n.sys, cache, parts, interface)
          in
          if j.W.export then
            ignore
              (span t "circuit.synth" (fun () ->
                   Pmtbr_circuit.Spice_ir.render
                     (Pmtbr_circuit.Synth.realize ~e:(Dss.e_dense rom) ~a:(Dss.a_dense rom)
                        ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom) ())));
          { rom; digest = Pmtbr_serve.Store.rom_digest rom; sys; cache; parts; interface }))

(* Probe outside the job: the SVD the finish step runs, on the same small
   factor, recorded as (seconds, columns). *)
let svd_probe t ~id cache =
  Spans.with_job t.sp id (fun () ->
      let r = Sample_cache.small_factor cache ~scale:1.0 in
      ignore (span t "la.svd" (fun () -> Pmtbr_la.Svd.decompose ~workers:1 r));
      r.Pmtbr_la.Mat.cols)

(* The held-out check as its own cost: the full model's sweep at the
   held-out points, then the ROM streamed against it. *)
let verify t ~id (j : W.job) (o : outcome) =
  Spans.with_job t.sp id (fun () ->
      span t "lti.verify" (fun () ->
          let omegas = Heldout.omegas j in
          let reference = Heldout.reference o.sys omegas in
          Heldout.error ~omegas ~reference o.rom))
