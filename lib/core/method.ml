(* The one table of reduction methods: name, sampling scheme, the options
   each reads, and its run.  The CLI, the wire parser and the store all
   go through [find] and [validate]; the store backs a [source] with its
   tiers, everything else samples afresh. *)

open Pmtbr_lti
module Mna = Pmtbr_circuit.Mna
module Netlist = Pmtbr_circuit.Netlist

type partition = Parts of int | Auto

type options = {
  band : float * float;
  order : int option;
  tol : float option;
  samples : int;
  partition : partition option;
  max_part_states : int option;
  interface_tol : float option;
  adaptive : bool;
  draws : int option;
  seed : int;
}

let defaults ~band =
  { band; order = None; tol = None; samples = 30; partition = None; max_part_states = None;
    interface_tol = None; adaptive = false; draws = None; seed = 42 }

type key = Order | Tol | Samples | Partition | Max_part_states | Interface_tol | Adaptive | Draws

let key_name = function
  | Order -> "order"
  | Tol -> "tol"
  | Samples -> "samples"
  | Partition -> "partition"
  | Max_part_states -> "max-part-states"
  | Interface_tol -> "interface-tol"
  | Adaptive -> "adaptive"
  | Draws -> "draws"

type source = {
  netlist : Netlist.t;
  sys : Dss.t;
  ms : Dss.multi_shift Lazy.t;
  workers : int option;
  columns : Sampling.point array -> Sample_cache.t;
  split : partition -> max_part_states:int -> Partition.t;
  part_columns : int -> Partition.part -> Sampling.point array -> Sample_cache.t;
}

let source ~workers netlist =
  let sys = Dss.of_netlist netlist in
  let ms = lazy (Dss.multi_shift sys) in
  let columns pts =
    let cache = Sample_cache.create ?workers ~ms:(Lazy.force ms) sys in
    Sample_cache.extend cache pts;
    cache
  in
  let split spec ~max_part_states =
    match spec with
    | Parts k -> Partition.split ~parts:k netlist
    | Auto -> Partition.split_auto ~max_states:max_part_states netlist
  in
  { netlist; sys; ms; workers; columns; split;
    part_columns = (fun _ part pts -> Hier_reduce.sample_part part pts) }

type stats =
  | Cache of Sample_cache.stats
  | Hier of Partition.t * float * Hier_reduce.stats
  | Low_rank of Tbr_lr.stats
  | Passive of Tbr_passive.stats
  | No_counters

type result = {
  rom : Dss.t;
  singular_values : float array;
  consumed : (int * int) option;
  stats : stats;
}

type t = {
  name : string;
  scheme : float * float -> Sampling.scheme;
  reads : key list;
  served : bool;
  run : source -> options -> result;
}

exception Refused of string

let () = Printexc.register_printer (function Refused msg -> Some msg | _ -> None)

let points_on scheme o = Sampling.points (scheme o.band) ~count:o.samples
let points m o = points_on m.scheme o
let in_band = Sampling.of_band
let on_band band = Sampling.Bands [ band ]
let w_hi o = snd o.band
let finish ?consumed ~stats rom singular_values = { rom; singular_values; consumed; stats }

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* PMTBR on the method's points (Algorithm 1): the source's columns and
   the one finish, or the adaptive loop over its own cache.  fs-pmtbr
   (Algorithm 2) is the same run on the band's Gauss points. *)
let run_pmtbr scheme src o =
  let pts = points_on scheme o in
  let r =
    if o.adaptive then
      Pmtbr.reduce_adaptive ?order:o.order ?tol:o.tol ?workers:src.workers src.sys pts
    else
      Pmtbr.of_cache src.sys (src.columns pts) ~scale:1.0 ?order:o.order ?tol:o.tol
        ?workers:src.workers ~samples:o.samples ()
  in
  finish r.Pmtbr.rom r.Pmtbr.singular_values ~stats:(Cache r.Pmtbr.stats)
    ?consumed:(if o.adaptive then Some (r.Pmtbr.samples, Array.length pts) else None)

let run_hier scheme src o =
  let spec = Option.value o.partition ~default:(Parts Partition.default_parts) in
  (match spec with
  | Parts k when k > Dss.order src.sys ->
      raise
        (Refused
           (Printf.sprintf "partition %d exceeds the network's %d states (at most one subdomain \
                            per state)" k (Dss.order src.sys)))
  | Parts _ | Auto -> ());
  let t0 = Unix.gettimeofday () in
  let max_part_states = Option.value o.max_part_states ~default:Partition.default_max_states in
  let pt = src.split spec ~max_part_states in
  let split_s = Unix.gettimeofday () -. t0 in
  let pts = points_on scheme o in
  let rom, subs, st =
    Hier_reduce.reduce_with_columns ?order:o.order ?tol:o.tol ?interface_tol:o.interface_tol
      ?workers:src.workers ~columns:(fun i part -> src.part_columns i part pts) pt pts
  in
  let sigma =
    Array.concat (Array.to_list (Array.map (fun s -> s.Hier_reduce.singular_values) subs))
  in
  finish rom sigma ~stats:(Hier (pt, split_s, st))

(* The exact-TBR methods invert E and need A nonsingular: a node with no
   capacitive path to ground, or none through resistors and inductors, is
   refused by name first.  A band with lo > 0 switches their Gramian
   solves to the band-limited residual stop. *)
let invertible src =
  Mna.check_capacitive src.netlist;
  Mna.check_dc_path src.netlist

let run_tbr _ src o =
  invertible src;
  let r = Tbr.reduce_dss ?order:o.order ?tol:o.tol src.sys in
  finish r.Tbr.rom r.Tbr.hsv ~stats:No_counters

let run_tbr_lr _ src o =
  invertible src;
  let r =
    Tbr_lr.reduce ?order:o.order ?tol:o.tol ?stop:(Sampling.band_stop o.band) ?workers:src.workers
      src.sys
  in
  finish r.Tbr_lr.rom r.Tbr_lr.hsv ~stats:(Low_rank r.Tbr_lr.stats)

let run_tbr_passive _ src o =
  invertible src;
  let r =
    Tbr_passive.reduce ?order:o.order ?tol:o.tol ?stop:(Sampling.band_stop o.band)
      ~inductors:(Netlist.inductor_count src.netlist) ~ms:(Lazy.force src.ms) ?workers:src.workers
      src.sys
  in
  finish r.Tbr_passive.rom r.Tbr_passive.hsv ~stats:(Passive r.Tbr_passive.stats)

let run_prima _ src o =
  let order = Option.value o.order ~default:10 in
  let r = Prima.reduce_to_order src.sys ~s0:(w_hi o /. 20.0) ~order in
  finish r.Prima.rom [||] ~stats:No_counters

(* Multipoint keeps every column of its first order/2 points, spread over
   the band. *)
let multipoint_count o = max 1 (Option.value o.order ~default:10 / 2)

let run_multipoint scheme src o =
  let r =
    Multipoint.reduce ?workers:src.workers src.sys (Sampling.spread_order (points_on scheme o))
      ~count:(multipoint_count o)
  in
  finish r.Multipoint.rom [||] ~stats:(Cache r.Multipoint.stats)

let run_cross scheme src o =
  let pts = points_on scheme o in
  let r =
    if o.adaptive then Cross_gramian.reduce_adaptive ?order:o.order ?workers:src.workers src.sys pts
    else Cross_gramian.reduce ?order:o.order ?workers:src.workers src.sys pts
  in
  finish r.Cross_gramian.rom
    (Array.map Complex.norm r.Cross_gramian.eigenvalues)
    ~stats:(Cache r.Cross_gramian.stats)
    ?consumed:(if o.adaptive then Some (r.Cross_gramian.samples, Array.length pts) else None)

(* Section VI-C's input class: square waves from one dithered clock with
   fixed per-port amplitudes, the clock period tied to the band. *)
let run_correlated scheme src o =
  let period = 2.0 *. Float.pi *. 10.0 /. w_hi o in
  let bank =
    Pmtbr_signal.Waveform.dithered_square_bank ~rng:(Pmtbr_signal.Rng.create o.seed)
      ~ports:(Dss.inputs src.sys) ~period ~dither:0.1
  in
  let inputs =
    Pmtbr_signal.Waveform.sample_matrix
      (Array.map (fun w t -> 1e-3 *. w t) bank)
      ~t0:0.0 ~t1:(4.0 *. period) ~samples:400
  in
  let draws = Option.value o.draws ~default:40 and points = points_on scheme o in
  let r =
    if o.adaptive then
      Input_correlated.reduce_adaptive ?order:o.order ?tol:o.tol ~seed:o.seed
        ?workers:src.workers src.sys ~inputs ~points ~max_draws:draws
    else
      Input_correlated.reduce ?order:o.order ?tol:o.tol ~seed:o.seed ?workers:src.workers src.sys
        ~inputs ~points ~draws
  in
  finish r.Input_correlated.rom r.Input_correlated.singular_values
    ~stats:(Cache r.Input_correlated.stats)
    ?consumed:(if o.adaptive then Some (r.Input_correlated.samples, draws) else None)

let run_two_step _ src o =
  let q = Option.value o.order ~default:10 in
  let r = Two_step.reduce src.sys ~s0:(w_hi o /. 20.0) ~intermediate:(3 * q) ~order:q () in
  finish r.Two_step.rom r.Two_step.hsv ~stats:No_counters

(* POD: snapshots of a from-rest ramp response, its rise tied to the band. *)
let run_pod _ src o =
  let rise = 10.0 /. w_hi o in
  let u t = Array.make (Dss.inputs src.sys) (Float.min 1e-3 (Float.max 0.0 (1e-3 *. t /. rise))) in
  let r =
    Time_sampled.reduce ?order:o.order ?tol:o.tol src.sys ~u ~t1:(200.0 *. rise) ~dt:rise
      ~snapshots:150
  in
  finish r.Time_sampled.rom r.Time_sampled.singular_values ~stats:No_counters

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let entry name scheme reads ~served run =
  { name; scheme; reads; served; run = run scheme }

let pmtbr = entry "pmtbr" in_band [ Order; Tol; Samples; Adaptive ] ~served:true run_pmtbr

let hier =
  entry "hier" in_band
    [ Order; Tol; Samples; Partition; Max_part_states; Interface_tol ]
    ~served:true run_hier

let multipoint = entry "multipoint" in_band [ Order; Samples ] ~served:false run_multipoint

let all =
  [
    pmtbr;
    hier;
    entry "fs-pmtbr" on_band [ Order; Tol; Samples; Adaptive ] ~served:true run_pmtbr;
    entry "prima" in_band [ Order ] ~served:false run_prima;
    entry "tbr" in_band [ Order; Tol ] ~served:false run_tbr;
    entry "tbr-lr" in_band [ Order; Tol ] ~served:false run_tbr_lr;
    entry "tbr-passive" on_band [ Order; Tol ] ~served:true run_tbr_passive;
    multipoint;
    entry "cross-gramian" in_band [ Order; Samples; Adaptive ] ~served:false run_cross;
    entry "correlated" in_band [ Order; Tol; Samples; Adaptive; Draws ] ~served:false
      run_correlated;
    entry "two-step" in_band [ Order ] ~served:false run_two_step;
    entry "pod" in_band [ Order; Tol ] ~served:false run_pod;
  ]

let names = String.concat ", " (List.map (fun m -> m.name) all)

let find name =
  match List.find_opt (fun m -> m.name = name) all with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown method %S (expected %s)" name names)

let check_served m =
  if m.served then Ok ()
  else
    let served = List.filter_map (fun m -> if m.served then Some m.name else None) all in
    Error
      (Printf.sprintf "method %s is CLI-only (the daemon serves %s)" m.name
         (String.concat ", " served))

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate_band (lo, hi) =
  if not (Float.is_finite lo && Float.is_finite hi) then
    Error (Printf.sprintf "band endpoints must be finite (got %g:%g)" lo hi)
  else if lo < 0.0 then Error (Printf.sprintf "band low edge must be >= 0 (got %g)" lo)
  else if not (lo < hi) then Error (Printf.sprintf "band must satisfy LO < HI (got %g:%g)" lo hi)
  else Ok (lo, hi)

let parse_band s =
  match String.split_on_char ':' s with
  | [ lo; hi ] -> (
      match (float_of_string_opt (String.trim lo), float_of_string_opt (String.trim hi)) with
      | Some lo, Some hi -> validate_band (lo, hi)
      | _ -> Error (Printf.sprintf "expected LO:HI in rad/s (got %S)" s))
  | _ -> Error (Printf.sprintf "expected LO:HI in rad/s (got %S)" s)

let validate m o =
  let ( let* ) = Result.bind in
  let check ok fmt = Printf.ksprintf (fun msg -> if ok then Ok () else Error msg) fmt in
  let int_in key lo hi = function
    | Some v -> check (v >= lo && v <= hi) "%s must be in [%d, %d] (got %d)" key lo hi v
    | None -> Ok ()
  in
  let positive key = function
    | Some v -> check (Float.is_finite v && v > 0.0) "%s must be finite and > 0 (got %g)" key v
    | None -> Ok ()
  in
  let given =
    [ (Order, o.order <> None); (Tol, o.tol <> None); (Partition, o.partition <> None);
      (Max_part_states, o.max_part_states <> None); (Interface_tol, o.interface_tol <> None);
      (Adaptive, o.adaptive); (Draws, o.draws <> None) ]
  in
  let* () =
    match List.find_opt (fun (k, g) -> g && not (List.mem k m.reads)) given with
    | Some (k, _) ->
        Error
          (Printf.sprintf "%s does not apply to method %s (it reads: %s)" (key_name k) m.name
             (String.concat ", " (List.map key_name m.reads)))
    | None -> Ok ()
  in
  let* _ = validate_band o.band in
  let* () =
    match o.order with Some q -> check (q >= 1) "order must be >= 1 (got %d)" q | None -> Ok ()
  in
  let* () = positive "tol" o.tol in
  let* () = int_in "samples" 1 100_000 (Some o.samples) in
  let* () =
    match o.partition with
    | Some (Parts k) ->
        check (k >= 2 && k <= 4096)
          "partition must be in [2, 4096] or auto (got %d); a 1-part hierarchy is the flat path" k
    | Some Auto | None -> Ok ()
  in
  let* () = int_in "max-part-states" 1 100_000_000 o.max_part_states in
  let* () =
    check
      (o.max_part_states = None || o.partition = Some Auto)
      "max-part-states requires partition auto"
  in
  let* () = positive "interface-tol" o.interface_tol in
  let* () = int_in "draws" 1 100_000 o.draws in
  let* () =
    check
      (m.name <> multipoint.name || multipoint_count o <= o.samples)
      "order %d needs %d multipoint points but samples is %d (multipoint keeps order/2 points)"
      (Option.value o.order ~default:10) (multipoint_count o) o.samples
  in
  Ok o
