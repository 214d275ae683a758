(* The three workloads: resident networks, the cold pass over them, and the
   timed closed-loop job list — all a pure function of (workload, seed,
   seconds).  Nothing here depends on time measured during a run, so the
   job count, every tier outcome and the summed ROM order repeat exactly
   for a given seed. *)

open Pmtbr_circuit

(* Job classes: the tier path a job takes through the store. *)
type cls =
  | Cold  (** first job on a resident network: every tier misses *)
  | Repeat  (** verbatim repeat: ROM tier *)
  | Retol  (** new tol/order on cached columns: samples tier, 0 solves *)
  | Band  (** new band on a warm network: symbolic analysis reused *)
  | Passive  (** tbr-passive on a warm network *)
  | Hier  (** hierarchical job that samples its subdomains *)
  | Hier_retol  (** hierarchical re-order / interface-tol on warm subdomains *)
  | Fresh  (** never-seen network *)
  | Leaf  (** hierarchical job on a network with one leaf changed *)
  | Export  (** flat pmtbr with the ROM synthesized back to a netlist *)

let classes = [ Cold; Repeat; Retol; Band; Passive; Hier; Hier_retol; Fresh; Leaf; Export ]

let cls_name = function
  | Cold -> "cold"
  | Repeat -> "repeat"
  | Retol -> "retol"
  | Band -> "band"
  | Passive -> "passive"
  | Hier -> "hier"
  | Hier_retol -> "hier-retol"
  | Fresh -> "fresh"
  | Leaf -> "leaf"
  | Export -> "export"

type net = { name : string; text : string }

type job = {
  cls : cls;
  net : net;
  meth : string;  (** wire method name *)
  band : float * float;
  tol : float option;
  order : int option;
  samples : int;
  partition : string option;  (** ["K"] or ["auto"] *)
  max_part_states : int option;
  interface_tol : float option;
  export : bool;
}

type t = {
  name : string;
  cold : job array array;  (** per connection: the cold pass *)
  timed : job array array;  (** per connection: the timed list *)
}

(* ------------------------------------------------------------------ *)
(* Wire form                                                           *)
(* ------------------------------------------------------------------ *)

let headers j =
  let opt key fmt = function Some v -> [ key ^ " " ^ fmt v ] | None -> [] in
  let lo, hi = j.band in
  [ "job reduce"; "method " ^ j.meth; Printf.sprintf "band %.17g:%.17g" lo hi ]
  @ opt "tol" (Printf.sprintf "%.17g") j.tol
  @ opt "order" string_of_int j.order
  @ [ "samples " ^ string_of_int j.samples ]
  @ opt "partition" Fun.id j.partition
  @ opt "max-part-states" string_of_int j.max_part_states
  @ opt "interface-tol" (Printf.sprintf "%.17g") j.interface_tol
  @ if j.export then [ "export 1" ] else []

(* The request payload as the protocol documents it: header lines, an
   empty line, then the netlist text as the body. *)
let payload j = String.concat "\n" (headers j) ^ "\n\n" ^ j.net.text

(* The ROM's identity: everything but the export flag, which only adds a
   synthesis step after the ROM is found. *)
let rom_key j =
  Digest.to_hex
    (Digest.string (String.concat "\n" (headers { j with export = false }) ^ "\n" ^ j.net.name))

(* ------------------------------------------------------------------ *)
(* Networks                                                            *)
(* ------------------------------------------------------------------ *)

(* Every R and C scaled by an independent factor in [0.99, 1.01): the
   seed changes every value but leaves sizes and spectra nearly alone, so
   iteration counts (Jacobi sweeps, ADI steps) and hence job costs stay
   comparable across seeds. *)
let jittered rng nl =
  let f () = 0.99 +. Random.State.float rng 0.02 in
  let out = Netlist.create () in
  List.iter
    (function
      | Netlist.Resistor { n1; n2; ohms } -> Netlist.add_r out n1 n2 (ohms *. f ())
      | Netlist.Capacitor { n1; n2; farads } -> Netlist.add_c out n1 n2 (farads *. f ())
      | Netlist.Inductor { n1; n2; henries } -> ignore (Netlist.add_l out n1 n2 henries)
      | Netlist.Mutual { l1; l2; coupling } -> Netlist.add_mutual out l1 l2 coupling)
    (Netlist.elements nl);
  List.iter (fun p -> ignore (Netlist.add_port out p)) (Netlist.ports nl);
  out

(* The same netlist with the grounded capacitor of [node] scaled: a change
   confined to the subdomain that holds [node]. *)
let with_cap_scaled nl ~node ~factor =
  let out = Netlist.create () in
  List.iter
    (function
      | Netlist.Capacitor { n1; n2 = 0; farads } when n1 = node ->
          Netlist.add_c out n1 0 (farads *. factor)
      | Netlist.Resistor { n1; n2; ohms } -> Netlist.add_r out n1 n2 ohms
      | Netlist.Capacitor { n1; n2; farads } -> Netlist.add_c out n1 n2 farads
      | Netlist.Inductor { n1; n2; henries } -> ignore (Netlist.add_l out n1 n2 henries)
      | Netlist.Mutual { l1; l2; coupling } -> Netlist.add_mutual out l1 l2 coupling)
    (Netlist.elements nl);
  List.iter (fun p -> ignore (Netlist.add_port out p)) (Netlist.ports nl);
  out

let net name nl = { name; text = Spice.to_string nl }

let mesh_nl rng ~rows ~cols ~ports = jittered rng (Rc_mesh.generate ~rows ~cols ~ports ())

let mesh rng ~rows ~cols ~ports name = net name (mesh_nl rng ~rows ~cols ~ports)

(* The contact geometry is fixed per size, and the seed jitters the values:
   a new geometry changes how fast the Jacobi SVD and the ADI iteration
   converge, which would make job costs, not just inputs, seed-dependent. *)
let substrate rng ~ports ~internal name =
  net name (jittered rng (Substrate.generate ~ports ~internal ~seed:(ports + (1000 * internal)) ()))

let line rng ~sections name = net name (jittered rng (Rc_line.generate ~sections ()))

(* ------------------------------------------------------------------ *)
(* Job helpers                                                         *)
(* ------------------------------------------------------------------ *)

let job ?tol ?order ?partition ?max_part_states ?interface_tol ?(export = false) cls net meth
    band samples =
  { cls; net; meth; band; tol; order; samples; partition; max_part_states; interface_tol; export }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  done;
  a

(* A tolerance within 1% of 10^-e: continuous, so no two re-tol jobs of a
   run share a ROM key, yet the order it selects barely depends on the
   seed. *)
let tol_near rng e = (10.0 ** -.e) *. (1.0 +. Random.State.float rng 0.01)

(* A band [lo, lo * ratio) with lo log-uniform in [lo_min, lo_max). *)
let band_in rng ~lo_min ~lo_max ~ratio =
  let lo = lo_min *. ((lo_max /. lo_min) ** Random.State.float rng 1.0) in
  (lo, lo *. ratio)

(* The band [lo, lo * ratio) with lo moved by under 1%: a distinct ROM key
   whose order and cost barely depend on the seed. *)
let band_near rng lo ~ratio =
  let lo = lo *. (1.0 +. Random.State.float rng 0.01) in
  (lo, lo *. ratio)

(* [count] distinct orders drawn from [lo, hi] (widened when the range is
   too small for [count]). *)
let orders rng ~lo ~hi count =
  let hi = max hi (lo + count - 1) in
  Array.sub (shuffle rng (Array.init (hi - lo + 1) (fun i -> lo + i))) 0 count

let rounds ~seconds ~round_s = max 1 (int_of_float ((float_of_int seconds /. round_s) +. 0.5))

(* Producers (jobs that fill a tier) run before the consumers that read
   it; each group is shuffled by the seed. *)
let round rng producers consumers =
  Array.append (shuffle rng (Array.of_list producers)) (shuffle rng (Array.of_list consumers))

(* A 4x40 strip reduced hierarchically, so every workload exercises the
   hierarchical classes at a small cost.  The cold pass fills its two
   subdomains; each round adds a job that samples (budget-driven
   dissection at a new band, with interface compression), a re-finish on
   the warm subdomains, and a copy with one leaf changed. *)
type strip = { base : job; strip_nl : Netlist.t }

let strip rng name =
  let strip_nl = mesh_nl rng ~rows:4 ~cols:40 ~ports:2 in
  { strip_nl; base = job Cold (net name strip_nl) "hier" (0.0, 2e10) 4 ~partition:"2" ~order:10 }

let strip_round rng s r =
  let fr = float_of_int r in
  let hier =
    job Hier s.base.net "hier"
      (band_near rng (2e8 *. (1.1 ** fr)) ~ratio:20.0)
      6 ~partition:"auto" ~max_part_states:100 ~order:12 ~interface_tol:1e-8
  in
  let retol = { s.base with cls = Hier_retol; interface_tol = Some (1e-8 *. (1.0 +. (0.01 *. fr))) } in
  (* the changed capacitor sits in the first quarter of the strip: inside
     one dissection leaf, never on the separator *)
  let leaf =
    {
      s.base with
      cls = Leaf;
      net =
        net
          (Printf.sprintf "%s-leaf-%d" s.base.net.name r)
          (with_cap_scaled s.strip_nl ~node:(Rc_mesh.node ~cols:40 1 5) ~factor:(1.5 +. (0.01 *. fr)));
    }
  in
  ([ hier ], [ retol; leaf ])

(* ------------------------------------------------------------------ *)
(* mesh-explore                                                        *)
(* ------------------------------------------------------------------ *)

(* Square 4-port meshes sampled at 8 points (64 columns, far fewer than
   states) plus an 8-row mesh whose dissection cuts stay 8 states wide. *)
let mesh_explore rng ~seconds =
  let m1 = mesh rng ~rows:52 ~cols:52 ~ports:4 "mesh-52x52" in
  let m2 = mesh rng ~rows:64 ~cols:64 ~ports:4 "mesh-64x64" in
  let el_nl = mesh_nl rng ~rows:8 ~cols:320 ~ports:4 in
  let el = net "mesh-8x320" el_nl in
  let b0 = (0.0, 2e10) in
  let pts = 8 in
  let cold_m2 = job Cold m2 "pmtbr" b0 pts ~tol:1e-6 in
  let cold =
    [| job Cold m1 "pmtbr" b0 pts ~tol:1e-6; cold_m2; job Cold el "pmtbr" b0 pts ~order:24 |]
  in
  let n = rounds ~seconds ~round_s:9.0 in
  (* every round asks the same kinds of question at slightly moved bands
     and orders; the seed only nudges values and shuffles the order *)
  let timed =
    Array.concat
      (List.init n (fun r ->
           let shift = 1.1 ** float_of_int r in
           let band lo = band_near rng (lo *. shift) ~ratio:10.0 in
           let b1 = band 5e8 in
           let b2 = band 2e8 in
           let b3 = band 1e9 in
           let b4 = band 3e8 in
           let hier_band = band_near rng (2e8 *. shift) ~ratio:20.0 in
           let hier_k ?order ?interface_tol cls =
             job cls el "hier" hier_band 4 ~partition:"4" ?order ?interface_tol
           in
           (* the changed capacitor sits in the first dissection leaf *)
           let leaf_nl = with_cap_scaled el_nl ~node:(Rc_mesh.node ~cols:320 3 20) ~factor:1.5 in
           let leaf =
             {
               (hier_k Leaf ~order:(8 + r)) with
               net = net (Printf.sprintf "mesh-8x320-leaf-%d" r) leaf_nl;
             }
           in
           let fresh = mesh rng ~rows:24 ~cols:24 ~ports:4 (Printf.sprintf "fresh-%d" r) in
           round rng
             [
               job Band m1 "fs-pmtbr" b1 pts ~tol:1e-6;
               job Band m2 "fs-pmtbr" b2 pts ~tol:1e-6;
               job Band m2 "fs-pmtbr" b3 pts ~tol:1e-6;
               job Band m2 "fs-pmtbr" b4 pts ~tol:1e-6;
               job Passive m1 "tbr-passive" b0 pts ~order:(18 + r) ~export:true;
               hier_k Hier ~order:(8 + r);
               job Hier el "hier" hier_band 4 ~partition:"auto" ~max_part_states:700
                 ~order:10 ~interface_tol:1e-8;
             ]
             [
               job Retol m1 "pmtbr" b0 pts ~tol:(tol_near rng 7.0);
               job Retol m1 "pmtbr" b0 pts ~order:(20 + r);
               job Retol m1 "fs-pmtbr" b1 pts ~order:(28 + r);
               job Retol m2 "pmtbr" b0 pts ~tol:(tol_near rng 7.0);
               job Retol m2 "pmtbr" b0 pts ~tol:(tol_near rng 8.0);
               job Retol m2 "pmtbr" b0 pts ~order:(22 + r);
               job Retol m2 "fs-pmtbr" b2 pts ~order:(30 + r);
               job Retol m2 "fs-pmtbr" b3 pts ~order:(26 + r);
               { cold_m2 with cls = Repeat };
               { cold_m2 with cls = Repeat };
               { cold_m2 with cls = Repeat };
               { cold_m2 with cls = Repeat };
               hier_k Hier_retol ~order:(12 + r);
               hier_k Hier_retol ~order:(8 + r) ~interface_tol:1e-8;
               leaf;
               job Fresh fresh "pmtbr" b0 pts ~tol:1e-6;
               job Export m1 "pmtbr" b0 pts ~order:(24 + r) ~export:true;
             ]))
  in
  { name = "mesh-explore"; cold = [| cold |]; timed = [| timed |] }

(* ------------------------------------------------------------------ *)
(* substrate-ports                                                     *)
(* ------------------------------------------------------------------ *)

(* Random-geometric many-port substrates (the Figs. 15-16 class, scaled
   down): every sample matrix is wider than the network has states, so
   the small-factor SVD dominates each flat job. *)
let substrate_ports rng ~seconds =
  let wc = Substrate.corner_frequency () in
  let b0 = (0.0, 10.0 *. wc) in
  let samples = 4 in
  (* five substrates of one size and five geometries: every flat job
     decomposes a small factor of the same width, so the median job is one
     of a dense cluster *)
  let subs =
    Array.init 5 (fun i ->
        (substrate rng ~ports:20 ~internal:(40 + i) (Printf.sprintf "substrate-20p-%d" i), 20))
  in
  let hs = strip rng "strip-4x40" in
  let cold =
    Array.append (Array.map (fun (s, _) -> job Cold s "pmtbr" b0 samples ~tol:1e-6) subs) [| hs.base |]
  in
  let n = rounds ~seconds ~round_s:12.0 in
  let timed =
    Array.concat
      (List.init n (fun r ->
           let s0 = fst subs.(0) in
           let producers, consumers =
             List.split
               (Array.to_list
                  (Array.map
                     (fun (s, p) ->
                       let b =
                         band_near rng (0.1 *. wc *. (1.1 ** float_of_int r)) ~ratio:20.0
                       in
                       ( job Band s "fs-pmtbr" b samples ~tol:1e-6,
                         [
                           job Retol s "pmtbr" b0 samples ~tol:(tol_near rng 8.0);
                           job Retol s "pmtbr" b0 samples ~order:(p + 4 + (2 * r));
                           job Export s "pmtbr" b0 samples ~order:(p + 5 + (2 * r)) ~export:true;
                         ] ))
                     subs))
           in
           let fresh =
             substrate rng ~ports:8 ~internal:24 (Printf.sprintf "fresh-substrate-%d" r)
           in
           let strip_producers, strip_consumers = strip_round rng hs r in
           (* one passive job per round, the slowest: the p90 rank falls
              among the new-band jobs just below it *)
           round rng
             ((job Passive s0 "tbr-passive" b0 samples ~order:(36 + r) ~export:true :: producers)
             @ strip_producers)
             (List.concat consumers
             @ strip_consumers
             @ [ { cold.(0) with cls = Repeat }; job Fresh fresh "pmtbr" b0 samples ~tol:1e-6 ])))
  in
  { name = "substrate-ports"; cold = [| cold |]; timed = [| timed |] }

(* ------------------------------------------------------------------ *)
(* serve-mix                                                           *)
(* ------------------------------------------------------------------ *)

(* A flat family of serve-mix: its network, base band, sample count, and
   a stream of distinct orders so no re-order job repeats a ROM key until
   the stream wraps. *)
type family = { fnet : net; fband : float * float; fsamples : int; forders : int array; mutable next : int }

let family rng fnet fband fsamples ~max_order =
  { fnet; fband; fsamples; forders = orders rng ~lo:16 ~hi:max_order (max_order - 15); next = 0 }

let next_order f =
  let q = f.forders.(f.next mod Array.length f.forders) in
  f.next <- f.next + 1;
  q

(* One connection's families and job list; each connection owns a disjoint
   half of the families, so no tier outcome depends on how the two
   connections interleave. *)
let serve_conn rng ~conn ~rounds:n =
  let tag s = Printf.sprintf "c%d-%s" conn s in
  let b0 = (0.0, 2e10) in
  let wc = Substrate.corner_frequency () in
  (* 4-port meshes at 8 points and 8-port substrates at 4 points: 64-column
     small factors; orders stay below the rank *)
  let meshes =
    List.map
      (fun k -> family rng (mesh rng ~rows:k ~cols:k ~ports:4 (tag (Printf.sprintf "mesh-%d" k))) b0 8 ~max_order:48)
      [ 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22; 23; 24 ]
  in
  let subs =
    List.map
      (fun i ->
        family rng
          (substrate rng ~ports:8 ~internal:i (tag (Printf.sprintf "substrate-8p%d" i)))
          (0.0, 10.0 *. wc) 4 ~max_order:30)
      [ 24; 28; 32; 36; 40 ]
  in
  let lines =
    List.map
      (fun k -> family rng (line rng ~sections:k (tag (Printf.sprintf "line-%d" k))) (0.0, 1e10) 16 ~max_order:28)
      [ 200; 300; 400; 500; 600 ]
  in
  let hs = strip rng (tag "strip-4x40") in
  let refinish = Array.of_list (meshes @ subs) in
  let flats = Array.of_list (meshes @ subs @ lines) in
  let cold =
    Array.append
      (Array.map (fun f -> job Cold f.fnet "pmtbr" f.fband f.fsamples ~tol:1e-6) flats)
      [| hs.base |]
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let timed =
    Array.concat
      (List.init n (fun r ->
           let retol () =
             let f = pick refinish in
             if Random.State.bool rng then
               job Retol f.fnet "pmtbr" f.fband f.fsamples ~tol:(tol_near rng 8.0)
             else job Retol f.fnet "pmtbr" f.fband f.fsamples ~order:(next_order f)
           in
           let repeat () = { (pick cold) with cls = Repeat } in
           let band () =
             let f = pick flats in
             let hi = snd f.fband in
             job Band f.fnet "fs-pmtbr"
               (band_in rng ~lo_min:(hi /. 200.0) ~lo_max:(hi /. 20.0) ~ratio:10.0)
               f.fsamples ~tol:1e-6
           in
           let fresh () =
             let m = mesh rng ~rows:12 ~cols:12 ~ports:4 (tag (Printf.sprintf "fresh-%d" r)) in
             job Fresh m "pmtbr" b0 8 ~tol:1e-6
           in
           let export () =
             let f = pick (Array.of_list meshes) in
             job Export f.fnet "pmtbr" f.fband f.fsamples ~order:(next_order f) ~export:true
           in
           let strip_producers, strip_consumers = strip_round rng hs r in
           let small = List.nth meshes 2 in
           round rng
             ([ band (); band (); fresh ();
                job Passive small.fnet "tbr-passive" small.fband small.fsamples
                  ~order:(12 + r) ~export:true ]
             @ strip_producers)
             (List.concat
                [
                  List.init 8 (fun _ -> repeat ());
                  List.init 10 (fun _ -> retol ());
                  [ export (); export () ];
                  strip_consumers;
                ])))
  in
  (cold, timed)

let serve_mix rng ~seconds =
  let n = rounds ~seconds ~round_s:0.8 in
  let c0 = serve_conn rng ~conn:0 ~rounds:n in
  let c1 = serve_conn rng ~conn:1 ~rounds:n in
  { name = "serve-mix"; cold = [| fst c0; fst c1 |]; timed = [| snd c0; snd c1 |] }

let names = [ "mesh-explore"; "substrate-ports"; "serve-mix" ]

let make ~name ~seed ~seconds =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  match name with
  | "mesh-explore" -> mesh_explore rng ~seconds
  | "substrate-ports" -> substrate_ports rng ~seconds
  | "serve-mix" -> serve_mix rng ~seconds
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)
