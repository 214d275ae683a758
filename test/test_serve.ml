(* Tests for the reduction service: the LRU eviction structure, the wire
   protocol (including malformed/oversized frames), the content-addressed
   store contracts (hash stability, tier progression, warm == cold
   bitwise, library == daemon bitwise, eviction forces recompute), a
   concurrent end-to-end daemon run, and regressions for the two parser
   bugfixes that rode along (--band validation, SPICE value suffixes). *)

open Pmtbr_circuit
open Pmtbr_serve

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_hit_miss () =
  let l = Lru.create ~max_cost:100 () in
  Alcotest.(check (option int)) "empty miss" None (Lru.find l "a");
  Lru.add l "a" ~cost:10 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find l "a");
  Alcotest.(check bool) "mem" true (Lru.mem l "a");
  Lru.remove l "a";
  Alcotest.(check (option int)) "removed" None (Lru.find l "a");
  Alcotest.(check int) "empty cost" 0 (Lru.total_cost l)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let l = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~max_cost:12 () in
  Lru.add l "a" ~cost:4 1;
  Lru.add l "b" ~cost:4 2;
  Lru.add l "c" ~cost:4 3;
  (* full; a is LRU.  Touch it so b becomes the victim. *)
  ignore (Lru.find l "a");
  Lru.add l "d" ~cost:4 4;
  Alcotest.(check (list string)) "b evicted first" [ "b" ] !evicted;
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ] (Lru.keys l);
  (* replacing a live key fires on_evict for the old binding only *)
  Lru.add l "d" ~cost:4 40;
  Alcotest.(check (list string)) "replace evicts old binding" [ "d"; "b" ] !evicted;
  Alcotest.(check (option int)) "replaced value" (Some 40) (Lru.find l "d")

let test_lru_oversized_entry_lands () =
  let l = Lru.create ~max_cost:10 () in
  Lru.add l "small" ~cost:5 1;
  (* an entry bigger than the whole budget must still land (and evict
     everything else), never evict itself *)
  Lru.add l "huge" ~cost:50 2;
  Alcotest.(check (option int)) "oversized entry present" (Some 2) (Lru.find l "huge");
  Alcotest.(check int) "alone in the cache" 1 (Lru.length l)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let read_frame_of_string ?max_bytes s =
  let path = Filename.temp_file "pmtbr_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Protocol.read_frame ?max_bytes ic))

let test_frame_roundtrip () =
  let path = Filename.temp_file "pmtbr_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_frame oc "hello\nworld";
      Protocol.write_frame oc "";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (match Protocol.read_frame ic with
          | Ok p -> Alcotest.(check string) "payload" "hello\nworld" p
          | Error _ -> Alcotest.fail "first frame should parse");
          (match Protocol.read_frame ic with
          | Ok p -> Alcotest.(check string) "empty payload" "" p
          | Error _ -> Alcotest.fail "second frame should parse");
          match Protocol.read_frame ic with
          | Error Protocol.Eof -> ()
          | _ -> Alcotest.fail "stream end should be Eof"))

let test_frame_malformed () =
  (match read_frame_of_string "not-a-length\nrest" with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage length line must be Malformed");
  (match read_frame_of_string "10\nshort" with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated payload must be Malformed");
  match read_frame_of_string "1234567890123\nx" with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "over-long length line must be Malformed"

let test_frame_oversized () =
  match read_frame_of_string ~max_bytes:16 "99999\npayload" with
  | Error (Protocol.Oversized n) -> Alcotest.(check int) "declared size" 99999 n
  | _ -> Alcotest.fail "payload beyond max_bytes must be Oversized"

let test_request_roundtrip () =
  let job =
    {
      Protocol.meth = Protocol.Fs_pmtbr;
      band = (1e8, 2e10);
      tol = Some 1e-9;
      order = Some 12;
      samples = 17;
      partition = None;
      max_part_states = None;
      interface_tol = None;
      export = false;
      netlist = "R1 1 0 1k\nC1 1 0 1p\n.port 1\n.end\n";
    }
  in
  (match Protocol.parse_request (Protocol.encode_request (Protocol.Reduce job)) with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check bool) "meth" true (j.Protocol.meth = Protocol.Fs_pmtbr);
      Alcotest.(check (pair (float 0.0) (float 0.0))) "band" (1e8, 2e10) j.Protocol.band;
      Alcotest.(check (option (float 0.0))) "tol" (Some 1e-9) j.Protocol.tol;
      Alcotest.(check (option int)) "order" (Some 12) j.Protocol.order;
      Alcotest.(check int) "samples" 17 j.Protocol.samples;
      Alcotest.(check bool) "export default off" false j.Protocol.export;
      Alcotest.(check string) "netlist" job.Protocol.netlist j.Protocol.netlist
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("reduce roundtrip: " ^ e));
  (* the export flag and the tbr-passive method survive the wire *)
  (match
     Protocol.parse_request
       (Protocol.encode_request
          (Protocol.Reduce
             { job with Protocol.meth = Protocol.Tbr_passive; export = true }))
   with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check bool) "tbr-passive meth" true (j.Protocol.meth = Protocol.Tbr_passive);
      Alcotest.(check bool) "export on" true j.Protocol.export
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("export roundtrip: " ^ e));
  List.iter
    (fun req ->
      match Protocol.parse_request (Protocol.encode_request req) with
      | Ok r -> Alcotest.(check bool) "kind preserved" true (r = req)
      | Error e -> Alcotest.fail e)
    [ Protocol.Ping; Protocol.Stats; Protocol.Shutdown ]

let test_partition_roundtrip_and_validation () =
  let job =
    {
      Protocol.meth = Protocol.Hier;
      band = (0.0, 2e10);
      tol = None;
      order = Some 8;
      samples = 10;
      partition = Some (Protocol.Parts 3);
      max_part_states = None;
      interface_tol = None;
      export = false;
      netlist = "R1 1 0 1k\nC1 1 0 1p\n.port 1\n.end\n";
    }
  in
  (match Protocol.parse_request (Protocol.encode_request (Protocol.Reduce job)) with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check bool) "hier meth" true (j.Protocol.meth = Protocol.Hier);
      Alcotest.(check (option int)) "partition" (Some 3)
        (match j.Protocol.partition with Some (Protocol.Parts k) -> Some k | _ -> None)
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("hier roundtrip: " ^ e));
  (* hier without an explicit partition count is valid (store default) *)
  (match
     Protocol.parse_request (Protocol.encode_request (Protocol.Reduce { job with partition = None }))
   with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check bool) "default partition" true (j.Protocol.partition = None)
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("hier default roundtrip: " ^ e));
  let reject payload what =
    match Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
  in
  reject "job reduce\nmethod hier\nband 1:2\npartition 0\n\nR1 1 0 1\n.port 1\n" "zero partition";
  reject "job reduce\nmethod hier\nband 1:2\npartition 5000\n\nR1 1 0 1\n.port 1\n"
    "partition beyond cap";
  reject "job reduce\nmethod hier\nband 1:2\npartition two\n\nR1 1 0 1\n.port 1\n"
    "non-integer partition";
  reject "job reduce\nmethod pmtbr\nband 1:2\npartition 2\n\nR1 1 0 1\n.port 1\n"
    "partition on a flat method"

(* the nested-dissection job fields: partition auto, max-part-states and
   interface-tol survive the wire, and every invalid combination is
   rejected at parse time *)
let test_auto_fields_roundtrip_and_validation () =
  let job =
    {
      Protocol.meth = Protocol.Hier;
      band = (0.0, 2e10);
      tol = None;
      order = Some 8;
      samples = 10;
      partition = Some Protocol.Auto;
      max_part_states = Some 500;
      interface_tol = Some 1e-8;
      export = false;
      netlist = "R1 1 0 1k\nC1 1 0 1p\n.port 1\n.end\n";
    }
  in
  (match Protocol.parse_request (Protocol.encode_request (Protocol.Reduce job)) with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check bool) "partition auto" true (j.Protocol.partition = Some Protocol.Auto);
      Alcotest.(check (option int)) "max-part-states" (Some 500) j.Protocol.max_part_states;
      Alcotest.(check (option (float 0.0))) "interface-tol" (Some 1e-8) j.Protocol.interface_tol
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("auto roundtrip: " ^ e));
  let reject payload what =
    match Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
  in
  reject "job reduce\nmethod hier\nband 1:2\npartition auto\nmax-part-states 0\n\nR1 1 0 1\n.port 1\n"
    "zero max-part-states";
  reject
    "job reduce\nmethod hier\nband 1:2\npartition 3\nmax-part-states 100\n\nR1 1 0 1\n.port 1\n"
    "max-part-states with a fixed partition";
  reject "job reduce\nmethod hier\nband 1:2\nmax-part-states 100\n\nR1 1 0 1\n.port 1\n"
    "max-part-states without partition auto";
  reject "job reduce\nmethod hier\nband 1:2\ninterface-tol 0\n\nR1 1 0 1\n.port 1\n"
    "zero interface-tol";
  reject "job reduce\nmethod hier\nband 1:2\ninterface-tol -1e-8\n\nR1 1 0 1\n.port 1\n"
    "negative interface-tol";
  reject "job reduce\nmethod hier\nband 1:2\ninterface-tol nan\n\nR1 1 0 1\n.port 1\n"
    "non-finite interface-tol";
  reject "job reduce\nmethod pmtbr\nband 1:2\ninterface-tol 1e-8\n\nR1 1 0 1\n.port 1\n"
    "interface-tol on a flat method"

let test_request_validation () =
  let reject payload what =
    match Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
  in
  reject "job dance\n\nbody" "unknown job kind";
  reject "job reduce\nmethod warp\nband 1:2\n\nR1 1 0 1\n.port 1\n" "unknown method";
  reject "job reduce\nmethod pmtbr\nband 2e9:1e9\n\nR1 1 0 1\n.port 1\n" "reversed band";
  reject "job reduce\nmethod pmtbr\nband 1:2\ntol -1\n\nR1 1 0 1\n.port 1\n" "negative tol";
  reject "job reduce\nmethod pmtbr\nband 1:2\norder 0\n\nR1 1 0 1\n.port 1\n" "zero order";
  reject "job reduce\nmethod pmtbr\nband 1:2\nsamples 0\n\nR1 1 0 1\n.port 1\n" "zero samples";
  reject "job reduce\nmethod pmtbr\nband 1:2\nexport maybe\n\nR1 1 0 1\n.port 1\n" "bad export";
  reject "job reduce\nmethod pmtbr\nband 1:2\n\n" "missing netlist"

let test_response_roundtrip () =
  let r = Protocol.ok ~fields:[ ("tier", "rom-hit"); ("solves", "0") ] ~body:"data" () in
  (match Protocol.parse_response (Protocol.encode_response r) with
  | Ok p ->
      Alcotest.(check bool) "ok status" true (p.Protocol.status = Ok ());
      Alcotest.(check (option string)) "field" (Some "rom-hit") (Protocol.field p "tier");
      Alcotest.(check string) "body" "data" p.Protocol.body
  | Error e -> Alcotest.fail e);
  match Protocol.parse_response (Protocol.encode_response (Protocol.error "boom boom")) with
  | Ok p -> Alcotest.(check bool) "error status" true (p.Protocol.status = Error "boom boom")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: --band parsing                                  *)
(* ------------------------------------------------------------------ *)

let test_band_validation () =
  (match Protocol.parse_band "0:2e10" with
  | Ok (lo, hi) ->
      Alcotest.(check (float 0.0)) "lo" 0.0 lo;
      Alcotest.(check (float 0.0)) "hi" 2e10 hi
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_band "1e8:1e9" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Protocol.parse_band s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "band %S must be rejected" s))
    [ "2e9:1e9" (* reversed *); "-1:5" (* negative lo *); "3e9:3e9" (* zero width *);
      "nan:1e9" (* non-finite lo *); "0:inf" (* non-finite hi *); "1e9" (* no colon *);
      "a:b" (* not numbers *); "1:2:3" (* too many fields *) ]

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: SPICE value suffixes                            *)
(* ------------------------------------------------------------------ *)

let test_spice_value_units () =
  let v s = Spice.parse_value ~line:1 s in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check (float 1e-12)) s 1.0 (v s /. expected))
    [
      ("10kohm", 1e4) (* trailing unit text after a scale suffix *);
      ("1pF", 1e-12);
      ("100MEGHz", 1e8) (* longest match: meg, not m *);
      ("4.7nF", 4.7e-9);
      ("10ohm", 10.0) (* bare unit, no scale *);
      ("2.2meg", 2.2e6);
      ("1k", 1e3);
      ("1e3", 1e3) (* exponent is part of the number, not a suffix *);
      ("3", 3.0);
    ]
  |> ignore;
  List.iter
    (fun s ->
      match v s with
      | _ -> Alcotest.fail (Printf.sprintf "value %S must be rejected" s)
      | exception Spice.Parse_error _ -> ())
    [ "10k3" (* digit inside the suffix *); "1p-f"; "x"; "" ]

let test_spice_netlist_with_units () =
  (* the original bug: a netlist written with human units failed to parse *)
  let text = "R1 1 0 10kohm\nC1 1 0 1pF\nL1 1 2 2nH\nR2 2 0 1MEGohm\n.port 1\n.end\n" in
  let nl = Spice.netlist (Spice.parse_string text) in
  let r, c, l, _ = Netlist.stats nl in
  Alcotest.(check int) "resistors" 2 r;
  Alcotest.(check int) "capacitors" 1 c;
  Alcotest.(check int) "inductors" 1 l

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let mesh_netlist ?(n = 6) () =
  Spice.to_string (Rc_mesh.generate ~rows:n ~cols:n ~ports:2 ())

let must = function Ok v -> v | Error e -> Alcotest.fail e

let job_defaults = (Protocol.Pmtbr, (0.0, 2e10), 10)

let run_job ?(meth = Protocol.Pmtbr) ?(band = (0.0, 2e10)) ?tol ?(order = 8) ?(samples = 10)
    ?partition ?max_part_states ?interface_tol ?(export = false) store netlist =
  let _ = job_defaults in
  must
    (Store.reduce store ~netlist ~meth ~band ?tol ~order ?partition ?max_part_states
       ?interface_tol ~export ~samples ())

let test_hash_stability () =
  let text = mesh_netlist () in
  (* same network, different formatting and comments *)
  let noisy =
    "* a comment\n\n" ^ String.concat "\n" (String.split_on_char '\n' text) ^ "\n* trailing\n"
  in
  let h1 = must (Store.canonical_hash text) and h2 = must (Store.canonical_hash noisy) in
  Alcotest.(check string) "hash survives re-formatting" h1 h2;
  let other = mesh_netlist ~n:5 () in
  Alcotest.(check bool) "different network, different hash" false
    (must (Store.canonical_hash other) = h1)

let test_store_tiers_and_counters () =
  let store = Store.create () in
  let netlist = mesh_netlist () in
  let o1 = run_job store netlist in
  Alcotest.(check string) "first job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "cold job solves" true (o1.Store.job_solves > 0);
  let o2 = run_job store netlist in
  Alcotest.(check string) "verbatim repeat" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  Alcotest.(check string) "repeat digest" o1.Store.digest o2.Store.digest;
  (* same network, new band: the prepared multi-shift handle is reused *)
  let o3 = run_job ~band:(1e8, 1e10) store netlist in
  Alcotest.(check string) "new band reuses network" "network-hit" (Store.tier_name o3.Store.tier);
  (* same sample set, different order: re-finish with zero solves *)
  let o4 = run_job ~order:4 store netlist in
  Alcotest.(check string) "re-order reuses samples" "samples-hit" (Store.tier_name o4.Store.tier);
  Alcotest.(check int) "re-finish solves nothing" 0 o4.Store.job_solves;
  Alcotest.(check int) "reduced to the new order" 4 o4.Store.order;
  let c = Store.counters store in
  Alcotest.(check int) "jobs" 4 c.Store.jobs;
  Alcotest.(check int) "rom hits" 1 c.Store.rom_hits;
  Alcotest.(check int) "samples hits" 1 c.Store.samples_hits;
  Alcotest.(check int) "network hits" 1 c.Store.network_hits;
  Alcotest.(check int) "misses" 1 c.Store.misses;
  Alcotest.(check int) "one parse per network, ever" 1 c.Store.parses;
  Alcotest.(check int) "one symbolic analysis per network, ever" 1 c.Store.symbolic

(* The hash is computed on the canonical re-render AND the stamp is built
   from the canonical IR, so two formattings of one network are the same
   store entry and the same bitwise ROM. *)
let test_reformatted_collides_to_one_rom () =
  let text = mesh_netlist ~n:5 () in
  let noisy = "* a comment\n\n" ^ text ^ "* trailing\n" in
  let store = Store.create () in
  let o1 = run_job store text in
  let o2 = run_job store noisy in
  Alcotest.(check string) "reformatted text is a rom hit" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check string) "one digest" o1.Store.digest o2.Store.digest;
  (* and a fresh store fed only the noisy text still produces that digest *)
  let cold = run_job (Store.create ()) noisy in
  Alcotest.(check string) "digest independent of submitted formatting" o1.Store.digest
    cold.Store.digest

(* One job, one answer: a flat pmtbr job through the daemon's store and
   [Pmtbr.reduce] on the same canonical network, points, tolerance and
   worker count return bitwise-identical ROMs — on a mesh whose cache
   holds fewer columns than states (the small-factor SVD) and on a
   substrate holding more (the state-dimension SVD). *)
let test_library_equals_daemon () =
  let check name text ~w_max ~samples =
    let o =
      must
        (Store.reduce (Store.create ()) ~netlist:text ~meth:Protocol.Pmtbr ~band:(0.0, w_max)
           ~tol:1e-8 ~samples ())
    in
    let sys =
      Pmtbr_lti.Dss.of_netlist
        (Spice_ir.to_netlist (Spice_ir.canonical (Spice.ir (Spice.parse_string text))))
    in
    let pts = Pmtbr_core.Sampling.points (Pmtbr_core.Sampling.Uniform { w_max }) ~count:samples in
    let lib = Pmtbr_core.Pmtbr.reduce ~tol:1e-8 ~workers:1 sys pts in
    let columns = lib.Pmtbr_core.Pmtbr.stats.Pmtbr_core.Sample_cache.columns in
    Alcotest.(check string)
      (Printf.sprintf "%s (%d columns, %d states): library digest == daemon digest" name columns
         o.Store.states)
      o.Store.digest
      (Store.rom_digest lib.Pmtbr_core.Pmtbr.rom);
    columns < o.Store.states
  in
  let tall = check "rc mesh" (mesh_netlist ~n:12 ()) ~w_max:2e10 ~samples:10 in
  let wide =
    check "substrate"
      (Spice.to_string (Substrate.generate ~ports:12 ~internal:20 ~seed:5 ()))
      ~w_max:(4.0 *. Substrate.corner_frequency ()) ~samples:6
  in
  Alcotest.(check (pair bool bool)) "one tall and one wide cache" (true, false) (tall, wide)

(* tbr-passive through the store: tier progression, export body closing
   the roundtrip, and multi-shift handle reuse on a new band. *)
let test_tbr_passive_tiers_and_export () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:5 () in
  let o1 = run_job ~meth:Protocol.Tbr_passive ~order:6 ~export:true store netlist in
  Alcotest.(check string) "first job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "passive job solves" true (o1.Store.job_solves > 0);
  let body =
    match o1.Store.netlist with
    | Some t -> t
    | None -> Alcotest.fail "export requested but no netlist returned"
  in
  (* the exported body re-parses, stamps and sweeps to the in-memory ROM *)
  let back = Pmtbr_lti.Dss.of_netlist (Spice.netlist (Spice.parse_string body)) in
  let omegas = [| 1e8; 1e9; 5e9; 2e10 |] in
  let href = Pmtbr_lti.Freq.sweep o1.Store.rom omegas in
  let st = Pmtbr_lti.Freq.compare_sweep back omegas ~ref_:href in
  Alcotest.(check bool) "export body reproduces the ROM (<= 1e-9)" true
    (Pmtbr_lti.Freq.stream_max_rel_error st <= 1e-9);
  (* verbatim repeat: ROM-tier hit, identical digest, export still served *)
  let o2 = run_job ~meth:Protocol.Tbr_passive ~order:6 ~export:true store netlist in
  Alcotest.(check string) "repeat is a rom hit" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  Alcotest.(check string) "repeat digest" o1.Store.digest o2.Store.digest;
  Alcotest.(check bool) "export body is render-stable" true (o2.Store.netlist = Some body);
  (* same network, new band: the prepared multi-shift handle is reused *)
  let o3 = run_job ~meth:Protocol.Tbr_passive ~order:6 ~band:(1e8, 1e10) store netlist in
  Alcotest.(check string) "new band reuses network" "network-hit" (Store.tier_name o3.Store.tier)

(* Hierarchical jobs through the store: tier progression over the
   per-subdomain sample tiers, the per-network partition tracker, and the
   reset when a job re-partitions the same network. *)
let test_hier_tiers_and_stats () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:8 () in
  let o1 = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) store netlist in
  Alcotest.(check string) "first hier job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "cold hier job solves" true (o1.Store.job_solves > 0);
  let o2 = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) store netlist in
  Alcotest.(check string) "verbatim repeat" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  Alcotest.(check string) "repeat digest" o1.Store.digest o2.Store.digest;
  (* same samples, new order: every subdomain sample tier is warm, so the
     recombination re-finishes without a single solve *)
  let o3 = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) ~order:4 store netlist in
  Alcotest.(check string) "re-order reuses subdomain samples" "samples-hit"
    (Store.tier_name o3.Store.tier);
  Alcotest.(check int) "re-finish solves nothing" 0 o3.Store.job_solves;
  let hs = Store.hier_stats store in
  Alcotest.(check int) "one hier network" 1 (List.length hs);
  let hash, hn = List.hd hs in
  Alcotest.(check string) "keyed by network hash" o1.Store.hash hash;
  Alcotest.(check int) "partitions" 2 hn.Store.partitions;
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check bool) "cold job recorded sub misses" true (sum hn.Store.sub_misses > 0);
  Alcotest.(check bool) "warm job recorded sub hits" true (sum hn.Store.sub_hits > 0);
  (* a different part count on the same network resets the slot tracker *)
  let o4 = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 3) store netlist in
  Alcotest.(check string) "re-partition falls back to the warm network" "network-hit"
    (Store.tier_name o4.Store.tier);
  let _, hn3 = List.hd (Store.hier_stats store) in
  Alcotest.(check int) "tracker reset to the new count" 3 hn3.Store.partitions;
  Alcotest.(check int) "slot arrays follow" 3 (Array.length hn3.Store.sub_misses)

(* Tree-shaped (auto) dissection through the store: cold miss, verbatim
   rom-hit, re-tol re-finish from every leaf's warm sample tier with zero
   solves, and a re-partition under a different goal descriptor that
   produces the same leaves re-finds all of them warm. *)
let test_hier_auto_tree_tiers () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:8 () in
  let o1 =
    run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20 store netlist
  in
  Alcotest.(check string) "cold auto job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "cold job solves" true (o1.Store.job_solves > 0);
  let o2 =
    run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20 store netlist
  in
  Alcotest.(check string) "verbatim repeat" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  (* re-tol: every leaf's sample tier is warm, the whole tree re-finishes
     without a single solve *)
  let o3 =
    run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20 ~tol:1e-6 ~order:6
      store netlist
  in
  Alcotest.(check string) "re-tol reuses the tree's samples" "samples-hit"
    (Store.tier_name o3.Store.tier);
  Alcotest.(check int) "re-tol re-finish solves nothing" 0 o3.Store.job_solves;
  (* a leaf-count goal that dissects to the same leaves (budget 20 on this
     mesh yields the 4-leaf depth-2 tree) re-finds every sample tier warm
     under the new partition descriptor *)
  let o4 = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 4) store netlist in
  Alcotest.(check string) "equivalent re-partition is samples-warm" "samples-hit"
    (Store.tier_name o4.Store.tier);
  Alcotest.(check int) "re-partition solves nothing" 0 o4.Store.job_solves;
  Alcotest.(check string) "same leaves, same rom" o1.Store.digest o4.Store.digest;
  (* interface compression only perturbs the ROM key: samples stay warm *)
  let o5 =
    run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20
      ~interface_tol:1e-8 store netlist
  in
  Alcotest.(check string) "compressed job is samples-warm" "samples-hit"
    (Store.tier_name o5.Store.tier);
  Alcotest.(check int) "compressed job solves nothing" 0 o5.Store.job_solves;
  Alcotest.(check bool) "compression never grows the order" true
    (o5.Store.order <= o1.Store.order)

(* Re-partitioning only a changed subtree: a second network differing
   from the first inside one leaf's interior re-finds every other leaf's
   sample columns warm — only the changed subdomain re-solves. *)
let test_hier_changed_subtree_warm () =
  let text = mesh_netlist ~n:8 () in
  (* perturb one grounded capacitor whose node is interior to one leaf
     (node 2 on this mesh): the other leaves' sub-netlists and sampling
     right-hand sides are untouched *)
  let tweaked =
    String.concat "\n"
      (List.map
         (fun l -> if String.length l > 3 && String.sub l 0 3 = "C2 " then l ^ "5" else l)
         (String.split_on_char '\n' text))
  in
  let store = Store.create () in
  let o1 = run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20 store text in
  let o2 =
    run_job ~meth:Protocol.Hier ~partition:Protocol.Auto ~max_part_states:20 store tweaked
  in
  Alcotest.(check bool) "really a different network" false (o1.Store.hash = o2.Store.hash);
  Alcotest.(check string) "new network misses" "miss" (Store.tier_name o2.Store.tier);
  Alcotest.(check bool) "only the changed subtree re-solves" true
    (o2.Store.job_solves > 0 && o2.Store.job_solves < o1.Store.job_solves);
  let hn =
    match List.assoc_opt o2.Store.hash (Store.hier_stats store) with
    | Some hn -> hn
    | None -> Alcotest.fail "no hier tracker for the tweaked network"
  in
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "exactly one leaf missed" 1 (sum hn.Store.sub_misses);
  Alcotest.(check int) "every other leaf was warm" (hn.Store.partitions - 1)
    (sum hn.Store.sub_hits)

(* Warm hier paths are bitwise: re-finishing from cached subdomain
   samples reproduces the cold digest exactly. *)
let test_hier_warm_equals_cold () =
  let netlist = mesh_netlist ~n:8 () in
  let cold = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) (Store.create ()) netlist in
  let s = Store.create () in
  ignore (run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) ~order:3 s netlist);
  let warm = run_job ~meth:Protocol.Hier ~partition:(Protocol.Parts 2) s netlist in
  Alcotest.(check string) "samples-warm tier" "samples-hit" (Store.tier_name warm.Store.tier);
  Alcotest.(check string) "samples-warm digest" cold.Store.digest warm.Store.digest

(* The bitwise contract: a warm-path ROM equals the cold-path ROM no
   matter what ran before it. *)
let test_warm_equals_cold () =
  let netlist = mesh_netlist () in
  let band = (1e8, 1e10) in
  (* cold reference: a fresh store running exactly this job *)
  let cold = run_job ~band (Store.create ()) netlist in
  (* warm paths: same job after a different band (network warm), and
     after the same band at a different order (samples warm) *)
  let s1 = Store.create () in
  ignore (run_job ~band:(0.0, 2e10) s1 netlist);
  let via_network = run_job ~band s1 netlist in
  Alcotest.(check string) "network-warm tier" "network-hit" (Store.tier_name via_network.Store.tier);
  Alcotest.(check string) "network-warm digest" cold.Store.digest via_network.Store.digest;
  let s2 = Store.create () in
  ignore (run_job ~band ~order:3 s2 netlist);
  let via_samples = run_job ~band s2 netlist in
  Alcotest.(check string) "samples-warm tier" "samples-hit" (Store.tier_name via_samples.Store.tier);
  Alcotest.(check string) "samples-warm digest" cold.Store.digest via_samples.Store.digest

let test_eviction_forces_recompute () =
  (* a budget too small for even one network: every entry is evicted as
     soon as the next one lands, so a repeat must recompute — and still
     produce the identical ROM *)
  let store = Store.create ~max_cost:1 () in
  let netlist = mesh_netlist () in
  let o1 = run_job store netlist in
  let o2 = run_job store netlist in
  Alcotest.(check string) "repeat misses after eviction" "miss" (Store.tier_name o2.Store.tier);
  Alcotest.(check bool) "repeat re-solves" true (o2.Store.job_solves > 0);
  Alcotest.(check string) "recompute is bitwise-identical" o1.Store.digest o2.Store.digest;
  let c = Store.counters store in
  Alcotest.(check bool) "evictions counted" true (c.Store.evictions > 0);
  Alcotest.(check int) "two parses" 2 c.Store.parses

let test_store_rejects_garbage () =
  let store = Store.create () in
  (match Store.reduce store ~netlist:"R1 1 0 banana\n.port 1\n" ~meth:Protocol.Pmtbr
           ~band:(0.0, 1e9) ~samples:5 ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable netlist must be rejected");
  (match Store.reduce store ~netlist:"R1 1 0 1k\n.end\n" ~meth:Protocol.Pmtbr ~band:(0.0, 1e9)
           ~samples:5 ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "port-less netlist must be rejected");
  match Store.reduce store ~netlist:(mesh_netlist ()) ~meth:Protocol.Pmtbr ~band:(1e9, 1e8)
          ~samples:5 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reversed band must be rejected"

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)
(* ------------------------------------------------------------------ *)

let start_daemon ~socket ~workers =
  let ready = Atomic.make false in
  let config = { (Server.default_config ~socket_path:socket) with Server.workers } in
  let d = Domain.spawn (fun () -> Server.run ~on_ready:(fun _ -> Atomic.set ready true) config) in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get ready)) && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon did not come up";
  d

let stop_daemon ~socket d =
  (try Client.with_connection socket (fun c -> ignore (Client.request c Protocol.Shutdown))
   with _ -> ());
  Domain.join d

let field r k =
  match Protocol.field r k with
  | Some v -> v
  | None -> Alcotest.fail ("missing response field " ^ k)

let roundtrip c req =
  match Client.request c req with
  | Ok r -> (
      match r.Protocol.status with Ok () -> r | Error e -> Alcotest.fail ("server error: " ^ e))
  | Error e -> Alcotest.fail ("transport error: " ^ e)

(* Concurrent jobs under --workers 4: every job's ROM digest must equal
   the digest a standalone store produces for that job — per job, for any
   interleaving. *)
let test_concurrent_jobs_deterministic () =
  let netlists = [| mesh_netlist ~n:5 (); mesh_netlist ~n:6 () |] in
  let bands = [| (0.0, 2e10); (1e8, 1e10) |] in
  let jobs =
    Array.concat
      (Array.to_list
         (Array.map (fun nl -> Array.map (fun band -> (nl, band)) bands) netlists))
  in
  (* expected digests from a fresh single-threaded store per job *)
  let expected =
    Array.map
      (fun (nl, band) -> (run_job ~band (Store.create ()) nl).Store.digest)
      jobs
  in
  let socket = Printf.sprintf ".pmtbr_test_conc.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:4 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      let results = Array.make (Array.length jobs) "" in
      let clients =
        Array.mapi
          (fun i (nl, band) ->
            Domain.spawn (fun () ->
                Client.with_connection socket (fun c ->
                    (* hammer each job a few times; every reply must agree *)
                    for _ = 1 to 3 do
                      let r =
                        roundtrip c
                          (Protocol.Reduce
                             {
                               Protocol.meth = Protocol.Pmtbr;
                               band;
                               tol = None;
                               order = Some 8;
                               samples = 10;
                               partition = None;
                               max_part_states = None;
                               interface_tol = None;
                               export = false;
                               netlist = nl;
                             })
                      in
                      let d = field r "digest" in
                      if results.(i) = "" then results.(i) <- d
                      else if results.(i) <> d then Alcotest.fail "digest drift within a job"
                    done)))
          jobs
      in
      Array.iter Domain.join clients;
      Array.iteri
        (fun i d ->
          Alcotest.(check string) (Printf.sprintf "job %d matches standalone store" i)
            expected.(i) d)
        results)

(* An export job over the wire: the response body carries the synthesized
   netlist, which re-parses to a model of the reduced order. *)
let test_daemon_export_job () =
  let socket = Printf.sprintf ".pmtbr_test_exp.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      Client.with_connection socket (fun c ->
          let r =
            roundtrip c
              (Protocol.Reduce
                 {
                   Protocol.meth = Protocol.Tbr_passive;
                   band = (0.0, 2e10);
                   tol = None;
                   order = Some 6;
                   samples = 10;
                   partition = None;
                   max_part_states = None;
                   interface_tol = None;
                   export = true;
                   netlist = mesh_netlist ~n:5 ();
                 })
          in
          Alcotest.(check (option string)) "export field" (Some "1") (Protocol.field r "export");
          Alcotest.(check bool) "body non-empty" true (String.length r.Protocol.body > 0);
          let back = Pmtbr_lti.Dss.of_netlist (Spice.netlist (Spice.parse_string r.Protocol.body)) in
          Alcotest.(check int) "body parses to the reduced order"
            (int_of_string (field r "order"))
            (Pmtbr_lti.Dss.order back)))

(* A hier job over the wire surfaces its per-network partition counters
   in the stats response. *)
let test_daemon_hier_stats_field () =
  let socket = Printf.sprintf ".pmtbr_test_hier.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      Client.with_connection socket (fun c ->
          let r =
            roundtrip c
              (Protocol.Reduce
                 {
                   Protocol.meth = Protocol.Hier;
                   band = (0.0, 2e10);
                   tol = None;
                   order = Some 6;
                   samples = 8;
                   partition = Some (Protocol.Parts 2);
                   max_part_states = None;
                   interface_tol = None;
                   export = false;
                   netlist = mesh_netlist ~n:6 ();
                 })
          in
          let hash = field r "hash" in
          let s = roundtrip c Protocol.Stats in
          (match Protocol.field s ("hier_" ^ hash) with
          | Some v ->
              let prefix = "partitions=2" in
              Alcotest.(check string) "partition count leads the stats field" prefix
                (String.sub v 0 (min (String.length v) (String.length prefix)))
          | None -> Alcotest.fail "stats response missing the hier_ field");
          (* the auto-dissection fields over the wire: partition auto +
             max-part-states + interface-tol, end to end *)
          let r2 =
            roundtrip c
              (Protocol.Reduce
                 {
                   Protocol.meth = Protocol.Hier;
                   band = (0.0, 2e10);
                   tol = None;
                   order = Some 6;
                   samples = 8;
                   partition = Some Protocol.Auto;
                   max_part_states = Some 20;
                   interface_tol = Some 1e-8;
                   export = false;
                   netlist = mesh_netlist ~n:6 ();
                 })
          in
          Alcotest.(check bool) "auto job reduces" true
            (int_of_string (field r2 "order") < int_of_string (field r2 "states"))))

let test_daemon_protocol_errors () =
  let socket = Printf.sprintf ".pmtbr_test_err.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      (* ping / stats round-trips *)
      Client.with_connection socket (fun c ->
          Alcotest.(check string) "pong" "1" (field (roundtrip c Protocol.Ping) "pong");
          ignore (roundtrip c Protocol.Stats));
      (* a malformed frame gets an error response, then the connection is
         closed (next read sees EOF) *)
      let raw path send =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
            output_string oc send;
            flush oc;
            match Protocol.read_frame ic with
            | Ok payload -> (
                match Protocol.parse_response payload with
                | Ok r -> (
                    match r.Protocol.status with
                    | Error _ -> ()
                    | Ok () -> Alcotest.fail "bad frame must produce an error response")
                | Error e -> Alcotest.fail e)
            | Error e -> Alcotest.fail (Protocol.frame_error_message e))
      in
      raw socket "this is not a frame\n";
      raw socket "999999999999\nx";
      (* a well-framed but invalid request also comes back as an error
         response, and the connection stays usable *)
      Client.with_connection socket (fun c ->
          let fdc = c in
          match Client.request fdc (Protocol.Reduce {
            Protocol.meth = Protocol.Pmtbr; band = (0.0, 1e9); tol = None; order = None;
            samples = 5; partition = None; max_part_states = None; interface_tol = None;
            export = false; netlist = "R1 1 0 banana\n.port 1\n" })
          with
          | Ok r -> (
              (match r.Protocol.status with
              | Error _ -> ()
              | Ok () -> Alcotest.fail "bad netlist must produce an error response");
              Alcotest.(check string) "connection still live" "1"
                (field (roundtrip fdc Protocol.Ping) "pong"))
          | Error e -> Alcotest.fail e))

let () =
  Alcotest.run "pmtbr_serve"
    [
      ( "lru",
        [
          Alcotest.test_case "hit and miss" `Quick test_lru_hit_miss;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "oversized entry lands" `Quick test_lru_oversized_entry_lands;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
          Alcotest.test_case "oversized frame" `Quick test_frame_oversized;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "partition roundtrip and validation" `Quick
            test_partition_roundtrip_and_validation;
          Alcotest.test_case "auto fields roundtrip and validation" `Quick
            test_auto_fields_roundtrip_and_validation;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        ] );
      ( "band-bugfix",
        [ Alcotest.test_case "validation" `Quick test_band_validation ] );
      ( "spice-bugfix",
        [
          Alcotest.test_case "unit suffixes" `Quick test_spice_value_units;
          Alcotest.test_case "netlist with units" `Quick test_spice_netlist_with_units;
        ] );
      ( "store",
        [
          Alcotest.test_case "hash stability" `Quick test_hash_stability;
          Alcotest.test_case "tiers and counters" `Quick test_store_tiers_and_counters;
          Alcotest.test_case "reformatted collides to one rom" `Quick
            test_reformatted_collides_to_one_rom;
          Alcotest.test_case "library equals daemon" `Quick test_library_equals_daemon;
          Alcotest.test_case "tbr-passive tiers and export" `Quick
            test_tbr_passive_tiers_and_export;
          Alcotest.test_case "hier tiers and stats" `Quick test_hier_tiers_and_stats;
          Alcotest.test_case "hier auto tree tiers" `Quick test_hier_auto_tree_tiers;
          Alcotest.test_case "hier changed subtree stays warm" `Quick
            test_hier_changed_subtree_warm;
          Alcotest.test_case "hier warm equals cold (bitwise)" `Quick test_hier_warm_equals_cold;
          Alcotest.test_case "warm equals cold (bitwise)" `Quick test_warm_equals_cold;
          Alcotest.test_case "eviction forces recompute" `Quick test_eviction_forces_recompute;
          Alcotest.test_case "rejects garbage" `Quick test_store_rejects_garbage;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent jobs deterministic" `Quick
            test_concurrent_jobs_deterministic;
          Alcotest.test_case "export job" `Quick test_daemon_export_job;
          Alcotest.test_case "hier stats field" `Quick test_daemon_hier_stats_field;
          Alcotest.test_case "protocol errors" `Quick test_daemon_protocol_errors;
        ] );
    ]
