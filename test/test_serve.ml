(* Tests for the reduction service: the LRU eviction structure, the wire
   protocol (including malformed/oversized frames), the content-addressed
   store contracts (hash stability, tier progression, warm == cold
   bitwise, library == daemon bitwise, eviction forces recompute), a
   concurrent end-to-end daemon run, and regressions for the two parser
   bugfixes that rode along (--band validation, SPICE value suffixes). *)

open Pmtbr_circuit
open Pmtbr_serve
module Method = Pmtbr_core.Method

let meth name = Result.get_ok (Method.find name)

(* A job with the test suite's defaults: a flat pmtbr job over [0, 2e10]
   at 10 samples. *)
let job_of ?(meth = Method.pmtbr) ?(band = (0.0, 2e10)) ?tol ?order ?(samples = 10) ?partition
    ?max_part_states ?interface_tol ?(export = false) netlist =
  let options =
    { (Method.defaults ~band) with
      Method.tol; order; samples; partition; max_part_states; interface_tol }
  in
  { Protocol.meth; options; export; netlist }

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
    job_of ~meth:(meth "fs-pmtbr") ~band:(1e8, 2e10) ~tol:1e-9 ~order:12 ~samples:17
      "R1 1 0 1k\nC1 1 0 1p\n.port 1\n.end\n"
  in
  (match Protocol.parse_request (Protocol.encode_request (Protocol.Reduce job)) with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check string) "meth" "fs-pmtbr" j.Protocol.meth.Method.name;
      Alcotest.(check bool) "options" true (j.Protocol.options = job.Protocol.options);
      Alcotest.(check bool) "export default off" false j.Protocol.export;
      Alcotest.(check string) "netlist" job.Protocol.netlist j.Protocol.netlist
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("reduce roundtrip: " ^ e));
  (* the export flag and the tbr-passive method survive the wire *)
  (match
     Protocol.parse_request
       (Protocol.encode_request
          (Protocol.Reduce { job with Protocol.meth = meth "tbr-passive"; export = true }))
   with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check string) "tbr-passive meth" "tbr-passive" j.Protocol.meth.Method.name;
      Alcotest.(check bool) "export on" true j.Protocol.export
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("export roundtrip: " ^ e));
  List.iter
    (fun req ->
      match Protocol.parse_request (Protocol.encode_request req) with
      | Ok r -> Alcotest.(check bool) "kind preserved" true (r = req)
      | Error e -> Alcotest.fail e)
    [ Protocol.Ping; Protocol.Stats; Protocol.Shutdown ]

let roundtrip_options job =
  match Protocol.parse_request (Protocol.encode_request (Protocol.Reduce job)) with
  | Ok (Protocol.Reduce j) ->
      Alcotest.(check string) "hier meth" "hier" j.Protocol.meth.Method.name;
      j.Protocol.options
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.fail ("hier roundtrip: " ^ e)

let test_partition_roundtrip_and_validation () =
  let job =
    job_of ~meth:Method.hier ~order:8 ~partition:(Method.Parts 3) "R1 1 0 1k\nC1 1 0 1p\n.port 1\n"
  in
  Alcotest.(check bool) "partition" true
    ((roundtrip_options job).Method.partition = Some (Method.Parts 3));
  (* hier without an explicit partition count is valid (store default) *)
  let default = { job with Protocol.options = { job.Protocol.options with Method.partition = None } } in
  Alcotest.(check bool) "default partition" true ((roundtrip_options default).Method.partition = None)

(* the nested-dissection job fields: partition auto, max-part-states and
   interface-tol survive the wire *)
let test_auto_fields_roundtrip_and_validation () =
  let o =
    roundtrip_options
      (job_of ~meth:Method.hier ~order:8 ~partition:Method.Auto ~max_part_states:500
         ~interface_tol:1e-8 "R1 1 0 1k\nC1 1 0 1p\n.port 1\n")
  in
  Alcotest.(check bool) "partition auto" true (o.Method.partition = Some Method.Auto);
  Alcotest.(check (option int)) "max-part-states" (Some 500) o.Method.max_part_states;
  Alcotest.(check (option (float 0.0))) "interface-tol" (Some 1e-8) o.Method.interface_tol

(* One table of refused job options for both front ends.  Each row goes
   to the daemon as wire headers (parsed, then run on a fresh store) and
   to the CLI as [reduce] flags on the same 4-state network; both must
   refuse it with a message holding the fragment, the CLI with its usage
   exit (124), never an internal error.  The wire refuses a CLI-only
   method by name before reading its options, and a field it does not
   carry as unknown. *)
let refusals =
  [
    ([ ("method", "warp") ], "unknown method");
    ([ ("band", "2e9:1e9") ], "band must satisfy LO < HI");
    ([ ("tol", "-1") ], "tol must be finite and > 0");
    ([ ("tol", "nan") ], "tol must be finite and > 0");
    ([ ("order", "0") ], "order must be >= 1");
    ([ ("samples", "0") ], "samples must be in [1, 100000]");
    ([ ("method", "hier"); ("partition", "0") ], "partition must be in [2, 4096]");
    ([ ("method", "hier"); ("partition", "1") ], "partition must be in [2, 4096]");
    ([ ("method", "hier"); ("partition", "5000") ], "partition must be in [2, 4096]");
    ([ ("method", "hier"); ("partition", "two") ], "partition");
    ([ ("method", "hier"); ("partition", "8") ], "partition 8 exceeds the network's 4 states");
    ([ ("method", "pmtbr"); ("partition", "2") ], "partition does not apply to method pmtbr");
    ( [ ("method", "hier"); ("partition", "auto"); ("max-part-states", "0") ],
      "max-part-states must be in [1, 100000000]" );
    ( [ ("method", "hier"); ("partition", "3"); ("max-part-states", "100") ],
      "max-part-states requires partition auto" );
    ([ ("method", "hier"); ("max-part-states", "100") ], "max-part-states requires partition auto");
    ([ ("method", "hier"); ("interface-tol", "0") ], "interface-tol must be finite and > 0");
    ([ ("method", "hier"); ("interface-tol", "-1e-8") ], "interface-tol must be finite and > 0");
    ([ ("method", "hier"); ("interface-tol", "nan") ], "interface-tol must be finite and > 0");
    ([ ("method", "pmtbr"); ("interface-tol", "1e-8") ], "interface-tol does not apply");
    ([ ("method", "tbr-passive"); ("adaptive", "") ], "adaptive");
    ([ ("draws", "0") ], "draws");
    ([ ("method", "correlated"); ("draws", "0") ], "draws must be in [1, 100000]");
    ([ ("method", "multipoint"); ("order", "100") ], "order 100 needs 50 multipoint points");
    ([ ("method", "prima"); ("tol", "1e-3") ], "tol does not apply to method prima");
    ([ ("method", "multipoint"); ("tol", "1e-3") ], "tol does not apply to method multipoint");
    ( [ ("method", "cross-gramian"); ("tol", "1e-3") ],
      "tol does not apply to method cross-gramian" );
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The CLI beside the suites: exit code and standard error of one run. *)
let cli args =
  let err = Filename.temp_file "pmtbr_cli" ".err" and out = Filename.temp_file "pmtbr_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ err; out ])
    (fun () ->
      let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let e = fd err and o = fd out in
      let pid =
        Unix.create_process
          (Filename.concat (Filename.dirname Sys.executable_name) "../bin/pmtbr_cli.exe")
          (Array.of_list ("pmtbr" :: args)) Unix.stdin o e
      in
      Unix.close e;
      Unix.close o;
      let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
      (code, In_channel.with_open_bin err In_channel.input_all))

let test_request_validation () =
  let netlist = Spice.to_string (Rc_mesh.generate ~rows:2 ~cols:2 ~ports:1 ()) in
  let file = Filename.temp_file "pmtbr_mesh" ".sp" in
  Out_channel.with_open_bin file (fun oc -> output_string oc netlist);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (opts, fragment) ->
          let what = String.concat " " (List.map (fun (k, v) -> k ^ " " ^ v) opts) in
          let served =
            match List.assoc_opt "method" opts with
            | Some name -> (
                match Method.find name with Ok m -> m.Method.served | Error _ -> true)
            | None -> true
          in
          let wire_says =
            if not served then "is CLI-only"
            else
              match List.find_opt (fun (k, _) -> k = "adaptive" || k = "draws") opts with
              | Some (k, _) -> "unknown field \"" ^ k ^ "\""
              | None -> fragment
          in
          let headers =
            "job reduce\n"
            ^ (if List.mem_assoc "band" opts then "" else "band 0:2e10\n")
            ^ String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") opts)
          in
          (match
             Result.bind (Protocol.parse_request (headers ^ "\n" ^ netlist)) (function
               | Protocol.Reduce job -> Result.map ignore (Store.reduce (Store.create ()) job)
               | _ -> Ok ())
           with
          | Error e when contains ~sub:wire_says e -> ()
          | Error e -> Alcotest.failf "wire %s: %S does not say %S" what e wire_says
          | Ok () -> Alcotest.failf "wire %s must be refused" what);
          let flags =
            List.map (fun (k, v) -> if v = "" then "--" ^ k else "--" ^ k ^ "=" ^ v) opts
          in
          let code, err = cli ("reduce" :: "--spice" :: file :: flags) in
          if code <> 124 || not (contains ~sub:fragment err) || contains ~sub:"internal error" err
          then Alcotest.failf "cli %s: exit %d, %S does not say %S" what code err fragment)
        refusals);
  (* the batch client with no daemon on its socket: a usage error naming
     the socket, not an uncaught connect failure *)
  let socket = Filename.temp_file "pmtbr_none" ".sock" in
  Sys.remove socket;
  let code, err = cli [ "batch"; "--socket"; socket; "--ping" ] in
  let says = Printf.sprintf "cannot reach the daemon at %s: No such file or directory" socket in
  if code <> 124 || (not (contains ~sub:says err)) || contains ~sub:"internal error" err then
    Alcotest.failf "cli batch without a daemon: exit %d, %S does not say %S" code err says;
  (* what only the wire format can get wrong *)
  List.iter
    (fun (payload, what) ->
      match Protocol.parse_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " must be rejected"))
    [
      ("job dance\n\nbody", "unknown job kind");
      ("job reduce\nmethod pmtbr\nband 1:2\nexport maybe\n\nR1 1 0 1\n.port 1\n", "bad export");
      ("job reduce\nmethod pmtbr\nband 1:2\n\n", "missing netlist");
    ]

(* Malformed netlists on every subcommand, and a port-less one on every
   subcommand that reduces or sweeps (info still prints its statistics):
   the CLI refuses each with its usage exit, in the daemon's words (a
   parse error also names the file), never as an internal error; the
   store refuses the same text with the same words. *)
let bad_netlists =
  let all = [ "info"; "hsv"; "sweep"; "adaptive"; "reduce" ] in
  [
    ("R1 1\n", "netlist parse error at line 1: wrong number of fields: R1 1", all);
    ("C1 1 0 nan\n.port 1\n", "netlist parse error at line 1: bad numeric value: nan", all);
    ("+ R1 1 0 1k\n", "netlist parse error at line 1: continuation line", all);
    ("R1 1 0 1k\nC1 1 0 1p\n", "netlist declares no .port", List.tl all);
  ]

let test_bad_netlists_refused () =
  List.iter
    (fun (text, fragment, subcommands) ->
      (match Store.reduce (Store.create ()) (job_of text) with
      | Error e when contains ~sub:fragment e -> ()
      | Error e -> Alcotest.failf "wire %S: %S does not say %S" text e fragment
      | Ok _ -> Alcotest.failf "wire %S must be refused" text);
      let file = Filename.temp_file "pmtbr_bad" ".sp" in
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      let says =
        if String.starts_with ~prefix:"netlist parse error" fragment then file ^ ": " ^ fragment
        else fragment
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          List.iter
            (fun sub ->
              let code, err = cli [ sub; "--spice"; file ] in
              if code <> 124 || (not (contains ~sub:says err)) || contains ~sub:"internal error" err
              then
                Alcotest.failf "cli %s on %S: exit %d, %S does not say %S" sub text code err says)
            subcommands))
    bad_netlists

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
  (match Method.parse_band "0:2e10" with
  | Ok (lo, hi) ->
      Alcotest.(check (float 0.0)) "lo" 0.0 lo;
      Alcotest.(check (float 0.0)) "hi" 2e10 hi
  | Error e -> Alcotest.fail e);
  (match Method.parse_band "1e8:1e9" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Method.parse_band s with
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

let daemon_job ?meth ?band ?tol ?order ?samples ?partition ?max_part_states ?interface_tol ?export
    store netlist =
  must
    (Store.reduce store
       (job_of ?meth ?band ?tol ?order ?samples ?partition ?max_part_states ?interface_tol ?export
          netlist))

let run_job ?meth ?band ?tol ?(order = 8) = daemon_job ?meth ?band ?tol ~order

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

(* The store memoises each verbatim job text's canonical hash, keyed by
   the exact text: a repeat skips the parse while the text's network is
   resident, and no other text — reformatted, or one byte away — can
   share the entry. *)
let test_hash_memo () =
  let store = Store.create () in
  let hash_hits s = (Store.counters s).Store.hash_hits in
  let text = mesh_netlist () in
  let o1 = run_job store text in
  Alcotest.(check int) "first sight parses" 0 (hash_hits store);
  let retol = daemon_job ~tol:1e-6 store text in
  Alcotest.(check int) "verbatim re-tol skips the parse" 1 (hash_hits store);
  Alcotest.(check string) "re-tol tier" "samples-hit" (Store.tier_name retol.Store.tier);
  Alcotest.(check string) "memoised hash" o1.Store.hash retol.Store.hash;
  let noisy = "* a comment\n" ^ text in
  let o2 = run_job store noisy in
  Alcotest.(check int) "reformatted text misses the memo" 1 (hash_hits store);
  Alcotest.(check string) "reformatted text is a rom hit" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check string) "reformatted text, one rom" o1.Store.digest o2.Store.digest;
  (* one byte away: "R2 1 2 100" becomes "R2 1 2 900" *)
  let near =
    let b = Bytes.of_string text in
    let rec find i = if String.sub text i 10 = "R2 1 2 100" then i else find (i + 1) in
    Bytes.set b (find 0 + 7) '9';
    Bytes.to_string b
  in
  let o3 = run_job store near in
  Alcotest.(check int) "near text misses the memo" 1 (hash_hits store);
  Alcotest.(check string) "near text gets its own hash" (must (Store.canonical_hash near))
    o3.Store.hash;
  Alcotest.(check bool) "a different network" false (o3.Store.hash = o1.Store.hash);
  Alcotest.(check string) "near text is a new network" "miss" (Store.tier_name o3.Store.tier);
  Alcotest.(check int) "one parse per network" 2 (Store.counters store).Store.parses;
  (* parse errors are never memoised *)
  let fresh = Store.create () in
  for _ = 1 to 2 do
    match Store.reduce fresh (job_of "R1 1 0 banana\n.port 1\n") with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unparseable netlist must be rejected"
  done;
  Alcotest.(check int) "garbage never hits the memo" 0 (hash_hits fresh)

(* One job, one answer: every served method, run through the daemon's
   store and through its library entry point on the same canonical
   network, points, tolerance and order, returns a bitwise-identical ROM.
   Each row is (name, netlist, daemon job, library reduction of the
   canonical netlist).  Hier rows run the library side at 1 and 3
   workers, and every row runs the daemon side at 1 and 3 job workers
   (hier parts then fan out over the store's pool, looking up their
   sample tiers from pool domains).  The flat pmtbr rows cover a mesh
   whose cache holds fewer columns than states (the small-factor SVD)
   and a substrate holding more (the state-dimension SVD). *)
let test_library_equals_daemon () =
  let open Pmtbr_lti in
  let open Pmtbr_core in
  let mesh8 = mesh_netlist ~n:8 () and mesh12 = mesh_netlist ~n:12 () in
  let substrate ports = Spice.to_string (Substrate.generate ~ports ~internal:20 ~seed:5 ()) in
  let w_sub = 4.0 *. Substrate.corner_frequency () in
  let uniform w_max count = Sampling.points (Sampling.Uniform { w_max }) ~count in
  let gauss (lo, hi) count = Sampling.points (Sampling.Bands [ (lo, hi) ]) ~count in
  let canonical text =
    Spice_ir.to_netlist (Spice_ir.canonical (Spice.ir (Spice.parse_string text)))
  in
  let pmtbr ?order ?tol pts nl =
    [ (Pmtbr.reduce ?order ?tol ~workers:1 (Dss.of_netlist nl) pts).Pmtbr.rom ]
  in
  let passive ?stop nl =
    [
      (Tbr_passive.reduce ~order:6 ?stop ~inductors:(Netlist.inductor_count nl) ~workers:1
         (Dss.of_netlist nl))
        .Tbr_passive.rom;
    ]
  in
  let hier ?order ?interface_tol split pts nl =
    let pt = split nl in
    List.map
      (fun workers ->
        fst (Hier_reduce.reduce_partitioned ?order ?interface_tol ~workers pt pts))
      [ 1; 3 ]
  in
  let band = (1e8, 1e10) in
  let band_stop =
    Pmtbr_la.Lr_lyap.Band_residual
      (Array.map (fun p -> (p.Sampling.s, p.Sampling.weight)) (gauss band 8))
  in
  let rows =
    [
      ( "pmtbr, rc mesh (tall cache)",
        mesh12,
        (fun s -> daemon_job ~tol:1e-8 s),
        pmtbr ~tol:1e-8 (uniform 2e10 10) );
      ( "pmtbr, substrate (wide cache)",
        substrate 12,
        (fun s -> daemon_job ~band:(0.0, w_sub) ~tol:1e-8 ~samples:6 s),
        pmtbr ~tol:1e-8 (uniform w_sub 6) );
      ( "pmtbr on a band",
        mesh8,
        (fun s -> daemon_job ~band ~order:8 s),
        pmtbr ~order:8 (gauss band 10) );
      ( "fs-pmtbr",
        mesh8,
        (fun s -> daemon_job ~meth:(meth "fs-pmtbr") ~band ~order:8 s),
        fun nl ->
          [
            (Pmtbr.reduce ~order:8 ~workers:1 (Dss.of_netlist nl) (gauss band 10)).Pmtbr.rom;
          ] );
      ( "tbr-passive, lo = 0",
        mesh8,
        (fun s -> daemon_job ~meth:(meth "tbr-passive") ~order:6 s),
        fun nl -> passive nl );
      ( "tbr-passive, band-limited stop",
        mesh8,
        (fun s -> daemon_job ~meth:(meth "tbr-passive") ~band ~order:6 s),
        passive ~stop:band_stop );
      ( "hier K=4",
        mesh12,
        (fun s ->
          daemon_job ~meth:Method.hier ~partition:(Method.Parts 4) ~order:8 ~samples:8 s),
        hier ~order:8 (Partition.split ~parts:4) (uniform 2e10 8) );
      ( "hier K=4 on a band",
        mesh12,
        (fun s ->
          daemon_job ~meth:Method.hier ~partition:(Method.Parts 4) ~band ~order:8 ~samples:8 s),
        hier ~order:8 (Partition.split ~parts:4) (gauss band 8) );
      ( "hier auto + interface-tol",
        mesh8,
        (fun s ->
          daemon_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20
            ~interface_tol:1e-8 ~order:8 ~samples:8 s),
        hier ~order:8 ~interface_tol:1e-8 (Partition.split_auto ~max_states:20) (uniform 2e10 8)
      );
      ( "hier K=3 on a substrate",
        substrate 8,
        (fun s ->
          daemon_job ~meth:Method.hier ~partition:(Method.Parts 3) ~band:(0.0, w_sub)
            ~order:8 ~samples:6 s),
        hier ~order:8 (Partition.split ~parts:3) (uniform w_sub 6) );
    ]
  in
  List.iter
    (fun (name, text, job, library) ->
      let roms = library (canonical text) in
      List.iter
        (fun job_workers ->
          let o = job (Store.create ~job_workers ()) text in
          List.iter
            (fun rom ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %d job workers: library digest == daemon digest" name
                   job_workers)
                o.Store.digest (Store.rom_digest rom))
            roms)
        [ 1; 3 ])
    rows;
  (* the two flat pmtbr rows really exercise both SVD operands *)
  let columns text ~w_max ~samples =
    let sys = Dss.of_netlist (canonical text) in
    ( (Pmtbr.reduce ~tol:1e-8 ~workers:1 sys (uniform w_max samples)).Pmtbr.stats
        .Sample_cache.columns,
      Dss.order sys )
  in
  let tall_c, tall_n = columns mesh12 ~w_max:2e10 ~samples:10 in
  let wide_c, wide_n = columns (substrate 12) ~w_max:w_sub ~samples:6 in
  Alcotest.(check (pair bool bool)) "one tall and one wide cache" (true, false)
    (tall_c < tall_n, wide_c < wide_n)

(* tbr-passive through the store: tier progression, export body closing
   the roundtrip, and multi-shift handle reuse on a new band. *)
let test_tbr_passive_tiers_and_export () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:5 () in
  let o1 = run_job ~meth:(meth "tbr-passive") ~order:6 ~export:true store netlist in
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
  let o2 = run_job ~meth:(meth "tbr-passive") ~order:6 ~export:true store netlist in
  Alcotest.(check string) "repeat is a rom hit" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  Alcotest.(check string) "repeat digest" o1.Store.digest o2.Store.digest;
  Alcotest.(check bool) "export body is render-stable" true (o2.Store.netlist = Some body);
  (* same network, new band: the prepared multi-shift handle is reused *)
  let o3 = run_job ~meth:(meth "tbr-passive") ~order:6 ~band:(1e8, 1e10) store netlist in
  Alcotest.(check string) "new band reuses network" "network-hit" (Store.tier_name o3.Store.tier);
  (* order and tol together over the wire: the smaller of the two orders *)
  let by_tol = daemon_job ~meth:(meth "tbr-passive") ~tol:1e-6 store netlist in
  let both =
    match
      Protocol.parse_request
        (Protocol.encode_request
           (Protocol.Reduce (job_of ~meth:(meth "tbr-passive") ~order:5 ~tol:1e-6 netlist)))
    with
    | Ok (Protocol.Reduce job) -> must (Store.reduce store job)
    | Ok _ -> Alcotest.fail "wrong request kind"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "order 5 and tol 1e-6" (min 5 by_tol.Store.order) both.Store.order

(* Hierarchical jobs through the store: tier progression over the
   per-subdomain sample tiers, the per-network partition tracker, and the
   reset when a job re-partitions the same network. *)
let test_hier_tiers_and_stats () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:8 () in
  let o1 = run_job ~meth:Method.hier ~partition:(Method.Parts 2) store netlist in
  Alcotest.(check string) "first hier job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "cold hier job solves" true (o1.Store.job_solves > 0);
  let o2 = run_job ~meth:Method.hier ~partition:(Method.Parts 2) store netlist in
  Alcotest.(check string) "verbatim repeat" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  Alcotest.(check string) "repeat digest" o1.Store.digest o2.Store.digest;
  (* same samples, new order: every subdomain sample tier is warm, so the
     recombination re-finishes without a single solve *)
  let o3 = run_job ~meth:Method.hier ~partition:(Method.Parts 2) ~order:4 store netlist in
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
  let o4 = run_job ~meth:Method.hier ~partition:(Method.Parts 3) store netlist in
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
    run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 store netlist
  in
  Alcotest.(check string) "cold auto job misses" "miss" (Store.tier_name o1.Store.tier);
  Alcotest.(check bool) "cold job solves" true (o1.Store.job_solves > 0);
  let o2 =
    run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 store netlist
  in
  Alcotest.(check string) "verbatim repeat" "rom-hit" (Store.tier_name o2.Store.tier);
  Alcotest.(check int) "repeat does no solves" 0 o2.Store.job_solves;
  (* re-tol: every leaf's sample tier is warm, the whole tree re-finishes
     without a single solve *)
  let o3 =
    run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 ~tol:1e-6 ~order:6
      store netlist
  in
  Alcotest.(check string) "re-tol reuses the tree's samples" "samples-hit"
    (Store.tier_name o3.Store.tier);
  Alcotest.(check int) "re-tol re-finish solves nothing" 0 o3.Store.job_solves;
  (* a leaf-count goal that dissects to the same leaves (budget 20 on this
     mesh yields the 4-leaf depth-2 tree) re-finds every sample tier warm
     under the new partition descriptor *)
  let o4 = run_job ~meth:Method.hier ~partition:(Method.Parts 4) store netlist in
  Alcotest.(check string) "equivalent re-partition is samples-warm" "samples-hit"
    (Store.tier_name o4.Store.tier);
  Alcotest.(check int) "re-partition solves nothing" 0 o4.Store.job_solves;
  Alcotest.(check string) "same leaves, same rom" o1.Store.digest o4.Store.digest;
  (* interface compression only perturbs the ROM key: samples stay warm *)
  let o5 =
    run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20
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
  let o1 = run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 store text in
  let o2 =
    run_job ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 store tweaked
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
  let cold = run_job ~meth:Method.hier ~partition:(Method.Parts 2) (Store.create ()) netlist in
  let s = Store.create () in
  ignore (run_job ~meth:Method.hier ~partition:(Method.Parts 2) ~order:3 s netlist);
  let warm = run_job ~meth:Method.hier ~partition:(Method.Parts 2) s netlist in
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

(* Absolute pins: every other digest check is relative (warm == cold,
   library == daemon, any worker count), so a change that moved every
   route's bits the same way would pass them all.  These literals move
   only on an intentional numerical change, which CHANGES.md records.
   Pinned on x86-64 Linux with OCaml 5.1.1: [rom_digest] hashes the
   marshalled matrices, and the sampled columns go through libm.  An
   export job pins the ROM digest and the MD5 of the exported netlist. *)
let pinned_jobs =
  let mesh8 = mesh_netlist ~n:8 () and mesh5 = mesh_netlist ~n:5 () in
  let substrate = Spice.to_string (Substrate.generate ~ports:12 ~internal:20 ~seed:5 ()) in
  [
    ("pmtbr by tol", job_of ~tol:1e-8 mesh8, "2d93adcaaac3146b7a2d3923e8a122c7");
    ("pmtbr by order", job_of ~order:8 mesh8, "a4d97cd63b2110466f95df8f0e2870b3");
    ( "pmtbr by order, 16x16 mesh",
      job_of ~order:30 ~samples:12 (mesh_netlist ~n:16 ()),
      "82354d6a5e637c67d3775a8f2c64ad61" );
    ( "fs-pmtbr",
      job_of ~meth:(meth "fs-pmtbr") ~band:(1e8, 1e10) ~order:8 mesh8,
      "f2fa4c2061d5543ff5034bdc55f6b9b8" );
    ( "pmtbr export",
      job_of ~order:6 ~export:true mesh5,
      "9eeab3bb00caea0560956123f951786f bd115147c6bedd6eae5440afa957a457" );
    ( "tbr-passive export",
      job_of ~meth:(meth "tbr-passive") ~order:6 ~export:true mesh5,
      "0cc8e42264d0b87525e137f6449fef2b 92676c6f874c505936fd89d60d7324b2" );
    ( "hier K=4",
      job_of ~meth:Method.hier ~partition:(Method.Parts 4) ~order:8 ~samples:8
        (mesh_netlist ~n:12 ()),
      "192a6031f4174dadd143f81d3b9f401c" );
    ( "hier auto interface-tol",
      job_of ~meth:Method.hier ~partition:Method.Auto ~max_part_states:20 ~interface_tol:1e-8
        ~order:8 ~samples:8 mesh8,
      "9f93d4b1d19be7172237f9918bb2be88" );
    ( "wide substrate",
      job_of ~band:(0.0, 4.0 *. Substrate.corner_frequency ()) ~tol:1e-8 ~samples:6 substrate,
      "f02ea67891c6595b3d3555108f314d50" );
  ]

(* A pinned job's answer: the ROM digest, and the MD5 of the exported
   netlist for an export job. *)
let pinned store job =
  let o = must (Store.reduce store job) in
  match o.Store.netlist with
  | None -> (o, o.Store.digest)
  | Some body -> (o, o.Store.digest ^ " " ^ Digest.to_hex (Digest.string body))

let test_pinned_rom_digests () =
  List.iter
    (fun (name, job, expected) ->
      Alcotest.(check string) name expected (snd (pinned (Store.create ()) job)))
    pinned_jobs

(* The same literals on the re-finish route: each sampled job (flat and
   hier) runs on a store that first finished the same samples at another
   order, so its answer truncates the decomposition that finish left in
   the samples tier.  A flat answer carries that decomposition's very
   singular-value array (shared, never copied), the witness that no SVD
   ran again; a hier job concatenates its parts' values, so its parts'
   memo hits are [test_hier]'s to count. *)
let test_pinned_refinish_digests () =
  List.iter
    (fun (name, (job : Protocol.job), expected) ->
      let o = job.Protocol.options in
      if List.mem Method.Samples job.Protocol.meth.Method.reads then begin
        let store = Store.create () in
        let other = Some (if o.Method.order = Some 3 then 4 else 3) in
        let first =
          must
            (Store.reduce store
               { job with Protocol.options = { o with Method.order = other }; export = false })
        in
        let answer, got = pinned store job in
        Alcotest.(check string) (name ^ ": re-finish tier") "samples-hit"
          (Store.tier_name answer.Store.tier);
        Alcotest.(check string) (name ^ ": re-finish") expected got;
        if job.Protocol.meth.Method.name <> Method.hier.Method.name then
          Alcotest.(check bool) (name ^ ": the first finish's sigma, not a new SVD's") true
            (answer.Store.singular_values == first.Store.singular_values)
      end)
    pinned_jobs

(* The ROM key holds the sample count only for a method that reads it:
   tbr-passive's Gramian never does, so the same job at another count is
   answered from the ROM tier, while pmtbr at another count is a new
   sample set. *)
let test_rom_key_samples () =
  let store = Store.create () in
  let netlist = mesh_netlist ~n:5 () in
  let passive samples = run_job ~meth:(meth "tbr-passive") ~order:6 ~samples store netlist in
  let p10 = passive 10 in
  let p20 = passive 20 in
  Alcotest.(check string) "tbr-passive at samples 20 is a rom hit" "rom-hit"
    (Store.tier_name p20.Store.tier);
  Alcotest.(check int) "with no solves" 0 p20.Store.job_solves;
  Alcotest.(check string) "and the same digest" p10.Store.digest p20.Store.digest;
  ignore (run_job ~samples:10 store netlist);
  let pm20 = run_job ~samples:20 store netlist in
  Alcotest.(check bool) "pmtbr at samples 20 is not a rom hit" false (pm20.Store.tier = Store.Rom_hit);
  Alcotest.(check bool) "it solves the new points" true (pm20.Store.job_solves > 0)

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
  Alcotest.(check int) "two parses" 2 c.Store.parses;
  Alcotest.(check int) "the memo went with its network" 0 c.Store.hash_hits

let test_store_rejects_garbage () =
  let store = Store.create () in
  let garbage ~band netlist = Store.reduce store (job_of ~band ~samples:5 netlist) in
  (match garbage ~band:(0.0, 1e9) "R1 1 0 banana\n.port 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable netlist must be rejected");
  (match garbage ~band:(0.0, 1e9) "R1 1 0 1k\n.end\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "port-less netlist must be rejected");
  match garbage ~band:(1e9, 1e8) (mesh_netlist ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reversed band must be rejected"

(* Nodes 3 and 4 have no element path to ground: every method gets the
   one stamp-time error naming them, and the store keeps answering. *)
let island = "R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nC2 2 0 1p\nR3 3 4 1k\nC3 3 4 1p\n.port 1\n"
let island_error = "MNA stamping failed: floating nodes (no element path to ground): 3 4"
let all_meths = List.filter (fun m -> m.Method.served) Method.all

let test_store_floating_island () =
  let store = Store.create () in
  List.iter
    (fun meth ->
      match Store.reduce store (job_of ~meth ~order:2 island) with
      | Error e -> Alcotest.(check string) meth.Method.name island_error e
      | Ok _ -> Alcotest.failf "%s: floating island must be rejected" meth.Method.name)
    all_meths;
  ignore (run_job store (mesh_netlist ()))

(* Node 2 has no capacitor: E is singular, so tbr-passive (which inverts
   it) is refused naming the node, while pmtbr (which only factors
   sE - A) reduces the same network, and the store keeps answering. *)
let capacitor_free = "R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nR3 2 3 1k\nC3 3 0 1p\n.port 1\n"

let capacitor_free_error =
  "tbr-passive reduction failed: nodes with no capacitive path to ground (E is singular): 2"

let test_store_capacitor_free () =
  let store = Store.create () in
  (match Store.reduce store (job_of ~meth:(meth "tbr-passive") ~order:2 capacitor_free) with
  | Error e -> Alcotest.(check string) "tbr-passive" capacitor_free_error e
  | Ok _ -> Alcotest.fail "tbr-passive must refuse a singular E");
  (match Store.reduce store (job_of ~order:2 capacitor_free) with
  | Ok r -> Alcotest.(check int) "pmtbr order" 2 r.Store.order
  | Error e -> Alcotest.failf "pmtbr must reduce the same network: %s" e);
  ignore (run_job store (mesh_netlist ()))

(* Nodes 1 and 2 reach ground through capacitors alone: A is singular, so
   tbr-passive (whose Gramian needs a pole-free s = 0) is refused naming
   them, while pmtbr reduces the same network, and the store keeps
   answering. *)
let no_dc_path = "C1 1 0 1p\nR1 1 2 1k\nC2 2 0 1p\n.port 1\n"

let no_dc_path_error =
  "tbr-passive reduction failed: nodes with no resistive or inductive path to ground (A is \
   singular): 1 2"

let test_store_no_dc_path () =
  let store = Store.create () in
  (match Store.reduce store (job_of ~meth:(meth "tbr-passive") ~order:1 no_dc_path) with
  | Error e -> Alcotest.(check string) "tbr-passive" no_dc_path_error e
  | Ok _ -> Alcotest.fail "tbr-passive must refuse a singular A");
  (match Store.reduce store (job_of ~order:1 no_dc_path) with
  | Ok r -> Alcotest.(check int) "pmtbr order" 1 r.Store.order
  | Error e -> Alcotest.failf "pmtbr must reduce the same network: %s" e);
  ignore (run_job store (mesh_netlist ()))

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
                          (Protocol.Reduce (job_of ~band ~order:8 nl))
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
              (Protocol.Reduce (job_of ~meth:(meth "tbr-passive") ~order:6 ~export:true (mesh_netlist ~n:5 ())))
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
                 (job_of ~meth:Method.hier ~order:6 ~samples:8 ~partition:(Method.Parts 2)
                    (mesh_netlist ~n:6 ())))
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
                 (job_of ~meth:Method.hier ~order:6 ~samples:8 ~partition:Method.Auto
                    ~max_part_states:20 ~interface_tol:1e-8 (mesh_netlist ~n:6 ())))
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
          match Client.request fdc (Protocol.Reduce
            (job_of ~band:(0.0, 1e9) ~samples:5 "R1 1 0 banana
.port 1
"))
          with
          | Ok r -> (
              (match r.Protocol.status with
              | Error _ -> ()
              | Ok () -> Alcotest.fail "bad netlist must produce an error response");
              Alcotest.(check string) "connection still live" "1"
                (field (roundtrip fdc Protocol.Ping) "pong"))
          | Error e -> Alcotest.fail e))

let test_daemon_floating_island () =
  let socket = Printf.sprintf ".pmtbr_test_float.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      Client.with_connection socket (fun c ->
          List.iter
            (fun meth ->
              match Client.request c (Protocol.Reduce (job_of ~meth ~order:2 island)) with
              | Ok { Protocol.status = Error e; _ } ->
                  Alcotest.(check string) meth.Method.name island_error e
              | Ok _ -> Alcotest.fail "floating island must produce an error response"
              | Error e -> Alcotest.fail e)
            all_meths;
          Alcotest.(check string) "still serving" "1" (field (roundtrip c Protocol.Ping) "pong");
          ignore (roundtrip c (Protocol.Reduce (job_of ~order:4 (mesh_netlist ()))))))

let test_daemon_capacitor_free () =
  let socket = Printf.sprintf ".pmtbr_test_nocap.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      Client.with_connection socket (fun c ->
          (match
             Client.request c
               (Protocol.Reduce (job_of ~meth:(meth "tbr-passive") ~order:2 capacitor_free))
           with
          | Ok { Protocol.status = Error e; _ } ->
              Alcotest.(check string) "tbr-passive" capacitor_free_error e
          | Ok _ -> Alcotest.fail "a singular E must produce an error response"
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) "still serving" "1" (field (roundtrip c Protocol.Ping) "pong");
          ignore (roundtrip c (Protocol.Reduce (job_of ~order:2 capacitor_free)))))

let test_daemon_no_dc_path () =
  let socket = Printf.sprintf ".pmtbr_test_nodc.%d.sock" (Unix.getpid ()) in
  let daemon = start_daemon ~socket ~workers:2 in
  Fun.protect
    ~finally:(fun () -> stop_daemon ~socket daemon)
    (fun () ->
      Client.with_connection socket (fun c ->
          (match
             Client.request c (Protocol.Reduce (job_of ~meth:(meth "tbr-passive") ~order:1 no_dc_path))
           with
          | Ok { Protocol.status = Error e; _ } -> Alcotest.(check string) "tbr-passive" no_dc_path_error e
          | Ok _ -> Alcotest.fail "a singular A must produce an error response"
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) "still serving" "1" (field (roundtrip c Protocol.Ping) "pong");
          ignore (roundtrip c (Protocol.Reduce (job_of ~order:1 no_dc_path)))))

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
          Alcotest.test_case "bad netlists refused by name" `Quick test_bad_netlists_refused;
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
          Alcotest.test_case "hash memo" `Quick test_hash_memo;
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
          Alcotest.test_case "pinned rom digests" `Quick test_pinned_rom_digests;
          Alcotest.test_case "eviction forces recompute" `Quick test_eviction_forces_recompute;
          Alcotest.test_case "rejects garbage" `Quick test_store_rejects_garbage;
          Alcotest.test_case "floating island" `Quick test_store_floating_island;
          Alcotest.test_case "capacitor-free node" `Quick test_store_capacitor_free;
          Alcotest.test_case "no DC path" `Quick test_store_no_dc_path;
          Alcotest.test_case "pinned digests on the re-finish route" `Quick
            test_pinned_refinish_digests;
          Alcotest.test_case "rom key holds samples only where read" `Quick test_rom_key_samples;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent jobs deterministic" `Quick
            test_concurrent_jobs_deterministic;
          Alcotest.test_case "export job" `Quick test_daemon_export_job;
          Alcotest.test_case "hier stats field" `Quick test_daemon_hier_stats_field;
          Alcotest.test_case "protocol errors" `Quick test_daemon_protocol_errors;
          Alcotest.test_case "floating island" `Quick test_daemon_floating_island;
          Alcotest.test_case "capacitor-free node" `Quick test_daemon_capacitor_free;
          Alcotest.test_case "no DC path" `Quick test_daemon_no_dc_path;
        ] );
    ]
