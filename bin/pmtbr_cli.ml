(* Command-line driver: generate the bundled circuit models, reduce them
   with any of the implemented algorithms, and inspect the results.

     pmtbr info    --circuit spiral
     pmtbr hsv     --circuit clock-tree --samples 50
     pmtbr reduce  --circuit connector --method fs-pmtbr --order 18 --band 0:5e10
     pmtbr sweep   --circuit peec --points 40 *)

open Cmdliner
open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core
module Sproto = Pmtbr_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Circuit selection                                                   *)
(* ------------------------------------------------------------------ *)

type circuit =
  | Rc_line
  | Rc_mesh
  | Clock_tree
  | Spiral
  | Peec
  | Connector
  | Substrate
  | Coupled_bus
  | Tline

let circuit_names =
  [
    ("rc-line", Rc_line);
    ("rc-mesh", Rc_mesh);
    ("clock-tree", Clock_tree);
    ("spiral", Spiral);
    ("peec", Peec);
    ("connector", Connector);
    ("substrate", Substrate);
    ("coupled-bus", Coupled_bus);
    ("tline", Tline);
  ]

let build_netlist circuit ~size ~ports ~seed =
  match circuit with
  | Rc_line -> Pmtbr_circuit.Rc_line.generate ~sections:(Option.value size ~default:50) ()
  | Rc_mesh ->
      let n = Option.value size ~default:12 in
      Pmtbr_circuit.Rc_mesh.generate ~rows:n ~cols:n ~ports:(Option.value ports ~default:4) ()
  | Clock_tree -> Pmtbr_circuit.Clock_tree.generate ~levels:(Option.value size ~default:7) ()
  | Spiral -> Pmtbr_circuit.Spiral.generate ~segments:(Option.value size ~default:16) ()
  | Peec -> Pmtbr_circuit.Peec.generate ~cells:(Option.value size ~default:10) ()
  | Connector -> Pmtbr_circuit.Connector.generate ~pins:(Option.value size ~default:18) ()
  | Substrate ->
      Pmtbr_circuit.Substrate.generate ~ports:(Option.value ports ~default:150) ~seed ()
  | Coupled_bus ->
      Pmtbr_circuit.Coupled_bus.generate ~lines:(Option.value ports ~default:4)
        ~sections:(Option.value size ~default:20) ()
  | Tline -> Pmtbr_circuit.Tline.generate ~cells:(Option.value size ~default:30) ()

(* Default sampling bandwidth per circuit (rad/s). *)
let default_band = function
  | Rc_line -> 3e9
  | Rc_mesh -> 2e10
  | Clock_tree -> Pmtbr_circuit.Clock_tree.bandwidth ()
  | Spiral -> Pmtbr_circuit.Spiral.sample_band ()
  | Peec -> Pmtbr_circuit.Peec.sample_band () /. 2.0
  | Connector -> Pmtbr_circuit.Connector.band_of_interest
  | Substrate -> 100.0 *. Pmtbr_circuit.Substrate.corner_frequency ()
  | Coupled_bus -> Pmtbr_circuit.Coupled_bus.bandwidth ()
  | Tline -> Pmtbr_circuit.Tline.valid_band () /. 2.0

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let circuit_arg =
  let doc =
    Printf.sprintf "Circuit model to build (%s)."
      (String.concat ", " (List.map fst circuit_names))
  in
  Arg.(
    value
    & opt (some (enum circuit_names)) None
    & info [ "c"; "circuit" ] ~docv:"CIRCUIT" ~doc)

let spice_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spice" ] ~docv:"FILE" ~doc:"Read the circuit from a SPICE-dialect netlist file.")

(* Resolve the circuit source: a generated model or a SPICE file.  A
   malformed file is a usage error naming the file and the line, worded
   as the daemon words it. *)
let resolve ~circuit ~spice ~size ~ports ~seed =
  match (circuit, spice) with
  | Some c, None -> (build_netlist c ~size ~ports ~seed, Some c)
  | None, Some path -> (
      match Pmtbr_circuit.Spice.netlist (Pmtbr_circuit.Spice.parse_file path) with
      | nl -> (nl, None)
      | exception (Pmtbr_circuit.Spice.Parse_error _ as e) ->
          failwith (path ^ ": " ^ Printexc.to_string e))
  | Some _, Some _ -> failwith "give either --circuit or --spice, not both"
  | None, None -> failwith "one of --circuit or --spice is required"

(* The source of a subcommand that reduces or sweeps it: a netlist with
   no port or no internal node is refused as the daemon refuses it. *)
let resolve_reducible ~circuit ~spice ~size ~ports ~seed =
  let ((nl, _) as resolved) = resolve ~circuit ~spice ~size ~ports ~seed in
  match Pmtbr_circuit.Netlist.check_reducible nl with Ok () -> resolved | Error msg -> failwith msg

let band_of ~circuit ~band ~fallback =
  match (band, circuit) with
  | Some (_, hi), _ -> hi
  | None, Some c -> default_band c
  | None, None -> fallback

let size_arg =
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc:"Circuit size parameter.")

let ports_arg =
  Arg.(value & opt (some int) None & info [ "ports" ] ~docv:"P" ~doc:"Number of ports.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let samples_arg =
  Arg.(value & opt int 30 & info [ "samples" ] ~docv:"K" ~doc:"Number of frequency samples.")

let workers_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "workers" ]
        ~docv:"W"
        ~doc:
          "Worker domains for both stages of a run: the parallel multi-shift sampling engine \
           and the dense reduction kernels (SVD/QR/GEMM in Pmtbr_la.Par_kernel).  0 = one per \
           recommended core; larger values are capped at that count.  Any value produces \
           bitwise-identical results.")

(* 0 = auto (the library default); values < 1 mean the same.  A count
   is capped at the host's here, where it enters the program (the
   library honours any explicit count).  Also installs the same pool
   size as the dense-kernel default, so one flag covers the solve stage
   and the reduction stage. *)
let workers_opt w =
  let w = if w >= 1 then Some (Par_kernel.cap_to_host w) else None in
  Par_kernel.set_default_workers w;
  w

(* The converter validates at the edge (finite, 0 <= lo < hi) through the
   same routine the serve protocol applies to band fields, so a reversed,
   negative, zero-width or NaN band is a usage error with a clear message
   instead of a garbage sampling grid. *)
let band_arg =
  let parse s =
    match Method.parse_band s with
    | Ok band -> Ok band
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (lo, hi) = Format.fprintf ppf "%g:%g" lo hi in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "band" ] ~docv:"LO:HI" ~doc:"Frequency band in rad/s (default: circuit-specific).")

(* Every subcommand body takes a final unit and runs under this guard:
   usage errors (options [Method.validate] refuses, a malformed or
   port-less netlist, server-side failures) and unsolvable input (a
   partition beyond the state count; floating nodes; for the exact-TBR
   methods, nodes with no capacitive path to ground or with no resistive
   or inductive one) leave through Cmdliner's error channel, a non-zero
   exit with the message, instead of an uncaught exception. *)
let guarded run =
  Term.term_result'
    (Term.map
       (fun run ->
         try Ok (run ()) with
         | Failure msg -> Error msg
         | ( Method.Refused _ | Pmtbr_circuit.Mna.Floating _ | Pmtbr_circuit.Mna.Uncapacitated _
           | Pmtbr_circuit.Mna.No_dc_path _ ) as e ->
             Error (Printexc.to_string e))
       run)

(* The job options as [Method.validate] accepts them, or the usage error
   naming the option it refused. *)
let validated meth options =
  match Method.validate meth options with Ok o -> o | Error msg -> failwith msg

(* A pmtbr job on --band (default [0, the circuit's band]), checked as
   reduce checks it: what hsv and adaptive sample. *)
let pmtbr_options ~circuit ~band ~samples f =
  let w_hi = band_of ~circuit ~band ~fallback:1e10 in
  validated Method.pmtbr
    (f { (Method.defaults ~band:(Option.value band ~default:(0.0, w_hi))) with samples })

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let run_info circuit spice size ports seed () =
  let nl, source = resolve ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let r, c, l, k = Pmtbr_circuit.Netlist.stats nl in
  Printf.printf "states:     %d\n" (Dss.order sys);
  Printf.printf "ports:      %d\n" (Dss.inputs sys);
  Printf.printf "elements:   %d R, %d C, %d L, %d K\n" r c l k;
  match source with
  | Some c ->
      Printf.printf "default sampling band: %.3e rad/s (%.3f GHz)\n" (default_band c)
        (default_band c /. (2.0 *. Float.pi *. 1e9))
  | None -> ()

let info_cmd =
  let doc = "Print statistics of a circuit model (generated or SPICE)." in
  Cmd.v (Cmd.info "info" ~doc)
    (guarded Term.(const run_info $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg))

(* ------------------------------------------------------------------ *)
(* hsv                                                                 *)
(* ------------------------------------------------------------------ *)

let run_hsv circuit spice size ports seed samples band workers () =
  let pts = Method.points Method.pmtbr (pmtbr_options ~circuit ~band ~samples Fun.id) in
  let nl, _ = resolve_reducible ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  (* the estimate-vs-exact comparison is meaningful in the symmetrised
     coordinates (paper Section III); fall back to the raw descriptor system
     for non-RC networks, where only the estimate is printed, and skip the
     exact values when a node has no DC path (no Gramian exists) *)
  let sym = try Some (Dss.symmetrize_rc sys) with Dss.Not_rc_like -> None in
  let est = Pmtbr.hankel_estimates ?workers:(workers_opt workers) (Option.value sym ~default:sys) pts in
  let exact =
    match sym with
    | None -> Error "not an RC network"
    | Some ssym -> (
        match Pmtbr_circuit.Mna.check_dc_path nl with
        | () ->
            let a, b, c = Dss.to_standard ssym in
            Ok (Tbr.hankel_singular_values ~a ~b ~c ())
        | exception (Pmtbr_circuit.Mna.No_dc_path _ as e) -> Error (Printexc.to_string e))
  in
  (match exact with
  | Ok _ -> print_endline "index\testimate\texact"
  | Error why -> Printf.printf "index\testimate\t(exact skipped: %s)\n" why);
  Array.iteri
    (fun i e ->
      if i < 30 then
        match exact with
        | Ok ex when i < Array.length ex -> Printf.printf "%d\t%.4e\t%.4e\n" i e ex.(i)
        | Ok _ | Error _ -> Printf.printf "%d\t%.4e\n" i e)
    est

let hsv_cmd =
  let doc = "Estimate Hankel singular values by frequency sampling." in
  Cmd.v (Cmd.info "hsv" ~doc)
    (guarded
       Term.(
         const run_hsv $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg $ samples_arg
         $ band_arg $ workers_arg))

(* ------------------------------------------------------------------ *)
(* reduce                                                              *)
(* ------------------------------------------------------------------ *)

let method_arg =
  let parse name = Result.map_error (fun msg -> `Msg msg) (Method.find name) in
  let print ppf (m : Method.t) = Format.pp_print_string ppf m.Method.name in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:(Printf.sprintf "Reduction method (%s; default pmtbr)." Method.names))

(* The method a run asked for: --partition without --method means hier. *)
let resolve_method meth partition =
  match (meth, partition) with
  | Some m, _ -> m
  | None, Some _ -> Method.hier
  | None, None -> Method.pmtbr

let order_arg =
  Arg.(value & opt (some int) None & info [ "order" ] ~docv:"Q" ~doc:"Target reduced order.")

(* "auto" or an explicit subdomain count, as the daemon's partition
   field; [Method.validate] checks the count. *)
let partition_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok Method.Auto
    | t -> (
        match int_of_string_opt t with
        | Some k -> Ok (Method.Parts k)
        | None -> Error (`Msg (Printf.sprintf "expected a subdomain count or 'auto' (got %S)" s)))
  in
  let print ppf = function
    | Method.Auto -> Format.pp_print_string ppf "auto"
    | Method.Parts k -> Format.pp_print_int ppf k
  in
  Arg.conv (parse, print)

let partition_arg =
  Arg.(
    value
    & opt (some partition_conv) None
    & info [ "partition" ] ~docv:"K|auto"
        ~doc:
          (Printf.sprintf
             "Subdomain goal for the hierarchical method (default %d when --method hier): an \
              explicit count in [2, 4096] and at most the state count, or $(b,auto) to \
              dissect recursively until every part fits --max-part-states.  Giving \
              --partition without --method selects hier; combining it with any other method \
              is an error."
             Partition.default_parts))

let max_part_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-part-states" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Per-part state budget for --partition auto (default %d): nested dissection \
              recurses while a part exceeds N states, so N is also the largest sparse \
              factorization any subdomain pays."
             Partition.default_max_states))

let interface_tol_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "interface-tol" ] ~docv:"TOL"
        ~doc:
          "Compress the interface states of the recombined hierarchical model through a \
           second-pass PMTBR with this singular-value tail tolerance (couplings stay \
           exact; full rank falls back to the exact interface).  Without it every \
           separator state is kept verbatim.")

let tol_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tol" ] ~docv:"TOL"
        ~doc:
          "Order control by the singular-value tail relative to the largest value: keep the \
           smallest order whose tail sum is at most TOL times sigma_0 (with --order, the \
           smaller of the two).  The same rule for every method that reads it.")

let stats_arg =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:
          "Print the run's counters; the reduction itself is the same with or without the \
           flag.  The sample-cache methods (pmtbr, fs-pmtbr, multipoint, cross-gramian, \
           correlated) print shift solves, columns held, batches and timings; tbr-lr and \
           tbr-passive print their Lyapunov-solver counters; hier prints its partition, \
           per-subdomain orders and solves, and stage walls; the others keep none.")

let adaptive_arg =
  Arg.(
    value
    & flag
    & info [ "adaptive" ]
        ~doc:
          "Use the adaptive cache-driven entry point with on-the-fly order control \
           (pmtbr, fs-pmtbr, cross-gramian, correlated).")

let draws_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "draws" ] ~docv:"D"
        ~doc:
          "Random input-direction draws for the correlated method (default 40; the cap \
           when --adaptive).")

let print_cache_stats (st : Sample_cache.stats) =
  Printf.printf "shift solves:      %d (each shift solved once)\n" st.Sample_cache.solves;
  Printf.printf "finish SVDs:       %d (one per column set)\n" st.Sample_cache.svds;
  Printf.printf "points sampled:    %d\n" st.Sample_cache.points;
  Printf.printf "columns held:      %d\n" st.Sample_cache.columns;
  Printf.printf "batches:           %d\n" st.Sample_cache.batches;
  Printf.printf "factor/solve time: %.4f s / %.4f s\n" st.Sample_cache.factor_s
    st.Sample_cache.solve_s;
  Option.iter
    (fun (k : Pmtbr_sparse.Ordering.pick) ->
      Printf.printf "ordering:          %s (nnz(L): rcm %d, nested dissection %d)\n"
        (if k.nested then "nested-dissection" else "rcm") k.rcm_fill k.nd_fill)
    st.Sample_cache.ordering

let print_lyap ~symbolic ~refactorizations ~shifts ~solves ~col_solves =
  Printf.printf "symbolic analyses: %d\n" symbolic;
  Printf.printf "refactorizations:  %d (ADI shifts: %d)\n" refactorizations (Array.length shifts);
  Printf.printf "shifted solves:    %d (%d RHS columns)\n" solves col_solves

let print_stats name = function
  | Method.Cache st -> print_cache_stats st
  | Method.Hier (pt, partition_wall, hst) ->
      Printf.printf "partitions:        %d (tree depth %d; interface states %d -> %d)\n"
        hst.Hier_reduce.parts hst.Hier_reduce.depth hst.Hier_reduce.interface
        hst.Hier_reduce.interface_kept;
      Array.iteri
        (fun l (cuts, sep) ->
          Printf.printf "  level %-2d         %d cut%s, %d separator state%s\n" l cuts
            (if cuts = 1 then "" else "s")
            sep
            (if sep = 1 then "" else "s"))
        (Partition.level_cuts pt);
      Printf.printf "subdomain orders:  %s\n"
        (String.concat " " (Array.to_list (Array.map string_of_int hst.Hier_reduce.sub_orders)));
      Printf.printf "shifted solves:    %d (per subdomain; no global factorization)\n"
        hst.Hier_reduce.solves;
      Printf.printf
        "stage walls:       partition %.4f s, sample+project %.4f s, recombine %.4f s, \
         compress %.4f s\n"
        partition_wall hst.Hier_reduce.pool.Par_kernel.wall_s hst.Hier_reduce.recombine_wall_s
        hst.Hier_reduce.compress_wall_s;
      Printf.printf "subdomain wall:    %s s\n"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.4f") hst.Hier_reduce.sub_wall_s)))
  | Method.Low_rank st ->
      print_lyap ~symbolic:st.Tbr_lr.symbolic ~refactorizations:st.Tbr_lr.refactorizations
        ~shifts:st.Tbr_lr.shifts ~solves:st.Tbr_lr.solves ~col_solves:st.Tbr_lr.col_solves;
      Printf.printf "gramian columns:   %d ctrl / %d obs (converged: %b / %b; compressions: %d / %d)\n"
        st.Tbr_lr.ctrl.Lr_lyap.columns st.Tbr_lr.obs.Lr_lyap.columns
        st.Tbr_lr.ctrl.Lr_lyap.converged st.Tbr_lr.obs.Lr_lyap.converged
        st.Tbr_lr.ctrl.Lr_lyap.compressions st.Tbr_lr.obs.Lr_lyap.compressions;
      Printf.printf "wall time:         %.4f s\n" st.Tbr_lr.wall_s
  | Method.Passive st ->
      print_lyap ~symbolic:st.Tbr_passive.symbolic
        ~refactorizations:st.Tbr_passive.refactorizations ~shifts:st.Tbr_passive.shifts
        ~solves:st.Tbr_passive.solves ~col_solves:st.Tbr_passive.col_solves;
      Printf.printf "gramian columns:   %d (converged: %b; one Gramian; compressions: %d)\n"
        st.Tbr_passive.gramian.Lr_lyap.columns st.Tbr_passive.gramian.Lr_lyap.converged
        st.Tbr_passive.gramian.Lr_lyap.compressions;
      Printf.printf "wall time:         %.4f s\n" st.Tbr_passive.wall_s
  | Method.No_counters ->
      Printf.printf "counters:          none (%s keeps no solver counters)\n" name

(* In-band verification shared by reduce/adaptive: the full-model
   reference sweep is computed once per invocation (through the
   two-tier sweep engine) and every reported metric streams the reduced
   model against that same array. *)
let report_in_band ?workers sys rom ~w_hi =
  let omegas = Vec.linspace (w_hi /. 100.0) w_hi 40 in
  let href = Freq.sweep ?workers sys omegas in
  let st = Freq.compare_sweep ?workers rom omegas ~ref_:href in
  Printf.printf "worst in-band relative error: %.3e\n" (Freq.stream_max_rel_error st);
  Printf.printf "in-band rms error:            %.3e\n" (Freq.stream_rms_error st)

(* Every method runs through its [Method] entry; the options are checked
   first, before the circuit is built.  Without --band the band is
   [0, the circuit's default]. *)
let run_reduce circuit spice size ports seed meth partition max_part_states interface_tol order
    tol samples band workers stats adaptive draws export () =
  let meth = resolve_method meth partition in
  let w_hi = band_of ~circuit ~band ~fallback:1e10 in
  let options =
    validated meth
      { Method.band = Option.value band ~default:(0.0, w_hi); order; tol; samples; partition;
        max_part_states; interface_tol; adaptive; draws; seed }
  in
  let nl, _ = resolve_reducible ~circuit ~spice ~size ~ports ~seed in
  let workers = workers_opt workers in
  let src = Method.source ~workers nl in
  let sys = src.Method.sys in
  let r = meth.Method.run src options in
  let rom = r.Method.rom in
  Printf.printf "reduced: %d -> %d states\n" (Dss.order sys) (Dss.order rom);
  Option.iter
    (fun (n, offered) -> Printf.printf "samples consumed:  %d of %d offered\n" n offered)
    r.Method.consumed;
  if stats then print_stats meth.Method.name r.Method.stats;
  report_in_band ?workers sys rom ~w_hi;
  (* --export FILE: realize the ROM as a netlist, write it, and verify the
     roundtrip — the file re-parsed, stamped and swept must reproduce the
     in-memory ROM *)
  Option.iter
    (fun path ->
      let ir =
        try
          Pmtbr_circuit.Synth.realize ?workers ~e:(Dss.e_dense rom) ~a:(Dss.a_dense rom)
            ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom) ()
        with Pmtbr_circuit.Synth.Unrealizable msg ->
          failwith ("export: ROM is not realizable: " ^ msg ^ " (use --method tbr-passive)")
      in
      let text = Pmtbr_circuit.Spice_ir.render ir in
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
      let back = Dss.of_netlist (Pmtbr_circuit.Spice.netlist (Pmtbr_circuit.Spice.parse_file path)) in
      let omegas = Vec.linspace (w_hi /. 100.0) w_hi 40 in
      let href = Freq.sweep ?workers rom omegas in
      let drift =
        Freq.stream_max_rel_error (Freq.compare_sweep ?workers back omegas ~ref_:href)
      in
      Printf.printf "exported %d states to %s (roundtrip drift %.3e)\n" (Dss.order rom) path
        drift)
    export

let export_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"FILE"
        ~doc:
          "Synthesize the reduced model back into an R/C netlist, write it to FILE, and \
           verify the roundtrip (re-parse, stamp, sweep against the in-memory model).  \
           Needs a realizable (reciprocal, symmetric) reduced model — the tbr-passive \
           method guarantees one.")

let reduce_cmd =
  let doc = "Reduce a circuit model and report the in-band error." in
  Cmd.v (Cmd.info "reduce" ~doc)
    (guarded
       Term.(
         const run_reduce $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg
         $ method_arg $ partition_arg $ max_part_states_arg $ interface_tol_arg $ order_arg
         $ tol_arg $ samples_arg $ band_arg $ workers_arg $ stats_arg $ adaptive_arg $ draws_arg
         $ export_file_arg))

(* ------------------------------------------------------------------ *)
(* adaptive                                                            *)
(* ------------------------------------------------------------------ *)

type adaptive_monitor = Mon_svd | Mon_rrqr

let monitor_arg =
  let doc = "Per-batch order monitor (svd, rrqr)." in
  Arg.(
    value
    & opt (enum [ ("svd", Mon_svd); ("rrqr", Mon_rrqr) ]) Mon_svd
    & info [ "monitor" ] ~docv:"MONITOR" ~doc)

let batch_arg =
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"Points consumed per batch.")

let run_adaptive circuit spice size ports seed monitor order tol batch samples band workers () =
  let o =
    pmtbr_options ~circuit ~band ~samples (fun o -> { o with order; tol; adaptive = true })
  in
  if batch < 1 then failwith (Printf.sprintf "batch must be >= 1 (got %d)" batch);
  let nl, _ = resolve_reducible ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let pts = Method.points Method.pmtbr o and w_hi = snd o.Method.band in
  let workers = workers_opt workers in
  let result =
    match monitor with
    | Mon_svd -> Pmtbr.reduce_adaptive ?order ?tol ~batch ?workers sys pts
    | Mon_rrqr -> Pmtbr.reduce_adaptive_rrqr ?order ?tol ~batch ?workers sys pts
  in
  let st = result.Pmtbr.stats in
  Printf.printf "reduced: %d -> %d states\n" (Dss.order sys) (Dss.order result.Pmtbr.rom);
  Printf.printf "samples consumed:  %d of %d offered\n" result.Pmtbr.samples (Array.length pts);
  print_cache_stats st;
  Array.iteri
    (fun i w -> Printf.printf "batch %-2d wall:     %.4f s\n" (i + 1) w)
    st.Sample_cache.batch_wall_s;
  report_in_band ?workers sys result.Pmtbr.rom ~w_hi

let adaptive_cmd =
  let doc =
    "Reduce with on-the-fly order control and report the incremental-sampling counters."
  in
  Cmd.v (Cmd.info "adaptive" ~doc)
    (guarded
       Term.(
         const run_adaptive $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg
         $ monitor_arg $ order_arg $ tol_arg $ batch_arg $ samples_arg $ band_arg $ workers_arg))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let npoints_arg =
  Arg.(value & opt int 40 & info [ "points" ] ~docv:"N" ~doc:"Number of frequency points.")

let run_sweep circuit spice size ports seed npoints band workers () =
  let nl, source = resolve_reducible ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let w_hi = band_of ~circuit:source ~band ~fallback:1e10 in
  let w_lo = match band with Some (lo, _) -> Float.max lo (w_hi /. 1000.0) | None -> w_hi /. 1000.0 in
  let workers = workers_opt workers in
  let omegas = Vec.linspace w_lo w_hi npoints in
  print_endline "omega_rad_s\tf_GHz\tmag_H11\tphase_rad";
  if Array.length omegas > 0 then begin
    (* one plan for the whole grid: symbolic analysis (or Hessenberg
       reduction) paid once, points fanned across the pool, rows
       streamed out in grid order *)
    let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = omegas.(0) } sys in
    Sweep_engine.iteri ?workers plan omegas ~f:(fun k h ->
        let h = Cmat.get h 0 0 in
        Printf.printf "%.5e\t%.4f\t%.5e\t%.4f\n" omegas.(k)
          (omegas.(k) /. (2.0 *. Float.pi *. 1e9))
          (Complex.norm h) (Complex.arg h))
  end

let sweep_cmd =
  let doc = "Print the port-1 frequency response of a circuit model." in
  Cmd.v (Cmd.info "sweep" ~doc)
    (guarded
       Term.(
         const run_sweep $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg $ npoints_arg
         $ band_arg $ workers_arg))

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let run_export circuit size ports seed output () =
  match circuit with
  | None -> failwith "--circuit is required for export"
  | Some c -> (
      let nl = build_netlist c ~size ~ports ~seed in
      match output with
      | Some path -> Pmtbr_circuit.Spice.write_file path nl
      | None -> print_string (Pmtbr_circuit.Spice.to_string nl))

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let export_cmd =
  let doc = "Export a generated circuit as a SPICE-dialect netlist." in
  Cmd.v (Cmd.info "export" ~doc)
    (guarded Term.(const run_export $ circuit_arg $ size_arg $ ports_arg $ seed_arg $ output_arg))

(* ------------------------------------------------------------------ *)
(* serve / batch                                                       *)
(* ------------------------------------------------------------------ *)

module Sserver = Pmtbr_serve.Server
module Sclient = Pmtbr_serve.Client

let socket_arg =
  Arg.(
    value
    & opt string ".pmtbr.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the reduction daemon.")

let run_serve socket workers job_workers max_cost_mb =
  let workers = max 1 workers in
  let config =
    {
      (Sserver.default_config ~socket_path:socket) with
      Sserver.workers;
      job_workers = Par_kernel.cap_to_host job_workers;
      max_cost = max 1 max_cost_mb * 1024 * 1024;
    }
  in
  Printf.printf "pmtbr serve: listening on %s (%d connection workers)\n%!" socket workers;
  Sserver.run config;
  Printf.printf "pmtbr serve: stopped\n%!"

let serve_cmd =
  let doc = "Run the reduction daemon (jobs over a Unix socket, content-addressed store)." in
  let serve_workers =
    Arg.(
      value
      & opt int 2
      & info [ "j"; "workers" ] ~docv:"W"
          ~doc:
            "Connection-handling worker domains.  Concurrent jobs are scheduled across them; \
             every job still produces a bitwise-identical model for any worker count.")
  in
  let job_workers =
    Arg.(
      value
      & opt int 1
      & info [ "job-workers" ] ~docv:"W"
          ~doc:
            "Solver/dense-kernel domains used inside each job, at least 1 and capped at the \
             recommended core count (results are invariant).")
  in
  let max_cost =
    Arg.(
      value
      & opt int 256
      & info [ "store-mb" ] ~docv:"MB" ~doc:"Approximate store budget in MiB (LRU-evicted).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ socket_arg $ serve_workers $ job_workers $ max_cost)

let read_text_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let require_ok what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

let print_fields r = List.iter (fun (k, v) -> Printf.printf "%-14s %s\n" k v) r.Sproto.fields

(* One round trip that fails loudly on transport errors and surfaces the
   server-side error message verbatim. *)
let roundtrip conn req =
  let r = require_ok "request failed" (Sclient.request conn req) in
  (match r.Sproto.status with Ok () -> () | Error msg -> failwith ("server error: " ^ msg));
  r

(* A connection to the daemon, or the usage error naming the socket when
   nothing answers there (no file, no listener, no permission). *)
let connected socket f =
  let conn =
    try Sclient.connect socket
    with Unix.Unix_error (err, _, _) ->
      failwith
        (Printf.sprintf "cannot reach the daemon at %s: %s" socket (Unix.error_message err))
  in
  Fun.protect ~finally:(fun () -> Sclient.close conn) (fun () -> f conn)

(* A job is checked here as [reduce] checks it, then by the daemon; the
   daemon refuses a method it does not serve by name. *)
let run_batch socket ping server_stats shutdown circuit spice size ports seed meth partition
    max_part_states interface_tol band tol order samples repeat assert_warm export_out () =
  let meth = resolve_method meth partition in
  connected socket (fun conn ->
      if ping then print_fields (roundtrip conn Sproto.Ping)
      else if server_stats then print_fields (roundtrip conn Sproto.Stats)
      else if shutdown then print_fields (roundtrip conn Sproto.Shutdown)
      else begin
        let netlist =
          match (circuit, spice) with
          | Some c, None -> Pmtbr_circuit.Spice.to_string (build_netlist c ~size ~ports ~seed)
          | None, Some path -> read_text_file path
          | Some _, Some _ -> failwith "give either --circuit or --spice, not both"
          | None, None -> failwith "one of --circuit or --spice is required"
        in
        let band =
          match band with
          | Some b -> b
          | None -> failwith "--band LO:HI is required for batch jobs"
        in
        let options =
          validated meth
            { (Method.defaults ~band) with
              order; tol; samples; partition; max_part_states; interface_tol }
        in
        let job = Sproto.Reduce { Sproto.meth; options; export = export_out <> None; netlist } in
        let repeat = max 1 repeat in
        let walls = Array.make repeat 0.0 in
        let digest = ref "" in
        for i = 0 to repeat - 1 do
          let r = roundtrip conn job in
          let get k = Option.value (Sproto.field r k) ~default:"?" in
          (match export_out with
          | Some path when i = 0 ->
              if r.Sproto.body = "" then failwith "server returned no netlist body for --export";
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc r.Sproto.body);
              Printf.printf "wrote synthesized ROM netlist to %s (%d bytes)\n" path
                (String.length r.Sproto.body)
          | _ -> ());
          walls.(i) <- float_of_string (get "wall_us") /. 1e6;
          (* every repeat must return the identical model: the store's
             bitwise-determinism contract, checked end to end *)
          let d = get "digest" in
          if !digest = "" then digest := d
          else if d <> !digest then
            failwith (Printf.sprintf "digest drift on repeat %d: %s <> %s" (i + 1) d !digest);
          Printf.printf "job %-2d tier=%-12s states=%s order=%s solves=%s wall=%.6fs\n" (i + 1)
            (get "tier") (get "states") (get "order") (get "solves") walls.(i)
        done;
        if repeat > 1 then begin
          let warm = Array.sub walls 1 (repeat - 1) in
          Array.sort compare warm;
          let speedup = walls.(0) /. Float.max warm.(0) 1e-9 in
          Printf.printf "cold %.6fs, best warm %.6fs: %.1fx\n" walls.(0) warm.(0) speedup;
          match assert_warm with
          | Some want when speedup < want ->
              failwith (Printf.sprintf "warm speedup %.1fx below required %.1fx" speedup want)
          | _ -> ()
        end
        else if assert_warm <> None then
          failwith "--assert-warm-speedup needs --repeat >= 2"
      end)

let batch_cmd =
  let doc = "Submit reduction jobs to a running daemon (or ping / stats / shutdown it)." in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Just ping the daemon.") in
  let stats = Arg.(value & flag & info [ "server-stats" ] ~doc:"Print the store counters.") in
  let shutdown = Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to stop.") in
  let repeat =
    Arg.(
      value
      & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Submit the same job N times; repeats must return a bitwise-identical model \
             (digests are compared) and warm timings are reported against the first run.")
  in
  let assert_warm =
    Arg.(
      value
      & opt (some float) None
      & info [ "assert-warm-speedup" ] ~docv:"X"
          ~doc:"Fail unless the best warm repeat is at least X times faster than the first run.")
  in
  let export_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:
            "Ask the daemon to synthesize the reduced model back into a netlist and write \
             the response body to FILE (first repeat only).")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    (guarded
       Term.(
         const run_batch $ socket_arg $ ping $ stats $ shutdown $ circuit_arg $ spice_arg
         $ size_arg $ ports_arg $ seed_arg $ method_arg $ partition_arg
         $ max_part_states_arg $ interface_tol_arg $ band_arg $ tol_arg $ order_arg $ samples_arg
         $ repeat $ assert_warm $ export_out))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Poor Man's TBR: model order reduction for circuit parasitics" in
  let info = Cmd.info "pmtbr" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ info_cmd; hsv_cmd; reduce_cmd; adaptive_cmd; sweep_cmd; export_cmd; serve_cmd;
            batch_cmd ]))
