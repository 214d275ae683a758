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

(* Resolve the circuit source: a generated model or a SPICE file. *)
let resolve ~circuit ~spice ~size ~ports ~seed =
  match (circuit, spice) with
  | Some c, None -> (build_netlist c ~size ~ports ~seed, Some c)
  | None, Some path -> (Pmtbr_circuit.Spice.netlist (Pmtbr_circuit.Spice.parse_file path), None)
  | Some _, Some _ -> failwith "give either --circuit or --spice, not both"
  | None, None -> failwith "one of --circuit or --spice is required"

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
           recommended core.  Any value produces bitwise-identical results.")

(* 0 = auto (engine default); the engine treats values < 1 the same way.
   Also installs the same pool size as the dense-kernel default, so one
   flag covers the solve stage and the reduction stage. *)
let workers_opt w =
  let w = if w >= 1 then Some w else None in
  Par_kernel.set_default_workers w;
  w

(* The converter validates at the edge (finite, 0 <= lo < hi) through the
   same routine the serve protocol applies to band fields, so a reversed,
   negative, zero-width or NaN band is a usage error with a clear message
   instead of a garbage sampling grid. *)
let band_arg =
  let parse s =
    match Pmtbr_serve.Protocol.parse_band s with
    | Ok band -> Ok band
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (lo, hi) = Format.fprintf ppf "%g:%g" lo hi in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "band" ] ~docv:"LO:HI" ~doc:"Frequency band in rad/s (default: circuit-specific).")

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let run_info circuit spice size ports seed =
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
    Term.(const run_info $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* hsv                                                                 *)
(* ------------------------------------------------------------------ *)

let run_hsv circuit spice size ports seed samples band workers =
  let nl, source = resolve ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let w_hi = band_of ~circuit:source ~band ~fallback:1e10 in
  let pts =
    match band with
    | Some (lo, hi) when lo > 0.0 -> Sampling.points (Sampling.Bands [ (lo, hi) ]) ~count:samples
    | _ -> Sampling.points (Sampling.Uniform { w_max = w_hi }) ~count:samples
  in
  (* the estimate-vs-exact comparison is meaningful in the symmetrised
     coordinates (paper Section III); fall back to the raw descriptor system
     for non-RC networks, where only the estimate is printed *)
  let sym = try Some (Dss.symmetrize_rc sys) with Dss.Not_rc_like -> None in
  let est = Pmtbr.hankel_estimates ?workers:(workers_opt workers) (Option.value sym ~default:sys) pts in
  let exact =
    Option.map
      (fun ssym ->
        let a, b, c = Dss.to_standard ssym in
        Tbr.hankel_singular_values ~a ~b ~c ())
      sym
  in
  (match exact with
  | Some _ -> print_endline "index\testimate\texact"
  | None -> print_endline "index\testimate\t(exact skipped: not an RC network)");
  Array.iteri
    (fun i e ->
      if i < 30 then
        match exact with
        | Some ex when i < Array.length ex -> Printf.printf "%d\t%.4e\t%.4e\n" i e ex.(i)
        | Some _ | None -> Printf.printf "%d\t%.4e\n" i e)
    est

let hsv_cmd =
  let doc = "Estimate Hankel singular values by frequency sampling." in
  Cmd.v (Cmd.info "hsv" ~doc)
    Term.(
      const run_hsv $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg $ samples_arg
      $ band_arg $ workers_arg)

(* ------------------------------------------------------------------ *)
(* reduce                                                              *)
(* ------------------------------------------------------------------ *)

type meth =
  | M_pmtbr
  | M_fs
  | M_prima
  | M_tbr
  | M_tbr_lr
  | M_multipoint
  | M_cross
  | M_correlated
  | M_two_step
  | M_pod
  | M_tbr_passive
  | M_hier

let method_names =
  [
    ("pmtbr", M_pmtbr);
    ("hier", M_hier);
    ("fs-pmtbr", M_fs);
    ("prima", M_prima);
    ("tbr", M_tbr);
    ("tbr-lr", M_tbr_lr);
    ("tbr-passive", M_tbr_passive);
    ("multipoint", M_multipoint);
    ("cross-gramian", M_cross);
    ("correlated", M_correlated);
    ("two-step", M_two_step);
    ("pod", M_pod);
  ]

let method_arg =
  let doc =
    Printf.sprintf "Reduction method (%s)." (String.concat ", " (List.map fst method_names))
  in
  Arg.(value & opt (enum method_names) M_pmtbr & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let order_arg =
  Arg.(value & opt (some int) None & info [ "order" ] ~docv:"Q" ~doc:"Target reduced order.")

(* "auto" or an explicit subdomain count.  K < 2 is rejected right here,
   at parse time, with a Cmdliner usage error; K > the state count is
   checked once the circuit is built (same clean error channel through
   [Term.term_result']). *)
type partition_choice = P_auto | P_k of int

let partition_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok P_auto
    | t -> (
        match int_of_string_opt t with
        | Some k when k >= 2 -> Ok (P_k k)
        | Some k ->
            Error
              (`Msg
                 (Printf.sprintf
                    "partition count must be >= 2 (got %d); a 1-part hierarchy is the flat \
                     path — use 'auto' to size parts from the state budget"
                    k))
        | None ->
            Error (`Msg (Printf.sprintf "expected a subdomain count >= 2 or 'auto' (got %S)" s)))
  in
  let print ppf = function
    | P_auto -> Format.pp_print_string ppf "auto"
    | P_k k -> Format.pp_print_int ppf k
  in
  Arg.conv (parse, print)

let partition_arg =
  Arg.(
    value
    & opt (some partition_conv) None
    & info [ "partition" ] ~docv:"K|auto"
        ~doc:
          "Subdomain goal for the hierarchical method (default 4 when --method hier): an \
           explicit count >= 2, or $(b,auto) to dissect recursively until every part fits \
           --max-part-states.  Giving --partition with the default method switches it to \
           hier; combining it with any other method is an error.")

let max_part_states_arg =
  Arg.(
    value
    & opt int 20_000
    & info [ "max-part-states" ] ~docv:"N"
        ~doc:
          "Per-part state budget for --partition auto: nested dissection recurses while a \
           part exceeds N states, so N is also the largest sparse factorization any \
           subdomain pays.")

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
    & info [ "tol" ] ~docv:"TOL" ~doc:"Singular-value tail tolerance for order control.")

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
           per-subdomain orders and solves, and stage walls.")

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
    & opt int 40
    & info [ "draws" ] ~docv:"D"
        ~doc:
          "Random input-direction draws for the correlated method (the cap when \
           --adaptive).")

let print_stats ?(note = "each shift solved once") (st : Sample_cache.stats) =
  Printf.printf "shift solves:      %d (%s)\n" st.Sample_cache.solves note;
  Printf.printf "points sampled:    %d\n" st.Sample_cache.points;
  Printf.printf "columns held:      %d\n" st.Sample_cache.columns;
  Printf.printf "batches:           %d\n" st.Sample_cache.batches;
  Printf.printf "factor/solve time: %.4f s / %.4f s\n" st.Sample_cache.factor_s
    st.Sample_cache.solve_s

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

(* Synthesized correlated input class for --method correlated: square waves
   derived from one clock (dithered timing, fixed per-port amplitudes), the
   Section VI-C experiment's input model, with the clock period tied to the
   sampling band. *)
let correlated_inputs sys ~seed ~w_hi =
  let period = 2.0 *. Float.pi *. 10.0 /. w_hi in
  let bank =
    Pmtbr_signal.Waveform.dithered_square_bank ~rng:(Pmtbr_signal.Rng.create seed)
      ~ports:(Dss.inputs sys) ~period ~dither:0.1
  in
  let waves = Array.map (fun w t -> 1e-3 *. w t) bank in
  Pmtbr_signal.Waveform.sample_matrix waves ~t0:0.0 ~t1:(4.0 *. period) ~samples:400

(* --band with lo > 0 switches the Lyapunov solvers to the band-limited
   residual stop, over the same Bands sampling PMTBR uses. *)
let lyap_stop band =
  match band with
  | Some (lo, hi) when lo > 0.0 ->
      let bpts = Sampling.points (Sampling.Bands [ (lo, hi) ]) ~count:8 in
      Some (Lr_lyap.Band_residual (Array.map (fun p -> (p.Sampling.s, p.Sampling.weight)) bpts))
  | _ -> None

let run_reduce_inner circuit spice size ports seed meth partition max_part_states interface_tol
    order tol samples band workers stats adaptive draws export =
  let meth =
    match (meth, partition) with
    | M_pmtbr, Some _ -> M_hier
    | M_hier, _ -> M_hier
    | m, Some _ when m <> M_hier -> failwith "--partition only applies to --method hier"
    | m, _ -> m
  in
  if interface_tol <> None && meth <> M_hier then
    failwith "--interface-tol only applies to --method hier";
  let nl, source = resolve ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let w_hi = band_of ~circuit:source ~band ~fallback:1e10 in
  let pts =
    match band with
    | Some (lo, hi) when lo > 0.0 -> Sampling.points (Sampling.Bands [ (lo, hi) ]) ~count:samples
    | _ -> Sampling.points (Sampling.Uniform { w_max = w_hi }) ~count:samples
  in
  let workers = workers_opt workers in
  let no_adaptive name = failwith (name ^ " has no adaptive cache pipeline (drop --adaptive)") in
  let no_stats name = failwith (name ^ " does not run through the sample cache (drop --stats)") in
  (* each arm yields the reduced model, the sample count actually consumed
     (adaptive runs), and the cache counters (when the method runs through
     the pipeline); --stats only decides whether they are printed *)
  let consumed offered samples = if adaptive then Some (samples, offered) else None in
  let of_pmtbr (r : Pmtbr.result) =
    (r.Pmtbr.rom, consumed (Array.length pts) r.Pmtbr.samples, Some r.Pmtbr.stats)
  in
  let rom, used, st =
    match meth with
    | M_pmtbr when adaptive -> of_pmtbr (Pmtbr.reduce_adaptive ?order ?tol ?workers sys pts)
    | M_pmtbr -> of_pmtbr (Pmtbr.reduce ?order ?tol ?workers sys pts)
    | M_hier ->
        if adaptive then no_adaptive "hier";
        let t0 = Unix.gettimeofday () in
        let pt =
          match Option.value partition ~default:(P_k 4) with
          | P_k k ->
              if k > Dss.order sys then
                failwith
                  (Printf.sprintf
                     "--partition %d exceeds the circuit's %d states (at most one subdomain \
                      per state)"
                     k (Dss.order sys));
              Partition.split ~parts:k nl
          | P_auto -> Partition.split_auto ~max_states:max_part_states nl
        in
        let partition_wall = Unix.gettimeofday () -. t0 in
        let rom, hst =
          Hier_reduce.reduce_partitioned ?order ?tol ?interface_tol ?workers pt pts
        in
        if stats then begin
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
            (String.concat " "
               (Array.to_list (Array.map string_of_int hst.Hier_reduce.sub_orders)));
          Printf.printf "shifted solves:    %d (per subdomain; no global factorization)\n"
            hst.Hier_reduce.solves;
          Printf.printf
            "stage walls:       partition %.4f s, sample+project %.4f s, recombine %.4f s, \
             compress %.4f s\n"
            partition_wall hst.Hier_reduce.sample_wall_s hst.Hier_reduce.recombine_wall_s
            hst.Hier_reduce.compress_wall_s;
          Printf.printf "subdomain wall:    %s s\n"
            (String.concat " "
               (Array.to_list (Array.map (Printf.sprintf "%.4f") hst.Hier_reduce.sub_wall_s)))
        end;
        (rom, None, None)
    | M_fs ->
        let lo, hi = match band with Some b -> b | None -> (0.0, w_hi) in
        let bands = [ Freq_selective.band ~lo ~hi ] in
        of_pmtbr
          (if adaptive then
             Freq_selective.reduce_adaptive ?order ?tol ?workers sys ~bands ~count:samples
           else Freq_selective.reduce ?order ?tol ?workers sys ~bands ~count:samples)
    | M_multipoint ->
        if adaptive then no_adaptive "multipoint";
        let r =
          Multipoint.reduce ?workers sys (Sampling.spread_order pts)
            ~count:(max 1 (Option.value order ~default:10 / 2))
        in
        (r.Multipoint.rom, None, Some r.Multipoint.stats)
    | M_cross ->
        let r =
          if adaptive then Cross_gramian.reduce_adaptive ?order ?workers sys pts
          else Cross_gramian.reduce ?order ?workers sys pts
        in
        ( r.Cross_gramian.rom,
          consumed (Array.length pts) r.Cross_gramian.samples,
          Some r.Cross_gramian.stats )
    | M_correlated ->
        let inputs = correlated_inputs sys ~seed ~w_hi in
        let r =
          if adaptive then
            Input_correlated.reduce_adaptive ?order ?tol ~seed ?workers sys ~inputs ~points:pts
              ~max_draws:draws
          else
            Input_correlated.reduce ?order ?tol ~seed ?workers sys ~inputs ~points:pts ~draws
        in
        (r.Input_correlated.rom, consumed draws r.Input_correlated.samples,
         Some r.Input_correlated.stats)
    | M_prima ->
        if adaptive then no_adaptive "prima";
        if stats then no_stats "prima";
        ((Prima.reduce_to_order sys ~s0:(w_hi /. 20.0) ~order:(Option.value order ~default:10))
           .Prima.rom, None, None)
    | M_tbr ->
        if adaptive then no_adaptive "tbr";
        if stats then no_stats "tbr";
        ((Tbr.reduce_dss ?order ?tol sys).Tbr.rom, None, None)
    | M_tbr_lr ->
        if adaptive then no_adaptive "tbr-lr";
        let r = Tbr_lr.reduce ?order ?tol ?stop:(lyap_stop band) ?workers sys in
        let st = r.Tbr_lr.stats in
        if stats then begin
          Printf.printf "symbolic analyses: %d\n" st.Tbr_lr.symbolic;
          Printf.printf "refactorizations:  %d (ADI shifts: %d)\n" st.Tbr_lr.refactorizations
            (Array.length st.Tbr_lr.shifts);
          Printf.printf "shifted solves:    %d (%d RHS columns)\n" st.Tbr_lr.solves
            st.Tbr_lr.col_solves;
          Printf.printf "gramian columns:   %d ctrl / %d obs (converged: %b / %b)\n"
            st.Tbr_lr.ctrl.Lr_lyap.columns st.Tbr_lr.obs.Lr_lyap.columns
            st.Tbr_lr.ctrl.Lr_lyap.converged st.Tbr_lr.obs.Lr_lyap.converged;
          Printf.printf "wall time:         %.4f s\n" st.Tbr_lr.wall_s
        end;
        (r.Tbr_lr.rom, None, None)
    | M_tbr_passive ->
        if adaptive then no_adaptive "tbr-passive";
        let inductors = Pmtbr_circuit.Netlist.inductor_count nl in
        let r = Tbr_passive.reduce ?order ?tol ?stop:(lyap_stop band) ~inductors ?workers sys in
        let st = r.Tbr_passive.stats in
        if stats then begin
          Printf.printf "symbolic analyses: %d\n" st.Tbr_passive.symbolic;
          Printf.printf "refactorizations:  %d (ADI shifts: %d)\n"
            st.Tbr_passive.refactorizations
            (Array.length st.Tbr_passive.shifts);
          Printf.printf "shifted solves:    %d (%d RHS columns; one Gramian)\n"
            st.Tbr_passive.solves st.Tbr_passive.col_solves;
          Printf.printf "gramian columns:   %d (converged: %b)\n"
            st.Tbr_passive.gramian.Lr_lyap.columns st.Tbr_passive.gramian.Lr_lyap.converged;
          Printf.printf "wall time:         %.4f s\n" st.Tbr_passive.wall_s
        end;
        (r.Tbr_passive.rom, None, None)
    | M_two_step ->
        if adaptive then no_adaptive "two-step";
        if stats then no_stats "two-step";
        let q = Option.value order ~default:10 in
        ((Two_step.reduce sys ~s0:(w_hi /. 20.0) ~intermediate:(3 * q) ~order:q ()).Two_step.rom,
         None, None)
    | M_pod ->
        if adaptive then no_adaptive "pod";
        if stats then no_stats "pod";
        let rise = 10.0 /. w_hi in
        let u t =
          Array.init (Dss.inputs sys) (fun _ -> Float.min 1e-3 (Float.max 0.0 (1e-3 *. t /. rise)))
        in
        ((Time_sampled.reduce ?order ?tol sys ~u ~t1:(200.0 *. rise) ~dt:rise ~snapshots:150)
           .Time_sampled.rom, None, None)
  in
  Printf.printf "reduced: %d -> %d states\n" (Dss.order sys) (Dss.order rom);
  Option.iter
    (fun (n, offered) -> Printf.printf "samples consumed:  %d of %d offered\n" n offered)
    used;
  if stats then Option.iter print_stats st;
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

(* usage errors (bad flag combinations, partition > states, server-side
   failures) leave through Cmdliner's error channel instead of an
   uncaught exception *)
let run_reduce circuit spice size ports seed meth partition max_part_states interface_tol order
    tol samples band workers stats adaptive draws export =
  try
    Ok
      (run_reduce_inner circuit spice size ports seed meth partition max_part_states
         interface_tol order tol samples band workers stats adaptive draws export)
  with Failure msg -> Error msg

let reduce_cmd =
  let doc = "Reduce a circuit model and report the in-band error." in
  Cmd.v (Cmd.info "reduce" ~doc)
    Term.(
      term_result'
        (const run_reduce $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg
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

let rebuild_arg =
  Arg.(
    value
    & flag
    & info [ "rebuild" ]
        ~doc:
          "Use the from-scratch reference loop (every batch re-solves all consumed shifts) \
           instead of the incremental sample cache.  Results are bitwise-identical; only the \
           solve counters and wall time differ.")

let run_adaptive circuit spice size ports seed monitor order tol batch rebuild samples band
    workers =
  let nl, source = resolve ~circuit ~spice ~size ~ports ~seed in
  let sys = Dss.of_netlist nl in
  let w_hi = band_of ~circuit:source ~band ~fallback:1e10 in
  let pts =
    match band with
    | Some (lo, hi) when lo > 0.0 -> Sampling.points (Sampling.Bands [ (lo, hi) ]) ~count:samples
    | _ -> Sampling.points (Sampling.Uniform { w_max = w_hi }) ~count:samples
  in
  let workers = workers_opt workers in
  let result =
    match monitor with
    | Mon_svd -> Pmtbr.reduce_adaptive ~rebuild ?order ?tol ~batch ?workers sys pts
    | Mon_rrqr -> Pmtbr.reduce_adaptive_rrqr ~rebuild ?order ?tol ~batch ?workers sys pts
  in
  let st = result.Pmtbr.stats in
  Printf.printf "reduced: %d -> %d states\n" (Dss.order sys) (Dss.order result.Pmtbr.rom);
  Printf.printf "samples consumed:  %d of %d offered\n" result.Pmtbr.samples (Array.length pts);
  if rebuild then print_stats ~note:"from-scratch reference" st else print_stats st;
  Array.iteri
    (fun i w -> Printf.printf "batch %-2d wall:     %.4f s\n" (i + 1) w)
    st.Sample_cache.batch_wall_s;
  report_in_band ?workers sys result.Pmtbr.rom ~w_hi

let adaptive_cmd =
  let doc =
    "Reduce with on-the-fly order control and report the incremental-sampling counters."
  in
  Cmd.v (Cmd.info "adaptive" ~doc)
    Term.(
      const run_adaptive $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg
      $ monitor_arg $ order_arg $ tol_arg $ batch_arg $ rebuild_arg $ samples_arg $ band_arg
      $ workers_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let npoints_arg =
  Arg.(value & opt int 40 & info [ "points" ] ~docv:"N" ~doc:"Number of frequency points.")

let run_sweep circuit spice size ports seed npoints band workers =
  let nl, source = resolve ~circuit ~spice ~size ~ports ~seed in
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
    Term.(
      const run_sweep $ circuit_arg $ spice_arg $ size_arg $ ports_arg $ seed_arg $ npoints_arg
      $ band_arg $ workers_arg)

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let run_export circuit size ports seed output =
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
    Term.(const run_export $ circuit_arg $ size_arg $ ports_arg $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* serve / batch                                                       *)
(* ------------------------------------------------------------------ *)

module Sproto = Pmtbr_serve.Protocol
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
      job_workers = max 1 job_workers;
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
          ~doc:"Solver/dense-kernel domains used inside each job (results are invariant).")
  in
  let max_cost =
    Arg.(
      value
      & opt int 256
      & info [ "store-mb" ] ~docv:"MB" ~doc:"Approximate store budget in MiB (LRU-evicted).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ socket_arg $ serve_workers $ job_workers $ max_cost)

let serve_method_arg =
  let doc =
    Printf.sprintf "Reduction method served by the daemon (%s)."
      (String.concat ", " (List.map fst Sproto.meth_names))
  in
  Arg.(value & opt (enum Sproto.meth_names) Sproto.Pmtbr & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

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

let run_batch_inner socket ping server_stats shutdown circuit spice size ports seed meth
    partition max_part_states interface_tol band tol order samples repeat assert_warm export_out
    =
  (* --partition with the default method implies hier, mirroring reduce *)
  let meth =
    match (meth, partition) with Sproto.Pmtbr, Some _ -> Sproto.Hier | m, _ -> m
  in
  let partition =
    Option.map (function P_auto -> Sproto.Auto | P_k k -> Sproto.Parts k) partition
  in
  (* the budget only rides along when auto dissection asked for it — the
     protocol rejects max-part-states on a fixed-count job *)
  let max_part_states = if partition = Some Sproto.Auto then Some max_part_states else None in
  Sclient.with_connection socket (fun conn ->
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
          | Some b -> require_ok "bad band" (Sproto.validate_band b)
          | None -> failwith "--band LO:HI is required for batch jobs"
        in
        let job =
          Sproto.Reduce
            { Sproto.meth; band; tol; order; samples; partition; max_part_states;
              interface_tol; export = export_out <> None; netlist }
        in
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
  let run_batch socket ping server_stats shutdown circuit spice size ports seed meth partition
      max_part_states interface_tol band tol order samples repeat assert_warm export_out =
    try
      Ok
        (run_batch_inner socket ping server_stats shutdown circuit spice size ports seed meth
           partition max_part_states interface_tol band tol order samples repeat assert_warm
           export_out)
    with Failure msg -> Error msg
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      term_result'
        (const run_batch $ socket_arg $ ping $ stats $ shutdown $ circuit_arg $ spice_arg
        $ size_arg $ ports_arg $ seed_arg $ serve_method_arg $ partition_arg
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
