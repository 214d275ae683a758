(* Wall-clock benchmark of the hierarchical domain-decomposed reduction
   path (nested dissection -> per-subdomain PMTBR -> parallel two-phase
   recombination -> interface compression) against the flat sampled
   pipeline.

   Three cases, emitted to BENCH_hier.json (under _build/bench-smoke/
   with --smoke):

   - agreement (always runs, gates asserted): on a mid-size mesh both
     paths must match the full model's port transfer within 1e-6, and the
     recombined (and interface-compressed) ROM must be bitwise
     worker-invariant;
   - scale: a >= 100k-element substrate timed flat vs hierarchical with
     per-stage walls (partition / sample+project / recombine / compress).
     Asserted gates: interface compression halves the kept interface
     states at <= 1e-6 port-transfer drift vs flat, and the serial
     recombination epilogue never ranks among the top-two stage walls.
     The >= 2x speedup gate is enforced only with >= 4 real workers (the
     documented skip on smaller hosts — subdomain fan-out cannot beat a
     flat sweep without hardware parallelism);
   - over-capacity: a network whose single global factorization exceeds
     the stated per-factorization budget, so the flat path is out of
     reach by policy while the budget-driven recursive dissection
     (Partition.split_auto, largest factorization = one subdomain
     interior <= the budget) completes.

   Run from the repo root:

     dune exec --profile release bench/hier_bench.exe  # full
     dune exec bench/hier_bench.exe -- --smoke        # CI: small cases
     dune exec bench/hier_bench.exe -- --workers 4 --assert-multicore *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

let now () = Unix.gettimeofday ()

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let assert_multicore = Array.exists (fun a -> a = "--assert-multicore") Sys.argv

let arg_int name default =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then default
    else if Sys.argv.(i) = name then int_of_string Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let workers = arg_int "--workers" 4

let element_count nl =
  let r, c, l, m = Pmtbr_circuit.Netlist.stats nl in
  r + c + l + m

let rom_digest rom =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Dss.e_dense rom, Dss.a_dense rom, Dss.b_matrix rom, Dss.c_matrix rom)
          []))

let max_rel_err ref_sys apx_sys omegas =
  Freq.max_rel_error (Freq.sweep ref_sys omegas) (Freq.sweep apx_sys omegas)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Case 1: agreement + worker invariance (the correctness gates)        *)
(* ------------------------------------------------------------------ *)

type agreement = {
  a_name : string;
  a_states : int;
  a_flat_err : float;
  a_hier_err : float;
  a_invariant : bool;
}

let agreement_case () =
  let rows = if smoke then 8 else 12 in
  let nl = Pmtbr_circuit.Rc_mesh.generate ~rows ~cols:rows ~ports:3 () in
  let sys = Dss.of_netlist nl in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:8 in
  let omegas = Array.init 9 (fun i -> 1e6 *. (10.0 ** (0.5 *. float_of_int i))) in
  let flat = (Pmtbr.reduce ~tol:1e-12 sys pts).Pmtbr.rom in
  let pt = Partition.split ~parts:4 nl in
  let hier1, _ = Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-8 ~workers:1 pt pts in
  let hierw, _ =
    Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-8 ~workers:(max 2 workers) pt pts
  in
  let invariant = rom_digest hier1 = rom_digest hierw in
  if not invariant then begin
    Printf.eprintf "[hier_bench] FAIL: recombined ROM depends on the worker count\n%!";
    exit 1
  end;
  let flat_err = max_rel_err sys flat omegas in
  let hier_err = max_rel_err sys hier1 omegas in
  Printf.eprintf
    "[hier_bench] agreement: mesh %dx%d, flat err %.3e, hier err %.3e, worker-invariant\n%!"
    rows rows flat_err hier_err;
  if hier_err > 1e-6 then begin
    Printf.eprintf "[hier_bench] FAIL: hier port-transfer error %.3e > 1e-6\n%!" hier_err;
    exit 1
  end;
  {
    a_name = Printf.sprintf "rc-mesh-%dx%d" rows rows;
    a_states = Dss.order sys;
    a_flat_err = flat_err;
    a_hier_err = hier_err;
    a_invariant = invariant;
  }

(* ------------------------------------------------------------------ *)
(* Case 2: scale — flat vs hierarchical wall clock                      *)
(* ------------------------------------------------------------------ *)

type scale = {
  s_name : string;
  s_states : int;
  s_elements : int;
  s_parts : int;
  s_depth : int;
  s_interface : int;
  s_interface_kept : int;
  s_actual_workers : int;
  s_flat_wall_s : float;
  s_hier_wall_s : float;
  s_partition_wall_s : float;
  s_sample_wall_s : float;
  s_recombine_wall_s : float;
  s_compress_wall_s : float;
  s_speedup : float;
  s_rom_diff : float;
  s_gate : string;
}

(* the interface-compression quadrature-tail tolerance for the scale
   case: the sigma tail it drops sits orders of magnitude above the port
   drift it causes (measured below against the 1e-6 gate), and it is what
   pushes the kept interface under half of the assembled cut states *)
let scale_interface_tol = 2e-3

let scale_case () =
  (* An elongated mesh: level-set bisection cuts across the short
     dimension, so the interface (and every part's coupling-column
     count) stays at ~rows states per cut while the substrate scales
     along the long axis.  64 ports is the regime the hierarchy is for —
     the flat path pays its multi-column solves and its sample-matrix
     SVD (points x 2 x 64 columns) on the whole mesh, while each part
     sees only its local ports plus a thin exact coupling block.
     Measured serially on the full case the hierarchy is already ~3.5x
     the flat path; real workers stack the per-part walls on top. *)
  let rows, cols, ports, n_pts =
    if smoke then (4, 48, 4, 4) else (8, 6400, 64, 8)
  in
  let parts = if smoke then 2 else 4 in
  let nl = Pmtbr_circuit.Rc_mesh.generate ~rows ~cols ~ports () in
  let elements = element_count nl in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:n_pts in
  Printf.eprintf "[hier_bench] scale: mesh %dx%d, %d ports (%d elements), %d points\n%!" rows
    cols ports elements (Array.length pts);
  let sys, stamp_s = time (fun () -> Dss.of_netlist nl) in
  let flat_rom, flat_s = time (fun () -> (Pmtbr.reduce ~tol:1e-10 sys pts).Pmtbr.rom) in
  Printf.eprintf "[hier_bench]   flat: %.3f s (+ %.3f s stamp), order %d\n%!" flat_s stamp_s
    (Dss.order flat_rom);
  let (partition_s, (hier_rom, st)), hier_s =
    time (fun () ->
        let pt, partition_s = time (fun () -> Partition.split ~parts nl) in
        ( partition_s,
          Hier_reduce.reduce_partitioned ~tol:1e-10 ~interface_tol:scale_interface_tol ~workers
            pt pts ))
  in
  let actual = st.Hier_reduce.pool.Par_kernel.workers in
  let speedup = flat_s /. Float.max hier_s 1e-9 in
  Printf.eprintf
    "[hier_bench]   hier: %.3f s at %d worker(s) [pool %d], order %d (interface %d -> %d): \
     %.2fx\n%!"
    hier_s workers actual (Dss.order hier_rom) st.Hier_reduce.interface
    st.Hier_reduce.interface_kept speedup;
  Printf.eprintf
    "[hier_bench]   stage walls: partition %.3f s, sample+project %.3f s, recombine %.4f s, \
     compress %.3f s\n%!"
    partition_s st.Hier_reduce.pool.Par_kernel.wall_s st.Hier_reduce.recombine_wall_s
    st.Hier_reduce.compress_wall_s;
  if (not smoke) && 2 * st.Hier_reduce.interface_kept > st.Hier_reduce.interface then begin
    Printf.eprintf "[hier_bench] FAIL: interface kept %d > half of %d states\n%!"
      st.Hier_reduce.interface_kept st.Hier_reduce.interface;
    exit 1
  end;
  (* the serial recombination epilogue must never rank among the top-two
     stage walls — that is what the two-phase split buys *)
  (if not smoke then
     let walls =
       List.sort (fun a b -> compare b a)
         [
           partition_s; st.Hier_reduce.pool.Par_kernel.wall_s;
           st.Hier_reduce.recombine_wall_s; st.Hier_reduce.compress_wall_s;
         ]
     in
     match walls with
     | first :: second :: _ when st.Hier_reduce.recombine_wall_s >= Float.min first second ->
         Printf.eprintf
           "[hier_bench] FAIL: serial recombination (%.4f s) ranks in the top-two stage walls\n%!"
           st.Hier_reduce.recombine_wall_s;
         exit 1
     | _ -> ());
  (* both ROMs are small relative to the mesh: compare their port
     transfers directly (a few points — each is a dense solve at the
     ROM orders) *)
  let omegas = Array.init 5 (fun i -> 1e6 *. (10.0 ** float_of_int i)) in
  let rom_diff = max_rel_err flat_rom hier_rom omegas in
  Printf.eprintf "[hier_bench]   flat-vs-hier ROM transfer diff %.3e\n%!" rom_diff;
  if rom_diff > 1e-6 then begin
    Printf.eprintf "[hier_bench] FAIL: scale flat-vs-hier transfer diff %.3e > 1e-6\n%!" rom_diff;
    exit 1
  end;
  let gate =
    if smoke then "skipped (smoke)"
    else if Util.enforce_multicore ~bench:"hier_bench" ~gate:">= 2x flat at >= 4 workers" ~need:4
            && actual >= 4
    then begin
      if speedup < 2.0 then begin
        Printf.eprintf "[hier_bench] FAIL: scale speedup %.2fx < 2x at %d workers\n%!" speedup
          actual;
        exit 1
      end;
      "enforced"
    end
    else "skipped (host has too few cores)"
  in
  {
    s_name = Printf.sprintf "rc-mesh-%dx%d-%dport" rows cols ports;
    s_states = Dss.order sys;
    s_elements = elements;
    s_parts = st.Hier_reduce.parts;
    s_depth = st.Hier_reduce.depth;
    s_interface = st.Hier_reduce.interface;
    s_interface_kept = st.Hier_reduce.interface_kept;
    s_actual_workers = actual;
    s_flat_wall_s = flat_s;
    s_hier_wall_s = hier_s;
    s_partition_wall_s = partition_s;
    s_sample_wall_s = st.Hier_reduce.pool.Par_kernel.wall_s;
    s_recombine_wall_s = st.Hier_reduce.recombine_wall_s;
    s_compress_wall_s = st.Hier_reduce.compress_wall_s;
    s_speedup = speedup;
    s_rom_diff = rom_diff;
    s_gate = gate;
  }

(* ------------------------------------------------------------------ *)
(* Case 3: over-capacity — flat out of budget, hier completes           *)
(* ------------------------------------------------------------------ *)

(* Policy budget: no single sparse factorization may span more than this
   many states (the stand-in for a memory ceiling).  The flat path needs
   one global factorization; the hierarchical path's largest is one
   subdomain interior. *)
let factor_budget = 20_000

type capacity = {
  c_name : string;
  c_states : int;
  c_elements : int;
  c_parts : int;
  c_depth : int;
  c_max_part : int;
  c_hier_wall_s : float;
  c_order : int;
  c_completed : bool;
}

let capacity_case () =
  let rows, cols, ports, n_pts =
    if smoke then (4, 96, 4, 4) else (8, 12800, 8, 6)
  in
  let budget = if smoke then 100 else factor_budget in
  let nl = Pmtbr_circuit.Rc_mesh.generate ~rows ~cols ~ports () in
  let states = Pmtbr_circuit.Netlist.node_count nl in
  let elements = element_count nl in
  if not smoke && states <= factor_budget then failwith "capacity case too small for the budget";
  Printf.eprintf
    "[hier_bench] over-capacity: mesh %dx%d (%d states > budget %d): flat path skipped, \
     recursing to the budget\n%!"
    rows cols states budget;
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:n_pts in
  let (pt, (rom, st)), hier_s =
    time (fun () ->
        let pt = Partition.split_auto ~max_states:budget nl in
        (pt, Hier_reduce.reduce_partitioned ~tol:1e-10 ~workers pt pts))
  in
  let max_part = Array.fold_left max 0 (Partition.part_sizes pt) in
  if max_part > budget then begin
    Printf.eprintf "[hier_bench] FAIL: largest subdomain %d exceeds the budget %d\n%!" max_part
      budget;
    exit 1
  end;
  if Partition.tree_depth pt < 2 then begin
    Printf.eprintf "[hier_bench] FAIL: budget recursion stopped at depth %d\n%!"
      (Partition.tree_depth pt);
    exit 1
  end;
  (* completion check: the recombined ROM answers a port sweep finitely *)
  let omegas = Array.init 5 (fun i -> 1e7 *. (10.0 ** float_of_int i)) in
  let sweep = Freq.sweep rom omegas in
  let finite_mat (m : Mat.t) = Array.for_all Float.is_finite m.Mat.data in
  let finite =
    Array.for_all (fun cm -> finite_mat (Cmat.re cm) && finite_mat (Cmat.im cm)) sweep
  in
  if not finite then begin
    Printf.eprintf "[hier_bench] FAIL: over-capacity ROM sweep is not finite\n%!";
    exit 1
  end;
  Printf.eprintf
    "[hier_bench]   hier completed: %.3f s, order %d, %d parts at depth %d (largest \
     factorization %d of %d states)\n%!"
    hier_s (Dss.order rom) st.Hier_reduce.parts st.Hier_reduce.depth max_part states;
  {
    c_name = Printf.sprintf "rc-mesh-%dx%d-%dport" rows cols ports;
    c_states = states;
    c_elements = elements;
    c_parts = st.Hier_reduce.parts;
    c_depth = st.Hier_reduce.depth;
    c_max_part = max_part;
    c_hier_wall_s = hier_s;
    c_order = Dss.order rom;
    c_completed = true;
  }

(* ------------------------------------------------------------------ *)

let json_of a s c =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"agreement\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"name\": %S,\n" a.a_name);
  Buffer.add_string buf (Printf.sprintf "    \"states\": %d,\n" a.a_states);
  Buffer.add_string buf (Printf.sprintf "    \"flat_err\": %.3e,\n" a.a_flat_err);
  Buffer.add_string buf (Printf.sprintf "    \"hier_err\": %.3e,\n" a.a_hier_err);
  Buffer.add_string buf "    \"gate\": \"hier_err <= 1e-6 (asserted)\",\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"worker_invariant\": %b\n" a.a_invariant);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"scale\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"name\": %S,\n" s.s_name);
  Buffer.add_string buf (Printf.sprintf "    \"states\": %d,\n" s.s_states);
  Buffer.add_string buf (Printf.sprintf "    \"elements\": %d,\n" s.s_elements);
  Buffer.add_string buf (Printf.sprintf "    \"parts\": %d,\n" s.s_parts);
  Buffer.add_string buf (Printf.sprintf "    \"tree_depth\": %d,\n" s.s_depth);
  Buffer.add_string buf
    (Printf.sprintf "    \"interface_states_before\": %d,\n" s.s_interface);
  Buffer.add_string buf
    (Printf.sprintf "    \"interface_states_after\": %d,\n" s.s_interface_kept);
  Buffer.add_string buf
    (Printf.sprintf "    \"interface_tol\": %.1e,\n" scale_interface_tol);
  Buffer.add_string buf
    "    \"interface_gate\": \"after <= 0.5x before at rom_diff <= 1e-6 (asserted)\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"workers_requested\": %d,\n" workers);
  Buffer.add_string buf (Printf.sprintf "    \"actual_workers\": %d,\n" s.s_actual_workers);
  Buffer.add_string buf (Printf.sprintf "    \"flat_wall_s\": %.6f,\n" s.s_flat_wall_s);
  Buffer.add_string buf (Printf.sprintf "    \"hier_wall_s\": %.6f,\n" s.s_hier_wall_s);
  Buffer.add_string buf "    \"stage_walls_s\": {\n";
  Buffer.add_string buf (Printf.sprintf "      \"partition\": %.6f,\n" s.s_partition_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"sample_project\": %.6f,\n" s.s_sample_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"recombine\": %.6f,\n" s.s_recombine_wall_s);
  Buffer.add_string buf (Printf.sprintf "      \"compress\": %.6f\n" s.s_compress_wall_s);
  Buffer.add_string buf "    },\n";
  Buffer.add_string buf
    "    \"recombine_gate\": \"serial recombine outside the top-two stage walls (asserted)\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"speedup_vs_flat\": %.3f,\n" s.s_speedup);
  Buffer.add_string buf (Printf.sprintf "    \"flat_vs_hier_rom_diff\": %.3e,\n" s.s_rom_diff);
  Buffer.add_string buf (Printf.sprintf "    \"speedup_gate\": %S\n" s.s_gate);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"over_capacity\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"name\": %S,\n" c.c_name);
  Buffer.add_string buf (Printf.sprintf "    \"states\": %d,\n" c.c_states);
  Buffer.add_string buf (Printf.sprintf "    \"elements\": %d,\n" c.c_elements);
  Buffer.add_string buf (Printf.sprintf "    \"factor_budget_states\": %d,\n" factor_budget);
  Buffer.add_string buf
    "    \"flat\": \"skipped: one global factorization exceeds the budget\",\n";
  Buffer.add_string buf "    \"partition\": \"auto (recursive, budget-driven)\",\n";
  Buffer.add_string buf (Printf.sprintf "    \"parts\": %d,\n" c.c_parts);
  Buffer.add_string buf (Printf.sprintf "    \"tree_depth\": %d,\n" c.c_depth);
  Buffer.add_string buf (Printf.sprintf "    \"max_part_states\": %d,\n" c.c_max_part);
  Buffer.add_string buf (Printf.sprintf "    \"hier_wall_s\": %.6f,\n" c.c_hier_wall_s);
  Buffer.add_string buf (Printf.sprintf "    \"order\": %d,\n" c.c_order);
  Buffer.add_string buf (Printf.sprintf "    \"completed\": %b\n" c.c_completed);
  Buffer.add_string buf "  }\n"

let () =
  if assert_multicore && Domain.recommended_domain_count () <= 1 then begin
    (* satellite contract: on a multicore host this flag turns the skip
       into a hard failure; on a single-core host the skip stands *)
    Printf.eprintf
      "[hier_bench] single-core host (recommended_domain_count = 1): multicore assertions \
       are documented skips\n%!"
  end;
  let a = agreement_case () in
  let s = scale_case () in
  let c = capacity_case () in
  let json = json_of a s c in
  Util.write_json ~smoke ~file:"BENCH_hier.json" json;
  if assert_multicore && Domain.recommended_domain_count () > 1 && s.s_actual_workers <= 1
  then begin
    Printf.eprintf "[hier_bench] FAIL: multicore host but the pool collapsed to 1 worker\n%!";
    exit 1
  end;
  Printf.eprintf "[hier_bench] OK\n%!"
