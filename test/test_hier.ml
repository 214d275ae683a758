(* Tests for the hierarchical (domain-decomposed) reduction path:
   partition structural invariants (disjoint cover, no surviving
   cross-part entries, faithful sub-netlist interiors), flat-vs-hier
   transfer agreement (untruncated hier is an exact congruence transform
   of the full model; truncated hier tracks flat reduction), and the
   bitwise worker-invariance contract of the recombined ROM — the same
   contract Shift_engine and Par_kernel are tested under. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core

let mesh ~rows ~cols ~ports = Rc_mesh.generate ~rows ~cols ~ports ()

let band_mesh = 1e10

let points count = Sampling.points (Sampling.Uniform { w_max = band_mesh }) ~count

(* ------------------------------------------------------------------ *)
(* Partition invariants                                                 *)
(* ------------------------------------------------------------------ *)

let check_cover nl parts =
  let pt = Partition.split ~parts nl in
  let sys = Dss.of_netlist nl in
  let n = Dss.order sys in
  Alcotest.(check int) "n recorded" n pt.Partition.n;
  let seen = Array.make n 0 in
  Array.iter (fun g -> seen.(g) <- seen.(g) + 1) pt.Partition.interface;
  Array.iter
    (fun (p : Partition.part) -> Array.iter (fun g -> seen.(g) <- seen.(g) + 1) p.Partition.states)
    pt.Partition.parts;
  Array.iteri
    (fun g c -> if c <> 1 then Alcotest.failf "state %d covered %d times" g c)
    seen;
  pt

let test_cover_and_sizes () =
  let nl = mesh ~rows:7 ~cols:9 ~ports:2 in
  let pt = check_cover nl 4 in
  if Partition.part_count pt < 2 then Alcotest.fail "expected at least 2 parts";
  let sizes = Partition.part_sizes pt in
  Array.iter (fun s -> if s <= 0 then Alcotest.fail "empty part survived") sizes;
  if Partition.interface_count pt <= 0 then Alcotest.fail "no interface on a connected mesh"

let test_single_part_no_interface () =
  let nl = mesh ~rows:5 ~cols:5 ~ports:1 in
  let pt = check_cover nl 1 in
  Alcotest.(check int) "one part" 1 (Partition.part_count pt);
  Alcotest.(check int) "empty interface" 0 (Partition.interface_count pt)

let test_bad_args () =
  let nl = mesh ~rows:3 ~cols:3 ~ports:1 in
  Alcotest.check_raises "parts < 1" (Invalid_argument "Partition.split: parts must be >= 1")
    (fun () -> ignore (Partition.split ~parts:0 nl))

(* the sub-netlist stamp must reproduce the interior block exactly:
   compare against the global stamp restricted to the part's states *)
let test_subnetlist_faithful () =
  let nl = mesh ~rows:6 ~cols:6 ~ports:2 in
  let pt = Partition.split ~parts:3 nl in
  let sys = Dss.of_netlist nl in
  let ge = Dss.e_dense sys and ga = Dss.a_dense sys in
  Array.iter
    (fun (p : Partition.part) ->
      let se = Dss.e_dense p.Partition.sys and sa = Dss.a_dense p.Partition.sys in
      let nk = Array.length p.Partition.states in
      for i = 0 to nk - 1 do
        for j = 0 to nk - 1 do
          let gi = p.Partition.states.(i) and gj = p.Partition.states.(j) in
          if Mat.get se i j <> Mat.get ge gi gj then
            Alcotest.failf "E interior (%d,%d) differs from global" i j;
          if Mat.get sa i j <> Mat.get ga gi gj then
            Alcotest.failf "A interior (%d,%d) differs from global" i j
        done
      done)
    pt.Partition.parts

(* ------------------------------------------------------------------ *)
(* Nested-dissection invariants                                         *)
(* ------------------------------------------------------------------ *)

let rec subtree_parts = function
  | Partition.Leaf { part; _ } -> [ part ]
  | Partition.Node { left; right; _ } -> subtree_parts left @ subtree_parts right

(* budget recursion: every leaf fits, the tree is really multi-level, and
   the per-level cut summary accounts for the whole interface *)
let test_auto_budget () =
  let nl = mesh ~rows:10 ~cols:10 ~ports:2 in
  let budget = 30 in
  let pt = Partition.split_auto ~max_states:budget nl in
  Array.iter
    (fun s -> if s > budget then Alcotest.failf "part of %d states exceeds budget %d" s budget)
    (Partition.part_sizes pt);
  if Partition.tree_depth pt < 2 then Alcotest.fail "expected a multi-level tree";
  let cuts = Partition.level_cuts pt in
  Alcotest.(check int) "levels = depth" (Partition.tree_depth pt) (Array.length cuts);
  let total = Array.fold_left (fun acc (_, s) -> acc + s) 0 cuts in
  Alcotest.(check int) "level cuts cover interface" (Partition.interface_count pt) total

let test_depth_cap () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:1 in
  let pt = Partition.split_auto ~max_states:1 ~depth_cap:2 nl in
  if Partition.tree_depth pt > 2 then
    Alcotest.failf "tree depth %d beyond cap 2" (Partition.tree_depth pt)

(* every Node's separator really separates: no E/A entry joins a state in
   the left subtree's interiors to one in the right's *)
let test_separator_separates () =
  let nl = mesh ~rows:9 ~cols:7 ~ports:2 in
  let pt = Partition.split_auto ~max_states:12 nl in
  let sys = Dss.of_netlist nl in
  let ge = Dss.e_dense sys and ga = Dss.a_dense sys in
  let states_of ps =
    List.concat_map (fun i -> Array.to_list pt.Partition.parts.(i).Partition.states) ps
  in
  let rec walk = function
    | Partition.Leaf _ -> ()
    | Partition.Node { left; right; _ } ->
        let ls = states_of (subtree_parts left) and rs = states_of (subtree_parts right) in
        List.iter
          (fun gi ->
            List.iter
              (fun gj ->
                if
                  Mat.get ge gi gj <> 0.0 || Mat.get ga gi gj <> 0.0
                  || Mat.get ge gj gi <> 0.0 || Mat.get ga gj gi <> 0.0
                then Alcotest.failf "entry (%d,%d) crosses a separator" gi gj)
              rs)
          ls;
        walk left;
        walk right
  in
  walk pt.Partition.tree

(* determinism of the tree and of each leaf's content address: two splits
   of the same netlist agree part-by-part on the canonical sub-netlist
   render (what the store hashes), and every coupling column of a part
   lands on one of its ancestor separators *)
let test_tree_stable_and_ancestors () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:2 in
  let render (p : Partition.part) =
    Spice_ir.render (Spice_ir.canonical (Spice_ir.of_netlist p.Partition.sub_netlist))
  in
  let pt1 = Partition.split_auto ~max_states:20 nl in
  let pt2 = Partition.split_auto ~max_states:20 nl in
  Alcotest.(check int) "same part count" (Partition.part_count pt1) (Partition.part_count pt2);
  Alcotest.(check int) "same depth" (Partition.tree_depth pt1) (Partition.tree_depth pt2);
  Array.iteri
    (fun i p1 ->
      Alcotest.(check string) "stable sub-netlist render" (render p1)
        (render pt2.Partition.parts.(i)))
    pt1.Partition.parts;
  let anc = Partition.leaf_ancestors pt1 in
  Alcotest.(check int) "ancestors per leaf" (Partition.part_count pt1) (Array.length anc);
  Array.iteri
    (fun i (p : Partition.part) ->
      let allowed = anc.(i) in
      let check_cols entries side =
        Array.iter
          (fun (r, c, _) ->
            let gl = pt1.Partition.interface.(if side then c else r) in
            if not (List.mem gl allowed) then
              Alcotest.failf "part %d couples to interface state %d outside its ancestors" i gl)
          entries
      in
      check_cols p.Partition.e_ig true;
      check_cols p.Partition.a_ig true;
      check_cols p.Partition.e_gi false;
      check_cols p.Partition.a_gi false)
    pt1.Partition.parts

(* Absolute pins of the dissection itself: the tree, the interface and
   every part's local state order, for a leaf-count and three budget
   goals on a strip and a square mesh.  The hier digests rest on these
   trees, so the dissection routine may move or be rewritten but must
   keep them bit for bit. *)
let pinned_trees =
  [
    ( "strip 8x320",
      mesh ~rows:8 ~cols:320 ~ports:4,
      [
        (`Parts 4, "594c9b27463318369b1f95d831bbf653");
        (`Budget 20, "4470efeb7bac5dab0ecc4a0e45c5743c");
        (`Budget 100, "80f995eaa19c028df130a40595b6a9db");
        (`Budget 700, "594c9b27463318369b1f95d831bbf653");
      ] );
    ( "mesh 12x12",
      mesh ~rows:12 ~cols:12 ~ports:4,
      [
        (`Parts 4, "62302246790faf4e0fb42f089185feff");
        (`Budget 20, "a0d8b0ac3cba2157c9824d90ac2ab69c");
        (`Budget 100, "06a8d393c00fbcfa95492be25b79102c");
        (`Budget 700, "ae45d23f03ef83a55c247b11d0ea497b");
      ] );
  ]

let test_pinned_trees () =
  List.iter
    (fun (name, nl, goals) ->
      List.iter
        (fun (goal, expected) ->
          let pt, label =
            match goal with
            | `Parts k -> (Partition.split ~parts:k nl, Printf.sprintf "parts %d" k)
            | `Budget b -> (Partition.split_auto ~max_states:b nl, Printf.sprintf "budget %d" b)
          in
          let states (p : Partition.part) = p.Partition.states in
          let pinned = (pt.Partition.tree, pt.Partition.interface, Array.map states pt.Partition.parts) in
          Alcotest.(check string) (name ^ ", " ^ label) expected
            (Digest.to_hex (Digest.string (Marshal.to_string pinned []))))
        goals)
    pinned_trees

(* ------------------------------------------------------------------ *)
(* Flat-vs-hier agreement                                               *)
(* ------------------------------------------------------------------ *)

let max_rel_err ref_sys apx_sys omegas =
  let ref_ = Freq.sweep ref_sys omegas in
  let apx = Freq.sweep apx_sys omegas in
  Freq.max_rel_error ref_ apx

let omegas_mesh = Array.init 9 (fun i -> 1e6 *. (10.0 ** (0.5 *. float_of_int i)))

(* untruncated subdomain bases: the recombination is an exact congruence
   transform, so the ports see the full model to roundoff *)
let test_untruncated_exact () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:2 in
  let full = Dss.of_netlist nl in
  let rom, st =
    Hier_reduce.reduce_partitioned ~order:10_000 (Partition.split ~parts:4 nl) (points 4)
  in
  Alcotest.(check int) "untruncated order = states" st.Hier_reduce.states st.Hier_reduce.order;
  let err = max_rel_err full rom omegas_mesh in
  if err > 1e-6 then Alcotest.failf "untruncated hier drifts from full model: %.3e" err

(* truncated: hier tracks the flat reduction within the shared tolerance *)
let test_truncated_tracks_flat () =
  let nl = mesh ~rows:9 ~cols:9 ~ports:3 in
  let full = Dss.of_netlist nl in
  let flat = (Pmtbr.reduce ~tol:1e-12 full (points 8)).Pmtbr.rom in
  let rom, _ =
    Hier_reduce.reduce_partitioned ~tol:1e-12 (Partition.split ~parts:3 nl) (points 8)
  in
  let e_flat = max_rel_err full flat omegas_mesh in
  let e_hier = max_rel_err full rom omegas_mesh in
  if e_hier > 1e-6 then Alcotest.failf "hier error %.3e above 1e-6 (flat %.3e)" e_hier e_flat

(* parts:1 with no ports dropped reduces to the flat sampled pipeline *)
let test_one_part_matches_flat_samples () =
  let nl = mesh ~rows:6 ~cols:6 ~ports:2 in
  let full = Dss.of_netlist nl in
  let rom, st =
    Hier_reduce.reduce_partitioned ~tol:1e-12 (Partition.split ~parts:1 nl) (points 6)
  in
  Alcotest.(check int) "no interface" 0 st.Hier_reduce.interface;
  let err = max_rel_err full rom omegas_mesh in
  if err > 1e-6 then Alcotest.failf "single-part hier drifts: %.3e" err

let rom_digest rom =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Dss.e_dense rom, Dss.a_dense rom, Dss.b_matrix rom, Dss.c_matrix rom)
          []))

(* ------------------------------------------------------------------ *)
(* Interface compression                                                *)
(* ------------------------------------------------------------------ *)

let test_interface_compression () =
  let nl = mesh ~rows:9 ~cols:9 ~ports:2 in
  let full = Dss.of_netlist nl in
  let pts = points 8 in
  let rom, st =
    Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-10
      (Partition.split ~parts:4 nl) pts
  in
  if st.Hier_reduce.interface_kept > st.Hier_reduce.interface then
    Alcotest.failf "kept %d > interface %d" st.Hier_reduce.interface_kept st.Hier_reduce.interface;
  Alcotest.(check int) "order accounts for kept interface" st.Hier_reduce.order
    (Array.fold_left ( + ) st.Hier_reduce.interface_kept st.Hier_reduce.sub_orders);
  let err = max_rel_err full rom omegas_mesh in
  if err > 1e-6 then Alcotest.failf "compressed hier error %.3e > 1e-6" err

(* a tolerance that keeps full rank must return the exact-interface model
   bitwise unchanged — the documented fallback *)
let test_compression_exact_fallback () =
  let nl = mesh ~rows:7 ~cols:7 ~ports:2 in
  let pts = points 6 in
  let rom0, st0 = Hier_reduce.reduce_partitioned ~tol:1e-12 (Partition.split ~parts:3 nl) pts in
  let rom1, st1 =
    Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-300
      (Partition.split ~parts:3 nl) pts
  in
  Alcotest.(check int) "full rank kept" st0.Hier_reduce.interface st1.Hier_reduce.interface_kept;
  Alcotest.(check string) "fallback is bitwise the exact-interface ROM" (rom_digest rom0)
    (rom_digest rom1)

(* ------------------------------------------------------------------ *)
(* Bitwise worker-invariance                                            *)
(* ------------------------------------------------------------------ *)

let test_worker_invariance () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:2 in
  let pts = points 6 in
  let digests =
    List.map
      (fun workers ->
        let rom, _ =
          Hier_reduce.reduce_partitioned ~tol:1e-10 ~interface_tol:1e-9 ~workers
            (Partition.split ~parts:4 nl) pts
        in
        rom_digest rom)
      [ 1; 2; 5 ]
  in
  match digests with
  | [ d1; d2; d3 ] ->
      Alcotest.(check string) "workers 1 == 2" d1 d2;
      Alcotest.(check string) "workers 1 == 5" d1 d3
  | _ -> assert false

(* A re-finish at a new order on warm part caches (what a daemon's hier
   re-order does) runs no part SVD: each part's cache keeps the
   decomposition its first finish built, and the model is bitwise the
   cold route's at the new order. *)
let test_warm_refinish_runs_no_svd () =
  let nl = mesh ~rows:12 ~cols:12 ~ports:2 in
  let pts = points 8 in
  let pt = Partition.split ~parts:4 nl in
  let caches = Array.map (fun part -> Hier_reduce.sample_part part pts) pt.Partition.parts in
  let finish order =
    let rom, _, _ =
      Hier_reduce.reduce_with_columns ~order ~workers:2 ~columns:(fun i _ -> caches.(i)) pt pts
    in
    rom
  in
  ignore (finish 8);
  let warm = finish 4 in
  Array.iteri
    (fun i cache ->
      Alcotest.(check int) (Printf.sprintf "part %d ran one SVD" i) 1
        (Sample_cache.stats cache).Sample_cache.svds)
    caches;
  let cold, _ = Hier_reduce.reduce_partitioned ~order:4 pt pts in
  Alcotest.(check string) "warm re-finish == cold route (bitwise)" (rom_digest cold)
    (rom_digest warm)

(* the two-phase recombination alone (project_part fanned over the pool,
   then the serial assembly) is bitwise worker-invariant given the same
   per-part bases *)
let test_recombine_invariance () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:2 in
  let pts = points 5 in
  let pt = Partition.split ~parts:4 nl in
  let bases =
    Array.map
      (fun part -> (Hier_reduce.reduce_part ~tol:1e-10 part pts).Hier_reduce.basis)
      pt.Partition.parts
  in
  let d1 = rom_digest (Hier_reduce.recombine ~workers:1 pt bases) in
  let d4 = rom_digest (Hier_reduce.recombine ~workers:4 pt bases) in
  Alcotest.(check string) "recombine workers 1 == 4" d1 d4

(* a [columns] callback that fails on several parts: whatever the pool
   size and however the parts were scheduled, [reduce_with_columns]
   re-raises the exception of the lowest-index failing part.  A failing
   part first sleeps a moment, so with several workers more than one
   failure is in flight at once. *)
exception Part_failed of int

let test_failure_order () =
  let nl = mesh ~rows:8 ~cols:8 ~ports:2 in
  let pts = points 4 in
  let pt = Partition.split ~parts:4 nl in
  Alcotest.(check int) "four parts" 4 (Partition.part_count pt);
  let columns failing i part =
    if List.mem i failing then begin
      Unix.sleepf 0.01;
      raise (Part_failed i)
    end
    else Hier_reduce.sample_part part pts
  in
  List.iter
    (fun failing ->
      let lowest = List.fold_left min max_int failing in
      List.iter
        (fun workers ->
          match
            Hier_reduce.reduce_with_columns ~tol:1e-10 ~workers ~columns:(columns failing) pt pts
          with
          | _ -> Alcotest.failf "workers %d: no exception surfaced" workers
          | exception Part_failed i ->
              Alcotest.(check int) (Printf.sprintf "workers %d surfaces part" workers) lowest i)
        [ 1; 2; 4 ])
    [ [ 3 ]; [ 1; 3 ]; [ 0; 2 ]; [ 1; 2; 3 ] ]

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                    *)
(* ------------------------------------------------------------------ *)

(* random mesh, any worker count, any valid partition count: hier agrees
   with the full model within tolerance, and the ROM digest is invariant
   under the worker count *)
let prop_hier_agrees_and_invariant =
  QCheck2.Test.make ~name:"hier agrees with flat and is worker-invariant (rc_mesh)" ~count:6
    QCheck2.Gen.(
      tup4 (int_range 4 8) (int_range 4 8) (int_range 1 5) (int_range 1 4))
    (fun (rows, cols, parts, workers) ->
      let nl = mesh ~rows ~cols ~ports:2 in
      let full = Dss.of_netlist nl in
      let pts = points 6 in
      let rom1, _ =
        Hier_reduce.reduce_partitioned ~tol:1e-12 ~workers:1 (Partition.split ~parts nl) pts
      in
      let romw, _ =
        Hier_reduce.reduce_partitioned ~tol:1e-12 ~workers (Partition.split ~parts nl) pts
      in
      if rom_digest rom1 <> rom_digest romw then
        QCheck2.Test.fail_report "ROM digest depends on worker count";
      let err = max_rel_err full rom1 omegas_mesh in
      if err > 1e-6 then
        QCheck2.Test.fail_reportf "hier error %.3e > 1e-6 (rows %d cols %d parts %d)" err rows
          cols parts;
      true)

let prop_substrate_agrees =
  QCheck2.Test.make ~name:"hier agrees with full model (substrate)" ~count:4
    QCheck2.Gen.(tup3 (int_range 20 40) (int_range 2 4) (int_range 0 999))
    (fun (internal, parts, seed) ->
      let nl = Substrate.generate ~ports:3 ~internal ~seed () in
      let full = Dss.of_netlist nl in
      let w0 = Substrate.corner_frequency () in
      let pts = Sampling.points (Sampling.Uniform { w_max = 4.0 *. w0 }) ~count:8 in
      let omegas = Array.init 7 (fun i -> w0 *. (0.25 +. (0.5 *. float_of_int i))) in
      let rom, _ = Hier_reduce.reduce_partitioned ~tol:1e-12 (Partition.split ~parts nl) pts in
      let err = max_rel_err full rom omegas in
      if err > 1e-6 then
        QCheck2.Test.fail_reportf "substrate hier error %.3e > 1e-6 (internal %d parts %d)" err
          internal parts;
      true)

(* the full new pipeline at random shapes: budget-driven dissection keeps
   every part within budget, the interface-compressed ROM still agrees
   with the full model, and the digest ignores the worker count *)
let prop_auto_compressed =
  QCheck2.Test.make
    ~name:"auto-partitioned, interface-compressed hier agrees and is worker-invariant" ~count:4
    QCheck2.Gen.(tup4 (int_range 5 8) (int_range 5 8) (int_range 8 24) (int_range 2 4))
    (fun (rows, cols, budget, workers) ->
      let nl = mesh ~rows ~cols ~ports:2 in
      let full = Dss.of_netlist nl in
      let pts = points 6 in
      Array.iter
        (fun s ->
          if s > budget then QCheck2.Test.fail_reportf "part of %d states > budget %d" s budget)
        (Partition.part_sizes (Partition.split_auto ~max_states:budget nl));
      let rom1, st =
        Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-9 ~workers:1
          (Partition.split_auto ~max_states:budget nl) pts
      in
      let romw, _ =
        Hier_reduce.reduce_partitioned ~tol:1e-12 ~interface_tol:1e-9 ~workers
          (Partition.split_auto ~max_states:budget nl) pts
      in
      if rom_digest rom1 <> rom_digest romw then
        QCheck2.Test.fail_report "compressed ROM digest depends on worker count";
      if st.Hier_reduce.interface_kept > st.Hier_reduce.interface then
        QCheck2.Test.fail_report "compression grew the interface";
      let err = max_rel_err full rom1 omegas_mesh in
      if err > 1e-6 then
        QCheck2.Test.fail_reportf "compressed hier error %.3e > 1e-6 (rows %d cols %d budget %d)"
          err rows cols budget;
      true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hier_agrees_and_invariant; prop_substrate_agrees; prop_auto_compressed ]

let () =
  Alcotest.run "pmtbr_hier"
    [
      ( "partition",
        [
          Alcotest.test_case "cover and sizes" `Quick test_cover_and_sizes;
          Alcotest.test_case "single part" `Quick test_single_part_no_interface;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          Alcotest.test_case "sub-netlist faithful" `Quick test_subnetlist_faithful;
        ] );
      ( "dissection",
        [
          Alcotest.test_case "auto budget" `Quick test_auto_budget;
          Alcotest.test_case "depth cap" `Quick test_depth_cap;
          Alcotest.test_case "separator separates" `Quick test_separator_separates;
          Alcotest.test_case "tree stable, ancestors cover couplings" `Quick
            test_tree_stable_and_ancestors;
          Alcotest.test_case "pinned trees" `Quick test_pinned_trees;
        ] );
      ( "compression",
        [
          Alcotest.test_case "interface compression" `Quick test_interface_compression;
          Alcotest.test_case "exact fallback" `Quick test_compression_exact_fallback;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "untruncated exact" `Quick test_untruncated_exact;
          Alcotest.test_case "truncated tracks flat" `Quick test_truncated_tracks_flat;
          Alcotest.test_case "one part" `Quick test_one_part_matches_flat_samples;
        ] );
      ( "contract",
        [
          Alcotest.test_case "worker invariance" `Quick test_worker_invariance;
          Alcotest.test_case "recombine invariance" `Quick test_recombine_invariance;
          Alcotest.test_case "failure order" `Quick test_failure_order;
          Alcotest.test_case "warm re-finish runs no SVD" `Quick test_warm_refinish_runs_no_svd;
        ] );
      ("properties", props);
    ]
