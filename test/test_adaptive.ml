(* Tests for incremental adaptive sampling: the Sample_cache contract
   (assemble == Zmat.build bitwise, one solve per shift, batch-boundary
   and worker-count invariance), the incremental == from-scratch
   equivalence of both adaptive loops, and regressions for the
   order-control bugfixes that rode along. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core
open Pmtbr_oracle

let mesh_system ~rows ~cols ~ports = Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())
let rc_line_sys () = Dss.of_netlist (Rc_line.generate ~sections:30 ())
let rc_line_band = 3e9

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* ------------------------------------------------------------------ *)
(* Sample_cache                                                        *)
(* ------------------------------------------------------------------ *)

(* The cache's weight-at-assembly design: assembling cached raw columns
   with a scale is bitwise-identical to building the weighted matrix from
   scratch over the scale-multiplied points. *)
let prop_assemble_matches_zmat =
  QCheck2.Test.make ~name:"cache assemble == Zmat.build (bitwise)" ~count:10
    QCheck2.Gen.(tup4 (int_range 3 6) (int_range 3 6) (int_range 3 10) (float_range 0.5 4.0))
    (fun (rows, cols, npts, scale) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let cache = Sample_cache.create ~workers:1 sys in
      Sample_cache.extend cache pts;
      let direct =
        Zmat.build ~workers:1 sys
          (Array.map (fun p -> { p with Sampling.weight = p.Sampling.weight *. scale }) pts)
      in
      bitwise_equal (Sample_cache.assemble cache ~scale) direct)

(* Batch boundaries leave no trace: extending in many small batches holds
   exactly the same state as one big extend. *)
let prop_extend_batch_invariant =
  QCheck2.Test.make ~name:"cache extension is batch-invariant (bitwise)" ~count:10
    QCheck2.Gen.(tup3 (int_range 3 6) (int_range 4 12) (int_range 1 5))
    (fun (dim, npts, batch) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let whole = Sample_cache.create ~workers:1 sys in
      Sample_cache.extend whole pts;
      let stepped = Sample_cache.create ~workers:1 sys in
      let consumed = ref 0 in
      while !consumed < npts do
        let k = min batch (npts - !consumed) in
        Sample_cache.extend stepped (Array.sub pts !consumed k);
        consumed := !consumed + k
      done;
      bitwise_equal (Sample_cache.assemble whole ~scale:1.0)
        (Sample_cache.assemble stepped ~scale:1.0)
      && bitwise_equal
           (Sample_cache.small_factor whole ~scale:1.0)
           (Sample_cache.small_factor stepped ~scale:1.0))

(* Worker count never changes the cached state (the engine's determinism
   contract carried through the cache). *)
let prop_cache_worker_invariant =
  QCheck2.Test.make ~name:"cache is worker-invariant (bitwise)" ~count:8
    QCheck2.Gen.(tup3 (int_range 3 5) (int_range 4 10) (int_range 2 4))
    (fun (dim, npts, workers) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:npts in
      let serial = Sample_cache.create ~workers:1 sys in
      let parallel = Sample_cache.create ~workers ~oversubscribe:true sys in
      Sample_cache.extend serial pts;
      Sample_cache.extend parallel pts;
      bitwise_equal (Sample_cache.assemble serial ~scale:1.0)
        (Sample_cache.assemble parallel ~scale:1.0))

let test_cache_counters () =
  let sys = mesh_system ~rows:4 ~cols:4 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:10 in
  let cache = Sample_cache.create ~workers:1 sys in
  Sample_cache.extend cache (Array.sub pts 0 6);
  Sample_cache.extend cache (Array.sub pts 6 4);
  Sample_cache.extend cache [||];
  let st = Sample_cache.stats cache in
  Alcotest.(check int) "each shift solved once" 10 st.Sample_cache.solves;
  Alcotest.(check int) "points" 10 st.Sample_cache.points;
  (* complex points: two realified columns per input *)
  Alcotest.(check int) "columns" (2 * 2 * 10) st.Sample_cache.columns;
  Alcotest.(check int) "empty extend is not a batch" 2 st.Sample_cache.batches;
  Alcotest.(check int) "one wall sample per batch" 2 (Array.length st.Sample_cache.batch_wall_s)

(* sigma(R D) from the small factor == sigma(ZW) of the assembly. *)
let test_small_factor_singular_values () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:8 in
  let cache = Sample_cache.create ~workers:1 sys in
  Sample_cache.extend cache pts;
  let s_small = Svd.values (Sample_cache.small_factor cache ~scale:2.0) in
  let s_full = Svd.values (Sample_cache.assemble cache ~scale:2.0) in
  let smax = Float.max s_full.(0) 1e-300 in
  Array.iteri
    (fun i s ->
      if i < Array.length s_full && Float.abs (s -. s_full.(i)) > 1e-10 *. smax then
        Alcotest.failf "sigma %d: small factor %g vs assembly %g" i s s_full.(i))
    s_small

(* ------------------------------------------------------------------ *)
(* Incremental adaptive == from-scratch adaptive                       *)
(* ------------------------------------------------------------------ *)

let same_result (a : Pmtbr.result) (b : Pmtbr.result) =
  a.Pmtbr.samples = b.Pmtbr.samples
  && a.Pmtbr.singular_values = b.Pmtbr.singular_values
  && bitwise_equal a.Pmtbr.basis b.Pmtbr.basis

let prop_incremental_equals_rebuild =
  QCheck2.Test.make ~name:"incremental adaptive == from-scratch (bitwise)" ~count:8
    QCheck2.Gen.(tup4 (int_range 3 5) (int_range 12 24) (int_range 2 6) (int_range 1 4))
    (fun (dim, npts, batch, workers) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:npts in
      let inc = Pmtbr.reduce_adaptive ~tol:1e-9 ~batch ~workers sys pts in
      let st_inc = inc.Pmtbr.stats in
      let reb =
        Pmtbr.reduce_adaptive ~rebuild:true ~tol:1e-9 ~batch ~workers:1 sys pts
      in
      let st_reb = reb.Pmtbr.stats in
      same_result inc reb
      (* the counter invariant: incremental solves each consumed shift
         once; the from-scratch baseline re-solves across batches *)
      && st_inc.Sample_cache.solves = st_inc.Sample_cache.points
      && st_reb.Sample_cache.solves >= st_inc.Sample_cache.solves)

let prop_incremental_equals_rebuild_rrqr =
  QCheck2.Test.make ~name:"incremental rrqr == from-scratch (bitwise)" ~count:6
    QCheck2.Gen.(tup3 (int_range 3 5) (int_range 12 24) (int_range 2 6))
    (fun (dim, npts, batch) ->
      let sys = mesh_system ~rows:dim ~cols:dim ~ports:2 in
      let pts = Sampling.points (Sampling.Log { w_min = 1e6; w_max = 1e10 }) ~count:npts in
      let inc = Pmtbr.reduce_adaptive_rrqr ~tol:1e-9 ~batch sys pts in
      let st_inc = inc.Pmtbr.stats in
      let reb = Pmtbr.reduce_adaptive_rrqr ~rebuild:true ~tol:1e-9 ~batch sys pts in
      same_result inc reb && st_inc.Sample_cache.solves = st_inc.Sample_cache.points)

let test_adaptive_worker_invariant () =
  let sys = mesh_system ~rows:5 ~cols:5 ~ports:2 in
  let pts = Sampling.points (Sampling.Uniform { w_max = 1e10 }) ~count:16 in
  let r1 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:1 sys pts in
  let r3 = Pmtbr.reduce_adaptive ~tol:1e-9 ~workers:3 sys pts in
  Alcotest.(check bool) "same result at any worker count" true (same_result r1 r3)

let test_adaptive_solves_once_on_early_stop () =
  (* an easy system stops well before the point budget; every consumed
     shift must still have been solved exactly once *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:64 in
  let r = Pmtbr.reduce_adaptive ~tol:1e-8 ~batch:8 sys pts in
  let st = r.Pmtbr.stats in
  Alcotest.(check bool) "stops early" true (r.Pmtbr.samples < 64);
  Alcotest.(check int) "solves == points consumed" r.Pmtbr.samples st.Sample_cache.solves;
  Alcotest.(check int) "points counter" r.Pmtbr.samples st.Sample_cache.points

(* ------------------------------------------------------------------ *)
(* Order-control bugfix regressions                                    *)
(* ------------------------------------------------------------------ *)

let test_explicit_order_wins () =
  (* a tail that the default tol = 1e-10 criterion would chop at 1 *)
  let sigma = [| 1.0; 1e-12; 1e-13; 1e-14; 1e-15 |] in
  Alcotest.(check int) "explicit order uncapped" 3 (Pmtbr.choose_order ~sigma ~order:3 ());
  Alcotest.(check int) "explicit tol still caps" 1
    (Pmtbr.choose_order ~sigma ~order:3 ~tol:1e-10 ());
  Alcotest.(check int) "order clamped to value count" 5
    (Pmtbr.choose_order ~sigma ~order:9 ());
  Alcotest.(check int) "tol alone unchanged" 1 (Pmtbr.choose_order ~sigma ())

let test_reduce_explicit_order_wins () =
  (* end-to-end: reduce ~order must not be silently shrunk by the default
     tail criterion (it may still drop directions below numerical noise) *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:24 in
  let r = Pmtbr.reduce ~order:8 sys pts in
  let sigma = r.Pmtbr.singular_values in
  let noise_rank =
    let smax = Float.max sigma.(0) 1e-300 in
    Array.fold_left (fun acc s -> if s > 1e-14 *. smax then acc + 1 else acc) 0 sigma
  in
  Alcotest.(check int) "basis columns" (min 8 noise_rank) r.Pmtbr.basis.Mat.cols

let test_adaptive_column_guard () =
  (* the Section V-B guard: at the stopping point the sample matrix must
     hold at least twice the model order in realified columns *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:64 in
  let r = Pmtbr.reduce_adaptive ~tol:1e-8 ~batch:4 sys pts in
  let st = r.Pmtbr.stats in
  let q = r.Pmtbr.basis.Mat.cols in
  Alcotest.(check bool)
    (Printf.sprintf "columns %d >= 2q = %d" st.Sample_cache.columns (2 * q))
    true
    (st.Sample_cache.columns >= 2 * q)

let test_rrqr_tail_check () =
  (* an order-2 truncation of the rc line leaves a tail far above 1e-12 in
     the normalised R-diagonal profile.  With an always-satisfied
     convergence tolerance the old leading-convergence-only rrqr loop
     stopped at the second batch regardless; the tail check must now push
     it through the full point set *)
  let sys = rc_line_sys () in
  let pts = Sampling.points (Sampling.Uniform { w_max = rc_line_band }) ~count:32 in
  let r = Pmtbr.reduce_adaptive_rrqr ~order:2 ~tol:1e-12 ~batch:8 ~converge_tol:1e9 sys pts in
  Alcotest.(check int) "tail never small: consumes all points" 32 r.Pmtbr.samples;
  (* same setup with a reachable tail: stops as soon as convergence allows *)
  let r = Pmtbr.reduce_adaptive_rrqr ~tol:1e-6 ~batch:8 ~converge_tol:1e9 sys pts in
  Alcotest.(check bool) "reachable tail still stops early" true (r.Pmtbr.samples < 32)

(* ------------------------------------------------------------------ *)
(* Sampling input-validation and band-count regressions                *)
(* ------------------------------------------------------------------ *)

let test_bands_exact_count () =
  (* remainders used to be dropped: 10 points over 3 bands yielded 9 *)
  let bands = Sampling.Bands [ (0.0, 1.0); (2.0, 3.0); (4.0, 5.0) ] in
  Alcotest.(check int) "10 over 3 bands" 10 (Array.length (Sampling.points bands ~count:10));
  Alcotest.(check int) "11 over 3 bands" 11 (Array.length (Sampling.points bands ~count:11));
  Alcotest.(check int) "divisible unchanged" 9 (Array.length (Sampling.points bands ~count:9));
  (* fewer points than bands: every band keeps one point *)
  Alcotest.(check int) "2 over 3 bands" 3 (Array.length (Sampling.points bands ~count:2));
  (* every band's interval is populated *)
  let pts = Sampling.points bands ~count:10 in
  List.iter
    (fun (lo, hi) ->
      let inside =
        Array.exists (fun p -> p.Sampling.s.Complex.im >= lo && p.Sampling.s.Complex.im <= hi) pts
      in
      if not inside then Alcotest.failf "band [%g, %g] got no points" lo hi)
    [ (0.0, 1.0); (2.0, 3.0); (4.0, 5.0) ]

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_sampling_validation () =
  expect_invalid_arg "count 0" (fun () ->
      Sampling.points (Sampling.Uniform { w_max = 1.0 }) ~count:0);
  expect_invalid_arg "empty bands" (fun () -> Sampling.points (Sampling.Bands []) ~count:4);
  expect_invalid_arg "inverted band" (fun () ->
      Sampling.points (Sampling.Bands [ (2.0, 1.0) ]) ~count:4);
  expect_invalid_arg "negative weighting" (fun () ->
      Sampling.reweight
        (fun _ -> -1.0)
        (Sampling.points (Sampling.Uniform { w_max = 1.0 }) ~count:3))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_assemble_matches_zmat;
      prop_extend_batch_invariant;
      prop_cache_worker_invariant;
      prop_incremental_equals_rebuild;
      prop_incremental_equals_rebuild_rrqr;
    ]

let () =
  Alcotest.run "pmtbr_adaptive"
    [
      ("properties", props);
      ( "cache",
        [
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "small factor sigma" `Quick test_small_factor_singular_values;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "worker invariant" `Quick test_adaptive_worker_invariant;
          Alcotest.test_case "solves once on early stop" `Quick
            test_adaptive_solves_once_on_early_stop;
          Alcotest.test_case "column guard" `Quick test_adaptive_column_guard;
          Alcotest.test_case "rrqr tail check" `Quick test_rrqr_tail_check;
        ] );
      ( "order-control",
        [
          Alcotest.test_case "explicit order wins" `Quick test_explicit_order_wins;
          Alcotest.test_case "reduce explicit order" `Quick test_reduce_explicit_order_wins;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "bands exact count" `Quick test_bands_exact_count;
          Alcotest.test_case "input validation" `Quick test_sampling_validation;
        ] );
    ]
