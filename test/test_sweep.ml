(* Tests for the two-tier frequency-sweep engine (Sweep_engine / Freq):
   the bitwise worker-invariance contract (a sweep is a pure function of
   (plan, grid) — never of the worker count, chunk size or scheduling,
   and equals a serial map of the per-point [eval] through the same
   plan), agreement of the replay tier with the naive fresh-factorisation
   [Freq.eval] to the replay roundoff scale, agreement of the Hessenberg
   ROM tier with the dense-LU reference within 1e-12 relative, streaming
   error folds equal to the array-based metrics, and the invalid_arg
   guards that replaced the release-stripped asserts. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core

let mesh_system ~rows ~cols ~ports = Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let bitwise_equal (a : Cmat.t) (b : Cmat.t) =
  a.Cmat.rows = b.Cmat.rows && a.Cmat.cols = b.Cmat.cols && a.Cmat.data = b.Cmat.data

let sweeps_bitwise_equal a b =
  Array.length a = Array.length b && Array.for_all2 bitwise_equal a b

(* worst entrywise |a - b| over a sweep, relative to the largest |a| *)
let sweep_rel_diff (a : Cmat.t array) (b : Cmat.t array) =
  let scale =
    Float.max 1e-300 (Array.fold_left (fun acc h -> Float.max acc (Cmat.max_abs h)) 0.0 a)
  in
  Freq.max_abs_error a b /. scale

let grid ~w_max ~npts = Vec.linspace (w_max /. 50.0) w_max npts

(* ------------------------------------------------------------------ *)
(* Determinism: the contract CI relies on                              *)
(* ------------------------------------------------------------------ *)

(* One plan, shared by every run: any worker count and chunk size must
   reproduce the serial sweep bit for bit.  [oversubscribe] forces real
   domain spawns even on a single-core machine. *)
let prop_worker_invariance =
  QCheck2.Test.make ~name:"sweep: parallel == serial (bitwise, sparse tier)" ~count:10
    QCheck2.Gen.(
      tup6 (int_range 3 6) (int_range 3 6) (int_range 1 3) (int_range 3 12) (int_range 2 4)
        (int_range 1 3))
    (fun (rows, cols, ports, npts, workers, chunk) ->
      let sys = mesh_system ~rows ~cols ~ports in
      let om = grid ~w_max:1e10 ~npts in
      let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = om.(0) } sys in
      let serial, _ = Sweep_engine.sweep ~workers:1 plan om in
      let par, _ = Sweep_engine.sweep ~workers ~oversubscribe:true ~chunk plan om in
      sweeps_bitwise_equal serial par)

(* The engine sweep at any worker count is exactly the serial map of the
   per-point evaluator through the same plan. *)
let prop_sweep_equals_eval_map =
  QCheck2.Test.make ~name:"sweep == Array.map eval (bitwise, any workers)" ~count:10
    QCheck2.Gen.(tup4 (int_range 3 6) (int_range 3 6) (int_range 3 10) (int_range 1 4))
    (fun (rows, cols, npts, workers) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let om = grid ~w_max:1e10 ~npts in
      let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = om.(0) } sys in
      let swept, _ = Sweep_engine.sweep ~workers ~oversubscribe:true plan om in
      sweeps_bitwise_equal swept (Array.map (Sweep_engine.eval_jw plan) om))

(* Freq.sweep is the engine with the first grid point as template — and
   therefore itself worker-invariant. *)
let prop_freq_sweep_worker_invariant =
  QCheck2.Test.make ~name:"Freq.sweep: worker-invariant (bitwise)" ~count:8
    QCheck2.Gen.(tup3 (int_range 3 5) (int_range 3 5) (int_range 2 4))
    (fun (rows, cols, workers) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let om = grid ~w_max:1e10 ~npts:7 in
      sweeps_bitwise_equal (Freq.sweep ~workers:1 sys om) (Freq.sweep ~workers sys om))

(* The Hessenberg tier must obey the same contract. *)
let prop_worker_invariance_dense =
  QCheck2.Test.make ~name:"sweep: parallel == serial (bitwise, Hessenberg tier)" ~count:10
    QCheck2.Gen.(tup4 (int_range 2 14) (int_range 3 40) (int_range 2 4) (int_range 0 999))
    (fun (n, npts, workers, seed) ->
      let a = Mat.add (Mat.random ~seed n n) (Mat.scale (-3.0) (Mat.identity n)) in
      let b = Mat.random ~seed:(seed + 1) n 2 and c = Mat.random ~seed:(seed + 2) 2 n in
      let sys = Dss.of_standard ~a ~b ~c in
      let om = grid ~w_max:10.0 ~npts in
      let plan = Sweep_engine.prepare sys in
      let serial, _ = Sweep_engine.sweep ~workers:1 plan om in
      let par, _ = Sweep_engine.sweep ~workers ~oversubscribe:true ~chunk:3 plan om in
      sweeps_bitwise_equal serial par)

(* ------------------------------------------------------------------ *)
(* Accuracy: replay vs naive, Hessenberg vs dense LU                   *)
(* ------------------------------------------------------------------ *)

(* Replay tier vs the naive path (a fresh pivoting factorisation at
   every point): same numbers up to replay roundoff at the matrix scale —
   the same 1e-9 contract the sampling engine pins against its one-shot
   legacy path. *)
let prop_engine_matches_naive =
  QCheck2.Test.make ~name:"sparse engine matches naive Freq.eval (<= 1e-9 rel)" ~count:8
    QCheck2.Gen.(tup3 (int_range 3 6) (int_range 3 6) (int_range 3 10))
    (fun (rows, cols, npts) ->
      let sys = mesh_system ~rows ~cols ~ports:2 in
      let om = grid ~w_max:1e10 ~npts in
      sweep_rel_diff (Freq.sweep_naive sys om) (Freq.sweep sys om) < 1e-9)

(* Hessenberg tier vs the dense-LU reference, on random well-conditioned
   descriptor pencils.  The reduction is orthogonal and the per-point
   elimination pivots, so agreement is at roundoff — pinned at 1e-12
   relative as the acceptance contract. *)
let prop_hessenberg_matches_dense =
  QCheck2.Test.make ~name:"Hessenberg ROM sweep matches dense LU (<= 1e-12 rel)" ~count:25
    QCheck2.Gen.(tup3 (int_range 1 16) (int_range 3 30) (int_range 0 999))
    (fun (n, npts, seed) ->
      let a = Mat.add (Mat.random ~seed n n) (Mat.scale (-3.0) (Mat.identity n)) in
      let e = Mat.add (Mat.random ~seed:(seed + 3) n n) (Mat.scale 4.0 (Mat.identity n)) in
      let b = Mat.random ~seed:(seed + 1) n 2 and c = Mat.random ~seed:(seed + 2) 1 n in
      let sys = Dss.of_dense ~e ~a ~b ~c in
      let om = grid ~w_max:10.0 ~npts in
      sweep_rel_diff (Freq.sweep_naive sys om) (Freq.sweep sys om) <= 1e-12)

(* End-to-end on a real reduced model: PMTBR ROM of an RC line, swept by
   both paths. *)
let test_hessenberg_on_pmtbr_rom () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:40 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 3e9 }) ~count:16 in
  let rom = (Pmtbr.reduce ~order:8 sys pts).Pmtbr.rom in
  let om = grid ~w_max:3e9 ~npts:50 in
  let d = sweep_rel_diff (Freq.sweep_naive rom om) (Freq.sweep rom om) in
  if d > 1e-12 then Alcotest.failf "ROM Hessenberg drift %.3e > 1e-12" d;
  match Sweep_engine.tier (Sweep_engine.prepare rom) with
  | Sweep_engine.Hessenberg -> ()
  | Sweep_engine.Replay -> Alcotest.fail "dense ROM should take the Hessenberg tier"

(* A descriptor ROM with singular E (pure algebraic part) must still
   agree: T picks up a zero diagonal entry but the shifted pencil stays
   regular. *)
let test_hessenberg_singular_e () =
  let n = 6 in
  let e = Mat.init n n (fun i j -> if i = j && i < n - 1 then 1.0 else 0.0) in
  let a = Mat.add (Mat.random ~seed:5 n n) (Mat.scale (-4.0) (Mat.identity n)) in
  let b = Mat.random ~seed:6 n 1 and c = Mat.random ~seed:7 1 n in
  let sys = Dss.of_dense ~e ~a ~b ~c in
  let om = grid ~w_max:5.0 ~npts:20 in
  let d = sweep_rel_diff (Freq.sweep_naive sys om) (Freq.sweep sys om) in
  if d > 1e-12 then Alcotest.failf "singular-E Hessenberg drift %.3e > 1e-12" d

(* ------------------------------------------------------------------ *)
(* Streaming metrics == array metrics                                  *)
(* ------------------------------------------------------------------ *)

(* The old array-based implementations, kept verbatim as the reference
   the streaming folds are pinned against. *)
let ref_max_abs_error (h_ref : Cmat.t array) (h_apx : Cmat.t array) =
  let worst = ref 0.0 in
  Array.iteri
    (fun k href ->
      let d = Cmat.sub href h_apx.(k) in
      worst := Float.max !worst (Cmat.max_abs d))
    h_ref;
  !worst

let ref_max_rel_error h_ref h_apx =
  let scale = Array.fold_left (fun acc h -> Float.max acc (Cmat.max_abs h)) 0.0 h_ref in
  if scale = 0.0 then ref_max_abs_error h_ref h_apx else ref_max_abs_error h_ref h_apx /. scale

let ref_rms_error (h_ref : Cmat.t array) (h_apx : Cmat.t array) =
  let acc = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun k href ->
      let d = Cmat.sub href h_apx.(k) in
      Array.iter
        (fun z ->
          let m = Complex.norm z in
          acc := !acc +. (m *. m);
          incr count)
        d.Cmat.data)
    h_ref;
  if !count = 0 then 0.0 else sqrt (!acc /. float_of_int !count)

let ref_max_real_part_error ~i ~j (h_ref : Cmat.t array) (h_apx : Cmat.t array) =
  let worst = ref 0.0 in
  Array.iteri
    (fun k href ->
      let r1 = (Cmat.get href i j).Complex.re and r2 = (Cmat.get h_apx.(k) i j).Complex.re in
      worst := Float.max !worst (Float.abs (r1 -. r2)))
    h_ref;
  !worst

let ref_max_real_part_rel_error ~i ~j h_ref h_apx =
  let scale = ref 0.0 in
  Array.iter (fun h -> scale := Float.max !scale (Float.abs (Cmat.get h i j).Complex.re)) h_ref;
  if !scale = 0.0 then ref_max_real_part_error ~i ~j h_ref h_apx
  else ref_max_real_part_error ~i ~j h_ref h_apx /. !scale

let random_sweep ~seed ~npts ~rows ~cols =
  Array.init npts (fun k ->
      Cmat.init rows cols (fun i j ->
          let t = float_of_int (seed + (k * 37) + (i * 7) + j) in
          { Complex.re = sin t; im = cos (2.0 *. t) }))

let prop_stream_equals_array =
  QCheck2.Test.make ~name:"streaming folds == array metrics (exact)" ~count:30
    QCheck2.Gen.(tup4 (int_range 1 10) (int_range 1 3) (int_range 1 3) (int_range 0 999))
    (fun (npts, rows, cols, seed) ->
      let h_ref = random_sweep ~seed ~npts ~rows ~cols in
      let h_apx = random_sweep ~seed:(seed + 1) ~npts ~rows ~cols in
      let st = Freq.error_stream ~i:(rows - 1) ~j:(cols - 1) () in
      Array.iteri (fun k href -> Freq.stream_add st ~ref_:href ~apx:h_apx.(k)) h_ref;
      Freq.stream_max_abs_error st = ref_max_abs_error h_ref h_apx
      && Freq.stream_max_rel_error st = ref_max_rel_error h_ref h_apx
      && Freq.stream_rms_error st = ref_rms_error h_ref h_apx
      && Freq.stream_max_real_part_error st
         = ref_max_real_part_error ~i:(rows - 1) ~j:(cols - 1) h_ref h_apx
      && Freq.stream_max_real_part_rel_error st
         = ref_max_real_part_rel_error ~i:(rows - 1) ~j:(cols - 1) h_ref h_apx
      && Freq.max_abs_error h_ref h_apx = ref_max_abs_error h_ref h_apx
      && Freq.rms_error h_ref h_apx = ref_rms_error h_ref h_apx
      && Freq.max_rel_error h_ref h_apx = ref_max_rel_error h_ref h_apx)

(* compare_sweep == materialise-then-measure, on a real system pair *)
let test_compare_sweep_matches_arrays () =
  let sys = Dss.of_netlist (Rc_line.generate ~sections:30 ()) in
  let pts = Sampling.points (Sampling.Uniform { w_max = 3e9 }) ~count:12 in
  let rom = (Pmtbr.reduce ~order:6 sys pts).Pmtbr.rom in
  let om = grid ~w_max:3e9 ~npts:25 in
  let href = Freq.sweep sys om in
  let hrom = Freq.sweep rom om in
  let st = Freq.compare_sweep rom om ~ref_:href in
  Alcotest.(check (float 0.0))
    "max rel" (Freq.max_rel_error href hrom) (Freq.stream_max_rel_error st);
  Alcotest.(check (float 0.0)) "rms" (Freq.rms_error href hrom) (Freq.stream_rms_error st)

(* ------------------------------------------------------------------ *)
(* Guards and edges                                                    *)
(* ------------------------------------------------------------------ *)

let test_length_mismatch_raises () =
  let h1 = random_sweep ~seed:1 ~npts:3 ~rows:1 ~cols:1 in
  let h2 = random_sweep ~seed:2 ~npts:4 ~rows:1 ~cols:1 in
  let expect_invalid name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s accepted mismatched lengths" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "max_abs_error" (fun () -> Freq.max_abs_error h1 h2);
  expect_invalid "rms_error" (fun () -> Freq.rms_error h1 h2);
  expect_invalid "max_rel_error" (fun () -> Freq.max_rel_error h1 h2);
  match Freq.compare_sweep (mesh_system ~rows:3 ~cols:3 ~ports:1) [| 1.0; 2.0 |] ~ref_:(Array.sub h1 0 1) with
  | (_ : Freq.error_stream) -> Alcotest.fail "compare_sweep accepted a short reference"
  | exception Invalid_argument _ -> ()

let test_shape_mismatch_raises () =
  let st = Freq.error_stream () in
  match Freq.stream_add st ~ref_:(Cmat.create 2 2) ~apx:(Cmat.create 2 3) with
  | () -> Alcotest.fail "stream_add accepted mismatched shapes"
  | exception Invalid_argument _ -> ()

let test_empty_sweep () =
  let sys = mesh_system ~rows:3 ~cols:3 ~ports:1 in
  Alcotest.(check int) "empty grid" 0 (Array.length (Freq.sweep sys [||]))

let test_sweep_stats_sane () =
  let sys = mesh_system ~rows:4 ~cols:4 ~ports:2 in
  let om = grid ~w_max:1e10 ~npts:9 in
  let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = om.(0) } sys in
  let _, st = Sweep_engine.sweep ~workers:2 ~oversubscribe:true plan om in
  Alcotest.(check int) "points" 9 st.Sweep_engine.points;
  Alcotest.(check int) "workers" 2 st.Sweep_engine.workers;
  Alcotest.(check int) "busy per worker" 2 (Array.length st.Sweep_engine.busy_s);
  let u = Sweep_engine.utilisation st in
  if u < 0.0 || u > 1.0 then Alcotest.failf "utilisation %g out of [0,1]" u;
  match Sweep_engine.tier plan with
  | Sweep_engine.Replay -> ()
  | Sweep_engine.Hessenberg -> Alcotest.fail "sparse mesh should take the replay tier"

(* fold visits every point exactly once, in grid order, at any worker
   count *)
let test_fold_order () =
  let sys = mesh_system ~rows:3 ~cols:3 ~ports:1 in
  let om = grid ~w_max:1e10 ~npts:150 in
  let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = om.(0) } sys in
  let seen =
    Sweep_engine.fold ~workers:3 ~oversubscribe:true plan om ~init:[] ~f:(fun acc k _ ->
        k :: acc)
  in
  Alcotest.(check (list int)) "grid order" (List.init 150 (fun i -> 149 - i)) seen

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_worker_invariance;
      prop_sweep_equals_eval_map;
      prop_freq_sweep_worker_invariant;
      prop_worker_invariance_dense;
      prop_engine_matches_naive;
      prop_hessenberg_matches_dense;
      prop_stream_equals_array;
    ]

let () =
  Alcotest.run "pmtbr_sweep"
    [
      ("determinism+accuracy", props);
      ( "hessenberg",
        [
          Alcotest.test_case "pmtbr rom" `Quick test_hessenberg_on_pmtbr_rom;
          Alcotest.test_case "singular E" `Quick test_hessenberg_singular_e;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "compare_sweep == arrays" `Quick test_compare_sweep_matches_arrays;
          Alcotest.test_case "length mismatch raises" `Quick test_length_mismatch_raises;
          Alcotest.test_case "shape mismatch raises" `Quick test_shape_mismatch_raises;
        ] );
      ( "engine",
        [
          Alcotest.test_case "empty sweep" `Quick test_empty_sweep;
          Alcotest.test_case "stats sane" `Quick test_sweep_stats_sane;
          Alcotest.test_case "fold order" `Quick test_fold_order;
        ] );
    ]
