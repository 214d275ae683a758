(* Tests for the low-rank Lyapunov solvers (Lr_lyap) and the low-rank
   balanced-truncation backend (Tbr_lr): property-level agreement with the
   dense Lyap/Tbr baselines and with the every-flush accumulator kept as
   [Pmtbr_oracle.Factor_adi], the ADI residual contract, the shared
   multi-shift handle and compression counters, worker invariance of the
   small-core SVD path, and the golden PMTBR-vs-exact-TBR sweep
   regression. *)

open Pmtbr_la
open Pmtbr_circuit
open Pmtbr_lti
open Pmtbr_core

let check_small ?(tol = 1e-9) msg value =
  if not (Float.abs value <= tol) then Alcotest.failf "%s: |%.3e| > %g" msg value tol

(* ------------------------------------------------------------------ *)
(* Random stable descriptor systems                                    *)
(* ------------------------------------------------------------------ *)

(* A = -(M M^T / n + alpha I) (+ optional skew part), E = I or SPD: every
   generated pencil is stable, so the Gramians exist. *)
let random_system ~seed ~n ~m ~spd_e ~sym_a =
  let mm = Mat.random ~seed n n in
  let mmt = Mat.mul mm (Mat.transpose mm) in
  let sym =
    Mat.init n n (fun i j ->
        -.(Mat.get mmt i j /. float_of_int n) -. if i = j then 0.5 else 0.0)
  in
  let a =
    if sym_a then sym
    else begin
      let k = Mat.random ~seed:(seed + 1) n n in
      Mat.add sym (Mat.init n n (fun i j -> 0.5 *. (Mat.get k i j -. Mat.get k j i)))
    end
  in
  let e =
    if spd_e then begin
      let e0 = Mat.random ~seed:(seed + 2) n n in
      Mat.add
        (Mat.scale (1.0 /. float_of_int n) (Mat.mul e0 (Mat.transpose e0)))
        (Mat.identity n)
    end
    else Mat.identity n
  in
  let b = Mat.random ~seed:(seed + 3) n m in
  (e, a, b)

(* Dense reference Gramian through the transformed standard-form equation
   F X + X F^T + (E^{-1}B)(E^{-1}B)^T = 0, F = E^{-1}A. *)
let dense_gramian e a b =
  let lu = Mat.lu e in
  let f = Mat.lu_solve lu a and btil = Mat.lu_solve lu b in
  Lyap.solve_with (Lyap.factor_general f)
    (Mat.symmetrize (Mat.mul btil (Mat.transpose btil)))

(* The controllability operators [Tbr_lr] and [Tbr_passive] run, on a
   dense pencil: one cached complex LU per shift through the shared
   solver, a real LU of E factored on first use. *)
let dense_ops ~e ~a =
  let n = a.Mat.rows in
  let sys = Dss.of_dense ~e ~a ~b:(Mat.create n 0) ~c:(Mat.create 0 n) in
  let solve, _ = Lyap_ops.shared_solver sys in
  fst (Lyap_ops.ops_of_dss solve sys)

let rel_gramian_error z x =
  Mat.frobenius (Mat.sub (Mat.mul z (Mat.transpose z)) x) /. Mat.frobenius x

let sys_gen =
  QCheck2.Gen.(
    tup5 (int_range 5 60) (int_range 1 3) (int_range 0 1000) bool bool)

(* At least as many inputs as states: the first step alone brings n
   columns, so the accumulator holds the Gramian itself from the first
   flush on and every draw goes wide.  (With one to three inputs a small
   system can converge before its factor reaches n.) *)
let wide_sys_gen =
  QCheck2.Gen.(
    map
      (fun (n, extra, seed, spd_e, sym_a) -> (n, n + extra, seed, spd_e, sym_a))
      (tup5 (int_range 5 20) (int_range 0 3) (int_range 0 1000) bool bool))

let matches_dense (n, m, seed, spd_e, sym_a) =
  let e, a, b = random_system ~seed ~n ~m ~spd_e ~sym_a in
  let x = dense_gramian e a b in
  let z, st = Lr_lyap.lr_adi ~tol:1e-12 (dense_ops ~e ~a) b in
  st.Lr_lyap.converged && rel_gramian_error z x <= 1e-8

(* LR-ADI Z Z^T matches the dense solve to 1e-8 relative on random stable
   SISO/MIMO descriptor systems up to n = 60, one draw on any size (tall
   or wide) and one small enough that its factor goes wide. *)
let prop_adi_matches_dense =
  QCheck2.Test.make ~name:"lr_adi matches dense Lyap.solve (<= 1e-8)" ~count:12
    QCheck2.Gen.(pair sys_gen wide_sys_gen)
    (fun (any, wide) -> matches_dense any && matches_dense wide)

(* For symmetric negative-definite A with E = I every ADI step is a
   contraction of the residual factor: |lambda - p| / |lambda + p| < 1 for
   lambda, p < 0 — so the Frobenius residual history must be monotone
   non-increasing (up to round-off slack). *)
let prop_adi_residual_monotone =
  QCheck2.Test.make ~name:"lr_adi residual monotone (symmetric, E = I)" ~count:15
    QCheck2.Gen.(tup3 (int_range 5 50) (int_range 1 3) (int_range 0 1000))
    (fun (n, m, seed) ->
      let _, a, b = random_system ~seed ~n ~m ~spd_e:false ~sym_a:true in
      let e = Mat.identity n in
      let _, st = Lr_lyap.lr_adi ~tol:1e-13 (dense_ops ~e ~a) b in
      let r = st.Lr_lyap.residuals in
      let ok = ref true in
      for i = 1 to Array.length r - 1 do
        if r.(i) > (r.(i - 1) *. (1.0 +. 1e-9)) +. 1e-13 then ok := false
      done;
      !ok)

(* Hankel values out of the low-rank factors vs the dense Tbr pipeline on
   random dense descriptor systems with outputs. *)
let prop_tbr_lr_hsv_matches_dense =
  QCheck2.Test.make ~name:"Tbr_lr Hankel values match dense Tbr" ~count:8
    QCheck2.Gen.(tup4 (int_range 6 40) (int_range 1 3) (int_range 0 1000) bool)
    (fun (n, m, seed, spd_e) ->
      let e, a, b = random_system ~seed ~n ~m ~spd_e ~sym_a:false in
      let c = Mat.random ~seed:(seed + 4) m n in
      let sys = Dss.of_dense ~e ~a ~b ~c in
      let dense = Tbr.hsv_dss sys in
      let lr = Tbr_lr.hankel_singular_values ~adi_tol:1e-12 sys in
      let smax = if Array.length dense = 0 then 0.0 else dense.(0) in
      let ok = ref (Array.length lr >= 1) in
      Array.iteri
        (fun i s ->
          (* compare where the dense value is numerically meaningful *)
          if s > 1e-6 *. smax && i < Array.length lr then
            if Float.abs (s -. lr.(i)) /. smax > 1e-8 then ok := false)
        dense;
      !ok)

let mesh_system ~rows ~cols ~ports =
  Dss.of_netlist (Rc_mesh.generate ~rows ~cols ~ports ())

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* ------------------------------------------------------------------ *)
(* The accumulator against the every-flush oracle                      *)
(* ------------------------------------------------------------------ *)

(* RC meshes keep few columns against their states (tall); substrates,
   whose every node is a port or close to one, and the small random
   systems reach the state count (wide). *)
type case =
  | Mesh of int * int * int  (** rows, cols, ports *)
  | Substrate_net of int * int * int  (** ports, internal nodes, seed *)
  | Dense of (int * int * int * bool * bool)  (** as [sys_gen] draws *)

let show_case = function
  | Mesh (r, c, p) -> Printf.sprintf "mesh %dx%d, %d ports" r c p
  | Substrate_net (p, i, s) -> Printf.sprintf "substrate %d ports, %d internal, seed %d" p i s
  | Dense (n, m, seed, spd_e, sym_a) ->
      Printf.sprintf "dense n=%d m=%d seed=%d spd_e=%b sym_a=%b" n m seed spd_e sym_a

let case_gen =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun r c p -> Mesh (r, c, p)) (int_range 3 12) (int_range 3 12) (int_range 1 4);
        map3
          (fun p i s -> Substrate_net (p, i, s))
          (int_range 4 30) (int_range 0 60) (int_range 0 1000);
        map (fun d -> Dense d) sys_gen;
      ])

(* The system with C = B^T, so that [Tbr_passive] takes the symmetric
   random draws, and its controllability operators. *)
let case_system case =
  let sys =
    match case with
    | Mesh (rows, cols, ports) -> mesh_system ~rows ~cols ~ports
    | Substrate_net (ports, internal, seed) ->
        Dss.of_netlist (Substrate.generate ~ports ~internal ~seed ())
    | Dense (n, m, seed, spd_e, sym_a) ->
        let e, a, b = random_system ~seed ~n ~m ~spd_e ~sym_a in
        Dss.of_dense ~e ~a ~b ~c:(Mat.transpose b)
  in
  let solve, _ = Lyap_ops.shared_solver sys in
  (sys, fst (Lyap_ops.ops_of_dss solve sys))

let gramian_gap (z : Mat.t) (zo : Mat.t) =
  let xo = Mat.mul zo (Mat.transpose zo) in
  Mat.frobenius (Mat.sub (Mat.mul z (Mat.transpose z)) xo) /. Mat.frobenius xo

let bits = Array.map Int64.bits_of_float

(* The residual factor never reads the accumulator, so the iteration is
   the oracle's bit for bit on every input; the factor is too while it
   stays tall (the oracle's flushes never held n columns), and once wide
   it spans the same Gramian to round-off. *)
let prop_adi_matches_oracle =
  QCheck2.Test.make ~name:"lr_adi == every-flush oracle (bitwise tall, 1e-11 wide)" ~count:20
    ~print:show_case case_gen (fun case ->
      let sys, ops = case_system case in
      let b = Dss.b_matrix sys in
      let z, st = Lr_lyap.lr_adi ops b in
      let zo, so, widest = Pmtbr_oracle.Factor_adi.lr_adi ops b in
      st.Lr_lyap.steps = so.Lr_lyap.steps
      && st.Lr_lyap.solves = so.Lr_lyap.solves
      && st.Lr_lyap.converged = so.Lr_lyap.converged
      && bits st.Lr_lyap.residuals = bits so.Lr_lyap.residuals
      &&
      if widest < ops.Lr_lyap.n then
        bitwise_equal z zo && st.Lr_lyap.compressions = so.Lr_lyap.compressions
      else gramian_gap z zo <= 1e-11)

(* Hankel values of the oracle's factor, as [Tbr_passive] reads them off
   an RC (J = I) factor: |eig (Z^T E Z)|, descending. *)
let oracle_hsv sys ops shifts =
  let zo, _, _ = Pmtbr_oracle.Factor_adi.lr_adi ~shifts ops (Dss.b_matrix sys) in
  let m = Mat.symmetrize (Mat.mul (Mat.transpose zo) (Dss.apply_e sys zo)) in
  let hsv = Array.map Float.abs (Eig_sym.eigenvalues m) in
  Array.sort (fun a b -> compare b a) hsv;
  hsv

let prop_passive_matches_oracle =
  QCheck2.Test.make ~name:"Tbr_passive order and HSVs == oracle's (1e-12 sigma_0)" ~count:20
    ~print:show_case case_gen (fun case ->
      let case =
        match case with
        | Dense (n, m, seed, spd_e, _) -> Dense (n, m, seed, spd_e, true)
        | c -> c
      in
      let sys, ops = case_system case in
      let r = Tbr_passive.reduce ~order:6 sys in
      let hsv_o = oracle_hsv sys ops r.Tbr_passive.stats.Tbr_passive.shifts in
      let q_o = Tbr.truncation_order ~floor:1e-13 ~sigma:hsv_o ~order:6 () in
      let hsv = r.Tbr_passive.hsv in
      let at h i = if i < Array.length h then h.(i) else 0.0 in
      let worst = ref 0.0 in
      for i = 0 to max (Array.length hsv) (Array.length hsv_o) - 1 do
        worst := Float.max !worst (Float.abs (at hsv i -. at hsv_o i))
      done;
      r.Tbr_passive.order = q_o && !worst <= 1e-12 *. hsv_o.(0))

(* The eigendecompositions each accumulator runs, pinned: the oracle's one
   per flush against the library's one per tall flush plus one for the
   Gramian.  The 20-port substrate on 60 states is perfbench's
   substrate-ports geometry; the 30-port one is the golden test's. *)
let test_compression_counts () =
  let check name (want, want_oracle) nl =
    let sys = Dss.of_netlist nl in
    let st = (Tbr_passive.reduce ~order:6 sys).Tbr_passive.stats in
    Alcotest.(check int) name want st.Tbr_passive.gramian.Lr_lyap.compressions;
    (* the same iteration again, on fresh operators that the oracle then
       shares *)
    let solve, _ = Lyap_ops.shared_solver sys in
    let ops, _ = Lyap_ops.ops_of_dss solve sys in
    let b = Dss.b_matrix sys and shifts = st.Tbr_passive.shifts in
    let _, again = Lr_lyap.lr_adi ~shifts ops b in
    Alcotest.(check int) (name ^ ", again") want again.Lr_lyap.compressions;
    let _, so, _ = Pmtbr_oracle.Factor_adi.lr_adi ~shifts ops b in
    Alcotest.(check int) (name ^ ", every-flush oracle") want_oracle so.Lr_lyap.compressions
  in
  check "substrate, 20 ports, 40 internal" (2, 23)
    (Substrate.generate ~ports:20 ~internal:40 ~seed:40020 ());
  check "substrate, 30 ports, 50 internal" (2, 60)
    (Substrate.generate ~ports:30 ~internal:50 ~seed:3 ());
  check "substrate, 20 ports, 20 states" (1, 9) (Substrate.generate ~ports:20 ());
  check "rc mesh 52x52, 4 ports" (6, 6) (Rc_mesh.generate ~rows:52 ~cols:52 ~ports:4 ());
  (* both Tbr_lr sides carry the count: this substrate is reciprocal, so
     its observability side repeats the controllability one *)
  let st =
    (Tbr_lr.reduce ~order:6 (Dss.of_netlist (Substrate.generate ~ports:20 ()))).Tbr_lr.stats
  in
  Alcotest.(check (pair int int)) "tbr-lr ctrl / obs" (1, 1)
    (st.Tbr_lr.ctrl.Lr_lyap.compressions, st.Tbr_lr.obs.Lr_lyap.compressions)

(* ------------------------------------------------------------------ *)
(* Worker invariance (PR-4 contract)                                   *)
(* ------------------------------------------------------------------ *)

let test_worker_invariance () =
  let sys = mesh_system ~rows:7 ~cols:7 ~ports:2 in
  let h1 = Tbr_lr.hankel_singular_values ~workers:1 sys in
  let h4 = Tbr_lr.hankel_singular_values ~workers:4 sys in
  if h1 <> h4 then Alcotest.fail "hankel values differ with worker count";
  let r1 = Tbr_lr.reduce ~order:8 ~workers:1 sys in
  let r4 = Tbr_lr.reduce ~order:8 ~workers:4 sys in
  if r1.Tbr_lr.hsv <> r4.Tbr_lr.hsv then Alcotest.fail "hsv differ";
  match (r1.Tbr_lr.rom, r4.Tbr_lr.rom) with
  | ( Dss.Dense { e = e1; a = a1; b = b1; c = c1 },
      Dss.Dense { e = e4; a = a4; b = b4; c = c4 } ) ->
      if
        not
          (bitwise_equal a1 a4 && bitwise_equal e1 e4 && bitwise_equal b1 b4
         && bitwise_equal c1 c4)
      then Alcotest.fail "reduced model differs with worker count"
  | _ -> Alcotest.fail "expected dense reduced models"

(* ------------------------------------------------------------------ *)
(* Shared multi-shift handle: counters contract                        *)
(* ------------------------------------------------------------------ *)

(* With an explicit shift list short enough that every shift is used, the
   contract is exact: ONE symbolic analysis for the whole two-Gramian
   reduction, and one numeric refactorisation per distinct shift — the
   observability side rides on the controllability factors. *)
let test_handle_reuse_counters () =
  let sys = mesh_system ~rows:6 ~cols:6 ~ports:2 in
  (* take the first few auto-selected shifts as a realistic explicit list *)
  let st0 = (Tbr_lr.reduce ~order:6 sys).Tbr_lr.stats in
  let shifts = Array.sub st0.Tbr_lr.shifts 0 (min 4 (Array.length st0.Tbr_lr.shifts)) in
  let distinct =
    Array.to_list shifts |> List.sort_uniq compare |> List.length
  in
  let st = (Tbr_lr.reduce ~order:6 ~shifts sys).Tbr_lr.stats in
  Alcotest.(check int) "symbolic analyses" 1 st.Tbr_lr.symbolic;
  Alcotest.(check int) "one refactorization per distinct shift" distinct
    st.Tbr_lr.refactorizations;
  Alcotest.(check int) "solves add up"
    (st.Tbr_lr.ctrl.Lr_lyap.solves + st.Tbr_lr.obs.Lr_lyap.solves)
    st.Tbr_lr.solves

(* ------------------------------------------------------------------ *)
(* Band-limited stopping                                               *)
(* ------------------------------------------------------------------ *)

let test_band_limited_stop () =
  let sys = mesh_system ~rows:6 ~cols:6 ~ports:2 in
  let pts =
    Sampling.points (Sampling.Bands [ (1e8, 1e10) ]) ~count:6
    |> Array.map (fun p -> (p.Sampling.s, p.Sampling.weight))
  in
  let stop = Lr_lyap.Band_residual pts in
  let zc, st = Tbr_lr.controllability_factor ~stop sys in
  if not st.Lr_lyap.converged then Alcotest.fail "band-limited stop did not converge";
  if zc.Mat.cols = 0 then Alcotest.fail "empty factor";
  (* the band-converged factors still reproduce the dense Hankel values *)
  let dense = Tbr.hsv_dss sys in
  let lr = Tbr_lr.hankel_singular_values ~stop sys in
  let smax = dense.(0) in
  Array.iteri
    (fun i s ->
      if s > 1e-4 *. smax && i < Array.length lr then
        check_small ~tol:1e-6 "band hsv drift" (Float.abs (s -. lr.(i)) /. smax))
    dense

(* ------------------------------------------------------------------ *)
(* Failure modes                                                       *)
(* ------------------------------------------------------------------ *)

let test_invalid_arguments () =
  let e = Mat.identity 4 and a = Mat.scale (-1.0) (Mat.identity 4) in
  let ops = dense_ops ~e ~a in
  let b = Mat.random ~seed:3 4 1 in
  (match Lr_lyap.lr_adi ~shifts:[||] ops b with
  | _ -> Alcotest.fail "empty shifts accepted"
  | exception Invalid_argument _ -> ());
  (match Lr_lyap.lr_adi ~shifts:[| { Complex.re = 1.0; im = 0.0 } |] ops b with
  | _ -> Alcotest.fail "unstable shift accepted"
  | exception Invalid_argument _ -> ());
  (* singular E must surface as Invalid_argument, not an assert/Singular *)
  let ops_sing = dense_ops ~e:(Mat.create 4 4) ~a in
  (match Lr_lyap.lr_adi ops_sing b with
  | _ -> Alcotest.fail "singular E accepted"
  | exception Invalid_argument _ -> ())

let test_to_standard_singular_e () =
  let n = 4 in
  let sys =
    Dss.of_dense ~e:(Mat.create n n)
      ~a:(Mat.scale (-1.0) (Mat.identity n))
      ~b:(Mat.random ~seed:1 n 1)
      ~c:(Mat.random ~seed:2 1 n)
  in
  (match Dss.to_standard sys with
  | _ -> Alcotest.fail "singular E accepted"
  | exception Invalid_argument _ -> ());
  match Tbr.reduce_dss ~order:2 sys with
  | _ -> Alcotest.fail "singular E accepted by reduce_dss"
  | exception Invalid_argument _ -> ()

let test_empty_rhs () =
  let e = Mat.identity 5 and a = Mat.scale (-1.0) (Mat.identity 5) in
  let z, st = Lr_lyap.lr_adi (dense_ops ~e ~a) (Mat.create 5 0) in
  Alcotest.(check int) "no columns" 0 z.Mat.cols;
  Alcotest.(check bool) "trivially converged" true st.Lr_lyap.converged

(* ------------------------------------------------------------------ *)
(* Golden end-to-end regression: PMTBR vs exact TBR through the sweep  *)
(* engine (the paper's head-to-head, pinned as a test)                 *)
(* ------------------------------------------------------------------ *)

let sweep_errors sys ~w_hi ~order =
  let omegas = Vec.linspace (w_hi /. 100.0) w_hi 30 in
  let href = Freq.sweep sys omegas in
  let pts = Sampling.points (Sampling.Uniform { w_max = w_hi }) ~count:25 in
  let pmtbr = (Pmtbr.reduce ~order sys pts).Pmtbr.rom in
  let tbr_lr = (Tbr_lr.reduce ~order sys).Tbr_lr.rom in
  let err rom = Freq.stream_max_rel_error (Freq.compare_sweep rom omegas ~ref_:href) in
  (err pmtbr, err tbr_lr)

let test_golden_rc_mesh () =
  (* 12x12 mesh, 144 states, order 12.  Calibrated values: PMTBR 3.2e-12
     (sampling concentrates accuracy in band), exact TBR 3.6e-5 (the
     Glover-level balanced error at that order); both pinned with margin.
     The low-rank backend must also track the DENSE Tbr on the same
     system — that is the actual regression invariant. *)
  let sys = mesh_system ~rows:12 ~cols:12 ~ports:2 in
  let ep, et = sweep_errors sys ~w_hi:1e10 ~order:12 in
  if ep > 1e-9 then Alcotest.failf "pmtbr in-band error regressed: %.3e" ep;
  if et > 5e-4 then Alcotest.failf "tbr-lr in-band error regressed: %.3e" et;
  let omegas = Vec.linspace 1e8 1e10 30 in
  let href = Freq.sweep sys omegas in
  let dense = (Tbr.reduce_dss ~order:12 sys).Tbr.rom in
  let e_dense =
    Freq.stream_max_rel_error (Freq.compare_sweep dense omegas ~ref_:href)
  in
  let e_lr =
    Freq.stream_max_rel_error
      (Freq.compare_sweep (Tbr_lr.reduce ~order:12 sys).Tbr_lr.rom omegas ~ref_:href)
  in
  if Float.abs (e_lr -. e_dense) > 0.1 *. e_dense then
    Alcotest.failf "low-rank TBR drifted from dense TBR: %.3e vs %.3e" e_lr e_dense

let test_golden_substrate () =
  (* mid-size substrate, 80 states, 30 ports: many-input stress case for
     the factor compression.  Calibrated: PMTBR 7.6e-2, TBR-LR 9.4e-2
     (ratio 1.23) at order 16. *)
  let sys = Dss.of_netlist (Substrate.generate ~ports:30 ~internal:50 ~seed:3 ()) in
  let ep, et = sweep_errors sys ~w_hi:(Substrate.corner_frequency ()) ~order:16 in
  if ep > 0.15 then Alcotest.failf "pmtbr substrate error regressed: %.3e" ep;
  if et > 0.2 then Alcotest.failf "tbr-lr substrate error regressed: %.3e" et;
  if et > 2.5 *. ep then
    Alcotest.failf "tbr-lr/pmtbr error ratio regressed: %.3e / %.3e" et ep

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_adi_matches_dense;
      prop_adi_residual_monotone;
      prop_tbr_lr_hsv_matches_dense;
      prop_adi_matches_oracle;
      prop_passive_matches_oracle;
    ]

let () =
  Alcotest.run "pmtbr_lr_lyap"
    [
      ("properties", props);
      ( "contracts",
        [
          Alcotest.test_case "worker invariance (bitwise)" `Quick test_worker_invariance;
          Alcotest.test_case "handle reuse counters" `Quick test_handle_reuse_counters;
          Alcotest.test_case "band-limited stop" `Quick test_band_limited_stop;
          Alcotest.test_case "compression counts" `Quick test_compression_counts;
        ] );
      ( "failures",
        [
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "to_standard singular E" `Quick test_to_standard_singular_e;
          Alcotest.test_case "empty rhs" `Quick test_empty_rhs;
        ] );
      ( "golden",
        [
          Alcotest.test_case "rc mesh 12x12" `Quick test_golden_rc_mesh;
          Alcotest.test_case "substrate" `Quick test_golden_substrate;
        ] );
    ]
