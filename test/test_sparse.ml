(* Tests for the sparse substrate: CSC assembly, orderings, sparse LU. *)

open Pmtbr_la
open Pmtbr_sparse

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

(* A sparse diagonally dominant test matrix shaped like a 1-D Laplacian with
   a few random long-range couplings. *)
let laplacian_like ?(seed = 1) n =
  let t = Triplet.create n n in
  for i = 0 to n - 1 do
    Triplet.add t i i 4.0;
    if i > 0 then Triplet.add t i (i - 1) (-1.0);
    if i < n - 1 then Triplet.add t i (i + 1) (-1.0)
  done;
  let r = Mat.random ~seed 8 2 in
  for k = 0 to 7 do
    let i = abs (int_of_float (Mat.get r k 0 *. 1000.0)) mod n in
    let j = abs (int_of_float (Mat.get r k 1 *. 1000.0)) mod n in
    if i <> j then Triplet.add t i j (-0.3)
  done;
  t

let test_triplet_roundtrip () =
  let t = Triplet.create 3 3 in
  Triplet.add t 0 0 1.0;
  Triplet.add t 0 0 2.0;
  (* duplicate: summed *)
  Triplet.add t 2 1 5.0;
  let m = Csc.of_triplet t in
  Alcotest.(check (array int)) "colptr" [| 0; 1; 2; 2 |] m.Csc.colptr;
  Alcotest.(check (array int)) "rowind" [| 0; 2 |] m.Csc.rowind;
  Alcotest.(check (array (float 0.0))) "values" [| 3.0; 5.0 |] m.Csc.values;
  Alcotest.(check (float 0.0)) "zero" 0.0 (Mat.get (Triplet.to_dense t) 1 1);
  Alcotest.(check int) "nnz" 2 (Array.length m.Csc.values)

(* The assembled columns, read back densely: a residual check against the
   triplet's own products. *)
let dense_of_csc (m : Csc.t) =
  let d = Mat.create m.Csc.rows m.Csc.cols in
  for j = 0 to m.Csc.cols - 1 do
    for k = m.Csc.colptr.(j) to m.Csc.colptr.(j + 1) - 1 do
      Mat.update d m.Csc.rowind.(k) j (fun x -> x +. m.Csc.values.(k))
    done
  done;
  d

let test_csc_mv () =
  let t = laplacian_like 20 in
  let d = dense_of_csc (Csc.of_triplet t) in
  let x = Array.init 20 (fun i -> sin (float_of_int i)) in
  check_small "mv vs dense" (Vec.max_abs_diff (Triplet.mv t x) (Mat.mv d x));
  check_small "mv^T vs dense"
    (Vec.max_abs_diff (Triplet.mv_transposed t x) (Mat.mv (Mat.transpose d) x))

let permutation_ok name p n =
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then Alcotest.failf "%s: invalid permutation" name;
      seen.(i) <- true)
    p;
  Alcotest.(check int) (name ^ " length") n (Array.length p)

let test_orderings_are_permutations () =
  let t = laplacian_like ~seed:7 30 in
  let m = Csc.of_triplet t in
  permutation_ok "natural" (Ordering.compute Ordering.Natural m.Csc.colptr m.Csc.rowind 30) 30;
  permutation_ok "rcm" (Ordering.compute Ordering.Rcm m.Csc.colptr m.Csc.rowind 30) 30;
  permutation_ok "min_degree" (Pmtbr_oracle.Min_degree.order m.Csc.colptr m.Csc.rowind 30) 30

let test_rcm_reduces_bandwidth () =
  (* a star graph has terrible natural bandwidth; RCM should not *increase*
     the profile of a path graph shuffled at random *)
  let n = 40 in
  let t = Triplet.create n n in
  (* random relabelled path *)
  let label = Array.init n (fun i -> (i * 17) mod n) in
  for i = 0 to n - 1 do
    Triplet.add t label.(i) label.(i) 4.0
  done;
  for i = 0 to n - 2 do
    Triplet.add t label.(i) label.(i + 1) (-1.0);
    Triplet.add t label.(i + 1) label.(i) (-1.0)
  done;
  let m = Csc.of_triplet t in
  let p = Ordering.rcm m.Csc.colptr m.Csc.rowind n in
  (* inverse permutation: position of each node in the order *)
  let pos = Array.make n 0 in
  Array.iteri (fun k i -> pos.(i) <- k) p;
  let bw = ref 0 in
  for i = 0 to n - 2 do
    bw := max !bw (abs (pos.(label.(i)) - pos.(label.(i + 1))))
  done;
  if !bw > 2 then Alcotest.failf "rcm bandwidth %d on a path" !bw

let sparse_solve_check ?(ordering = Ordering.Natural) t =
  let m = Csc.of_triplet t in
  let n = m.Csc.rows in
  let f = Sparse_lu.factorize ~ordering m in
  let b = Array.init n (fun i -> cos (float_of_int i)) in
  let x = Sparse_lu.solve_vec f b in
  check_small ~tol:1e-9 "Ax - b" (Vec.max_abs_diff (Triplet.mv t x) b);
  let xt = Sparse_lu.solve_transposed_vec f b in
  check_small ~tol:1e-9 "A^T x - b" (Vec.max_abs_diff (Triplet.mv_transposed t xt) b)

let test_sparse_lu_natural () = sparse_solve_check (laplacian_like ~seed:11 50)
let test_sparse_lu_rcm () = sparse_solve_check ~ordering:Ordering.Rcm (laplacian_like ~seed:13 50)

let test_sparse_lu_min_degree () =
  let t = laplacian_like ~seed:17 50 in
  let m = Csc.of_triplet t in
  sparse_solve_check ~ordering:(Pmtbr_oracle.Min_degree.scheme m.Csc.colptr m.Csc.rowind 50) t

let test_sparse_lu_vs_dense () =
  let t = laplacian_like ~seed:19 25 in
  let m = Csc.of_triplet t in
  let d = Triplet.to_dense t in
  let b = Array.init 25 (fun i -> float_of_int (i mod 5) -. 2.0) in
  let xs = Sparse_lu.solve_vec (Sparse_lu.factorize m) b in
  let xd = Mat.lu_solve_vec (Mat.lu d) b in
  check_small ~tol:1e-9 "sparse vs dense" (Vec.max_abs_diff xs xd)

let test_sparse_lu_singular () =
  let t = Triplet.create 3 3 in
  Triplet.add t 0 0 1.0;
  Triplet.add t 1 1 1.0;
  (* row/col 2 empty -> structurally singular *)
  let m = Csc.of_entries 3 3 (Triplet.entries t) in
  (try
     ignore (Sparse_lu.factorize m);
     Alcotest.fail "expected Singular"
   with Sparse_lu.Singular _ -> ())

let test_sparse_lu_needs_pivoting () =
  (* zero diagonal forces row pivoting *)
  let t = Triplet.create 2 2 in
  Triplet.add t 0 1 1.0;
  Triplet.add t 1 0 1.0;
  let m = Csc.of_triplet t in
  let f = Sparse_lu.factorize m in
  let x = Sparse_lu.solve_vec f [| 3.0; 4.0 |] in
  check_small "pivoted solve" (Vec.max_abs_diff x [| 4.0; 3.0 |])

let test_complex_sparse_lu () =
  let e = laplacian_like ~seed:23 30 in
  let a = Triplet.create 30 30 in
  for i = 0 to 29 do
    Triplet.add a i i (-1.0 -. (0.1 *. float_of_int i))
  done;
  let p = Shifted.pencil ~e ~a in
  let s = { Complex.re = 0.1; im = 2.0 } in
  let f = Shifted.factorize p s in
  let b = Mat.random ~seed:29 30 2 in
  let cols = Shifted.solve_dense f b in
  (* residual against the dense assembly *)
  let dm =
    Cmat.axpby_real ~alpha:s (Triplet.to_dense e) ~beta:{ Complex.re = -1.0; im = 0.0 }
      (Triplet.to_dense a)
  in
  Array.iteri
    (fun j x ->
      let r = Cvec.sub (Cmat.mv dm x) (Array.init 30 (fun i -> { Complex.re = Mat.get b i j; im = 0.0 })) in
      check_small ~tol:1e-9 "complex shifted residual" (Cvec.max_abs r))
    cols

let test_shifted_hermitian_solve () =
  let e = laplacian_like ~seed:31 20 in
  let a = Triplet.create 20 20 in
  for i = 0 to 19 do
    Triplet.add a i i (-2.0);
    if i > 0 then Triplet.add a i (i - 1) 0.5
  done;
  let p = Shifted.pencil ~e ~a in
  let s = { Complex.re = 0.3; im = 1.5 } in
  let f = Shifted.factorize p s in
  let b = Mat.random ~seed:37 20 1 in
  let x = (Shifted.solve_hermitian_dense f b).(0) in
  let dm =
    Cmat.axpby_real ~alpha:s (Triplet.to_dense e) ~beta:{ Complex.re = -1.0; im = 0.0 }
      (Triplet.to_dense a)
  in
  let r =
    Cvec.sub
      (Cmat.mv (Cmat.conj_transpose dm) x)
      (Array.init 20 (fun i -> { Complex.re = Mat.get b i 0; im = 0.0 }))
  in
  check_small ~tol:1e-9 "hermitian solve residual" (Cvec.max_abs r)

(* property: sparse LU solves random sparse diagonally dominant systems *)
let prop_sparse_lu =
  QCheck2.Test.make ~name:"sparse lu solves dd systems" ~count:30
    QCheck2.Gen.(pair (int_range 3 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = laplacian_like ~seed n in
      let m = Csc.of_triplet t in
      let f = Sparse_lu.factorize ~ordering:Ordering.Rcm m in
      let b = Array.init n (fun i -> float_of_int ((i mod 7) - 3)) in
      let x = Sparse_lu.solve_vec f b in
      Vec.max_abs_diff (Triplet.mv t x) b < 1e-8)

let prop_orderings_preserve_solution =
  QCheck2.Test.make ~name:"solution independent of ordering" ~count:20
    QCheck2.Gen.(pair (int_range 3 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = laplacian_like ~seed n in
      let m = Csc.of_triplet t in
      let b = Array.init n (fun i -> sin (float_of_int (i * i))) in
      let solve o = Sparse_lu.solve_vec (Sparse_lu.factorize ~ordering:o m) b in
      let x1 = solve Ordering.Natural and x2 = solve Ordering.Rcm in
      let x3 = solve (Pmtbr_oracle.Min_degree.scheme m.Csc.colptr m.Csc.rowind n) in
      Vec.max_abs_diff x1 x2 < 1e-8 && Vec.max_abs_diff x1 x3 < 1e-8)

(* property: the per-shift replay (Shifted.refactor) agrees with a
   fresh factorisation at the same shift, on both solve sides *)
let prop_replay_matches_fresh =
  QCheck2.Test.make ~name:"unboxed replay matches fresh complex LU" ~count:20
    QCheck2.Gen.(
      tup4 (int_range 3 40) (int_range 0 10_000) (float_range 0.05 5.0) (float_range 0.05 5.0))
    (fun (n, seed, sre, sim) ->
      let e = laplacian_like ~seed n in
      let a = Triplet.create n n in
      for i = 0 to n - 1 do
        Triplet.add a i i (-1.0 -. (0.1 *. float_of_int i))
      done;
      let p = Shifted.pencil ~e ~a in
      let m = Shifted.prepare p ~template:{ Complex.re = 0.0; im = 1.0 } in
      let s = { Complex.re = sre; im = sim } in
      let f = Shifted.refactor m s in
      let fresh = Shifted.factorize p s in
      let b = Mat.random ~seed:(seed + 1) n 2 in
      let close cols cols' =
        Array.for_all2 (fun x y -> Cvec.max_abs (Cvec.sub x y) < 1e-8) cols cols'
      in
      close (Shifted.solve_dense f b) (Shifted.solve_dense fresh b)
      && close (Shifted.solve_hermitian_dense f b) (Shifted.solve_hermitian_dense fresh b))

(* ------------------------------------------------------------------ *)
(* Bitwise against the boxed oracle                                     *)
(* ------------------------------------------------------------------ *)

module Boxed_lu = Pmtbr_oracle.Boxed_lu

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let same_vec = Array.for_all2 same_bits

let same_cols =
  Array.for_all2
    (Array.for_all2 (fun (x : Complex.t) (y : Complex.t) ->
         same_bits x.Complex.re y.Complex.re && same_bits x.Complex.im y.Complex.im))

(* A random sparse square matrix as coordinate entries: diagonally
   dominant (kind 0), random values with zero diagonals that force row
   pivoting (kind 1), or kind 1 with one row or column emptied, which is
   structurally singular (kind 2).  Duplicates are left in. *)
let random_entries kind n seed =
  let rng = Random.State.make [| seed; kind |] in
  let v () = Random.State.float rng 2.0 -. 1.0 in
  let entries = ref [] in
  for j = 0 to n - 1 do
    if kind = 0 then entries := (j, j, 4.0 +. v ()) :: !entries
    else if Random.State.bool rng then entries := (j, j, v ()) :: !entries;
    for _ = 1 to 1 + Random.State.int rng 3 do
      entries := (Random.State.int rng n, j, v ()) :: !entries
    done
  done;
  let cut = Random.State.int rng n and row = Random.State.bool rng in
  List.filter (fun (i, j, _) -> kind < 2 || if row then i <> cut else j <> cut) !entries

(* property: the float-only LU is the oracle's real instance, bit for bit:
   solves on both sides and the column a singular matrix fails at, under
   every production ordering *)
let prop_real_lu_matches_oracle =
  QCheck2.Test.make ~name:"Sparse_lu == boxed oracle R (bitwise)" ~count:80
    QCheck2.Gen.(tup3 (int_range 0 2) (int_range 1 60) (int_range 0 10_000))
    (fun (kind, n, seed) ->
      let entries = random_entries kind n seed in
      let m = Csc.of_entries n n entries in
      let om = Boxed_lu.R.M.of_entries n n entries in
      let b = Array.init n (fun i -> sin (float_of_int ((i * 7) + seed))) in
      List.for_all
        (fun ordering ->
          match
            ( (try Ok (Sparse_lu.factorize ~ordering m) with Sparse_lu.Singular k -> Error k),
              try Ok (Boxed_lu.R.factorize ~ordering om) with Boxed_lu.R.Singular k -> Error k )
          with
          | Ok f, Ok g ->
              same_vec (Sparse_lu.solve_vec f b) (Boxed_lu.R.solve_vec g b)
              && same_vec (Sparse_lu.solve_transposed_vec f b) (Boxed_lu.R.solve_transposed_vec g b)
          | Error k, Error k' -> k = k'
          | _ -> false)
        [ Ordering.Natural; Ordering.Rcm; Ordering.Nested_dissection ])

(* Outcome of a factorisation: the factor, or the column it found
   singular. *)
let flat_outcome f = try Ok (f ()) with Sparse_lu.Singular k -> Error k
let boxed_outcome f = try Ok (f ()) with Boxed_lu.C.Singular k -> Error k

let complex_of_col (b : Mat.t) j =
  Array.init b.Mat.rows (fun i -> { Complex.re = Mat.get b i j; im = 0.0 })

(* A flat factor equals a boxed one when both solve sides agree bit for
   bit on [b] and L + U hold as many entries (the boxed arrays keep at
   least one slot even when L or U is empty, so their counts are read off
   the column pointers). *)
let flat_equals_boxed f g (b : Mat.t) =
  let r = Boxed_lu.C.raw g in
  let n = r.Boxed_lu.C.raw_n in
  Shifted.nnz f = r.Boxed_lu.C.raw_l_colptr.(n) + r.Boxed_lu.C.raw_u_colptr.(n) + n
  && same_cols (Shifted.solve_dense f b)
       (Array.init b.Mat.cols (fun j -> Boxed_lu.C.solve_vec g (complex_of_col b j)))
  && same_cols (Shifted.solve_hermitian_dense f b)
       (Array.init b.Mat.cols (fun j ->
            Array.map Complex.conj (Boxed_lu.C.solve_transposed_vec g (complex_of_col b j))))

(* Pin the one-shot [Shifted.factorize] and the handle's [refactor] at
   each shift against the boxed oracle on the plane-assembled matrix in
   the handle's order: where the oracle's replay at the handle's
   tolerance refuses the shift, [refactor] must be its pivoting
   fallback; a singular shift must fail at the same column. *)
let check_against_oracle ~name ~e ~a ~template shifts (b : Mat.t) =
  let p = Shifted.pencil ~e ~a in
  let n = b.Mat.rows in
  let colptr, rowind, e_coef, a_coef = Boxed_lu.assemble_pattern ~n ~e ~a in
  let at = Boxed_lu.matrix_at ~n ~colptr ~rowind ~e_coef ~a_coef in
  let ordering = Ordering.Given (fst (Ordering.lower_fill colptr rowind n)) in
  let same what flat boxed =
    match (flat, boxed) with
    | Ok f, Ok g -> if not (flat_equals_boxed f g b) then Alcotest.failf "%s: %s differs" name what
    | Error k, Error k' when k = k' -> ()
    | _ -> Alcotest.failf "%s: %s fails differently" name what
  in
  let tpl = Boxed_lu.C.factorize ~ordering (at template) in
  let m = Shifted.prepare p ~template in
  List.iter
    (fun s ->
      let fresh = boxed_outcome (fun () -> Boxed_lu.C.factorize ~ordering (at s)) in
      same "factorize" (flat_outcome (fun () -> Shifted.factorize p s)) fresh;
      match Boxed_lu.C.refactorize ~pivot_tol:1e-10 tpl (at s) with
      | g -> same "replay" (flat_outcome (fun () -> Shifted.refactor m s)) (Ok g)
      | exception Boxed_lu.C.Singular _ ->
          same "fallback" (flat_outcome (fun () -> Shifted.refactor m s)) fresh)
    shifts

(* A random pencil on [n] states: E diagonal positive with a few
   couplings, A sparse with zero diagonals, duplicates in both.  With
   [dead], column c of A is E's column c, so (sE - A) loses it at s = 1. *)
let random_pencil n seed ~dead =
  let rng = Random.State.make [| seed |] in
  let v () = Random.State.float rng 2.0 -. 1.0 in
  let e = Triplet.create n n and a = Triplet.create n n in
  let c = Random.State.int rng n in
  for j = 0 to n - 1 do
    let ejj = 0.5 +. Random.State.float rng 1.5 in
    Triplet.add e j j ejj;
    if dead && j = c then Triplet.add a j j ejj
    else begin
      if Random.State.bool rng then Triplet.add a j j (v ());
      for _ = 1 to 1 + Random.State.int rng 3 do
        let i = Random.State.int rng n in
        Triplet.add a i j (v ());
        if Random.State.int rng 4 = 0 then Triplet.add e i j (0.1 *. v ())
      done
    end
  done;
  (e, a)

(* property: the flat complex kernel is the oracle's boxed instance, bit
   for bit, as the one-shot and as the handle's fallback (the tiny real
   shift sends about half the replays to the fallback) *)
let prop_complex_lu_matches_oracle =
  QCheck2.Test.make ~name:"Shifted == boxed oracle C (bitwise)" ~count:60
    QCheck2.Gen.(
      tup4 (int_range 1 80) (int_range 0 10_000) bool
        (pair (float_range (-1.0) 1.0) (float_range 0.1 3.0)))
    (fun (n, seed, dead, (sre, sim)) ->
      let e, a = random_pencil n seed ~dead in
      let shifts =
        [ { Complex.re = 1e-12; im = 0.0 }; { Complex.re = sre; im = sim }; Complex.one ]
      in
      check_against_oracle ~name:"random pencil" ~e ~a ~template:{ Complex.re = 0.0; im = 1.0 }
        shifts (Mat.random ~seed:(seed + 1) n 2);
      true)

(* the same pins on the generator networks, at the handle's default
   template and across their bands *)
let test_networks_match_oracle () =
  let open Pmtbr_circuit in
  List.iter
    (fun (name, nl, w) ->
      let m = Mna.stamp nl in
      let shifts =
        [
          { Complex.re = 0.0; im = w };
          { Complex.re = 0.0; im = w /. 30.0 };
          { Complex.re = 0.2 *. w; im = 3.0 *. w };
          { Complex.re = 1e-3; im = 0.0 };
        ]
      in
      check_against_oracle ~name ~e:m.Mna.e ~a:m.Mna.a ~template:{ Complex.re = 0.0; im = 1.0 }
        shifts (Mat.random ~seed:41 m.Mna.n 2))
    [
      ("mesh 32x32", Rc_mesh.generate ~rows:32 ~cols:32 ~ports:4 (), 2e10);
      ("strip 8x320", Rc_mesh.generate ~rows:8 ~cols:320 ~ports:4 (), 2e10);
      ( "substrate 20-port",
        Substrate.generate ~ports:20 ~internal:40 ~seed:40020 (),
        Substrate.corner_frequency () );
      ("connector", Connector.generate (), Connector.band_of_interest);
      ("spiral", Spiral.generate (), Spiral.sample_band ());
      ("peec", Peec.generate (), 1e10);
    ]

(* E = I, A = [[0, 1], [1, 0]]: the template at j pivots on row 0, which
   goes stale at s = 1e-12, so the handle must take its fallback there
   (the oracle's replay at the same tolerance refuses the shift) and
   match the one-shot factorisation bit for bit; at s = 1 the pencil is
   singular and the fallback raises. *)
let test_stale_pivot_fallback () =
  let e = Triplet.create 2 2 and a = Triplet.create 2 2 in
  Triplet.add e 0 0 1.0;
  Triplet.add e 1 1 1.0;
  Triplet.add a 0 1 1.0;
  Triplet.add a 1 0 1.0;
  let p = Shifted.pencil ~e ~a in
  let j = { Complex.re = 0.0; im = 1.0 } and s = { Complex.re = 1e-12; im = 0.0 } in
  let m = Shifted.prepare p ~template:j in
  let colptr, rowind, e_coef, a_coef = Boxed_lu.assemble_pattern ~n:2 ~e ~a in
  let at = Boxed_lu.matrix_at ~n:2 ~colptr ~rowind ~e_coef ~a_coef in
  let q = fst (Ordering.lower_fill colptr rowind 2) in
  let tpl = Boxed_lu.C.factorize ~ordering:(Ordering.Given q) (at j) in
  (match Boxed_lu.C.refactorize ~pivot_tol:1e-10 tpl (at s) with
  | _ -> Alcotest.fail "the template's pivot should be stale at s = 1e-12"
  | exception Boxed_lu.C.Singular _ -> ());
  let b = Mat.of_arrays [| [| 1.0; 0.5 |]; [| -2.0; 3.0 |] |] in
  let f = Shifted.refactor m s and g = Shifted.factorize p s in
  Alcotest.(check bool) "fallback == one-shot" true
    (same_cols (Shifted.solve_dense f b) (Shifted.solve_dense g b)
    && same_cols (Shifted.solve_hermitian_dense f b) (Shifted.solve_hermitian_dense g b));
  match Shifted.refactor m Complex.one with
  | _ -> Alcotest.fail "expected Singular at s = 1"
  | exception Sparse_lu.Singular _ -> ()

(* Words allocated on the minor heap by [f], net of the measurement's own
   boxed readings. *)
let minor_words f =
  let idle0 = Gc.minor_words () in
  let idle1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0 -. (idle1 -. idle0))

(* The handle's template factorisation allocates only its arenas and
   workspaces, which go straight to the major heap; what remains is the
   pattern assembly and the ordering.  The kernel makes no float-boxing
   call across modules, so the guard holds in the dev profile too. *)
let test_prepare_allocation () =
  let m = Pmtbr_circuit.Mna.stamp (Pmtbr_circuit.Rc_mesh.generate ~rows:32 ~cols:32 ~ports:4 ()) in
  let p = Shifted.pencil ~e:m.Pmtbr_circuit.Mna.e ~a:m.Pmtbr_circuit.Mna.a in
  let template = { Complex.re = 0.0; im = 1.0 } in
  let _, words = minor_words (fun () -> Shifted.prepare p ~template) in
  if words > 800_000.0 then
    Alcotest.failf "prepare on the 32x32 mesh allocated %.0f minor words (> 800,000)" words

(* ------------------------------------------------------------------ *)
(* Nested dissection and the fill rule                                  *)
(* ------------------------------------------------------------------ *)

(* A random symmetric pattern on [n] vertices, as an undirected edge
   list: a grid with holes, a random sparse graph, or disjoint pieces;
   every kind leaves some vertices isolated. *)
let random_pattern kind n seed =
  let rng = Random.State.make [| seed |] in
  let edges = ref [] in
  let hole = Array.init n (fun _ -> Random.State.int rng 10 = 0) in
  let add i j = if i <> j && not (hole.(i) || hole.(j)) then edges := (i, j) :: !edges in
  (match kind with
  | 0 ->
      let cols = max 1 (int_of_float (sqrt (float_of_int n))) in
      for v = 0 to n - 1 do
        if (v + 1) mod cols <> 0 && v + 1 < n then add v (v + 1);
        if v + cols < n then add v (v + cols)
      done
  | 1 ->
      let v () = Random.State.int rng (max 1 n) in
      for _ = 1 to 2 * n do
        add (v ()) (v ())
      done
  | _ ->
      (* paths of random length, each its own component *)
      let v = ref 0 in
      while !v < n do
        let len = 1 + Random.State.int rng 12 in
        for k = !v to min (n - 1) (!v + len - 1) - 1 do add k (k + 1) done;
        v := !v + len
      done);
  !edges

(* the pattern in CSC form, one triangle only: the orderings symmetrise *)
let csc_of_edges n edges =
  let t = Triplet.create n n in
  List.iter (fun (i, j) -> Triplet.add t i j 1.0) edges;
  let m = Csc.of_entries n n (Triplet.entries t) in
  (m.Csc.colptr, m.Csc.rowind)

(* brute-force symbolic elimination: eliminating a vertex joins its
   remaining neighbours into a clique; nnz(L) counts every such edge
   plus the diagonal *)
let brute_fill n edges p =
  let adj = Array.make_matrix n n false in
  List.iter (fun (i, j) -> adj.(i).(j) <- true; adj.(j).(i) <- true) edges;
  let gone = Array.make n false and count = ref n in
  Array.iter
    (fun v ->
      gone.(v) <- true;
      let nb = List.filter (fun u -> adj.(v).(u) && not gone.(u)) (List.init n Fun.id) in
      count := !count + List.length nb;
      List.iter (fun a -> List.iter (fun b -> if a <> b then adj.(a).(b) <- true) nb) nb)
    p;
  !count

let prop_nested_dissection_and_rule =
  QCheck2.Test.make ~name:"nested dissection, fill count and the fill rule" ~count:60
    QCheck2.Gen.(tup3 (int_range 0 2) (int_range 0 300) (int_range 0 10_000))
    (fun (kind, n, seed) ->
      let edges = random_pattern kind n seed in
      let colptr, rowind = csc_of_edges n edges in
      let nd = Ordering.nested_dissection colptr rowind n in
      permutation_ok "nested dissection" nd n;
      let rcm = Ordering.rcm colptr rowind n in
      let fill = Ordering.fill colptr rowind n in
      if n <= 40 then
        List.iter
          (fun p ->
            if fill p <> brute_fill n edges p then
              QCheck2.Test.fail_reportf "fill %d <> brute force %d" (fill p) (brute_fill n edges p))
          [ nd; rcm; Ordering.natural n ];
      let chosen, pick = Ordering.lower_fill colptr rowind n in
      let want_nd = fill nd < fill rcm in
      if pick.Ordering.nested <> want_nd || chosen <> (if want_nd then nd else rcm)
         || pick.Ordering.rcm_fill <> fill rcm || pick.Ordering.nd_fill <> fill nd
      then QCheck2.Test.fail_report "the rule did not return the lower-fill order (ties to RCM)";
      (* (sE - A) on the pattern: E = diag, A = -(Laplacian + leak) *)
      n = 0
      ||
      let e = Triplet.create n n and a = Triplet.create n n in
      for i = 0 to n - 1 do
        Triplet.add e i i (1.0 +. float_of_int (i mod 3));
        Triplet.add a i i (-0.5)
      done;
      List.iter
        (fun (i, j) ->
          List.iter
            (fun (r, c, v) -> Triplet.add a r c v)
            [ (i, i, -1.0); (j, j, -1.0); (i, j, 1.0); (j, i, 1.0) ])
        edges;
      let m = Shifted.prepare (Shifted.pencil ~e ~a) ~template:{ Complex.re = 0.0; im = 1.0 } in
      let s = { Complex.re = 0.0; im = 2.5 } in
      let b = Mat.random ~seed n 1 in
      let x = (Shifted.solve_dense (Shifted.refactor m s) b).(0) in
      let dm =
        Cmat.axpby_real ~alpha:s (Triplet.to_dense e) ~beta:{ Complex.re = -1.0; im = 0.0 }
          (Triplet.to_dense a)
      in
      let bc = Array.init n (fun i -> { Complex.re = Mat.get b i 0; im = 0.0 }) in
      Cvec.max_abs (Cvec.sub (Cmat.mv dm x) bc) <= 1e-12 *. Cvec.max_abs bc)

(* The chosen order changes only the elimination, never the answer:
   sampled singular values and in-band transfer values under the fill
   rule's pick agree with a forced-RCM handle on the same pencil. *)
let samples_under ordering (sys : Pmtbr_lti.Dss.t) omegas =
  match sys with
  | Pmtbr_lti.Dss.Dense _ -> assert false
  | Pmtbr_lti.Dss.Sparse { pencil; b; c; _ } ->
      let m = Shifted.prepare ?ordering pencil ~template:{ Complex.re = 0.0; im = 1.0 } in
      let solve w = Shifted.solve_dense (Shifted.refactor m { Complex.re = 0.0; im = w }) b in
      let xs = Array.concat (List.map solve (Array.to_list omegas)) in
      (* the realified sample matrix: [Re x; Im x] for every solved column *)
      let z =
        Mat.init b.Mat.rows (2 * Array.length xs) (fun i j ->
            let x = xs.(j / 2).(i) in
            if j mod 2 = 0 then x.Complex.re else x.Complex.im)
      in
      (Svd.values z, Array.map (Cmat.mv (Cmat.of_mat c)) xs, Shifted.ordering m)

(* largest relative difference between two lists of transfer columns *)
let max_rel_h h1 h2 =
  Array.fold_left max 0.0
    (Array.map2 (fun a b -> Cvec.max_abs (Cvec.sub a b) /. Cvec.max_abs b) h1 h2)

let prop_nd_answers_match_rcm =
  QCheck2.Test.make ~name:"fill-rule order answers == forced RCM" ~count:3
    QCheck2.Gen.(pair (float_range 0.2 1.0) (int_range 0 1))
    (fun (edge, which) ->
      let rows = if which = 0 then 24 else 52 in
      let nl = Pmtbr_circuit.Rc_mesh.generate ~rows ~cols:rows ~ports:4 () in
      let sys = Pmtbr_lti.Dss.of_netlist nl in
      let omegas = Array.init 8 (fun k -> edge *. 2e10 *. float_of_int (k + 1) /. 8.0) in
      let sig_nd, h_nd, pick = samples_under None sys omegas in
      let sig_rcm, h_rcm, _ = samples_under (Some Ordering.Rcm) sys omegas in
      (match pick with
      | Some p when p.Ordering.nested -> ()
      | _ -> QCheck2.Test.fail_reportf "%dx%d mesh: the rule should pick nested dissection" rows rows);
      let dsig =
        Array.fold_left max 0.0 (Array.map2 (fun a b -> Float.abs (a -. b)) sig_nd sig_rcm)
      in
      if dsig > 1e-12 *. sig_rcm.(0) then
        QCheck2.Test.fail_reportf "sigma drift %.3e" (dsig /. sig_rcm.(0));
      let dh = max_rel_h h_nd h_rcm in
      if dh > 1e-10 then QCheck2.Test.fail_reportf "H drift %.3e" dh;
      true)

(* RLC pencils with mutual inductance: nested dissection forced against
   RCM, transfer values within 1e-9 *)
let test_forced_nd_rlc () =
  List.iter
    (fun (name, nl, w) ->
      let sys = Pmtbr_lti.Dss.of_netlist nl in
      let omegas = Array.init 6 (fun k -> w *. float_of_int (k + 1) /. 6.0) in
      let _, h_nd, _ = samples_under (Some Ordering.Nested_dissection) sys omegas in
      let _, h_rcm, _ = samples_under (Some Ordering.Rcm) sys omegas in
      let dh = max_rel_h h_nd h_rcm in
      if dh > 1e-9 then Alcotest.failf "%s: forced-ND H drift %.3e" name dh)
    [
      ("spiral", Pmtbr_circuit.Spiral.generate (), Pmtbr_circuit.Spiral.sample_band ());
      ("connector", Pmtbr_circuit.Connector.generate (), Pmtbr_circuit.Connector.band_of_interest);
    ]

(* the rule's pick through the production handle, per network class *)
let test_rule_picks () =
  let open Pmtbr_circuit in
  List.iter
    (fun (name, nl, want_nd) ->
      let handle = Pmtbr_lti.Dss.multi_shift (Pmtbr_lti.Dss.of_netlist nl) in
      match Pmtbr_lti.Dss.multi_ordering handle with
      | None -> Alcotest.failf "%s: no pick recorded" name
      | Some p -> Alcotest.(check bool) (name ^ " picks ND") want_nd p.Ordering.nested)
    [
      ("mesh 24x24", Rc_mesh.generate ~rows:24 ~cols:24 ~ports:4 (), true);
      ("mesh 52x52", Rc_mesh.generate ~rows:52 ~cols:52 ~ports:4 (), true);
      ("mesh 64x64", Rc_mesh.generate ~rows:64 ~cols:64 ~ports:4 (), true);
      ("strip 8x320", Rc_mesh.generate ~rows:8 ~cols:320 ~ports:4 (), false);
      ("strip 4x40", Rc_mesh.generate ~rows:4 ~cols:40 ~ports:2 (), false);
      ("mesh 16x16", Rc_mesh.generate ~rows:16 ~cols:16 ~ports:4 (), false);
      ("rc line", Rc_line.generate ~sections:600 (), false);
      ("substrate 12-port", Substrate.generate ~ports:12 ~internal:20 ~seed:5 (), false);
      ("substrate 8-port", Substrate.generate ~ports:8 ~internal:24 ~seed:24008 (), false);
      ("substrate 20-port", Substrate.generate ~ports:20 ~internal:40 ~seed:40020 (), false);
    ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sparse_lu;
      prop_orderings_preserve_solution;
      prop_replay_matches_fresh;
      prop_real_lu_matches_oracle;
      prop_complex_lu_matches_oracle;
      prop_nested_dissection_and_rule;
      prop_nd_answers_match_rcm;
    ]

let () =
  Alcotest.run "pmtbr_sparse"
    [
      ( "csc",
        [
          Alcotest.test_case "triplet roundtrip" `Quick test_triplet_roundtrip;
          Alcotest.test_case "mv" `Quick test_csc_mv;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "permutations valid" `Quick test_orderings_are_permutations;
          Alcotest.test_case "rcm bandwidth on path" `Quick test_rcm_reduces_bandwidth;
          Alcotest.test_case "fill rule picks per network" `Quick test_rule_picks;
          Alcotest.test_case "forced nested dissection on RLC" `Quick test_forced_nd_rlc;
        ] );
      ( "lu",
        [
          Alcotest.test_case "natural" `Quick test_sparse_lu_natural;
          Alcotest.test_case "rcm" `Quick test_sparse_lu_rcm;
          Alcotest.test_case "min degree" `Quick test_sparse_lu_min_degree;
          Alcotest.test_case "vs dense" `Quick test_sparse_lu_vs_dense;
          Alcotest.test_case "singular raises" `Quick test_sparse_lu_singular;
          Alcotest.test_case "needs pivoting" `Quick test_sparse_lu_needs_pivoting;
          Alcotest.test_case "complex shifted" `Quick test_complex_sparse_lu;
          Alcotest.test_case "hermitian shifted" `Quick test_shifted_hermitian_solve;
          Alcotest.test_case "stale pivot fallback" `Quick test_stale_pivot_fallback;
          Alcotest.test_case "networks == boxed oracle (bitwise)" `Quick test_networks_match_oracle;
          Alcotest.test_case "prepare allocation" `Quick test_prepare_allocation;
        ] );
      ("properties", props);
    ]
