(* Descriptor state-space systems E dx/dt = A x + B u, y = C x.

   Two concrete representations share one interface: full models straight
   out of MNA keep E and A sparse; reduced models are small and dense.  All
   reduction algorithms only need the operations below (shifted solves,
   multiplication by E/A, and the port matrices). *)

open Pmtbr_la
open Pmtbr_sparse

type t =
  | Sparse of {
      e : Triplet.t;
      a : Triplet.t;
      pencil : Shifted.pencil;
      b : Mat.t;
      c : Mat.t;
      n : int;
    }
  | Dense of { e : Mat.t; a : Mat.t; b : Mat.t; c : Mat.t }

let of_mna (m : Pmtbr_circuit.Mna.system) =
  Sparse
    {
      e = m.Pmtbr_circuit.Mna.e;
      a = m.Pmtbr_circuit.Mna.a;
      pencil = Shifted.pencil ~e:m.Pmtbr_circuit.Mna.e ~a:m.Pmtbr_circuit.Mna.a;
      b = m.Pmtbr_circuit.Mna.b;
      c = m.Pmtbr_circuit.Mna.c;
      n = m.Pmtbr_circuit.Mna.n;
    }

let of_netlist nl = of_mna (Pmtbr_circuit.Mna.stamp nl)
let of_dense ~e ~a ~b ~c = Dense { e; a; b; c }

(* Standard (E = I) dense system. *)
let of_standard ~a ~b ~c = Dense { e = Mat.identity a.Mat.rows; a; b; c }

let order = function Sparse { n; _ } -> n | Dense { a; _ } -> a.Mat.rows
let inputs = function Sparse { b; _ } | Dense { b; _ } -> b.Mat.cols
let outputs = function Sparse { c; _ } | Dense { c; _ } -> c.Mat.rows
let b_matrix = function Sparse { b; _ } | Dense { b; _ } -> b
let c_matrix = function Sparse { c; _ } | Dense { c; _ } -> c

(* Dense copies of E and A (used by the exact-TBR baseline; full models are
   at most a couple of thousand states in the experiments). *)
let e_dense = function Sparse { e; _ } -> Triplet.to_dense e | Dense { e; _ } -> e
let a_dense = function Sparse { a; _ } -> Triplet.to_dense a | Dense { a; _ } -> a

(* E * V and A * V for dense V: congruence projection ingredients. *)
let apply_e sys (v : Mat.t) =
  match sys with
  | Sparse { e; _ } -> Triplet.mul_dense e v
  | Dense { e; _ } -> Mat.mul e v

let apply_a sys (v : Mat.t) =
  match sys with
  | Sparse { a; _ } -> Triplet.mul_dense a v
  | Dense { a; _ } -> Mat.mul a v

(* A reusable factorisation of (sE - A): the unboxed sparse LU of the
   one-shot path and of the multi-shift replay alike, or a dense complex
   LU for reduced models. *)
type shifted_factor = Fz of Shifted.factor * int | Fd of Cmat.lu * int

let factor_shifted sys (s : Complex.t) =
  match sys with
  | Sparse { pencil; n; _ } -> Fz (Shifted.factorize pencil s, n)
  | Dense { e; a; _ } ->
      let m = Cmat.axpby_real ~alpha:s e ~beta:{ Complex.re = -1.0; im = 0.0 } a in
      Fd (Cmat.lu m, a.Mat.rows)

(* ------------------------------------------------------------------ *)
(* Multi-shift solver: symbolic work shared across all sample shifts    *)
(* ------------------------------------------------------------------ *)

(* For sparse systems this wraps [Shifted.prepare]: pattern assembly,
   fill-reducing ordering and elimination analysis happen once, and every
   shift pays only a numeric refactorisation.  Dense (reduced) systems are
   small enough that a fresh LU per shift is the whole cost.  The handle is
   immutable after creation, so concurrent [multi_factor] calls from
   different domains are safe. *)
type multi_shift =
  | Ms of Shifted.multi * int
  | Md of { e : Mat.t; a : Mat.t }

let multi_shift ?(template = { Complex.re = 0.0; im = 1.0 }) sys =
  match sys with
  | Sparse { pencil; n; _ } -> Ms (Shifted.prepare pencil ~template, n)
  | Dense { e; a; _ } -> Md { e; a }

let multi_ordering = function Ms (m, _) -> Shifted.ordering m | Md _ -> None

(* [hermitian] asks for a factor prepared for [(sE - A)^H x = r] solves:
   sparse factors serve both sides (the LU of M solves M^H via conjugated
   transposed solves), while the dense LU must factor the conjugate
   transpose itself. *)
let multi_factor ms ~hermitian (s : Complex.t) =
  match ms with
  | Ms (m, n) -> Fz (Shifted.refactor m s, n)
  | Md { e; a } ->
      let m = Cmat.axpby_real ~alpha:s e ~beta:{ Complex.re = -1.0; im = 0.0 } a in
      let m = if hermitian then Cmat.conj_transpose m else m in
      Fd (Cmat.lu m, a.Mat.rows)

(* The one solve dispatcher: a sparse factor serves both sides, a dense
   one was factored for the side it solves. *)
let multi_solve_factored f ~hermitian (r : Mat.t) : Complex.t array array =
  match f with
  | Fz (fact, n) ->
      assert (r.Mat.rows = n);
      if hermitian then Shifted.solve_hermitian_dense fact r else Shifted.solve_dense fact r
  | Fd (lu, n) ->
      (* a hermitian factor already holds the LU of (sE - A)^H *)
      assert (r.Mat.rows = n);
      Array.init r.Mat.cols (fun j ->
          let rhs = Array.init n (fun i -> { Complex.re = Mat.get r i j; im = 0.0 }) in
          Cmat.lu_solve_vec lu rhs)

(* Solve (sE - A) X = R for a dense real right-hand side; result is complex,
   one column per column of R. *)
let solve_factored f r = multi_solve_factored f ~hermitian:false r

(* One-shot solves. *)
let shifted_solve sys s = solve_factored (factor_shifted sys s) (b_matrix sys)

let shifted_solve_rhs sys s r = solve_factored (factor_shifted sys s) r

(* Convert to standard form (A' = E^{-1} A etc.); requires invertible E.
   Only used by the exact-TBR baseline. *)
let to_standard sys =
  let e = e_dense sys and a = a_dense sys in
  let lu =
    try Mat.lu e
    with Mat.Singular _ -> invalid_arg "Dss.to_standard: singular E"
  in
  let a' = Mat.lu_solve lu a in
  let b' = Mat.lu_solve lu (b_matrix sys) in
  (a', b', c_matrix sys)

exception Not_rc_like

(* Symmetrised standard form for RC-structured systems (diagonal SPD E,
   symmetric A): with x~ = E^{1/2} x,

     A~ = E^{-1/2} A E^{-1/2} (symmetric),  B~ = E^{-1/2} B,  C~ = C E^{-1/2}

   so that a current-driven RC network has C~ = B~^T: the paper's symmetric
   case, in which both Gramians coincide and the singular values of the
   PMTBR sample matrix estimate the Hankel singular values directly.
   Raises [Not_rc_like] when E is not diagonal positive. *)
let symmetrize_rc sys =
  match sys with
  | Dense _ -> raise Not_rc_like
  | Sparse { e; a; b; c; n; _ } ->
      let d = Array.make n 0.0 in
      List.iter
        (fun (i, j, v) ->
          if i <> j && v <> 0.0 then raise Not_rc_like;
          if i = j then d.(i) <- d.(i) +. v)
        (Triplet.entries e);
      Array.iter (fun v -> if v <= 0.0 then raise Not_rc_like) d;
      let dinv_sqrt = Array.map (fun v -> 1.0 /. sqrt v) d in
      let a' = Triplet.create n n in
      List.iter
        (fun (i, j, v) -> Triplet.add a' i j (v *. dinv_sqrt.(i) *. dinv_sqrt.(j)))
        (Triplet.entries a);
      (* keep the frame square even if the last row/col is empty *)
      Triplet.add a' (n - 1) (n - 1) 0.0;
      let e' = Triplet.create n n in
      for i = 0 to n - 1 do
        Triplet.add e' i i 1.0
      done;
      let b' = Mat.init n b.Mat.cols (fun i j -> dinv_sqrt.(i) *. Mat.get b i j) in
      let c' = Mat.init c.Mat.rows n (fun i j -> Mat.get c i j *. dinv_sqrt.(j)) in
      Sparse { e = e'; a = a'; pencil = Shifted.pencil ~e:e' ~a:a'; b = b'; c = c'; n }

(* Congruence (Galerkin) projection with a single orthonormal basis V:
   reduced system (V^T E V, V^T A V, V^T B, C V). *)
let project_congruence sys (v : Mat.t) =
  let vt = Mat.transpose v in
  Dense
    {
      e = Mat.mul vt (apply_e sys v);
      a = Mat.mul vt (apply_a sys v);
      b = Mat.mul vt (b_matrix sys);
      c = Mat.mul (c_matrix sys) v;
    }

(* Oblique (Petrov-Galerkin) projection with distinct left/right bases. *)
let project_oblique sys ~(w : Mat.t) ~(v : Mat.t) =
  let wt = Mat.transpose w in
  Dense
    {
      e = Mat.mul wt (apply_e sys v);
      a = Mat.mul wt (apply_a sys v);
      b = Mat.mul wt (b_matrix sys);
      c = Mat.mul (c_matrix sys) v;
    }
