(* The boxed sparse LU every shifted factorisation ran before the library
   moved onto one flat complex kernel: the scalar-generic Gilbert-Peierls
   functor, instantiated at [float] ([R]) and [Complex.t] ([C], every
   value a boxed record, every column a buffer of boxed pairs), with the
   generic CSC it reads and the plane assembly of (sE - A).
   [Pmtbr_sparse.Sparse_lu] repeats [R] and [Shifted.factorize] repeats
   [C] on the plane-assembled matrix operation for operation — the same
   reach, the same pivots, the same arithmetic in the same order — so
   [test_sparse] pins both bitwise on solves and on the [Singular]
   column. *)

open Pmtbr_sparse

(* ------------------------------------------------------------------ *)
(* The generic CSC the functor reads                                    *)
(* ------------------------------------------------------------------ *)

module Csc = struct
  module type S = sig
    type elt

    type t = {
      rows : int;
      cols : int;
      colptr : int array; (* length cols+1 *)
      rowind : int array; (* length nnz, ascending within each column *)
      values : elt array;
    }

    val of_entries : int -> int -> (int * int * elt) list -> t
    val iter_col : t -> int -> (int -> elt -> unit) -> unit
  end

  module Make (K : Scalar.S) : S with type elt = K.t = struct
    type elt = K.t

    type t = {
      rows : int;
      cols : int;
      colptr : int array;
      rowind : int array;
      values : elt array;
    }

    let of_entries rows cols entries =
      let arr = Array.of_list entries in
      Array.iter (fun (i, j, _) -> assert (i >= 0 && i < rows && j >= 0 && j < cols)) arr;
      Array.sort (fun (i1, j1, _) (i2, j2, _) -> if j1 <> j2 then compare j1 j2 else compare i1 i2) arr;
      (* merge duplicates *)
      let merged = ref [] and count = ref 0 in
      Array.iter
        (fun (i, j, v) ->
          match !merged with
          | (i', j', v') :: rest when i = i' && j = j' -> merged := (i, j, K.add v v') :: rest
          | _ ->
              merged := (i, j, v) :: !merged;
              incr count)
        arr;
      let merged = Array.of_list (List.rev !merged) in
      let n = Array.length merged in
      let colptr = Array.make (cols + 1) 0 in
      Array.iter (fun (_, j, _) -> colptr.(j + 1) <- colptr.(j + 1) + 1) merged;
      for j = 0 to cols - 1 do
        colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
      done;
      let rowind = Array.make n 0 and values = Array.make n K.zero in
      Array.iteri
        (fun k (i, _, v) ->
          rowind.(k) <- i;
          values.(k) <- v)
        merged;
      { rows; cols; colptr; rowind; values }

    let iter_col t j f =
      for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
        f t.rowind.(k) t.values.(k)
      done
  end
end

(* ------------------------------------------------------------------ *)
(* The scalar-generic Gilbert-Peierls LU                                *)
(* ------------------------------------------------------------------ *)

module type S = sig
  type elt

  module M : Csc.S with type elt = elt

  exception Singular of int

  type factor

  val factorize : ?ordering:Ordering.scheme -> M.t -> factor
  val refactorize : ?pivot_tol:float -> factor -> M.t -> factor
  val col_ordering : factor -> int array

  type raw = {
    raw_n : int;
    raw_l_colptr : int array;
    raw_l_rowind : int array;
    raw_l_values : elt array;
    raw_u_colptr : int array;
    raw_u_rowind : int array;
    raw_u_values : elt array;
    raw_u_diag : elt array;
    raw_pinv : int array;
    raw_q : int array;
  }

  val raw : factor -> raw
  val nnz : factor -> int
  val solve_vec : factor -> elt array -> elt array
  val solve_transposed_vec : factor -> elt array -> elt array
  val solve_dense : factor -> M.t -> elt array array
end

module Make (K : Scalar.S) = struct
  type elt = K.t

  module M = Csc.Make (K)

  exception Singular of int

  type factor = {
    n : int;
    (* L in pivot coordinates, unit diagonal implicit *)
    l_colptr : int array;
    l_rowind : int array;
    l_values : K.t array;
    (* strictly-upper part of U, plus the diagonal separately *)
    u_colptr : int array;
    u_rowind : int array;
    u_values : K.t array;
    u_diag : K.t array;
    pinv : int array; (* original row -> pivot position *)
    q : int array; (* pivot column k came from original column q.(k) *)
  }

  type buf = { mutable data : (int * K.t) array; mutable len : int }

  let buf_create () = { data = Array.make 16 (0, K.zero); len = 0 }

  let buf_push b v =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) (0, K.zero) in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1

  (* DFS from [start] over the column graph of L (node i has children = the
     row indices of L's column pinv.(i), when i is already pivotal).  Pushes
     nodes onto [topo] in reverse topological order. *)
  let dfs ~start ~pinv ~l_cols ~(mark : int array) ~stamp ~(topo : int array) ~topo_len
      ~(stack : int array) ~(child_pos : int array) =
    let sp = ref 0 in
    stack.(0) <- start;
    mark.(start) <- stamp;
    child_pos.(start) <- 0;
    let tl = ref topo_len in
    while !sp >= 0 do
      let u = stack.(!sp) in
      let children : buf option = if pinv.(u) >= 0 then Some l_cols.(pinv.(u)) else None in
      let advanced = ref false in
      (match children with
      | None -> ()
      | Some b ->
          let k = ref child_pos.(u) in
          let n = b.len in
          let found = ref (-1) in
          while !found < 0 && !k < n do
            let r, _ = b.data.(!k) in
            incr k;
            if mark.(r) <> stamp then found := r
          done;
          child_pos.(u) <- !k;
          if !found >= 0 then begin
            advanced := true;
            incr sp;
            stack.(!sp) <- !found;
            mark.(!found) <- stamp;
            child_pos.(!found) <- 0
          end);
      if not !advanced then begin
        (* all children visited: emit u *)
        topo.(!tl) <- u;
        incr tl;
        decr sp
      end
    done;
    !tl

  let factorize ?(ordering = Ordering.Natural) (a : M.t) =
    assert (a.M.rows = a.M.cols);
    let n = a.M.rows in
    let q = Ordering.compute ordering a.M.colptr a.M.rowind n in
    let pinv = Array.make n (-1) in
    let l_cols = Array.init n (fun _ -> buf_create ()) in
    let u_cols = Array.init n (fun _ -> buf_create ()) in
    let u_diag = Array.make n K.zero in
    let x = Array.make n K.zero in
    let mark = Array.make n (-1) in
    let topo = Array.make n 0 in
    let stack = Array.make n 0 in
    let child_pos = Array.make n 0 in
    for k = 0 to n - 1 do
      let jcol = q.(k) in
      (* symbolic: union of reaches of the rows of A(:, jcol) *)
      let topo_len = ref 0 in
      for p = a.M.colptr.(jcol) to a.M.colptr.(jcol + 1) - 1 do
        let i = a.M.rowind.(p) in
        if mark.(i) <> k then topo_len := dfs ~start:i ~pinv ~l_cols ~mark ~stamp:k ~topo ~topo_len:!topo_len ~stack ~child_pos
      done;
      let nz = !topo_len in
      (* scatter the numeric column *)
      for t = 0 to nz - 1 do
        x.(topo.(t)) <- K.zero
      done;
      for p = a.M.colptr.(jcol) to a.M.colptr.(jcol + 1) - 1 do
        x.(a.M.rowind.(p)) <- a.M.values.(p)
      done;
      (* numeric sparse triangular solve, in topological order (topo holds
         reverse-topological, so walk backwards) *)
      for t = nz - 1 downto 0 do
        let i = topo.(t) in
        let piv = pinv.(i) in
        if piv >= 0 then begin
          let xi = x.(i) in
          if not (K.is_zero xi) then begin
            let b = l_cols.(piv) in
            for c = 0 to b.len - 1 do
              let r, lv = b.data.(c) in
              x.(r) <- K.sub x.(r) (K.mul lv xi)
            done
          end
        end
      done;
      (* partial pivoting among non-pivotal rows *)
      let pivrow = ref (-1) and pivmag = ref 0.0 in
      for t = 0 to nz - 1 do
        let i = topo.(t) in
        if pinv.(i) < 0 then begin
          let m = K.abs x.(i) in
          if m > !pivmag then begin
            pivmag := m;
            pivrow := i
          end
        end
      done;
      if !pivrow < 0 || !pivmag = 0.0 then raise (Singular k);
      let pivot = x.(!pivrow) in
      pinv.(!pivrow) <- k;
      u_diag.(k) <- pivot;
      (* distribute entries into U (pivotal rows) and L (non-pivotal) *)
      for t = 0 to nz - 1 do
        let i = topo.(t) in
        let piv = pinv.(i) in
        if piv >= 0 && piv < k then buf_push u_cols.(k) (piv, x.(i))
        else if i <> !pivrow then buf_push l_cols.(k) (i, K.div x.(i) pivot)
      done
    done;
    (* finalise: renumber L's rows into pivot coordinates *)
    let count_l = Array.fold_left (fun acc b -> acc + b.len) 0 l_cols in
    let count_u = Array.fold_left (fun acc b -> acc + b.len) 0 u_cols in
    let l_colptr = Array.make (n + 1) 0 in
    let u_colptr = Array.make (n + 1) 0 in
    let l_rowind = Array.make (max 1 count_l) 0 in
    let l_values = Array.make (max 1 count_l) K.zero in
    let u_rowind = Array.make (max 1 count_u) 0 in
    let u_values = Array.make (max 1 count_u) K.zero in
    let lp = ref 0 and up = ref 0 in
    for k = 0 to n - 1 do
      l_colptr.(k) <- !lp;
      let b = l_cols.(k) in
      for c = 0 to b.len - 1 do
        let i, v = b.data.(c) in
        l_rowind.(!lp) <- pinv.(i);
        l_values.(!lp) <- v;
        incr lp
      done;
      u_colptr.(k) <- !up;
      let b = u_cols.(k) in
      (* ascending pivot order within each U column: refactorisation replays
         the eliminations of column k in exactly this storage order, which is
         only a valid (left-looking) schedule when the contributing pivots
         come in increasing order *)
      let col = Array.sub b.data 0 b.len in
      Array.sort (fun (i1, _) (i2, _) -> compare i1 i2) col;
      Array.iter
        (fun (i, v) ->
          u_rowind.(!up) <- i;
          u_values.(!up) <- v;
          incr up)
        col
    done;
    l_colptr.(n) <- !lp;
    u_colptr.(n) <- !up;
    { n; l_colptr; l_rowind; l_values; u_colptr; u_rowind; u_values; u_diag; pinv; q }

  let nnz f = Array.length f.l_rowind + Array.length f.u_rowind + f.n
  let col_ordering f = Array.copy f.q

  type raw = {
    raw_n : int;
    raw_l_colptr : int array;
    raw_l_rowind : int array;
    raw_l_values : elt array;
    raw_u_colptr : int array;
    raw_u_rowind : int array;
    raw_u_values : elt array;
    raw_u_diag : elt array;
    raw_pinv : int array;
    raw_q : int array;
  }

  (* Read-only structural view for specialised kernels (the arrays are
     shared with the factor, not copied — do not mutate them). *)
  let raw f =
    {
      raw_n = f.n;
      raw_l_colptr = f.l_colptr;
      raw_l_rowind = f.l_rowind;
      raw_l_values = f.l_values;
      raw_u_colptr = f.u_colptr;
      raw_u_rowind = f.u_rowind;
      raw_u_values = f.u_values;
      raw_u_diag = f.u_diag;
      raw_pinv = f.pinv;
      raw_q = f.q;
    }

  (* Numeric-only refactorisation: replay the elimination of [tpl] — same
     column ordering, same pivot sequence, same L/U nonzero pattern — on a
     matrix with the identical sparsity structure but new values.  This is
     the per-shift cost of a multi-shift sweep once a template factorisation
     of one (s0 E - A) has paid for the symbolic analysis.

     Correctness: for pivot column k, the template's U rows (stored in
     ascending pivot order) list exactly the pivotal columns j < k whose L
     columns update column k, and the template's L rows give the fill
     pattern of the update target; replaying those updates in ascending j
     order is a valid left-looking schedule.  Entries of [a] outside the
     template pattern would be silently mislocated, so membership is checked
     as each column is scattered.

     Pivots are reused, not re-chosen, so a value change can drive a reused
     pivot towards zero: [Singular k] is raised when |u_kk| fails the
     [pivot_tol]-relative test against the largest entry of the eliminated
     column (exact zeros always fail), and callers fall back to a fresh
     pivoting factorisation. *)
  let refactorize ?(pivot_tol = 0.0) (tpl : factor) (a : M.t) =
    let n = tpl.n in
    if a.M.rows <> n || a.M.cols <> n then invalid_arg "Sparse_lu.refactorize: dimension mismatch";
    let l_values = Array.make (Array.length tpl.l_values) K.zero in
    let u_values = Array.make (Array.length tpl.u_values) K.zero in
    let u_diag = Array.make n K.zero in
    let x = Array.make n K.zero in
    let mark = Array.make n (-1) in
    for k = 0 to n - 1 do
      let jcol = tpl.q.(k) in
      (* clear (and mark) the pattern of pivot column k, then scatter
         A(:, jcol) into pivot coordinates *)
      for p = tpl.u_colptr.(k) to tpl.u_colptr.(k + 1) - 1 do
        x.(tpl.u_rowind.(p)) <- K.zero;
        mark.(tpl.u_rowind.(p)) <- k
      done;
      x.(k) <- K.zero;
      mark.(k) <- k;
      for p = tpl.l_colptr.(k) to tpl.l_colptr.(k + 1) - 1 do
        x.(tpl.l_rowind.(p)) <- K.zero;
        mark.(tpl.l_rowind.(p)) <- k
      done;
      for p = a.M.colptr.(jcol) to a.M.colptr.(jcol + 1) - 1 do
        let i = tpl.pinv.(a.M.rowind.(p)) in
        if mark.(i) <> k then
          invalid_arg "Sparse_lu.refactorize: matrix pattern differs from the template";
        x.(i) <- a.M.values.(p)
      done;
      (* eliminate with the already-computed columns, ascending pivot order *)
      for p = tpl.u_colptr.(k) to tpl.u_colptr.(k + 1) - 1 do
        let j = tpl.u_rowind.(p) in
        let xj = x.(j) in
        u_values.(p) <- xj;
        if not (K.is_zero xj) then
          for lp = tpl.l_colptr.(j) to tpl.l_colptr.(j + 1) - 1 do
            let r = tpl.l_rowind.(lp) in
            x.(r) <- K.sub x.(r) (K.mul l_values.(lp) xj)
          done
      done;
      let pivot = x.(k) in
      let colmax = ref (K.abs pivot) in
      for p = tpl.l_colptr.(k) to tpl.l_colptr.(k + 1) - 1 do
        colmax := Float.max !colmax (K.abs x.(tpl.l_rowind.(p)))
      done;
      if K.abs pivot <= pivot_tol *. !colmax || K.is_zero pivot then raise (Singular k);
      u_diag.(k) <- pivot;
      for p = tpl.l_colptr.(k) to tpl.l_colptr.(k + 1) - 1 do
        l_values.(p) <- K.div x.(tpl.l_rowind.(p)) pivot
      done
    done;
    (* structure arrays are immutable from here on: share them with the
       template instead of copying *)
    { tpl with l_values; u_values; u_diag }

  let solve_vec f b =
    let n = f.n in
    assert (Array.length b = n);
    (* y = P b *)
    let y = Array.make n K.zero in
    for i = 0 to n - 1 do
      y.(f.pinv.(i)) <- b.(i)
    done;
    (* forward: L y' = y, column-oriented, unit diagonal *)
    for k = 0 to n - 1 do
      let yk = y.(k) in
      if not (K.is_zero yk) then
        for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
          let r = f.l_rowind.(p) in
          y.(r) <- K.sub y.(r) (K.mul f.l_values.(p) yk)
        done
    done;
    (* backward: U z = y', column-oriented *)
    for k = n - 1 downto 0 do
      y.(k) <- K.div y.(k) f.u_diag.(k);
      let yk = y.(k) in
      if not (K.is_zero yk) then
        for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
          let r = f.u_rowind.(p) in
          y.(r) <- K.sub y.(r) (K.mul f.u_values.(p) yk)
        done
    done;
    (* undo the column permutation *)
    let x = Array.make n K.zero in
    for k = 0 to n - 1 do
      x.(f.q.(k)) <- y.(k)
    done;
    x

  (* Solve A^T x = b using the same factorisation: (LU)^T x' = ... *)
  let solve_transposed_vec f b =
    let n = f.n in
    assert (Array.length b = n);
    (* A = P^T L U Q^T  =>  A^T = Q U^T L^T P.  Solve U^T w = Q^T b, then
       L^T z = w, then x = P^T z. *)
    let w = Array.make n K.zero in
    for k = 0 to n - 1 do
      w.(k) <- b.(f.q.(k))
    done;
    (* U^T w' = w: row-oriented over U's columns ascending *)
    for k = 0 to n - 1 do
      let acc = ref w.(k) in
      for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
        let r = f.u_rowind.(p) in
        acc := K.sub !acc (K.mul f.u_values.(p) w.(r))
      done;
      w.(k) <- K.div !acc f.u_diag.(k)
    done;
    (* L^T z = w: descending, unit diagonal *)
    for k = n - 1 downto 0 do
      let acc = ref w.(k) in
      for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
        let r = f.l_rowind.(p) in
        acc := K.sub !acc (K.mul f.l_values.(p) w.(r))
      done;
      w.(k) <- !acc
    done;
    let x = Array.make n K.zero in
    for i = 0 to n - 1 do
      x.(i) <- w.(f.pinv.(i))
    done;
    x

  let solve_dense f (b : M.t) =
    (* solve for each column of a CSC right-hand side, returning columns *)
    Array.init b.M.cols (fun j ->
        let col = Array.make f.n K.zero in
        M.iter_col b j (fun i v -> col.(i) <- v);
        solve_vec f col)
end

module R = Make (Scalar.Float)
module C = Make (Scalar.Cx)

(* ------------------------------------------------------------------ *)
(* The plane assembly of (sE - A)                                       *)
(* ------------------------------------------------------------------ *)

(* Union pattern of E and A as parallel coefficient arrays (duplicates
   summed componentwise), mirroring Csc.of_entries assembly. *)
let assemble_pattern ~n ~(e : Triplet.t) ~(a : Triplet.t) =
  let entries =
    List.rev_append
      (List.rev_map (fun (i, j, v) -> (i, j, v, 0.0)) (Triplet.entries e))
      (List.map (fun (i, j, v) -> (i, j, 0.0, v)) (Triplet.entries a))
  in
  let arr = Array.of_list entries in
  Array.iter (fun (i, j, _, _) -> assert (i >= 0 && i < n && j >= 0 && j < n)) arr;
  Array.sort
    (fun (i1, j1, _, _) (i2, j2, _, _) -> if j1 <> j2 then compare j1 j2 else compare i1 i2)
    arr;
  let merged = ref [] and count = ref 0 in
  Array.iter
    (fun (i, j, ev, av) ->
      match !merged with
      | (i', j', ev', av') :: rest when i = i' && j = j' ->
          merged := (i, j, ev +. ev', av +. av') :: rest
      | _ ->
          merged := (i, j, ev, av) :: !merged;
          incr count)
    arr;
  let merged = Array.of_list (List.rev !merged) in
  let nnz = Array.length merged in
  let colptr = Array.make (n + 1) 0 in
  Array.iter (fun (_, j, _, _) -> colptr.(j + 1) <- colptr.(j + 1) + 1) merged;
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let rowind = Array.make nnz 0 in
  let e_coef = Array.make nnz 0.0 and a_coef = Array.make nnz 0.0 in
  Array.iteri
    (fun k (i, _, ev, av) ->
      rowind.(k) <- i;
      e_coef.(k) <- ev;
      a_coef.(k) <- av)
    merged;
  (colptr, rowind, e_coef, a_coef)

(* The numeric matrix at one shift, on the shared pattern: O(nnz), no
   sorting, no allocation beyond the values array. *)
let matrix_at ~n ~colptr ~rowind ~e_coef ~a_coef (s : Complex.t) : C.M.t =
  let nnz = Array.length rowind in
  let values =
    Array.init nnz (fun k ->
        let e = e_coef.(k) and a = a_coef.(k) in
        { Complex.re = (s.Complex.re *. e) -. a; im = s.Complex.im *. e })
  in
  { C.M.rows = n; cols = n; colptr; rowind; values }
