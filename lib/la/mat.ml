(* Dense real matrices, row-major on a plain [float array].

   Every operation is float code reading [data] directly, so no loop
   boxes a float.  Each performs the floating-point operations of the
   generic scalar-field functor the suite keeps as its reference (its
   float instance is [Pmtbr_oracle.Generic_mat]) in the same order, with
   the same zero-skip ([x = 0.0], true for [-0.0]), so every result is
   bitwise the functor's — which test_par_kernel checks.  [init] keeps
   its closure; the operations below write their loops out, since the
   closure's float result is boxed on every call. *)

type t = { rows : int; cols : int; data : float array }

exception Singular of int

let create rows cols =
  assert (rows >= 0 && cols >= 0);
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let dims m = (m.rows, m.cols)

(* Inlined, so a loop outside this module reads and writes unboxed
   floats instead of boxing one per call. *)
let[@inline] get m i j = m.data.((i * m.cols) + j)
let[@inline] set m i j v = m.data.((i * m.cols) + j) <- v

let[@inline] update m i j f =
  let k = (i * m.cols) + j in
  m.data.(k) <- f m.data.(k)

let copy m = { m with data = Array.copy m.data }

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  let cols = if rows = 0 then 0 else Array.length rows_arr.(0) in
  Array.iter (fun r -> assert (Array.length r = cols)) rows_arr;
  { rows; cols; data = Array.concat (Array.to_list rows_arr) }

let col m j =
  let v = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    v.(i) <- m.data.((i * m.cols) + j)
  done;
  v

let set_col m j v =
  assert (Array.length v = m.rows);
  for i = 0 to m.rows - 1 do
    m.data.((i * m.cols) + j) <- v.(i)
  done

let sub_matrix m ~row ~col ~rows ~cols =
  assert (row >= 0 && col >= 0 && row + rows <= m.rows && col + cols <= m.cols);
  let out = create rows cols in
  if cols > 0 then
    for i = 0 to rows - 1 do
      Array.blit m.data (((row + i) * m.cols) + col) out.data (i * cols) cols
    done;
  out

let sub_cols m j0 ncols = sub_matrix m ~row:0 ~col:j0 ~rows:m.rows ~cols:ncols

let hcat a b =
  assert (a.rows = b.rows);
  let cols = a.cols + b.cols in
  let out = create a.rows cols in
  for i = 0 to a.rows - 1 do
    Array.blit a.data (i * a.cols) out.data (i * cols) a.cols;
    Array.blit b.data (i * b.cols) out.data ((i * cols) + a.cols) b.cols
  done;
  out

let vcat a b =
  assert (a.cols = b.cols);
  { rows = a.rows + b.rows; cols = a.cols; data = Array.append a.data b.data }

let transpose m =
  let rows = m.rows and cols = m.cols in
  let out = create cols rows in
  let src = m.data and dst = out.data in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      dst.((j * rows) + i) <- src.(base + j)
    done
  done;
  out

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let d = Array.copy a.data in
  for k = 0 to Array.length d - 1 do
    d.(k) <- d.(k) +. b.data.(k)
  done;
  { a with data = d }

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let d = Array.copy a.data in
  for k = 0 to Array.length d - 1 do
    d.(k) <- d.(k) -. b.data.(k)
  done;
  { a with data = d }

let scale s m =
  let d = Array.copy m.data in
  for k = 0 to Array.length d - 1 do
    d.(k) <- s *. d.(k)
  done;
  { m with data = d }

(* The three products run over row ranges handed out by a [ranges]
   runner, so [Par_kernel] parallelises these very loops instead of
   keeping its own copies.  Every output slot is written by one range and
   accumulates in the serial order, whatever the split. *)
type ranges = work:int -> int -> (int -> int -> unit) -> unit

let serial ~work:_ n f = if n > 0 then f 0 n

(* Cache-friendly ikj-order GEMM.  The row update c(i, :) += a(i, k) b(k, :)
   is unrolled four ways with unchecked access (every index is bounded by
   the shapes asserted here; the unrolled body is written out, since a
   local helper would box [aik] on every call): each c(i, j) still
   receives exactly one multiply-add per k, in ascending k, so the bits
   are the plain loop's, at about 2.3x its speed — the sample cache's
   c x n x c pencil products run here. *)
let mul_over (ranges : ranges) a b =
  assert (a.cols = b.rows);
  let c = create a.rows b.cols in
  let n = b.cols and kc = a.cols in
  let n4 = n land lnot 3 in
  let ad = a.data and bd = b.data and cd = c.data in
  ranges ~work:(2 * a.rows * kc * n) a.rows (fun lo hi ->
      for i = lo to hi - 1 do
        let crow = i * n in
        for k = 0 to kc - 1 do
          let aik = Array.unsafe_get ad ((i * kc) + k) in
          if aik <> 0.0 then begin
            let brow = k * n in
            let j = ref 0 in
            while !j < n4 do
              let c0 = crow + !j and b0 = brow + !j in
              Array.unsafe_set cd c0 (Array.unsafe_get cd c0 +. (aik *. Array.unsafe_get bd b0));
              Array.unsafe_set cd (c0 + 1)
                (Array.unsafe_get cd (c0 + 1) +. (aik *. Array.unsafe_get bd (b0 + 1)));
              Array.unsafe_set cd (c0 + 2)
                (Array.unsafe_get cd (c0 + 2) +. (aik *. Array.unsafe_get bd (b0 + 2)));
              Array.unsafe_set cd (c0 + 3)
                (Array.unsafe_get cd (c0 + 3) +. (aik *. Array.unsafe_get bd (b0 + 3)));
              j := !j + 4
            done;
            for j = n4 to n - 1 do
              Array.unsafe_set cd (crow + j)
                (Array.unsafe_get cd (crow + j) +. (aik *. Array.unsafe_get bd (brow + j)))
            done
          end
        done
      done);
  c

let mul a b = mul_over serial a b

let mv_over (ranges : ranges) m x =
  assert (Array.length x = m.cols);
  let rows = m.rows and cols = m.cols in
  let y = Array.make rows 0.0 in
  let md = m.data in
  ranges ~work:(2 * rows * cols) rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * cols in
        let acc = ref 0.0 in
        for j = 0 to cols - 1 do
          acc := !acc +. (md.(base + j) *. x.(j))
        done;
        y.(i) <- !acc
      done);
  y

let mv m x = mv_over serial m x

(* A^T * A without forming the transpose: a k-outer sweep over output
   rows, so every g(i, j) accumulates over k in ascending order for any
   range split; the lower triangle mirrors the upper. *)
let gram_over (ranges : ranges) m =
  let rows = m.rows and cols = m.cols in
  let g = create cols cols in
  let md = m.data and gd = g.data in
  ranges ~work:(rows * cols * cols) cols (fun lo hi ->
      for k = 0 to rows - 1 do
        let base = k * cols in
        for i = lo to hi - 1 do
          let aki = md.(base + i) in
          if aki <> 0.0 then begin
            let grow = i * cols in
            for j = i to cols - 1 do
              gd.(grow + j) <- gd.(grow + j) +. (aki *. md.(base + j))
            done
          end
        done
      done);
  for i = 0 to cols - 1 do
    for j = 0 to i - 1 do
      gd.((i * cols) + j) <- gd.((j * cols) + i)
    done
  done;
  g

let gram m = gram_over serial m

let frobenius m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let a = Float.abs m.data.(k) in
    acc := !acc +. (a *. a)
  done;
  sqrt !acc

let max_abs m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    acc := Float.max !acc (Float.abs m.data.(k))
  done;
  !acc

(* LU with partial pivoting, stored packed: L strictly below the diagonal
   (unit diagonal implicit), U on and above. *)
type lu = { lu_mat : t; perm : int array }

let lu a =
  assert (a.rows = a.cols);
  let n = a.rows in
  let m = copy a in
  let d = m.data in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let piv = ref k and pmax = ref (Float.abs d.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs d.((i * n) + k) in
      if v > !pmax then begin
        piv := i;
        pmax := v
      end
    done;
    if !pmax = 0.0 then raise (Singular k);
    let p = !piv in
    if p <> k then begin
      for j = 0 to n - 1 do
        let t = d.((k * n) + j) in
        d.((k * n) + j) <- d.((p * n) + j);
        d.((p * n) + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- t
    end;
    let dkk = d.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let lik = d.((i * n) + k) /. dkk in
      d.((i * n) + k) <- lik;
      if lik <> 0.0 then
        for j = k + 1 to n - 1 do
          d.((i * n) + j) <- d.((i * n) + j) -. (lik *. d.((k * n) + j))
        done
    done
  done;
  { lu_mat = m; perm }

let lu_solve_vec { lu_mat = m; perm } b =
  let n = m.rows and d = m.data in
  assert (Array.length b = n);
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (d.((i * n) + j) *. y.(j))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (d.((i * n) + j) *. y.(j))
    done;
    y.(i) <- !acc /. d.((i * n) + i)
  done;
  y

let lu_solve f b =
  let x = create b.rows b.cols in
  for j = 0 to b.cols - 1 do
    set_col x j (lu_solve_vec f (col b j))
  done;
  x

let solve a b = lu_solve (lu a) b

(* ------------------------------------------------------------------ *)
(* Real-specific conveniences                                          *)
(* ------------------------------------------------------------------ *)

let diag v =
  let n = Array.length v in
  let m = create n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- v.(i)
  done;
  m

let diagonal m =
  let v = Array.make (min m.rows m.cols) 0.0 in
  for i = 0 to Array.length v - 1 do
    v.(i) <- m.data.((i * m.cols) + i)
  done;
  v

let symmetrize m =
  assert (m.rows = m.cols);
  let n = m.rows and d = m.data in
  let out = create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      out.data.((i * n) + j) <- 0.5 *. (d.((i * n) + j) +. d.((j * n) + i))
    done
  done;
  out

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let scale = Float.max 1.0 (max_abs m) in
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol *. scale then ok := false
    done
  done;
  !ok

let random ?(seed = 1) rows cols =
  let state = ref (Int64.of_int (seed + 0x9e3779b9)) in
  let next () =
    (* splitmix64 step, local to keep [Mat] self-contained for tests *)
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  init rows cols (fun _ _ -> (2.0 *. next ()) -. 1.0)
