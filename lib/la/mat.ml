(* Dense real matrices: the [Gen_mat] functor instantiated at floats, plus
   real-specific conveniences. *)

include Gen_mat.Make (Scalar.Float)

(* ------------------------------------------------------------------ *)
(* Float kernels shadowing the functor's                                *)
(* ------------------------------------------------------------------ *)

(* Without flambda the functor body is compiled once for every scalar
   type: each [K.add] / [K.mul] is an indirect call and each element read
   boxes a float.  The definitions below restate the functor's loops that
   run on state-dimension operands with [data] as a plain [float array].
   Each performs the generic loop's floating-point operations in the same
   order, with the same zero-skip ([K.is_zero x] is [x = 0.0], true for
   [-0.0]), so results are bitwise those of [Gen_mat.Make (Scalar.Float)]
   — which the suite checks against that instantiation.  Functor
   functions not shadowed here keep calling the functor's own accessors. *)

(* Inlined, so a loop outside this module reads and writes unboxed
   floats instead of boxing one per call. *)
let[@inline] get m i j = m.data.((i * m.cols) + j)
let[@inline] set m i j v = m.data.((i * m.cols) + j) <- v

let[@inline] update m i j f =
  let k = (i * m.cols) + j in
  m.data.(k) <- f m.data.(k)

let sub_matrix m ~row ~col ~rows ~cols =
  assert (row >= 0 && col >= 0 && row + rows <= m.rows && col + cols <= m.cols);
  let out = create rows cols in
  if cols > 0 then
    for i = 0 to rows - 1 do
      Array.blit m.data (((row + i) * m.cols) + col) out.data (i * cols) cols
    done;
  out

let sub_cols m j0 ncols = sub_matrix m ~row:0 ~col:j0 ~rows:m.rows ~cols:ncols

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

(* ------------------------------------------------------------------ *)
(* Real-specific conveniences                                          *)
(* ------------------------------------------------------------------ *)

let of_fun = init
let diag v = init (Array.length v) (Array.length v) (fun i j -> if i = j then v.(i) else 0.0)
let diagonal m = Array.init (min m.rows m.cols) (fun i -> get m i i)

let symmetrize m =
  assert (m.rows = m.cols);
  init m.rows m.cols (fun i j -> 0.5 *. (get m i j +. get m j i))

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
