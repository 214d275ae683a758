(* Dense complex matrices, row-major on a [Complex.t array]: the
   operations their callers use, in plain [Complex] arithmetic.  Each
   repeats the arithmetic of the generic scalar-field functor kept in the
   test oracle (its complex instance is [Pmtbr_oracle.Generic_cmat]) in
   the same order, with the same zero-skip (both parts zero), so every
   result is bitwise the functor's. *)

type t = { rows : int; cols : int; data : Complex.t array }

exception Singular of int

(* Not [Complex.mul] by [{ re = a; im = 0 }]: its cross terms can flip
   the sign of a zero part and turn [inf * 0] into NaN. *)
let real_mul a { Complex.re; im } = { Complex.re = a *. re; im = a *. im }

let is_zero { Complex.re; im } = re = 0.0 && im = 0.0

let create rows cols =
  assert (rows >= 0 && cols >= 0);
  { rows; cols; data = Array.make (rows * cols) Complex.zero }

let init rows cols f =
  let data = Array.make (rows * cols) Complex.zero in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- Complex.one
  done;
  m

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v
let copy m = { m with data = Array.copy m.data }
let col m j = Array.init m.rows (fun i -> get m i j)

let set_col m j v =
  assert (Array.length v = m.rows);
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let conj_transpose m = init m.cols m.rows (fun i j -> Complex.conj (get m j i))

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.map2 Complex.add a.data b.data }

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.map2 Complex.sub a.data b.data }

let scale s m = { m with data = Array.map (real_mul s) m.data }
let scale_elt s m = { m with data = Array.map (Complex.mul s) m.data }

(* ikj-order GEMM, skipping zero entries of the left operand. *)
let mul a b =
  assert (a.cols = b.rows);
  let c = create a.rows b.cols in
  let n = b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if not (is_zero aik) then begin
        let brow = k * n and crow = i * n in
        for j = 0 to n - 1 do
          c.data.(crow + j) <- Complex.add c.data.(crow + j) (Complex.mul aik b.data.(brow + j))
        done
      end
    done
  done;
  c

let mv m x =
  assert (Array.length x = m.cols);
  Array.init m.rows (fun i ->
      let acc = ref Complex.zero in
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        acc := Complex.add !acc (Complex.mul m.data.(base + j) x.(j))
      done;
      !acc)

let frobenius m =
  let acc = ref 0.0 in
  Array.iter
    (fun v ->
      let a = Complex.norm v in
      acc := !acc +. (a *. a))
    m.data;
  sqrt !acc

let max_abs m = Array.fold_left (fun acc v -> Float.max acc (Complex.norm v)) 0.0 m.data

(* LU with partial pivoting on the modulus, stored packed like
   [Mat.lu]'s. *)
type lu = { lu_mat : t; perm : int array }

let lu a =
  assert (a.rows = a.cols);
  let n = a.rows in
  let m = copy a in
  let d = m.data in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let piv = ref k and pmax = ref (Complex.norm d.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Complex.norm d.((i * n) + k) in
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
      let lik = Complex.div d.((i * n) + k) dkk in
      d.((i * n) + k) <- lik;
      if not (is_zero lik) then
        for j = k + 1 to n - 1 do
          d.((i * n) + j) <- Complex.sub d.((i * n) + j) (Complex.mul lik d.((k * n) + j))
        done
    done
  done;
  { lu_mat = m; perm }

let lu_solve_vec { lu_mat = m; perm } b =
  let n = m.rows in
  assert (Array.length b = n);
  let y = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := Complex.sub !acc (Complex.mul (get m i j) y.(j))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul (get m i j) y.(j))
    done;
    y.(i) <- Complex.div !acc (get m i i)
  done;
  y

let lu_solve f b =
  let x = create b.rows b.cols in
  for j = 0 to b.cols - 1 do
    set_col x j (lu_solve_vec f (col b j))
  done;
  x

(* ------------------------------------------------------------------ *)
(* Conversions with the real world                                     *)
(* ------------------------------------------------------------------ *)

let of_mat (m : Mat.t) =
  let data = Array.map (fun re -> { Complex.re; im = 0.0 }) m.Mat.data in
  { rows = m.Mat.rows; cols = m.Mat.cols; data }

let re m = { Mat.rows = m.rows; cols = m.cols; data = Array.map (fun z -> z.Complex.re) m.data }
let im m = { Mat.rows = m.rows; cols = m.cols; data = Array.map (fun z -> z.Complex.im) m.data }

(* [a + s*b] for real matrices a, b and complex s: the shifted-pencil
   assembly used when forming (sE - A). *)
let axpby_real ~(alpha : Complex.t) (a : Mat.t) ~(beta : Complex.t) (b : Mat.t) =
  assert (Mat.dims a = Mat.dims b);
  init a.Mat.rows a.Mat.cols (fun i j ->
      Complex.add (real_mul (Mat.get a i j) alpha) (real_mul (Mat.get b i j) beta))
