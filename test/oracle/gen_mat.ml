(* Dense row-major matrices over an arbitrary scalar field: the functor the
   library's real and complex matrices were compiled through before they
   became concrete modules.  Every scalar operation is an indirect call
   and every element a boxed value.  [Generic_mat] (floats) and
   [Generic_cmat] (complex) instantiate it, and [Mat] and [Cmat] repeat
   each of its operations bit for bit (test_par_kernel).  It holds the
   operations those modules still have. *)

module Make (K : Scalar.S) = struct
  type elt = K.t
  type t = { rows : int; cols : int; data : elt array }

  exception Singular of int

  let create rows cols =
    assert (rows >= 0 && cols >= 0);
    { rows; cols; data = Array.make (rows * cols) K.zero }

  let init rows cols f =
    let data = Array.make (rows * cols) K.zero in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        data.((i * cols) + j) <- f i j
      done
    done;
    { rows; cols; data }

  let identity n = init n n (fun i j -> if i = j then K.one else K.zero)
  let dims m = (m.rows, m.cols)
  let get m i j = m.data.((i * m.cols) + j)
  let set m i j v = m.data.((i * m.cols) + j) <- v

  let update m i j f =
    let k = (i * m.cols) + j in
    m.data.(k) <- f m.data.(k)

  let copy m = { m with data = Array.copy m.data }

  let of_arrays rows_arr =
    let rows = Array.length rows_arr in
    let cols = if rows = 0 then 0 else Array.length rows_arr.(0) in
    Array.iter (fun r -> assert (Array.length r = cols)) rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))

  let col m j = Array.init m.rows (fun i -> get m i j)

  let set_col m j v =
    assert (Array.length v = m.rows);
    for i = 0 to m.rows - 1 do
      set m i j v.(i)
    done

  let sub_matrix m ~row ~col ~rows ~cols =
    assert (row >= 0 && col >= 0 && row + rows <= m.rows && col + cols <= m.cols);
    init rows cols (fun i j -> get m (row + i) (col + j))

  let sub_cols m j0 ncols = sub_matrix m ~row:0 ~col:j0 ~rows:m.rows ~cols:ncols

  let hcat a b =
    assert (a.rows = b.rows);
    init a.rows (a.cols + b.cols) (fun i j ->
        if j < a.cols then get a i j else get b i (j - a.cols))

  let vcat a b =
    assert (a.cols = b.cols);
    init (a.rows + b.rows) a.cols (fun i j ->
        if i < a.rows then get a i j else get b (i - a.rows) j)

  let transpose m = init m.cols m.rows (fun i j -> get m j i)
  let conj_transpose m = init m.cols m.rows (fun i j -> K.conj (get m j i))

  let add a b =
    assert (a.rows = b.rows && a.cols = b.cols);
    { a with data = Array.init (Array.length a.data) (fun k -> K.add a.data.(k) b.data.(k)) }

  let sub a b =
    assert (a.rows = b.rows && a.cols = b.cols);
    { a with data = Array.init (Array.length a.data) (fun k -> K.sub a.data.(k) b.data.(k)) }

  let scale s m = { m with data = Array.map (K.scale s) m.data }
  let scale_elt s m = { m with data = Array.map (K.mul s) m.data }

  (* Cache-friendly ikj-order GEMM. *)
  let mul a b =
    assert (a.cols = b.rows);
    let c = create a.rows b.cols in
    let n = b.cols in
    for i = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let aik = get a i k in
        if not (K.is_zero aik) then begin
          let brow = k * n and crow = i * n in
          for j = 0 to n - 1 do
            c.data.(crow + j) <- K.add c.data.(crow + j) (K.mul aik b.data.(brow + j))
          done
        end
      done
    done;
    c

  let mv m x =
    assert (Array.length x = m.cols);
    Array.init m.rows (fun i ->
        let acc = ref K.zero in
        let base = i * m.cols in
        for j = 0 to m.cols - 1 do
          acc := K.add !acc (K.mul m.data.(base + j) x.(j))
        done;
        !acc)

  let frobenius m =
    let acc = ref 0.0 in
    Array.iter (fun v -> let a = K.abs v in acc := !acc +. (a *. a)) m.data;
    sqrt !acc

  let max_abs m = Array.fold_left (fun acc v -> Float.max acc (K.abs v)) 0.0 m.data

  let swap_rows m i j =
    if i <> j then
      for k = 0 to m.cols - 1 do
        let t = get m i k in
        set m i k (get m j k);
        set m j k t
      done

  (* LU with partial pivoting, stored packed: L strictly below the diagonal
     (unit diagonal implicit), U on and above. *)
  type lu = { lu_mat : t; perm : int array }

  let lu a =
    assert (a.rows = a.cols);
    let n = a.rows in
    let m = copy a in
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let piv = ref k and pmax = ref (K.abs (get m k k)) in
      for i = k + 1 to n - 1 do
        let v = K.abs (get m i k) in
        if v > !pmax then begin piv := i; pmax := v end
      done;
      if !pmax = 0.0 then raise (Singular k);
      if !piv <> k then begin
        swap_rows m k !piv;
        let t = perm.(k) in
        perm.(k) <- perm.(!piv);
        perm.(!piv) <- t
      end;
      let dkk = get m k k in
      for i = k + 1 to n - 1 do
        let lik = K.div (get m i k) dkk in
        set m i k lik;
        if not (K.is_zero lik) then begin
          let ibase = i * n and kbase = k * n in
          for j = k + 1 to n - 1 do
            m.data.(ibase + j) <- K.sub m.data.(ibase + j) (K.mul lik m.data.(kbase + j))
          done
        end
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
        acc := K.sub !acc (K.mul (get m i j) y.(j))
      done;
      y.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := K.sub !acc (K.mul (get m i j) y.(j))
      done;
      y.(i) <- K.div !acc (get m i i)
    done;
    y

  let lu_solve f b =
    let x = create b.rows b.cols in
    for j = 0 to b.cols - 1 do
      set_col x j (lu_solve_vec f (col b j))
    done;
    x

  let solve a b = lu_solve (lu a) b
end
