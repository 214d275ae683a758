(* Transient simulation of descriptor systems by the trapezoidal rule:

     (E - h/2 A) x_{k+1} = (E + h/2 A) x_k + h/2 B (u_k + u_{k+1})

   The left-hand matrix is factored once (sparse LU for full models, dense
   LU for reduced ones), so each step costs one matvec + one solve: the
   usage pattern of a circuit simulator's linear transient analysis. *)

open Pmtbr_la
open Pmtbr_sparse

type result = {
  times : float array;
  outputs : Mat.t; (* p_out x steps *)
  states : Mat.t option; (* n x steps, only when requested *)
}

type stepper = {
  n : int;
  advance : float array -> float array -> float array -> float array;
      (* advance x u_k u_{k+1} -> x_{k+1} *)
}

let make_stepper sys ~dt =
  let h2 = dt /. 2.0 in
  let b = Dss.b_matrix sys in
  match sys with
  | Dss.Sparse { e; a; n; _ } ->
      let lhs = Triplet.axpby 1.0 e (-.h2) a in
      (* padded to n x n *)
      let lhs_csc = Csc.of_entries n n (Triplet.entries lhs) in
      let f = Sparse_lu.factorize ~ordering:Ordering.Lower_fill lhs_csc in
      let advance x u0 u1 =
        let ex = Triplet.mv e x in
        let ax = Triplet.mv a x in
        let rhs = Array.make n 0.0 in
        for i = 0 to Array.length ex - 1 do
          rhs.(i) <- ex.(i) +. (h2 *. ax.(i))
        done;
        let bu = Mat.mv b (Array.mapi (fun i u -> h2 *. (u +. u1.(i))) u0) in
        for i = 0 to n - 1 do
          rhs.(i) <- rhs.(i) +. bu.(i)
        done;
        Sparse_lu.solve_vec f rhs
      in
      { n; advance }
  | Dss.Dense { e; a; _ } ->
      let n = a.Mat.rows in
      let lhs = Mat.sub e (Mat.scale h2 a) in
      let rhs_m = Mat.add e (Mat.scale h2 a) in
      let f = Mat.lu lhs in
      let advance x u0 u1 =
        let rhs = Mat.mv rhs_m x in
        let bu = Mat.mv b (Array.mapi (fun i u -> h2 *. (u +. u1.(i))) u0) in
        for i = 0 to n - 1 do
          rhs.(i) <- rhs.(i) +. bu.(i)
        done;
        Mat.lu_solve_vec f rhs
      in
      { n; advance }

(* Simulate from rest.  [u t] gives the input vector at time t. *)
let simulate ?(keep_states = false) ?(x0 : float array option) sys ~t0 ~t1 ~dt
    ~(u : float -> float array) =
  assert (t1 > t0 && dt > 0.0);
  let stepper = make_stepper sys ~dt in
  let steps = int_of_float (Float.ceil ((t1 -. t0) /. dt)) + 1 in
  let c = Dss.c_matrix sys in
  let p_out = c.Mat.rows in
  let times = Array.init steps (fun k -> t0 +. (dt *. float_of_int k)) in
  let outputs = Mat.create p_out steps in
  let states = if keep_states then Some (Mat.create stepper.n steps) else None in
  let x = ref (match x0 with Some x -> Array.copy x | None -> Array.make stepper.n 0.0) in
  let record k =
    let y = Mat.mv c !x in
    Mat.set_col outputs k y;
    match states with Some s -> Mat.set_col s k !x | None -> ()
  in
  record 0;
  for k = 1 to steps - 1 do
    let u0 = u times.(k - 1) and u1 = u times.(k) in
    x := stepper.advance !x u0 u1;
    record k
  done;
  { times; outputs; states }

(* Worst-case absolute difference between one output row of two results on
   the same time grid. *)
let output_error ?(row = 0) (r1 : result) (r2 : result) =
  assert (Array.length r1.times = Array.length r2.times);
  let worst = ref 0.0 in
  for k = 0 to Array.length r1.times - 1 do
    worst := Float.max !worst (Float.abs (Mat.get r1.outputs row k -. Mat.get r2.outputs row k))
  done;
  !worst

let output_rms_error ?(row = 0) (r1 : result) (r2 : result) =
  let n = Array.length r1.times in
  assert (n = Array.length r2.times);
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    let d = Mat.get r1.outputs row k -. Mat.get r2.outputs row k in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)
