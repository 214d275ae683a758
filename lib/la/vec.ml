(* Small helpers on [float array] vectors. *)

let zeros n = Array.make n 0.0

let dot x y =
  assert (Array.length x = Array.length y);
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

(* a loop, not [Array.map]: the closure would box each float it returns *)
let scale a x =
  let y = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    y.(i) <- a *. x.(i)
  done;
  y

(* y <- y + a*x, in place *)
let axpy a x y =
  assert (Array.length x = Array.length y);
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let normalize x =
  let n = norm2 x in
  if n = 0.0 then Array.copy x else scale (1.0 /. n) x

let max_abs_diff x y =
  assert (Array.length x = Array.length y);
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)))
  done;
  !acc

let linspace lo hi n =
  assert (n >= 1);
  if n = 1 then [| lo |]
  else Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let logspace lo hi n =
  assert (lo > 0.0 && hi > 0.0);
  Array.map exp (linspace (log lo) (log hi) n)
