(* Small helpers on [float array] vectors. *)

let make n v = Array.make n v
let zeros n = Array.make n 0.0
let init = Array.init
let copy = Array.copy

let dot x y =
  assert (Array.length x = Array.length y);
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let add x y = Array.mapi (fun i xi -> xi +. y.(i)) x
let sub x y = Array.mapi (fun i xi -> xi -. y.(i)) x
let scale a x = Array.map (fun v -> a *. v) x

(* y <- y + a*x, in place *)
let axpy a x y =
  assert (Array.length x = Array.length y);
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let normalize x =
  let n = norm2 x in
  if n = 0.0 then copy x else scale (1.0 /. n) x

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

let pp ppf x =
  Format.fprintf ppf "@[<h>[";
  Array.iteri (fun i v -> Format.fprintf ppf (if i = 0 then "%.6g" else "; %.6g") v) x;
  Format.fprintf ppf "]@]"
