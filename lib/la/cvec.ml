(* Helpers on [Complex.t array] vectors. *)

let re = Array.map (fun z -> z.Complex.re)
let im = Array.map (fun z -> z.Complex.im)

(* Hermitian inner product, conjugating the first argument. *)
let dot x y =
  assert (Array.length x = Array.length y);
  let acc = ref Complex.zero in
  for i = 0 to Array.length x - 1 do
    acc := Complex.add !acc (Complex.mul (Complex.conj x.(i)) y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x).Complex.re
let scale a x = Array.map (fun v -> Complex.mul a v) x
let sub x y = Array.mapi (fun i xi -> Complex.sub xi y.(i)) x

let max_abs x = Array.fold_left (fun acc v -> Float.max acc (Complex.norm v)) 0.0 x
