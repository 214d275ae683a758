(* Singular-value-based error estimation (paper Section V-B): the trailing
   singular values of ZW estimate the error of the order-q reduced model the
   way truncated Hankel singular values bound the TBR error. *)

(* Estimates for all orders 0..n: one reverse cumulative sum instead of a
   tail re-summation per order (O(n) instead of O(n^2)). *)
let curve (sigma : float array) =
  let n = Array.length sigma in
  let out = Array.make (n + 1) 0.0 in
  let tail = ref 0.0 in
  for q = n - 1 downto 0 do
    tail := !tail +. sigma.(q);
    out.(q) <- 2.0 *. !tail
  done;
  out

(* Normalised estimate: tail relative to sigma_0 (the "normalized error
   estimate" plotted in Fig. 16). *)
let normalized_curve (sigma : float array) =
  let smax = if Array.length sigma = 0 then 1.0 else Float.max sigma.(0) 1e-300 in
  Array.map (fun e -> e /. (2.0 *. smax)) (curve sigma)

(* Order needed to push the normalised estimate below [tol].  [met]
   distinguishes a real hit from the fallback: the old signature returned
   n - 1 silently when no order satisfied [tol] (possible whenever tol is
   negative/NaN, e.g. a mis-parsed CLI flag) and callers reported it as
   satisfied. *)
let order_for (sigma : float array) ~tol =
  let curve = normalized_curve sigma in
  let n = Array.length curve in
  let rec search q =
    if q >= n then (max 0 (n - 1), false)
    else if curve.(q) <= tol then (q, true)
    else search (q + 1)
  in
  search 0
