(* Frequency-point selection for PMTBR.  Every scheme produces weighted
   points on the imaginary axis; the weights make Z W Z^H a quadrature
   approximation of the Gramian integral (paper eq. 8-11).  Band schemes
   implement the point selection of Algorithm 2 (frequency-selective TBR),
   and every ZW matrix implicitly defines a frequency weighting (Section
   IV-B). *)

open Pmtbr_signal

type point = { s : Complex.t; weight : float }

type scheme =
  | Uniform of { w_max : float } (* midpoint rule on [0, w_max] *)
  | Log of { w_min : float; w_max : float } (* log-spaced on [w_min, w_max] *)
  | Gauss of { w_max : float } (* Gauss-Legendre on [0, w_max] *)
  | Bands of (float * float) list (* union of intervals, Gauss in each *)

let of_rule (rule : Quad.rule) =
  Array.mapi
    (fun i w -> { s = { Complex.re = 0.0; im = w }; weight = rule.Quad.weights.(i) })
    rule.Quad.nodes

let points scheme ~count =
  if count < 1 then invalid_arg "Sampling.points: count must be >= 1";
  match scheme with
  | Uniform { w_max } -> of_rule (Quad.midpoint ~lo:0.0 ~hi:w_max count)
  | Log { w_min; w_max } -> of_rule (Quad.log_spaced ~lo:w_min ~hi:w_max (max 2 count))
  | Gauss { w_max } -> of_rule (Quad.gauss_legendre ~lo:0.0 ~hi:w_max count)
  | Bands bands ->
      if bands = [] then invalid_arg "Sampling.points: empty band list";
      List.iter
        (fun (lo, hi) ->
          if not (hi > lo) then
            invalid_arg (Printf.sprintf "Sampling.points: empty band [%g, %g]" lo hi))
        bands;
      (* distribute [count] over the bands: [count / nb] each, with the
         remainder going to the leading bands one point apiece, so exactly
         [count] points come back whenever [count >= nb] (each band still
         gets at least one point, so fewer than [nb] requested yields [nb]) *)
      let nb = List.length bands in
      let base = count / nb and rem = count mod nb in
      let all =
        List.concat
          (List.mapi
             (fun i (lo, hi) ->
               let per = max 1 (base + if i < rem then 1 else 0) in
               Array.to_list (of_rule (Quad.gauss_legendre ~lo ~hi per)))
             bands)
      in
      Array.of_list all

(* The band convention the CLI and the daemon share: a band starting
   above 0 draws Gauss points inside it, one starting at 0 means uniform
   (midpoint) sampling of [0, hi]. *)
let of_band (lo, hi) = if lo > 0.0 then Bands [ (lo, hi) ] else Uniform { w_max = hi }

(* The band-limited Lyapunov stop: the residual is measured at 8 Gauss
   points of the band, the same Bands sampling PMTBR uses. *)
let band_stop (lo, hi) =
  if lo > 0.0 then
    Some
      (Pmtbr_la.Lr_lyap.Band_residual
         (Array.map (fun p -> (p.s, p.weight)) (points (Bands [ (lo, hi) ]) ~count:8)))
  else None

(* The total quadrature mass, i.e. the implied bandwidth of the weighting. *)
let total_weight pts = Array.fold_left (fun acc p -> acc +. p.weight) 0.0 pts

(* Frequency-weighted Gramian sampling (paper eq. 18): multiply each
   quadrature weight by w(omega), turning the implied Gramian into
   X_FW = integral (jwE - A)^{-1} B B^T (jwE - A)^{-H} w(omega) dw. *)
let reweight w pts =
  Array.map
    (fun p ->
      let omega = Float.abs p.s.Complex.im in
      let factor = w omega in
      (* [not (factor >= 0)] also rejects nan; an [assert] would vanish
         under -noassert and let a negative weighting corrupt the Gramian *)
      if not (factor >= 0.0) then
        invalid_arg
          (Printf.sprintf "Sampling.reweight: weighting function returned %g < 0 at omega = %g"
             factor omega);
      { p with weight = p.weight *. factor })
    pts

(* Split a point set into leading batches, for the on-the-fly order control
   loop: [batches pts k] yields prefixes of sizes k, 2k, ... *)
let prefixes pts ~batch =
  let n = Array.length pts in
  let rec build k acc = if k >= n then List.rev (pts :: acc) else build (k + batch) (Array.sub pts 0 k :: acc) in
  build batch []

(* Reorder points so every prefix covers the whole range roughly uniformly
   (bit-reversal / van der Corput order).  Adaptive order control consumes
   prefixes; a frequency-ordered grid would make each prefix a sub-band
   instead of a coarser sampling of the full band. *)
let spread_order pts =
  let n = Array.length pts in
  if n <= 2 then Array.copy pts
  else begin
    let bits =
      let rec go b = if 1 lsl b >= n then b else go (b + 1) in
      go 1
    in
    let reverse i =
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r
    in
    let out = Array.make n pts.(0) in
    let k = ref 0 in
    for i = 0 to (1 lsl bits) - 1 do
      let j = reverse i in
      if j < n then begin
        out.(!k) <- pts.(j);
        incr k
      end
    done;
    out
  end
