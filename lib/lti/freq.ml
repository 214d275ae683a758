(* Frequency responses and response-error metrics.

   [eval] is the one-shot per-point evaluation: a fresh factorisation of
   (sE - A), then C times the solved columns.  [sweep] routes grids
   through {!Sweep_engine} — one prepared plan (symbolic analysis or
   Hessenberg reduction done once), points fanned across a domain pool —
   and the error metrics are folds over a streaming accumulator, so
   verification never needs the full response array in memory. *)

open Pmtbr_la

(* H(s) = C (sE - A)^{-1} B : outputs x inputs, complex. *)
let eval sys (s : Complex.t) =
  let z = Dss.shifted_solve sys s in
  let c = Dss.c_matrix sys in
  let p_out = c.Mat.rows and p_in = Array.length z in
  Cmat.init p_out p_in (fun i j ->
      let acc = ref Complex.zero in
      for k = 0 to c.Mat.cols - 1 do
        acc := Complex.add !acc (Cmat.real_mul (Mat.get c i k) z.(j).(k))
      done;
      !acc)

let eval_jw sys (omega : float) = eval sys { Complex.re = 0.0; im = omega }

(* Responses over a frequency grid (rad/s), through the two-tier engine.
   The template shift is the first grid point, so the plan is a pure
   function of (sys, omegas) and the sweep is worker-invariant. *)
let sweep ?workers sys (omegas : float array) =
  if Array.length omegas = 0 then [||]
  else
    let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = omegas.(0) } sys in
    fst (Sweep_engine.sweep ?workers plan omegas)

(* ------------------------------------------------------------------ *)
(* Streaming error metrics                                             *)
(* ------------------------------------------------------------------ *)

(* One accumulator carries every metric the repo reports, so a single
   streamed comparison pass can answer for all of them.  The folds visit
   entries in the same order as the old array-based metrics (point by
   point, row-major within each response): max is order-insensitive and
   the rms sum reproduces the old summation order, so the readouts equal
   the array implementations bitwise. *)
type error_stream = {
  ri : int;
  rj : int;
  mutable points : int;
  mutable entries : int;
  mutable worst_abs : float;
  mutable ref_scale : float;
  mutable sum_sq : float;
  mutable worst_real : float;
  mutable real_scale : float;
}

let error_stream ?(i = 0) ?(j = 0) () =
  {
    ri = i;
    rj = j;
    points = 0;
    entries = 0;
    worst_abs = 0.0;
    ref_scale = 0.0;
    sum_sq = 0.0;
    worst_real = 0.0;
    real_scale = 0.0;
  }

let stream_add st ~ref_:(href : Cmat.t) ~apx:(hapx : Cmat.t) =
  if href.Cmat.rows <> hapx.Cmat.rows || href.Cmat.cols <> hapx.Cmat.cols then
    invalid_arg "Freq.stream_add: response shapes differ";
  st.points <- st.points + 1;
  let nd = Array.length href.Cmat.data in
  for k = 0 to nd - 1 do
    let r = href.Cmat.data.(k) in
    let m = Complex.norm (Complex.sub r hapx.Cmat.data.(k)) in
    st.worst_abs <- Float.max st.worst_abs m;
    st.sum_sq <- st.sum_sq +. (m *. m);
    st.entries <- st.entries + 1;
    st.ref_scale <- Float.max st.ref_scale (Complex.norm r)
  done;
  if st.ri < href.Cmat.rows && st.rj < href.Cmat.cols then begin
    let r1 = (Cmat.get href st.ri st.rj).Complex.re
    and r2 = (Cmat.get hapx st.ri st.rj).Complex.re in
    st.worst_real <- Float.max st.worst_real (Float.abs (r1 -. r2));
    st.real_scale <- Float.max st.real_scale (Float.abs r1)
  end

let stream_max_abs_error st = st.worst_abs

let stream_max_rel_error st =
  if st.ref_scale = 0.0 then st.worst_abs else st.worst_abs /. st.ref_scale

let stream_rms_error st =
  if st.entries = 0 then 0.0 else sqrt (st.sum_sq /. float_of_int st.entries)

let stream_max_real_part_error st = st.worst_real

let stream_max_real_part_rel_error st =
  if st.real_scale = 0.0 then st.worst_real else st.worst_real /. st.real_scale

(* Stream a system's sweep against a materialised reference: one engine
   plan, responses folded into the accumulator as they arrive, never an
   array of them. *)
let compare_sweep ?workers ?i ?j sys (omegas : float array) ~ref_ =
  if Array.length ref_ <> Array.length omegas then
    invalid_arg "Freq.compare_sweep: grid and reference lengths differ";
  let st = error_stream ?i ?j () in
  if Array.length omegas > 0 then begin
    let plan = Sweep_engine.prepare ~template:{ Complex.re = 0.0; im = omegas.(0) } sys in
    Sweep_engine.iteri ?workers plan omegas ~f:(fun k h -> stream_add st ~ref_:ref_.(k) ~apx:h)
  end;
  st

(* ------------------------------------------------------------------ *)
(* Array-based metrics (folds over the stream)                         *)
(* ------------------------------------------------------------------ *)

let check_lengths name (h_ref : Cmat.t array) (h_apx : Cmat.t array) =
  if Array.length h_ref <> Array.length h_apx then
    invalid_arg (name ^ ": sweep lengths differ")

let stream_of_arrays ?i ?j name h_ref h_apx =
  check_lengths name h_ref h_apx;
  let st = error_stream ?i ?j () in
  Array.iteri (fun k href -> stream_add st ~ref_:href ~apx:h_apx.(k)) h_ref;
  st

(* Worst-case absolute entrywise error between two sweeps. *)
let max_abs_error h_ref h_apx =
  stream_max_abs_error (stream_of_arrays "Freq.max_abs_error" h_ref h_apx)

(* Worst-case error normalised by the largest reference magnitude. *)
let max_rel_error h_ref h_apx =
  stream_max_rel_error (stream_of_arrays "Freq.max_rel_error" h_ref h_apx)

(* RMS entrywise error over the sweep. *)
let rms_error h_ref h_apx = stream_rms_error (stream_of_arrays "Freq.rms_error" h_ref h_apx)

(* Error restricted to the real part of entry (i, j): the spiral-inductor
   resistance metric of Fig. 7. *)
let max_real_part_error ?(i = 0) ?(j = 0) h_ref h_apx =
  stream_max_real_part_error (stream_of_arrays ~i ~j "Freq.max_real_part_error" h_ref h_apx)

let max_real_part_rel_error ?(i = 0) ?(j = 0) h_ref h_apx =
  stream_max_real_part_rel_error
    (stream_of_arrays ~i ~j "Freq.max_real_part_rel_error" h_ref h_apx)
