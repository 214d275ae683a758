(* The held-out accuracy check: a ROM (or an exported netlist re-stamped)
   must match the full model at in-band frequencies it was not sampled at
   — midpoints between consecutive sample points. *)

open Pmtbr_core
open Pmtbr_lti

(* Largest response error, relative to the largest full-model response
   entry, that a ROM may show at a held-out point.  The job lists use
   tolerances and orders whose ROMs stay well inside it. *)
let tolerance = 1e-2

(* The point scheme the store samples a job at: the midpoint rule on
   [0, hi] for pmtbr/hier bands that start at 0, Gauss points in the band
   otherwise. *)
let scheme (j : Workload.job) =
  let lo, hi = j.Workload.band in
  match j.Workload.meth with
  | ("pmtbr" | "hier") when lo <= 0.0 -> Sampling.Uniform { w_max = hi }
  | _ -> Sampling.Bands [ (lo, hi) ]

(* Up to [count] midpoints between consecutive sample points, spread over
   the band. *)
let omegas ?(count = 4) (j : Workload.job) =
  let w =
    Array.map
      (fun p -> p.Sampling.s.Complex.im)
      (Sampling.points (scheme j) ~count:j.Workload.samples)
  in
  Array.sort compare w;
  let m = Array.length w - 1 in
  if m < 1 then
    let lo, hi = j.Workload.band in
    [| 0.5 *. (lo +. hi) |]
  else
    let mid i = 0.5 *. (w.(i) +. w.(i + 1)) in
    if m <= count then Array.init m mid
    else Array.init count (fun k -> mid (k * (m - 1) / (count - 1)))

let full_model text = Dss.of_netlist (Pmtbr_circuit.Spice.netlist (Pmtbr_circuit.Spice.parse_string text))

let reference sys omegas = Freq.sweep ~workers:1 sys omegas

let error ~omegas ~reference rom =
  Freq.stream_max_rel_error (Freq.compare_sweep ~workers:1 rom omegas ~ref_:reference)

(* An exported netlist re-parsed and re-stamped, compared with the full
   model; [Error] names what went wrong. *)
let check_export ~omegas ~reference body =
  match error ~omegas ~reference (full_model body) with
  | e when e <= tolerance -> Ok e
  | e -> Error (Printf.sprintf "exported netlist misses the full model by %.3g" e)
  | exception Pmtbr_circuit.Spice.Parse_error (line, msg) ->
      Error (Printf.sprintf "exported netlist does not parse (line %d: %s)" line msg)
  | exception e -> Error ("exported netlist does not stamp or sweep: " ^ Printexc.to_string e)
