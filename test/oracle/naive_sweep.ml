(* The pre-engine frequency sweep: a fresh factorisation of (jw E - A) at
   every grid point ([Freq.eval_jw]).  [test_sweep] pins [Freq.sweep]
   against it and [bench/sweep_bench] times the sweep engine's speedup
   gate over it. *)

let sweep sys (omegas : float array) = Array.map (Pmtbr_lti.Freq.eval_jw sys) omegas
