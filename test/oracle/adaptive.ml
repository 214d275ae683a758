(* The from-scratch reference of [Pmtbr]'s adaptive loops: every batch
   builds a fresh cache over the whole consumed prefix, re-solving each
   consumed shift — O(total^2) solves, what the loop did before the
   incremental cache existed.  It is the benchmark baseline and the
   oracle of the incremental == from-scratch tests: both paths run the
   identical per-column arithmetic in the identical order, so their
   results are bitwise-equal.

   The returned stats fold in the counters of every discarded cache, so
   [solves] counts the re-solves; the held points and columns are the
   final cache's. *)

open Pmtbr_core

let loop ~monitor ~default_converge ?order ?tol ?(batch = 8) ?converge_tol ?workers sys pts =
  let converge_tol = Option.value converge_tol ~default:default_converge in
  let pts = Sampling.spread_order pts in
  let n_pts = Array.length pts in
  let merge acc st = match acc with None -> st | Some a -> Sample_cache.merge_stats a st in
  let rec go consumed prev discarded =
    let upto = min n_pts (consumed + batch) in
    let scale = float_of_int n_pts /. float_of_int upto in
    let cache = Sample_cache.create ?workers sys in
    Sample_cache.extend cache (Array.sub pts 0 upto);
    let sigma = Pmtbr.monitor_values ?workers cache ~monitor ~scale in
    if
      upto >= n_pts
      || Pmtbr.settled ?order ?tol ~converge_tol ~columns:(Sample_cache.columns cache) ~prev sigma
    then begin
      let result = Pmtbr.of_cache sys cache ~scale ?order ?tol ?workers ~samples:upto () in
      let last = result.Pmtbr.stats in
      let st = merge discarded last in
      {
        result with
        Pmtbr.stats =
          { st with Sample_cache.points = last.Sample_cache.points; columns = last.columns };
      }
    end
    else go upto (Some sigma) (Some (merge discarded (Sample_cache.stats cache)))
  in
  go 0 None None

(* Same defaults as [Pmtbr.reduce_adaptive] / [reduce_adaptive_rrqr]. *)
let reduce_adaptive ?order ?tol ?batch ?converge_tol ?workers sys pts =
  loop ~monitor:Pmtbr.Monitor_svd ~default_converge:0.02 ?order ?tol ?batch ?converge_tol
    ?workers sys pts

let reduce_adaptive_rrqr ?order ?tol ?batch ?converge_tol ?workers sys pts =
  loop ~monitor:Pmtbr.Monitor_rrqr ~default_converge:0.05 ?order ?tol ?batch ?converge_tol
    ?workers sys pts
