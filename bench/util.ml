(* Output helpers shared by the figure-regeneration benches and the
   BENCH_*.json emitters. *)

(* Every bench opens its JSON object with the host's core count, so the
   speedup numbers downstream can be read against the hardware they were
   measured on; [body] fills in the bench-specific fields (no trailing
   comma needed before the closing brace). *)
let json_object body =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domain_count\": %d,\n" (Domain.recommended_domain_count ()));
  body buf;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Write the JSON and echo it.  A full run writes [file] into the working
   directory: the committed BENCH_*.json files are the perf trajectory.  A
   --smoke run is a CI gate on a tiny operand, so its JSON goes under
   _build/bench-smoke/ and never overwrites a full run. *)
let write_json ~smoke ~file json =
  let file =
    if smoke then begin
      let dir = Filename.concat "_build" "bench-smoke" in
      List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ "_build"; dir ];
      Filename.concat dir file
    end
    else file
  in
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  print_string json

(* Speedup gates need real hardware parallelism; correctness gates never
   wait for it.  Returns [true] when the gate should be enforced, [false]
   after printing the documented skip (single-core CI hosts). *)
let enforce_multicore ~bench ~gate ~need =
  let cores = Domain.recommended_domain_count () in
  if cores >= need then true
  else begin
    Printf.eprintf
      "[%s] SKIP (documented): %s needs >= %d cores but this host recommends %d domain(s); \
       the correctness gates above still ran\n%!"
      bench gate need cores;
    false
  end

let header fig title =
  Printf.printf "\n== %s: %s ==\n%!" fig title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n" s) fmt

let row cells = print_endline (String.concat "\t" cells)

let ghz omega = omega /. (2.0 *. Float.pi *. 1e9)

let fmt_g x = Printf.sprintf "%.4g" x
let fmt_e x = Printf.sprintf "%.3e" x

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)
