(* Output helpers shared by the figure-regeneration benches and the
   BENCH_*.json emitters. *)

(* The revision a bench ran from, as [git describe --always --dirty] names
   it (so a run from uncommitted changes says so); "unknown" outside a git
   checkout. *)
let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when rev <> "" -> rev
      | _ -> "unknown")

let utc_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* Every bench opens its JSON object with the dune profile it was built in
   (dev compiles with -opaque, so nothing is inlined across modules there
   and kernel ratios differ), the revision and time of the run and the
   host's core count, so the numbers downstream can be read against what
   measured them; [body] fills in the bench-specific fields (no trailing
   comma needed before the closing brace). *)
let json_object body =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"profile\": %S,\n" Pmtbr_oracle.Build_profile.name);
  Buffer.add_string buf (Printf.sprintf "  \"git_rev\": %S,\n" (git_rev ()));
  Buffer.add_string buf (Printf.sprintf "  \"date\": %S,\n" (utc_date ()));
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
