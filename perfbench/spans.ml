(* In-memory span recorder for the traced replay: one span per layer call
   (name, start, end, parent, job id), kept in memory until the run ends.
   A span's self time is its duration minus the time its children cover. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (* -1 for a job's root span *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable job : int;
}

let create () = { spans = []; next = 0; stack = []; job = -1 }

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Unix.gettimeofday () in
  let finish () =
    t.spans <- { id; name; job = t.job; parent; t0; t1 = Unix.gettimeofday () } :: t.spans;
    t.stack <- List.tl t.stack
  in
  Fun.protect ~finally:finish f

(* Run [f] as job [job]: its spans carry that id. *)
let with_job t job f =
  t.job <- job;
  Fun.protect ~finally:(fun () -> t.job <- -1) f

(* Self time per (job, span name), summed over that job's spans of the name. *)
let self_times t =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
        Hashtbl.replace child_time s.parent (c +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let k = (s.job, s.name) in
      Hashtbl.replace acc k (self +. Option.value (Hashtbl.find_opt acc k) ~default:0.0))
    t.spans;
  acc

(* Every span as one JSON object per line, in the order the spans ended. *)
let write t file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.name s.job s.parent s.t0 s.t1)
    (List.rev t.spans);
  close_out oc
