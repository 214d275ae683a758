(* Fixed pool of worker domains draining a shared queue.  Jobs are opaque
   thunk arguments; a handler that raises logs the exception and the
   worker moves on, so one bad job cannot take the pool down. *)

type 'a t = {
  queue : 'a option Queue.t; (* [None] is the per-worker stop sentinel *)
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable domains : unit Domain.t array;
  mutable stopped : bool;
}

let worker t handler =
  let rec loop () =
    let job =
      Mutex.lock t.lock;
      while Queue.is_empty t.queue do
        Condition.wait t.nonempty t.lock
      done;
      let j = Queue.pop t.queue in
      Mutex.unlock t.lock;
      j
    in
    match job with
    | None -> ()
    | Some j ->
        (try handler j
         with e ->
           Printf.eprintf "[pmtbr-pool] worker error: %s\n%!" (Printexc.to_string e));
        loop ()
  in
  loop ()

let create ~workers handler =
  let workers = max 1 workers in
  let t =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      domains = [||];
      stopped = false;
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker t handler));
  t

let submit t job =
  Mutex.lock t.lock;
  let accepted = not t.stopped in
  if accepted then begin
    Queue.push (Some job) t.queue;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.lock;
  accepted

let stop t =
  Mutex.lock t.lock;
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun _ -> Queue.push None t.queue) t.domains;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains;
  t.domains <- [||]
