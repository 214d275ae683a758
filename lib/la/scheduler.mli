(** Fixed pool of worker domains draining a shared job queue — the
    reduction service's connection queue (one job per connection).
    Connections are long-lived and arrive over time, which is not an
    indexed fan: a known set of jobs runs on {!Par_kernel.fan} instead.
    Each job keeps the bitwise worker-invariance contract: the result of
    a job never depends on which worker ran it, or when.

    Lives in the linear-algebra layer (it only needs [Domain] and the
    stdlib sync primitives) so every layer above can use it without a
    dependency cycle. *)

type 'a t

val create : workers:int -> ('a -> unit) -> 'a t
(** Spawn [max 1 workers] domains running the handler on submitted jobs.
    A handler exception is logged and the worker keeps going. *)

val submit : 'a t -> 'a -> bool
(** Enqueue a job; [false] if the pool is already stopping (the job is
    dropped). *)

val stop : 'a t -> unit
(** Drain outstanding jobs, then join every worker.  Idempotent in effect;
    must be called from the domain that owns the pool. *)
