(** Domain parallelism for the embarrassingly-parallel outer loops (the
    LowDeg τ-sweep, the portfolio fan-out, the planner's shard solves).

    Inputs must be safe to process concurrently — in this codebase every
    solver input (provenance, arena) is immutable, and each worker
    allocates its own mutable state.

    One execution strategy: a {!Pool.t} keeps its domains parked between
    calls, so a long-lived session (the engine) pays the spawn cost
    once. {!map} and {!map_result} take the pool as [?pool] and run
    sequentially, on the calling domain, when none is given.

    Each entry point comes in two dialects: [map] re-raises the first
    exception once every item has run, while [map_result] captures each
    item's outcome as a [result] — the failure-isolation dialect the
    portfolio uses so one crashing solver cannot abort its siblings. *)

(** A persistent pool of [size - 1] worker domains (the calling domain is
    always the [size]-th worker). Workers idle on a condition variable
    between jobs; {!Pool.map} publishes a job, participates in the drain,
    and returns when every item is done. One job runs at a time —
    concurrent callers serialize, and a {!Pool.map} from inside a worker
    (nested parallelism) degrades to a sequential map rather than
    deadlocking. *)
module Pool : sig
  type t

  (** [create ?domains ()] — [domains] (default
      [Domain.recommended_domain_count ()]) is the total worker count
      including the caller; [domains = 1] creates a pool that never
      spawns and maps sequentially. Raises [Invalid_argument] when
      [domains < 1] — zero or negative sizes are programming errors, not
      requests for a sequential pool. *)
  val create : ?domains:int -> unit -> t

  val size : t -> int

  (** Same contract as {!Par.map}: order-preserving, first exception
      re-raised after the job drains. After {!shutdown} (or from inside a
      pool worker) this runs sequentially. *)
  val map : t -> ('a -> 'b) -> 'a list -> 'b list

  (** Order-preserving, one [result] per input item: [Error e] where the
      function raised [e], [Ok y] elsewhere. Never raises itself; a pool
      surviving a failing job stays usable for the next one. *)
  val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

  (** Park and join the worker domains. Idempotent, and safe to call
      from several domains concurrently — callers serialize and every
      one returns after the workers are joined. A pool whose owner
      forgets to call this leaks idle domains until process exit but
      does not block it. *)
  val shutdown : t -> unit
end

(** [map ?pool f xs] — [List.map f xs], the applications distributed
    over [pool]'s workers (the calling domain included) when a pool is
    given, and run sequentially on the calling domain otherwise. Result
    order matches input order regardless of scheduling, so deterministic
    [f] gives deterministic results. The first exception raised by [f]
    is re-raised after every item has run. *)
val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** The failure-isolating dialect of {!map}: same ordering, but each
    item's outcome is captured as a [result] instead of the first
    exception aborting the batch. Never raises itself. *)
val map_result : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
