(** Seeded, deterministic op streams for the session benchmark.

    A workload is an instance (database and key-preserving queries), the
    engine settings it runs under, and an endless stream of operations
    drawn from a {!Random.State.t} seeded by the command line. The
    instance data comes from the public [Workload.*] generators; the
    benchmark hands the engine only the ops generated here.

    The same seed always yields the same instance and the same op
    stream; different seeds yield different streams. The one op the
    generator cannot spell out in advance is {!Reinsert_solved}, whose
    tuples are whatever the preceding {!Solve} committed — the runner
    resolves it from that answer. *)

type op =
  | Propose of Deleprop.Delta_request.t list
      (** [Engine.request] only: a what-if round, nothing commits *)
  | Solve of Deleprop.Delta_request.t list
      (** [Engine.request] then [Engine.apply] of the cheapest answer *)
  | Delete of Relational.Stuple.Set.t  (** [Engine.delete] *)
  | Delta of Deleprop.Delta.t  (** [Engine.apply_delta] *)
  | Reinsert_solved
      (** [Engine.apply_delta] re-inserting what the last {!Solve}
          deleted *)
  | Checkpoint  (** [Engine.checkpoint] *)
  | Restart
      (** [Engine.close], then [Engine.create ~recover:true] on the same
          journal and snapshot, then the first answer *)

(** The latency class an op reports under. *)
type kind = Propose_k | Solve_k | Delta_k | Checkpoint_k | Recover_k

val kind : op -> kind
val kind_name : kind -> string

type t = {
  name : string;
  params : (string * string) list;  (** the workload parameters, for the run header *)
  db : Relational.Instance.t;
  queries : Cq.Query.t list;
  exact_threshold : int option;
  durable : bool;  (** runs with a journal and a shard-cache snapshot *)
  first : Deleprop.Delta_request.t list;
      (** the cold first round of set-up, and the first answer after a
          restart; valid in every state the stream passes through *)
  quality_ops : int;
      (** ops over which [side_effect_total] is summed; a fixed prefix,
          so the total is deterministic per seed *)
  next : unit -> op;  (** the endless op stream *)
}

(** The workload names, in the order the benchmark documents them. *)
val names : string list

(** [make name ~seed] — raises [Invalid_argument] on an unknown name. *)
val make : string -> seed:int -> t

(** The next [n] ops of the stream. *)
val take : t -> int -> op list

(** A canonical one-line spelling, what stream comparisons use. *)
val op_to_string : op -> string
