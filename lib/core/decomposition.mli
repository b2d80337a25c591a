(** Decomposable solutions: the structure of an answer, recorded at
    solve time.

    Every solver tier annotates its winning answer with a map from the
    answer's connected sub-structures to their local deleted-set, cost
    slice and certificate slice:
    - {e brute force} — witness groups: candidates connected through a
      bad or touched preserved witness;
    - {e forest DP} — one tree per graph component: the pivot plus
      every node's recorded parent/depth/cut/value/slack, enough to
      replay the cut-frontier decisions under a projection;
    - {e approximate portfolio} — per-candidate contributions: each
      killed preserved view tuple charged to the content-minimal
      deleted member of its witness.

    Everything is keyed by tuple {e content} ({!Relational.Stuple.Set},
    fact-string keys), never by arena ids — a decomposition survives
    compaction, renumbering and re-materialization unchanged, which is
    what lets {!Planner.seed_fragments} project cached answers onto the
    surviving fragments of a component split. *)

type cert_slice =
  | Slice_exact
  | Slice_ratio of float
  | Slice_heuristic

type part = {
  p_label : string;                         (** sub-structure id (fact string) *)
  p_deleted : Relational.Stuple.Set.t;      (** its local deleted-set *)
  p_cost : float;                           (** its cost slice *)
  p_cert : cert_slice;                      (** its certificate slice *)
}

(** One forest-DP node, keyed by {!Relational.Stuple.to_string}. [fn_slack]
    is [cut_cost -. nocut_cost] at solve time for uncut nodes (how much
    preserved weight the subtree can lose before the decision flips),
    [0.0] on cut nodes. *)
type forest_node = {
  fn_parent : string option;
  fn_depth : int;
  fn_cut : bool;
  fn_value : float;
  fn_slack : float;
}

type forest_tree = {
  ft_pivot : string;
  ft_nodes : (string * forest_node) list;   (** increasing recorded depth *)
}

type structure =
  | Witness_groups
  | Forest of forest_tree list
  | Contributions

type t = {
  d_vtuples : int;
      (** live ‖V‖ of the solved shard — the approximate tier's splice
          guard re-derives the √‖V‖ threshold bucket from it *)
  d_parts : part list;
  d_structure : structure;
}

val structure_name : structure -> string
val pp : Format.formatter -> t -> unit
val pp_cert_slice : Format.formatter -> cert_slice -> unit

(** Stuple content key, [Relational.Stuple.to_string]. *)
val key : Relational.Stuple.t -> string

(** Bit-for-bit equality: floats compare by bit pattern, deleted sets
    as sets. *)
val equal : t -> t -> bool

(** [equal] on one recorded tree: pivot, then every node's key and
    fields in order. *)
val equal_tree : forest_tree -> forest_tree -> bool

(** Per-candidate contribution parts for an approximate answer (one part
    per deleted stuple, costs disjoint and summing to the outcome cost). *)
val contributions :
  Provenance.t -> deleted:Relational.Stuple.Set.t -> cert:cert_slice -> part list

(** [restrict_forest tree ~surviving ~lost_end] — the {e restrict}
    operation for forest answers: project a recorded tree onto the
    fragment of nodes satisfying [surviving]. [lost_end] charges each
    preserved view tuple lost with the split to its recorded endpoint
    key. Checks that the projection replays to the identical cut
    frontier (lost regions carried no value; no surviving uncut node
    flips once the lost weight leaves its subtree) and returns the
    restricted tree with values and slacks discounted so chained splits
    restrict again; [Error reason] when any guard refuses. *)
val restrict_forest :
  forest_tree ->
  surviving:(string -> bool) ->
  lost_end:(string * float) list ->
  (forest_tree, string) result
