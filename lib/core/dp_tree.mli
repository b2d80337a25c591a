(** [DPTreeVSE] (Algorithm 4, §IV.E): exact polynomial dynamic
    programming for forest data dual graphs with pivot tuples, on the
    int arrays of an {!Arena.t}.

    Requirements checked at run time: the witness paths of all view
    tuples form a forest at the tuple level, and each component has a
    pivot tuple from which every witness is a root path. Rooted at the
    pivot, a view tuple dies iff some tuple on the path to its endpoint
    (deepest witness tuple) is deleted — i.e. iff the endpoint lies in a
    deleted subtree. The DP walks the tree bottom-up deciding cut /
    don't-cut per node:

    - standard objective: a node carrying a bad endpoint with no cut
      above it must be cut; otherwise cut when the preserved weight of
      the subtree is cheaper than the best of the children;
    - balanced objective: surviving bad endpoints are simply priced
      instead of forced.

    {b Structure.} The path order comes from the arena's live provenance
    ([a.prov.witness_path]); each path member is mapped to its sid by
    scanning the view's witness row. The distinct consecutive pairs are
    the edges, and one union-find pass over them finds the components
    and any cycle. Each component is rooted once, by BFS from its pivot:
    the smallest-sid tuple that is an end of every witness of the
    component, read as a path.

    {b Bit-identity.} Answers, pivots, optima and recorded trees are
    bit-identical to the set-based implementation kept as a test oracle
    under [test/reference]: components are discovered by ascending sid
    and solved in reverse discovery order, each component folds its
    views in descending vid order, BFS visits neighbours in ascending
    sid order, children fold in descending sid order, and a view's
    endpoint is its deepest member, ties to the smallest sid.

    Exactness is validated against brute force in experiment E7. *)

type objective = Standard | Balanced

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : Relational.Stuple.t list;  (** one per component with view tuples *)
  optimum : float;                    (** the DP value = proven optimal cost *)
  decomp : Decomposition.forest_tree list;
      (** the recorded trees, in [pivots] order: per-node parent, depth,
          cut decision, DP value and decision slack — the structural
          record {!Decomposition.restrict_forest} projects onto a
          surviving fragment after a component split *)
  tree_of_sid : int array;
      (** sid of the solved arena -> index of its tree in [decomp] /
          [pivots]; [-1] for sids on no live witness path *)
}

type error =
  | Not_a_forest
  | No_pivot   (** some component admits no pivot tuple *)

(** [solve a] over every live view of [a]. [budget] is ticked once per
    view-tuple endpoint computation and once per DP node — the same
    points as the set-based oracle; on expiry the run unwinds with
    {!Budget.Expired} — the DP is exact-or-nothing, there is no partial
    answer to salvage. *)
val solve :
  ?objective:objective -> ?budget:Budget.t -> Arena.t ->
  (result, error) Stdlib.result

(** [recognize a vids] — the structural requirement alone, over the
    views [vids] of [a] (tombstoned vids are skipped): their paths form
    a forest and every graph component has a pivot. No DP runs and
    nothing is budgeted. [solve] starts with exactly this test — it
    returns [Error] iff [recognize] over all live vids does — so it
    answers "would the forest tier take this?" for any subset of an
    arena's views, such as one component's roster. *)
val recognize : Arena.t -> int array -> (unit, error) Stdlib.result

(** [recognize] over every view tuple of the instance, compiled into an
    arena first: [applicable prov = Result.is_ok (solve (Arena.build
    prov))], without the DP. *)
val applicable : Provenance.t -> bool

val pp_error : Format.formatter -> error -> unit
