(** Shatter-and-plan: decompose an instance into independent components
    ({!Component_index.active} + {!Arena.materialize}), classify each
    shard, solve shards with the cheapest adequate strategy, and
    recombine.

    Component independence (a witness lies entirely inside one
    component) makes the recombination exact: the union of per-shard
    deletions is feasible, its cost is the sum of shard costs, and the
    instance optimum is the sum of shard optima — so per-shard
    guarantees compose into a {!Solution.Composite} certificate whose
    factor is the {e max} of the shard factors.

    Per-shard policy, a lazy ladder — each tier runs only when the one
    above it did not answer:
    - {e exact-small} — the candidate set fits under [exact_threshold]:
      brute force, factor 1;
    - {e exact-forest} — one {!Solver.run} of the registered ["dp-tree"]
      under the shard budget: the pivot-forest DP, factor 1. The attempt
      is the classification: [Solved] answers here, [Inapplicable] (not
      a pivot forest) falls through without a failure, [Failed] falls
      through with its failure recorded. The DP runs once per re-solved
      shard and never on a shard the brute tier answered;
    - {e approximate} — the full approximation portfolio (primal-dual,
      LowDeg, the general reduction, greedy) plus a LowDeg variant run
      with the {e parent} instance's √‖V‖ wide-pruning threshold, so the
      decomposed winner never costs more than the whole-instance LowDeg.
    An exact shard whose solver times out or crashes falls back to the
    approximate tier (and is reported as such).

    Fault injection: the forest attempt crosses the [solver.dp-tree]
    failpoint on every shard the brute tier did not answer — forest or
    not, as the whole-instance portfolio already does — so an armed
    [Raise] there records a dp-tree crash on each such shard and leaves
    it uncached.

    {2 Shard memoization}

    The same independence makes per-shard answers {e reusable}: a shard
    untouched by the deltas since it was last solved is the same
    sub-instance, and the solvers are deterministic, so its answer can
    be spliced back without running anything. {!solve} takes an optional
    {!cache} — a bounded LRU keyed by canonical content fingerprints
    ({!Fingerprint.arena}, invariant under component renumbering and id
    compaction) — together with the caller's {!Component_index}, whose
    clean bits ({!Component_index.clean}) mark the components no delta
    has touched since their answer was cached; only dirty shards
    re-solve, and the composite
    certificate is recomputed over {e all} shards (cost = sum,
    factor = max) so spliced rounds are solution-equivalent to fresh
    ones. See {!create_cache} for the invalidation rules. *)

type classification =
  | Exact_small     (** candidates ≤ [exact_threshold]: brute force *)
  | Exact_forest    (** pivot-forest instance: {!Dp_tree} *)
  | Approximate     (** approximation portfolio *)

type shard_decision = {
  component : int;          (** parent component id ({!Component_index}) *)
  stuples : int;
  vtuples : int;
  bad : int;
  classification : classification;
  winner : string;          (** algorithm of the shard's chosen solution *)
  cost : float;             (** its side-effect cost *)
  exact : bool;             (** did an exact tier produce the answer? *)
  degraded : bool;          (** shard fell to the unbudgeted-greedy ladder *)
  cached : bool;            (** spliced from the shard cache, no solver ran *)
  fingerprint : Fingerprint.t option;
      (** the shard's cache key when its answer entered (or was spliced
          from) the shard cache; [None] when nothing was memoized. The
          engine records these in its {!Component_index} memos, which
          {!seed_fragments} restricts onto surviving fragments. *)
}

type report = {
  solutions : Solution.t list;
      (** decomposed: the single recombined {!Solution.Composite};
          otherwise the whole-instance portfolio ranking *)
  failures : Portfolio.failure list;  (** across all shards *)
  degraded : bool;                    (** some shard degraded *)
  decomposed : bool;
      (** true iff the shard pipeline produced the result — any round
          with ≥ 1 active component under [decompose:true]; false when
          the instance had nothing to solve, [decompose:false] was
          passed, or an unsolvable shard forced the whole-instance
          fallback *)
  shards : shard_decision list;       (** ascending by component *)
  shards_cached : int;
      (** how many of [shards] were spliced from the cache this call *)
}

val pp_classification : Format.formatter -> classification -> unit
val pp_shard_decision : Format.formatter -> shard_decision -> unit

(** {2 Shard solution cache} *)

(** A bounded LRU ({!Setcover.Lru}) from {!Fingerprint.t} to memoized
    shard answers (winner, deleted set, cost, certificate,
    classification). Reuse rules:
    - {e exact} entries (brute / DP) depend on nothing outside the shard:
      reusable unconditionally;
    - {e approximate} entries also saw the parent instance's √‖V‖
      LowDeg wide-pruning threshold. The pruning test compares integer
      witness widths against the threshold, so behaviour depends only on
      its integer floor (“bucket”): an entry is reusable iff the bucket
      is unchanged. The parent-threshold variant's [Ratio (2·√‖V‖)]
      certificate quotes the exact float, so splicing rewrites it to the
      current threshold — exactly what a fresh solve would certify.
    Only deterministic answers are stored: a degraded shard, an
    [Anytime] winner, or any recorded timeout/crash is never cached.

    A cache must not be shared between sessions with different solver
    configurations ([exact_threshold] / [only]) — the engine owns one
    cache per session, whose configuration is fixed at [create]. *)
type cache

(** One memoized shard answer — {e plain data}, exactly what splicing a
    clean shard back needs (no arena, no closures): the engine's
    snapshot codec serializes entries verbatim and a recovered session
    restores them ({!cache_entries} / {!cache_restore}). *)
type cache_entry = {
  e_classification : classification;
  e_winner : string;             (** algorithm of the memoized answer *)
  e_deleted : Relational.Stuple.Set.t;
  e_cost : float;
  e_certificate : Solution.certificate;
  e_forest : bool;               (** the shard arena's forest flag *)
  e_threshold : float;
      (** the parent √‖V‖ wide-pruning threshold at solve time *)
  e_split : bool;
      (** entered the cache by fragment restriction ({!seed_fragments})
          rather than by solving; splicing it counts as a fragment
          reuse *)
  e_decomposition : Decomposition.t;
      (** the winner's per-sub-structure cost decomposition, recorded at
          solve time — the raw material {!seed_fragments} projects onto
          surviving fragments. Every registered solver records one; the
          cache admits only winners that carry it. *)
}

(** [create_cache ?capacity ()] — an empty cache holding at most
    [capacity] (default 512) shard answers. *)
val create_cache : ?capacity:int -> unit -> cache

val cache_length : cache -> int

val cache_clear : cache -> unit

(** {2 Counters and snapshot hooks}

    A cache's observable state is plain data: the bindings in recency
    order plus one counter block. [Engine]'s crash-consistent snapshots
    persist exactly this pair; restoring it rebuilds a cache
    bit-identical to the one written — same future eviction order, same
    lifetime counters, same bucket latch. *)

(** The cache's lifetime counters. The cache keeps one block and bumps
    it in place; {!cache_stats} hands out a copy and {!cache_restore}
    installs one. *)
type cache_stats = {
  mutable s_hits : int;
      (** lifetime splices: clean shards answered from the cache *)
  mutable s_misses : int;
      (** clean shards whose fingerprint was absent or whose entry
          failed the reuse rules *)
  mutable s_evictions : int;
      (** approximate-tier entries dropped by proactive bucket eviction:
          when the parent √‖V‖ threshold bucket drifts between rounds,
          entries solved under the old bucket can never be spliced again
          and are removed eagerly (one sweep per drift) instead of
          lingering in LRU slots until discovered stale at splice time *)
  mutable s_last_bucket : int option;
      (** the √‖V‖ threshold-bucket latch the eviction sweep compares
          against *)
  mutable s_fragment_reuses_exact : int;
  mutable s_fragment_reuses_forest : int;
  mutable s_fragment_reuses_approx : int;
      (** splices whose entry was seeded by {!seed_fragments} — cache
          hits that exist only because a split's surviving fragment
          inherited its parent's answer by restriction — by the seeded
          entry's tier: identity, forest-tree replay, or approximate
          identity-with-rewrite *)
}

(** The total fragment reuses: the sum of the three per-tier counters. *)
val fragment_reuses : cache_stats -> int

(** A copy of the counter block. *)
val cache_stats : cache -> cache_stats

(** Current bindings, most-recently-used first. *)
val cache_entries : cache -> (Fingerprint.t * cache_entry) list

(** Replace the cache's content with [entries] (MRU-first, as
    {!cache_entries} returns them) and, when given, the counter block.
    Entries beyond the cache's capacity evict in LRU order, so restoring
    into a smaller cache keeps the most recent answers. *)
val cache_restore :
  ?stats:cache_stats -> cache -> (Fingerprint.t * cache_entry) list -> unit

(** Solve via shatter-and-plan. Every round with ≥ 1 active component
    routes through the shard pipeline — including the single-component
    case, which gets the whole [budget_ms] and still consults the shard
    cache; with ≥ 2 the shards fan out on [pool] ({!Par.map_result},
    sequential without one; each shard's inner portfolio stays
    sequential)
    and [budget_ms] splits evenly across shards. With no active
    component (or [decompose:false]) this is exactly
    [Portfolio.solutions_report ... a], compacting a tombstoned arena
    first — the shard pipeline itself never needs to: proto-shard
    sweeps, fingerprints, and materialization all skip dead slots.
    [only] restricts the participating algorithms as in
    {!Portfolio.solutions_report} (shards classify around missing
    tiers). If any shard produces no feasible answer at all, the planner
    falls back to the whole-instance portfolio rather than return an
    infeasible union.

    [index] is the component index that enumerates the active
    components ({!Component_index.active}: O(‖ΔV‖ + active) off
    maintained rosters) and supplies the clean bits
    ({!Component_index.clean}) that say which components no delta has
    touched since their answer was cached — the engine passes its live
    one. Without [index] the planner builds a fresh one
    ({!Component_index.build}, one O(‖D‖ + ‖V‖) pass), which is all
    dirty: every shard re-solves.

    [cache] enables shard memoization. A shard is spliced iff it is
    clean, its fingerprint is present, and the entry passes the reuse
    rules (with no index the cache only ever stores); the budget splits
    across the shards actually re-solved (a spliced shard consumes no
    wall-clock), so fresh solves in a mostly-cached round get the
    deadline headroom the splices freed. The planner never writes the
    clean bits — the caller marks the answered shards
    ({!Component_index.mark_clean}). *)
val solve :
  ?exact_threshold:int ->
  ?only:string list ->
  ?pool:Par.Pool.t ->
  ?budget_ms:float ->
  ?decompose:bool ->
  ?index:Component_index.t ->
  ?cache:cache ->
  Arena.t ->
  report

(** {2 Split-aware fragment seeding}

    [seed_fragments cache ~before ~before_index ~dd ~after ~after_index]
    — called by the engine right after committing a deletion [dd]
    ([after = Arena.delete before ~dd _], tombstoned, and [after_index]
    the matching {!Component_index.delete}). For each component of [before] touched
    by [dd] whose {!Component_index.memo} points at a cached entry, if
    the memoized ΔV survived intact inside one non-empty fragment of
    [after], the parent's entry is restricted onto the fragment — all
    three tiers participate. The identity tiers ([Exact_small] /
    [Approximate]) additionally require that the deletion killed no
    view tuple whose witness meets the ΔV's candidate set; the forest
    tier replays killed weight through its recorded tree instead:

    - [Exact_small]: identity — the brute-force tier's result is a
      function of the candidates, the bad view tuples, and the preserved
      views incident to a candidate, all inherited verbatim;
    - [Exact_forest]: the recorded DP tree is replayed through
      {!Decomposition.restrict_forest}, discounting lost preserved
      endpoint weight (the entry's cost drops by the pivot's replayed
      discount) and refusing whenever a surviving node's cut decision
      could flip or the fragment would root at a different pivot;
    - [Approximate]: identity, additionally requiring the fragment's
      √‖V‖ bucket to equal the parent shard's recorded one, the fragment
      to stay outside the forest tier, and a rewritable winner
      certificate ([Ratio] of a shard-local LowDeg win is rewritten to
      the fragment's own [2√‖V‖]; a "general" winner never seeds).

    The restricted entry is re-keyed under the fragment's fingerprint
    (hashed with the memoized ΔV via [Fingerprint.shard ~bad]), marked
    [e_split], and the fragment's memo updated so reuse chains across
    successive splits.

    Each seeded fragment is marked clean in [after_index]
    ({!Component_index.mark_clean}), so the next request splices it
    without materializing or solving anything. A fresh solve of a seeded
    fragment produces a bit-identical answer (lockstep-tested in
    [test/test_compindex.ml] and [test/test_decomp_splice.ml]). *)
val seed_fragments :
  cache ->
  before:Arena.t ->
  before_index:Component_index.t ->
  dd:Relational.Stuple.Set.t ->
  after:Arena.t ->
  after_index:Component_index.t ->
  unit
