(** A long-lived propagation session (the §V interactive loops: propose
    repairs, apply, re-solve, round after round).

    One {!t} owns the materialized views ({!Deleprop.Matview}), a
    provenance index ({!Deleprop.Provenance}), its compiled arena
    ({!Deleprop.Arena}) and a persistent {!Deleprop.Par.Pool} — all
    built once at {!create} and then maintained {e incrementally}:

    - {!request} re-targets the cached index at the round's ΔV
      ([Provenance.with_deletions] / [Arena.with_deletions] — the
      (D,Q)-dependent structure is shared, only bad/preserved re-stamp)
      and runs the solver portfolio on the session pool;
    - {!apply} / {!delete} / {!insert} / {!apply_delta} all commit
      through one symmetric transition on a {!Deleprop.Delta.t}:
      deletions {e patch} the index ([Provenance.delete] /
      [Arena.delete]: killed rows tombstone in place, no id moves) and
      insertions patch it too ([Provenance.insert] / [Arena.extend]:
      gained rows resurrect dead slots or splice in by delta
      evaluation) — the index is built exactly once, in {!create}, and
      the component labels stay live across both sides
      ([Component_index.delete] splits, [Component_index.insert]
      merges). Every patch is counted in {!stats} ([patches] /
      [inserts_patched]); [rebuilds] stays 1 for the whole session.
      Dead slots accumulate across rounds and the engine compacts
      ({!Deleprop.Arena.compact}) only on the four events {!compact}
      lists — amortized O(1) slot movement per round instead of
      O(‖index‖) per delete.

    The session is {e resilient}: rounds run under an optional time
    budget with graceful degradation (see {!Deleprop.Portfolio}), solver
    crashes are isolated into {!plan.failures}, and committed operations
    can be journaled to disk ({!Journal}) so a killed session recovers
    to exactly its last committed state. With a [snapshot] path the
    shard solution cache itself is durable ({!Snapshot}): recovery
    re-warms it and the first post-recovery round splices clean shards
    instead of re-solving the world — and every snapshot failure shape
    (missing, torn, bit-flipped, stale, old version) degrades to a cold
    cache with a typed warning in {!stats}, never a failed recovery.

    The differential property suite ([test/test_engine.ml]) drives
    random delete/insert/solve streams through both this incremental
    path and rebuild-from-scratch and checks the indexes and ranked
    solver outputs are bit-identical; [test/test_resilience.ml] does the
    same across injected crashes and journal recovery.

    The query set must be key preserving ({!create} enforces it): the
    unique-witness index is what makes incremental deletion exact. *)

type t

(** How {!create}'s recovery left the shard cache. Stamped once per
    session; [Degraded] is the degradation ladder's typed warning — a
    snapshot problem is never an error. *)
type snapshot_status =
  | Cold
      (** no snapshot in play: fresh session, no [snapshot] path, or a
          session recovered without one *)
  | Warm of { entries : int; dropped : int }
      (** the snapshot installed: [entries] cache entries re-warmed,
          [dropped] entries the file promised but lost to damage *)
  | Degraded of Snapshot.warning
      (** recovery wanted the snapshot but fell back to a cold cache *)

val pp_snapshot_status : Format.formatter -> snapshot_status -> unit

type stats = {
  rounds : int;           (** {!request} calls that reached the solvers *)
  applies : int;          (** committed deletions ({!apply} + {!delete}) *)
  tuples_deleted : int;   (** source tuples removed, cumulative *)
  tuples_inserted : int;  (** source tuples added, cumulative *)
  patches : int;          (** commits whose deletions incrementally patched the index *)
  inserts_patched : int;  (** source-tuple insertions patched into the live
                              index (never by invalidate-and-rebuild) *)
  rebuilds : int;         (** full index builds — 1 for the whole session
                              (the one in {!create}); nothing invalidates *)
  index_retargets : int;  (** request rounds served by re-targeting the
                              live index; reads through {!index},
                              {!partition} and {!component_index} do not
                              count (the historical spellings
                              [index_hits] / [cache_hits] were emitted as
                              JSON aliases for one release — schema
                              version 2 — and are gone as of version 3) *)
  last_solve_ms : float;  (** wall time of the last round (patch + portfolio) *)
  total_solve_ms : float; (** cumulative round wall time *)
  journal_records : int;  (** records appended to the journal this session *)
  recovered_records : int;(** records replayed from the journal at {!create} *)
  components : int;       (** connected components of the live index's
                              incidence graph *)
  shards_solved : int;    (** shards dispatched by the planner, cumulative *)
  shards_exact : int;     (** ... solved by an exact tier (brute / DP) *)
  shards_approx : int;    (** ... solved by the approximation portfolio *)
  shards_cached : int;    (** ... spliced from the shard solution cache
                              (no solver ran; see {!create}'s
                              [shard_cache]) *)
  shards_resolved : int;  (** ... actually re-solved — [shards_cached +
                              shards_resolved = shards_solved] *)
  shard_cache_hits : int; (** the shard cache's lifetime hit counter
                              ([s_hits] of {!Deleprop.Planner.cache_stats}), read at
                              {!stats} time; 0 without a cache *)
  fragment_reuses : int;  (** lifetime splices of entries seeded by
                              split-aware fragment restriction
                              ({!Deleprop.Planner.fragment_reuses}),
                              read at {!stats} time — cache hits that
                              exist only because a split's surviving
                              fragment inherited its parent component's
                              answer; 0 without a cache *)
  fragment_reuses_exact : int;
                          (** {!fragment_reuses} whose seeded entry came
                              through the brute-force identity
                              restriction ([Exact_small] parents) *)
  fragment_reuses_forest : int;
                          (** ... through the recorded-DP-tree replay
                              ([Exact_forest] parents) *)
  fragment_reuses_approx : int;
                          (** ... through the approximate identity
                              restriction with certificate rewrite
                              ([Approximate] parents). The three always
                              sum to [fragment_reuses] *)
  tombstone_ratio : float;(** dead slots / total slots in the live arena,
                              read at {!stats} time — 0.0 right after a
                              compaction. In a flat session
                              ([~plan:false]) it can be non-zero between
                              a commit and the next {!request}, which
                              gathers the tombstones away *)
  compactions : int;      (** compactions of the live index that moved
                              slots: ratio triggers, {!checkpoint}s,
                              {!compact} calls, and — in a flat session —
                              the gather at the start of a {!request}
                              that finds the index tombstoned (at most
                              one per commit: repeated rounds over the
                              same state find it compact). The
                              compact-before-merge of an insert that
                              cannot resurrect is not counted *)
  snapshot : snapshot_status;
                          (** how recovery left the shard cache: warm
                              from a durable snapshot, cold, or degraded
                              with the typed reason *)
}

(** The one JSON encoding every front end shares, so the CLI's
    [--json] output and any embedding application serialize {!stats}
    identically. {!Stats.to_json} emits every field above, spelling
    floats with 3 decimals and [snapshot] as a one-object summary
    ([{"state": "cold" | "warm" | "degraded", ...}] with [entries] /
    [dropped] counts when warm and the {!Snapshot.warning_label} reason
    when degraded). *)
module Stats : sig
  val to_json : stats -> Deleprop.Report.t
end

(** A solved round: the requests it answered, the ranked feasible
    solutions (cheapest first), and the round's resilience report —
    solvers that timed out or crashed, and whether the answer came from
    the degradation ladder ({!Deleprop.Portfolio.report}). Planner
    sessions ([create ~plan:true]) additionally report the shatter:
    [decomposed] is true when the round solved ≥ 2 independent
    components ([solutions] is then the single recombined
    {!Deleprop.Solution.Composite}), and [shards] records each
    component's classification and winner. *)
type plan = {
  requests : Deleprop.Delta_request.t list;
  solutions : Deleprop.Solution.t list;
  failures : Deleprop.Portfolio.failure list;
  degraded : bool;
  decomposed : bool;
  shards : Deleprop.Planner.shard_decision list;
  shards_cached : int;
      (** how many of [shards] were spliced from the session's shard
          cache rather than re-solved this round *)
}

(** Build the session: evaluates the queries once (shared between the
    provenance index and the view manager), compiles the arena, spawns
    the domain pool. [algorithms] restricts the portfolio (names as in
    {!Deleprop.Portfolio.solutions}); [exact_threshold] as there;
    [domains] sizes the pool (default
    [Domain.recommended_domain_count ()]; pass [~domains:1] for a
    sequential session with no spawned domain). Raises
    [Invalid_argument] on non-key-preserving queries.

    [plan] (default [false]) routes rounds through the shatter-and-plan
    solver ({!Deleprop.Planner.solve}) instead of the flat portfolio:
    the session's incrementally maintained component index shatters
    each round into independent sub-instances, solved per-component
    (exact where small or forest-shaped) on the session pool.

    [budget_ms] arms every round with a wall-clock deadline (overridable
    per {!request}).

    Every committed delete tombstones slots in place
    ({!Deleprop.Arena.delete}), and inserts resurrect dead slots when
    they can ({!Deleprop.Arena.resurrect}) — per-round commit cost
    proportional to the delta, not the index. The engine compacts on
    the four events {!compact} lists. Compaction is observationally
    invisible (solutions, views, fingerprints, recovery —
    [test/test_tombstone.ml] pins tombstoned sessions to twins that
    compact after every commit); only wall-clock and the
    [tombstone_ratio] / [compactions] stats see it.

    [journal] makes committed operations durable in an append-only log
    at that path. With [recover] (default [false]) an existing journal
    is replayed on top of [db] — a torn final record (killed mid-write)
    is truncated away, interior corruption raises {!Journal.Error} —
    and the session continues appending; without it any existing file
    (and snapshot) is discarded. [db] must be the same database the
    journal was recorded against. [fsync] (default [false]) upgrades
    every journal flush to a physical sync — durability against power
    loss at a per-append cost — and [segment_bytes] bounds the journal's
    file size by rotating sealed segments ({!Journal.open_writer}).

    [shard_cache] (default 512; [0] disables) bounds the planner
    session's shard solution cache ({!Deleprop.Planner.cache}): the
    component index owns which components each committed delta touched
    (one clean bit per component, carried through the same transitions
    that patch the rosters — {!Deleprop.Component_index.clean}) and
    {!request} re-solves only the dirty shards, splicing
    memoized answers for the clean ones. Cached rounds are
    solution-equivalent to fresh ones whenever the session is
    deterministic (no [budget_ms] expiring mid-solver) — the
    differential suite in [test/test_shardcache.ml] enforces this.
    Ignored without [~plan:true]. A session recovered {e without} a
    snapshot starts with a cold cache and every component dirty, so
    recovery never changes answers.

    [snapshot] (requires [journal] — [Invalid_argument] otherwise) makes
    the shard cache itself durable at that path: the engine writes a
    crash-consistent {!Snapshot} at every {!checkpoint} and, amortized,
    once [snapshot_every] (default 16; [<= 0] = checkpoint-only) records
    accumulate past the last one. With [recover], a snapshot whose
    coordinates (journal position, partition size, canonical arena
    fingerprint) match the replay installs mid-replay — restoring the
    entries, the lifetime counters, {e and} the index's clean bits, which
    the remaining journal tail then carries like live deltas — so the first
    post-recovery round re-solves only what the crashed session would
    have. When the snapshot additionally carries a database baseline and
    its recorded journal generation still matches the journal on disk,
    recovery takes the {e fast path}: the [position]-record prefix is
    never parsed — the baseline applies as one delta, only the tail
    replays, and an immediate checkpoint folds the sealed journal
    segments the prefix lived in away (sealed-segment reclamation, via
    the generation-bumping rewrite so a crash mid-reclaim can never
    orphan the snapshot's recorded position). Every failure shape degrades
    per the {!Snapshot} ladder (the fast path itself degrades to the
    full replay) and stamps [stats.snapshot]; [test/test_rewarm.ml]
    holds the crash+recover ≡ uninterrupted equivalence property.

    Planner rounds always run on the live {!Deleprop.Component_index}:
    active components enumerate off maintained per-component rosters in
    O(‖ΔV‖ + active) instead of an O(‖D‖ + ‖V‖) label sweep, and
    split-aware cache reuse is armed — after a committed deletion splits
    a memoized component, surviving fragments whose candidate
    neighborhood the delete did not touch inherit the parent's cached
    answer by restriction ({!Deleprop.Planner.seed_fragments}) and stay
    clean. *)
val create :
  ?weights:Deleprop.Weights.t ->
  ?exact_threshold:int ->
  ?algorithms:string list ->
  ?plan:bool ->
  ?domains:int ->
  ?budget_ms:float ->
  ?journal:string ->
  ?recover:bool ->
  ?shard_cache:int ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?fsync:bool ->
  ?segment_bytes:int ->
  Relational.Instance.t ->
  Cq.Query.t list ->
  t

(** Solve one round of typed deletion intents against the current state.
    Nothing is committed — call {!apply} with the returned plan.
    [budget_ms] overrides the session default for this round. *)
val request :
  ?budget_ms:float ->
  t -> Deleprop.Delta_request.t list -> (plan, Deleprop.Delta_request.error) result

(** Commit a solution of [plan] — [solution] (default: the plan's
    cheapest) — and return it. [None] when the plan has no feasible
    solution (nothing committed). Tuples already gone from the database
    are skipped; the provenance index and arena are patched, never
    rebuilt. Journaled as an [Apply] record when the session has a
    journal. *)
val apply : ?solution:Deleprop.Solution.t -> t -> plan -> Deleprop.Solution.t option

(** Commit a direct source deletion (same incremental path as {!apply},
    no solver involved). Journaled as a [Delete] record. *)
val delete : t -> Relational.Stuple.Set.t -> unit

(** Insert a source tuple: views maintain incrementally and the
    provenance/arena index {e patches in place} — the gained view tuples
    (and only those) splice into every layer, the component index merges
    the components the new witnesses bridge ([Component_index.insert]), and
    [stats.inserts_patched] counts the tuple. Raises
    {!Relational.Relation.Key_violation} like the underlying instance
    and {!Deleprop.Provenance.Ambiguous_witness} when the insertion
    breaks key preservation; the session state is untouched and nothing
    is journaled then. Journaled as an [Insert] record. *)
val insert : t -> Relational.Stuple.t -> unit

val insert_all : t -> Relational.Stuple.Set.t -> unit

(** Commit a symmetric update in one transition: [delta.deletes] first,
    then [delta.inserts], both patching the live index (the same path
    {!apply}, {!delete} and {!insert} route through). Returns the
    subset actually applied — deletes of absent tuples and inserts of
    present ones are skipped (a tuple on both sides is a legal
    delete-then-reinsert). Journaled as a single [Delta] record when
    non-empty; on [Key_violation] / [Ambiguous_witness] nothing commits
    and nothing is journaled. *)
val apply_delta : t -> Deleprop.Delta.t -> Deleprop.Delta.t

(** Compact the live index now: drop tombstoned slots from the arena
    and re-gather the component index ({!Deleprop.Arena.compact} /
    {!Deleprop.Component_index.compact} — labels and clean bits
    survive). No-op when the index has no tombstones. Counted in
    [stats.compactions]. The engine compacts on exactly four events:
    a commit that leaves more than half of the arena's slots dead,
    every {!checkpoint}, this call, and the start of a flat
    ([~plan:false]) {!request} whose live index is tombstoned (the
    whole-instance portfolio walks the physical arrays). Exposing it
    lets an embedding application compact at its own quiet points. *)
val compact : t -> unit

(** Compact the journal: atomically rewrite it as the minimal diff
    between the database {!create} was given and the current one — a
    single symmetric [Delta] record (deletes replay before inserts, so
    key updates land cleanly). Recovery cost stops growing with session
    length. No-op for journal-less sessions. Compacts the live index
    first ({!compact}) so the durable baseline corresponds to the
    compact form; sealed journal segments of the old generation are
    superseded and unlinked. With a [snapshot] path, a fresh snapshot is
    written just before the journal mark — the crash window between the
    two is covered by recovery's end-of-replay staleness check. *)
val checkpoint : t -> unit

val db : t -> Relational.Instance.t

(** Current materialized view / manager, read off the live provenance
    index (kept consistent by every operation). *)
val view : t -> string -> Relational.Tuple.Set.t

val matview : t -> Deleprop.Matview.t

(** The session's live baseline index (ΔV = ∅) — built once in
    {!create}, patched by every commit since; what the differential
    tests compare against scratch construction. The returned arena may
    carry tombstones; [Arena.compact] of it is bit-identical to a
    scratch build. *)
val index : t -> Deleprop.Provenance.t * Deleprop.Arena.t

(** The live index's component labels, maintained incrementally across
    commits ({!Deleprop.Component_index.delete} splits on deletes,
    {!Deleprop.Component_index.insert} merges on inserts) —
    bit-identical to the labels of [Component_index.build (snd (index
    t))] (over a tombstoned arena the labels cover live slots only; dead
    slots carry [-1]). *)
val partition : t -> Deleprop.Component_index.partition

(** The session's live component index — the labels above plus the
    per-component member rosters and solve memos
    ({!Deleprop.Component_index}), maintained through every commit.
    What the lockstep differential tests compare against
    [Component_index.build (snd (index t))]. *)
val component_index : t -> Deleprop.Component_index.t

(** A point-in-time snapshot: the session's counters, with
    [shard_cache_hits], the [fragment_reuses*] family, and
    [tombstone_ratio] read off the live cache and arena at call time. *)
val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** Close the journal (if any) and shut the domain pool down. The engine
    remains usable afterwards (parallel fan-outs degrade to sequential,
    further commits are no longer journaled). *)
val close : t -> unit

(** Line-oriented round scripts for [deleprop batch]:
    {v
    # comments and blank lines are skipped
    solve Q4(John, TKDE, XML); Q4(Tom, TKDE, XML)
    propose Q4(Ann, TODS, XML)
    insert T1(Ann, TODS)
    delete T2(TODS, XML, 30)
    v}
    [solve] takes view facts separated by [;] (grouped into one
    {!Deleprop.Delta_request.t} per view); [propose] is [solve] without
    the commit — the plan is reported, nothing applies (what-if rounds;
    under [create ~plan:true] repeated proposals over untouched
    components hit the shard cache); [insert]/[delete] take one source
    fact in {!Relational.Serial.fact_of_string} syntax. *)
module Script : sig
  type op =
    | Solve of Deleprop.Delta_request.t list
    | Propose of Deleprop.Delta_request.t list
    | Insert of Relational.Stuple.t
    | Delete of Relational.Stuple.t

  (** A parsed script line: the op plus where it came from — [lineno]
      is 1-based in the source text, [text] the trimmed line itself
      (what error messages quote). *)
  type line = {
    lineno : int;
    text : string;
    op : op;
  }

  (** One executed script line: [plan] is [Some] exactly for successful
      [Solve] ops (whose cheapest solution was applied) and [Propose]
      ops (nothing applied); [error] is [Some] only under
      [replay ~keep_going:true] for ops that failed. *)
  type round = {
    number : int;
    op : op;
    plan : plan option;
    error : string option;
  }

  val parse : string -> (line list, string) result
  val parse_file : string -> (line list, string) result

  (** Execute the ops in order — [Solve] rounds auto-apply their best
      solution. An op failure reports ["round %d (<line text>): %s"]:
      by default the replay stops there; with [keep_going] the failed
      round is recorded (its [error] set) and the rest of the script
      still runs. *)
  val replay : ?keep_going:bool -> t -> line list -> (round list, string) result
end

(** The session journal and the shard-cache snapshot machinery,
    re-exported ([Engine] is the library's interface module). *)
module Journal : module type of Journal

module Snapshot : module type of Snapshot
