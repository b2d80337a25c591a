(** First-class live component index: the partition plus per-component
    member rosters, maintained incrementally across the whole delta
    lifecycle.

    {!Arena.partition} answers "which component does this slot belong
    to?" in O(1), but enumerating a component's {e members} — what every
    planner round needs to build its proto-shards — would mean sweeping
    the full [comp_of_vid]/[comp_of_sid] arrays, the residual
    O(‖D‖ + ‖V‖) term in otherwise component-local rounds (that sweep
    survives only as this module's test oracle, in [test/reference]).
    This module owns both: the canonical partition {e and} ascending
    member rosters per component, patched by the same transitions the
    partition itself uses — deletes re-roster only the affected
    components' fragments ({!delete} delegates the labels to
    {!Arena.partition_delete}), inserts re-roster only the merged
    components ({!insert} / {!Arena.partition_insert}), and compaction
    remaps member ids without a global rebuild ({!compact}). {!active}
    is then an O(‖ΔV‖ + active·log active) lookup that returns the {e
    same} proto-shards, bit-identical, that the sweep would have built.

    The index additionally carries one {e solve memo} per component —
    the fingerprint and ΔV of the component's last planner answer —
    which is what the split-aware cache reuse in {!Planner.seed_fragments}
    restricts onto surviving fragments. Memos are advisory: dropping one
    never changes an answer, only forfeits a reuse.

    It is also the only holder of the shard cache's invalidation state:
    one {e clean bit} per component, which says no committed delta has
    touched the component since a planner round last answered it (see
    {!clean}). Every transition below is pure — it allocates fresh
    arrays and never mutates its input — so a caller may run one
    speculatively on a live index; only {!record_memo} and
    {!mark_clean} write in place.

    Lockstep differential tests ([test/test_compindex.ml]) drive random
    mixed delta streams (splits, merges, resurrections, compactions)
    through this index and through scratch recomputation and check the
    partitions, rosters and {!active} outputs are bit-identical. *)

type t

(** The canonical partition the index maintains — exactly what
    [Arena.partition] would compute from the same arena (bit-identical
    labels; the lockstep suite enforces it). *)
val partition : t -> Arena.partition

(** [of_partition p] — bucket [p]'s members into rosters (one
    O(‖D‖ + ‖V‖) pass; the only full sweep the index ever does). *)
val of_partition : Arena.partition -> t

(** [build a] = [of_partition (Arena.partition a)]. *)
val build : Arena.t -> t

(** Ascending live member ids of component [c]. The returned arrays are
    owned by the index — callers must not mutate them. A component with
    no view tuples has an empty [vids_of]. *)

val sids_of : t -> int -> int array
val vids_of : t -> int -> int array

(** [delete t ~before ~dd a'] — the index after committing the deletion
    [dd]. [a'] must be [Arena.delete before ~dd _] itself, tombstoned and
    sharing [before]'s arrays ([Invalid_argument] otherwise, raised by
    {!Arena.partition_delete}); a caller
    that wants a compact index compacts afterwards ({!compact}). Only
    the affected components re-roster: their fragments re-bucket, start
    dirty and drop their memos ({!Planner.seed_fragments} may re-seed an
    untouched fragment). Every other component shares its roster, memo
    and clean bit with [t]. *)
val delete : t -> before:Arena.t -> dd:Relational.Stuple.Set.t -> Arena.t -> t

(** [insert t ~before a'] — the index after an insertion
    ([a' = Arena.extend before ~ins _]; same contract as
    {!Arena.partition_insert}). On the resurrect path only components
    that merged or gained a member re-roster (memos drop, bits start
    dirty); the rest share. The merge path re-buckets from scratch (ids
    moved, memos drop) and carries each clean bit along the sorted-run
    correspondence: a component stays clean iff it gained no inserted
    tuple, hence merged nothing. *)
val insert : t -> before:Arena.t -> Arena.t -> t

(** [compact t ~before] — the index over [Arena.compact before]: labels
    survive ({!Arena.compact_partition}), roster ids remap to the
    compacted arena's, and memos survive too — their fingerprints are
    compaction-invariant ({!Fingerprint}) and their ΔV vids remap with
    the rosters. Clean bits carry as-is. *)
val compact : t -> before:Arena.t -> t

(** [active t a] — the proto-shards of the components holding a bad
    view tuple of [a], ascending by component, each roster ascending:
    bit-identical to the partition-array sweep over [partition t] (the
    [test/reference] oracle) but O(‖ΔV‖ + active·log active) instead of
    O(‖D‖ + ‖V‖). [a] must
    share the index's physical id space (the session arena or a
    [with_deletions] re-stamp of it). *)
val active : t -> Arena.t -> Arena.proto_shard array

(** {2 Solve memos (split-aware reuse)} *)

(** [record_memo t ~component ~fp ~bad] — remember that [component] was
    last solved as the shard fingerprinted [fp] under the ΔV [bad]
    (ascending parent vids). Overwrites any previous memo. *)
val record_memo : t -> component:int -> fp:Fingerprint.t -> bad:int array -> unit

(** The component's memo, if its roster has not changed since it was
    recorded (re-rostering drops memos). *)
val memo : t -> int -> (Fingerprint.t * int array) option

(** {2 Clean bits (shard cache invalidation)}

    The contract, pinned by [test/test_compindex.ml]: right after a
    committed delta, component [c] is clean iff its live stuple set
    equals that of a component that was clean before the commit, or
    {!Planner.seed_fragments} just seeded it. A fresh index
    ({!of_partition}) is all dirty; a planner round marks the shards it
    answered clean ({!mark_clean}). The bits are only read when a shard
    cache is in play. *)

val clean : t -> int -> bool

(** Mark [c] clean, in place — the one mutation besides {!record_memo}. *)
val mark_clean : t -> int -> unit

(** Ascending ids of the dirty components (what a snapshot records). *)
val dirty : t -> int list

(** [restore_dirty t ids] — [t] with exactly [ids] dirty and every other
    component clean (ids out of range are ignored): how a recovered
    snapshot reinstalls its bits. A fresh copy; [t] is untouched. *)
val restore_dirty : t -> int list -> t
