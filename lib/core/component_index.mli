(** The live component index: the one owner of component labels, plus
    per-component member rosters, solve memos and clean bits, maintained
    incrementally across the whole delta lifecycle.

    Key preservation gives every view tuple exactly one witness, so the
    stuple↔vtuple incidence graph shatters into independent components —
    a witness lies inside one component — and solving per component is
    exact for both feasibility and cost. Each transition computes labels
    and rosters together: {!build} from scratch, {!delete} and {!insert}
    by patching only the components they touch, {!compact} by one id
    gather. {!active} then returns, in O(‖ΔV‖ + active·log active), the
    same proto-shards, bit-identical, that a sweep over the label arrays
    would build (that sweep survives as the test oracle in
    [test/reference]).

    A {e solve memo} per component — the fingerprint and ΔV of its last
    planner answer — is what {!Planner.seed_fragments} restricts onto
    surviving fragments; dropping one never changes an answer. A {e clean
    bit} per component is the shard cache's invalidation state (see
    {!clean}). Every transition is pure — fresh arrays, input untouched —
    so a caller may run one speculatively; only {!record_memo} and
    {!mark_clean} write in place. The lockstep suite
    ([test/test_compindex.ml]) checks labels, rosters and {!active}
    against {!build} from scratch over random mixed delta streams. *)

(** The component labels. Components are numbered canonically — by
    first appearance in ascending {e live} sid order — so
    membership-equal labellings are structurally equal: the labels of a
    tombstoned arena equal those of its compacted form, and every
    transition's result equals {!build} of the same arena. Labels depend
    only on the live witness structure, so they hold unchanged for any
    [Arena.with_deletions] re-stamp of the arena. *)
type partition = {
  comp_of_sid : int array;      (** sid -> component id ([-1] for
                                    tombstoned slots) *)
  comp_of_vid : int array;      (** vid -> component of its witness
                                    ([-1] for tombstoned slots and empty
                                    witnesses, the latter impossible on
                                    built arenas) *)
  num_components : int;
}

type t

(** [build a] — the scratch labelling of [a]: union-find over the live
    witness rows, O(‖D‖ + Σ|witness| α), then one count/fill pass per
    axis for the rosters. Every component starts dirty with no memo. *)
val build : Arena.t -> t

(** The labels the index maintains. *)
val partition : t -> partition

(** [num_components t] = [(partition t).num_components]. *)
val num_components : t -> int

(** Component of a sid / a vid ([-1] for dead slots, and for view
    tuples with an empty witness). *)

val comp_of_sid : t -> int -> int
val comp_of_vid : t -> int -> int

(** Ascending live member ids of component [c]. The returned arrays are
    owned by the index — callers must not mutate them. A component with
    no view tuples has an empty [vids_of]. *)

val sids_of : t -> int -> int array
val vids_of : t -> int -> int array

(** [delete t ~before ~dd a'] — the index after committing the deletion
    [dd]. Deletions only split components (no witness row gains a
    member), so only the components holding a deleted tuple re-union
    their surviving rows; their fragments re-bucket, start dirty and
    drop their memos ({!Planner.seed_fragments} may re-seed an untouched
    fragment). Every other component keeps its membership and shares
    its roster, memo and clean bit with [t] under its new label. [a']
    must be [Arena.delete before ~dd _] itself, tombstoned and sharing
    [before]'s arrays, so the id correspondence is the identity; any
    other arena (a compacted one included) raises [Invalid_argument]. A
    caller that wants a compact index compacts afterwards ({!compact}). *)
val delete : t -> before:Arena.t -> dd:Relational.Stuple.Set.t -> Arena.t -> t

(** [insert t ~before a'] — the index after an insertion
    ([a' = Arena.extend before ~ins _]). Insertions only merge
    components. On the resurrect path ([a'] shares [before]'s arrays)
    each old component enters the union-find through its smallest
    member and only the gained witness rows are unioned in; only
    components that merged or gained a member re-roster (memos drop,
    bits start dirty), the rest share. On the merge path ids moved, so
    the index is rebuilt ({!build} of [a'], memos drop) and each clean
    bit is carried along the sorted-run correspondence: a component
    stays clean iff it gained no inserted tuple, hence merged nothing.
    [before] may carry tombstones on either path. *)
val insert : t -> before:Arena.t -> Arena.t -> t

(** [compact t ~before] — the index over [Arena.compact before]: labels
    survive unchanged (canonical numbering already skips dead slots) and
    gather with the live ids, roster ids remap to the compacted arena's,
    and memos survive too — their fingerprints are compaction-invariant
    ({!Fingerprint}) and their ΔV vids remap with the rosters. Clean
    bits carry as-is. The identity when [before] carries no tombstone. *)
val compact : t -> before:Arena.t -> t

(** [active t a] — the proto-shards of the components holding a bad
    view tuple of [a], ascending by component, each roster ascending:
    bit-identical to the label-array sweep over [partition t] (the
    [test/reference] oracle) but O(‖ΔV‖ + active·log active) instead of
    O(‖D‖ + ‖V‖). [a] must share the index's physical id space (the
    session arena or a [with_deletions] re-stamp of it). *)
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
    ({!build}) is all dirty; a planner round marks the shards it
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
