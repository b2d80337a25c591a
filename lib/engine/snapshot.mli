(** Crash-consistent shard-cache snapshots: the durable image that lets
    a recovered session start {e warm}.

    A snapshot captures the plain-data state of the engine's shard
    solution cache ({!Deleprop.Planner.cache_entries} /
    [cache_stats]) together with the {!coords} that tie it to one
    moment of one journal, and the session database expressed as a
    [baseline] delta against the base. Recovery replays the journal as
    usual and — when the stored coordinates match the replayed state —
    installs the entries and restores the component index's clean bits,
    so the first post-recovery round splices clean shards from the cache
    exactly as the uninterrupted session would have. When the baseline
    is present and the journal's generation matches, the engine skips
    replaying the [position]-record prefix entirely (applying the
    baseline as one delta instead) and reclaims the sealed segments that
    prefix lived in — see [Engine.create ~recover].

    On-disk format, version 3: the magic ["DLPSNAP1"] followed by CRC-32
    framed payloads in the journal's framing (u32 LE length, u32 LE
    CRC-32, payload; read with {!Journal.read_frame}) — one header
    payload, an optional baseline payload, one payload per cache entry
    (most-recently-used first, each carrying the entry's recorded
    {!Deleprop.Decomposition.t}), then any number of incremental
    {e delta groups} appended by {!append} between full images. The
    header and each delta group's leading frame carry the coordinate
    block in one shared encoding. Floats are serialized as the 16 hex
    digits of their IEEE-754 bits, so a restored cache is bit-identical
    to the written one (costs, certificates, thresholds,
    decompositions). Version 3 is the only version read.

    {2 Degradation ladder}

    A snapshot is an optimization, never a correctness input, and no
    failure shape aborts a recovery:
    - missing file → {!warning.Missing}, cold cache;
    - unreadable header, bad magic, or a bit flip in the header frame →
      {!warning.Corrupt}, whole snapshot dropped, cold cache;
    - a version this build doesn't read (v2 images from before
      per-entry decompositions, per-tier counters and delta groups; v1
      images from before the baseline/generation coordinates) →
      {!warning.Version_mismatch}, cold cache;
    - a bit flip or torn tail {e inside the entry region} → only the
      damaged entries drop (the [dropped] count reports how many), the
      rest re-warm;
    - a damaged baseline frame → the baseline degrades to [None] (the
      engine falls back to full journal replay; counted in [dropped]),
      the entries behind it still re-warm when delimitable;
    - coordinates that don't match the journal replay (the engine's
      check, not {!load}'s) → {!warning.Stale}, cold cache. *)

(** Where a snapshot image — or a delta group appended to it — sits:
    the journal coordinates and the cache counters at the write. *)
type coords = {
  position : int;
      (** journal records preceding this snapshot — recovery installs
          the cache after replaying exactly this many *)
  generation : int;
      (** the journal generation those [position] records belong to.
          Within a generation the record sequence is append-only (only
          {!Journal.rewrite} bumps it), so a generation match proves the
          current journal's first [position] records are the ones this
          snapshot summarizes — the soundness basis for skipping them *)
  arena_fp : Deleprop.Fingerprint.t;
      (** {!Deleprop.Fingerprint.arena} of the session arena at the
          write, tombstone/compaction-invariant *)
  components : int;  (** partition size at the write *)
  dirty : int list;
      (** component ids whose cached answers the deltas since their last
          solve may have invalidated (canonical ids, ascending) *)
  stats : Deleprop.Planner.cache_stats;
      (** lifetime cache counters, restored so recovered sessions report
          the same hit/miss history *)
}

type t = {
  coords : coords;
  baseline : (Relational.Stuple.Set.t * Relational.Stuple.Set.t) option;
      (** the live database at the write as (gone, added) fact sets
          against the session's base database — applying it to the base
          reproduces the state replaying the first [position] records
          would. [None] only when the writer had no baseline or the
          frame was damaged *)
  entries : (Deleprop.Fingerprint.t * Deleprop.Planner.cache_entry) list;
      (** cache bindings, most-recently-used first *)
}

(** One incremental append between full images ({!append}): the
    refreshed coordinates, the cache changes since the previous frame,
    and the round's database delta. {!load} folds the clean prefix of
    appended deltas over the base image, so the returned {!t} is what a
    full write at the last clean delta's moment would have produced:
    the delta's [d_coords] replace the image's whole. *)
type delta = {
  d_coords : coords;  (** [position] is the journal position after the round *)
  d_removed : Deleprop.Fingerprint.t list;
      (** bindings gone since the previous frame (LRU evictions, bucket
          sweeps, clears) *)
  d_order : Deleprop.Fingerprint.t list;
      (** the {e full} MRU-first order after the round — authoritative:
          folding reorders the surviving bindings by it *)
  d_deletes : Relational.Stuple.Set.t;
      (** the round's committed deletes (as journalled) *)
  d_inserts : Relational.Stuple.Set.t;
      (** the round's committed inserts (as journalled) *)
  d_upserts : (Deleprop.Fingerprint.t * Deleprop.Planner.cache_entry) list;
      (** bindings new or changed since the previous frame *)
}

(** Why a snapshot did not (fully) re-warm — surfaced as a typed warning
    in [Engine.Stats], never as an error. *)
type warning =
  | Missing             (** no snapshot file on disk *)
  | Version_mismatch of int  (** written by a format this build doesn't read *)
  | Corrupt of string   (** header unreadable: bad magic, torn frame, bit flip *)
  | Stale
      (** intact, but its coordinates don't match the journal replay
          (e.g. the journal advanced past it before the crash) *)

val pp_warning : Format.formatter -> warning -> unit

(** Stable machine-readable tag for the stats JSON: ["missing"],
    ["version_mismatch"], ["corrupt"], ["stale"]. *)
val warning_label : warning -> string

(** Atomically write [t] to [path] ({!Journal.replace_file}): full
    image to [path ^ ".tmp"], flush, fsync, rename — a crash leaves
    either the previous snapshot or the new one, never a blend. Crosses
    three failpoints:
    ["snapshot.write"] ([Crash_after_bytes n] emits [n] bytes of the
    temp image then raises, the rename happening iff the allowance
    covered the whole image), ["snapshot.corrupt"] ([Corrupt_byte n]
    flips one bit of the committed file — silent at-rest damage for the
    degradation tests), and ["snapshot.rename"] (hit after the rename —
    arm with [raise] to simulate dying between the snapshot commit and
    the checkpoint's journal mark). *)
val write : string -> t -> unit

(** Append one delta group (a "D" frame plus the upserted entry frames)
    to the committed image at [path]. Appends are not atomic: a crash
    mid-append leaves a torn group, which {!load} ignores along with
    everything after it — the base image and every previously appended
    clean group still load, and the journal replay covers the dropped
    freshness. [fsync] (default false) forces the group to disk.
    Writes through {!Journal.append_file}, crossing the
    ["snapshot.append"] failpoint ([Crash_after_bytes n]
    emits [n] bytes of the group, then raises). *)
val append : ?fsync:bool -> string -> delta -> unit

(** [load path] is [Ok (t, dropped)] — [t.entries] holding the entries
    that survived verbatim, [dropped] how many the header promised but
    did not decode cleanly — or [Error w] when nothing is salvageable.
    Never raises on file content. [Error Stale] is never produced here:
    staleness is the engine's replay-time check. *)
val load : string -> (t * int, warning) result

(** Delete the snapshot at [path], if any. *)
val remove : string -> unit
