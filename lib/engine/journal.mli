(** Durable session journal: an append-only log of the committed
    operations of one engine session, replayable against the database
    the session was created with.

    On-disk layout of one segment (all integers little-endian):
    {v
    +--------------------------------------------------+
    | magic "DLPJRNL1" (8 bytes)                       |
    +------------+------------+------------------------+
    | u32 length | u32 CRC-32 | payload (length bytes) |  record 0
    +------------+------------+------------------------+
    | u32 length | u32 CRC-32 | payload                |  record 1
    +------------+------------+------------------------+
    | ...                                              |
    v}
    A payload is the record tag on its own line ([A]pply / [D]elete /
    [I]nsert / [U]pdate) followed by one source fact per line in
    {!Relational.Serial.fact_of_string} syntax:
    {v
    A
    T1(john, tkde)
    T2(tkde, xml, 30)
    v}
    An update ({!record.Delta}) record carries signed facts, deleted
    tuples (prefix [-]) before inserted ones (prefix [+]) — the order
    the engine replays them in:
    {v
    U
    -T2(tkde, xml, 30)
    +T1(ann, tods)
    v}

    {2 Segments and generations}

    A journal is one {e active} file at [path] plus zero or more
    {e sealed} segments [path.seg-<gen>-<seq>]. With [segment_bytes] set,
    {!append} seals the active file by renaming it aside once it
    outgrows the bound and starts a fresh one — bounding every file a
    crash can tear while keeping the full record sequence replayable.
    Each segment a rotating writer creates opens with a framed
    generation marker ([G] payload, never surfaced as a record);
    {!rewrite} writes its replacement with the generation {e bumped}, so
    sealed segments of older generations are provably stale and ignored
    by {!load} even if a crash struck before they were unlinked — the
    multi-file journal commits at a single rename, exactly like the
    single-file one. Journals written before rotation existed carry no
    marker and read as generation 0 with no sealed segments.

    {2 Failure shapes}

    Every append is flushed before returning (and fsynced under
    [~fsync]); rotation only follows a completed append, so a crash can
    tear at most the final record {e of the active file}. {!load}
    distinguishes the failure shapes: an incomplete or checksum-failing
    final record there is a torn write (dropped, and truncated away when
    [repair] is set), while the same shape inside a sealed segment — or
    a checksum failure with intact records after it — is real corruption
    and surfaces as the typed {!error}. *)

type record =
  | Apply of Relational.Stuple.Set.t
      (** a solver-chosen deletion committed by [Engine.apply] *)
  | Delete of Relational.Stuple.Set.t
      (** a direct deletion ([Engine.delete]) *)
  | Insert of Relational.Stuple.t
  | Delta of {
      deletes : Relational.Stuple.Set.t;
      inserts : Relational.Stuple.Set.t;
    }
      (** a symmetric update ([Engine.apply_delta]; also what
          [Engine.checkpoint] compacts a whole session to) — replayed
          deletes first, so a key update lands cleanly *)

type error =
  | Bad_magic of string        (** not a journal (path in payload) *)
  | Corrupt of { index : int; reason : string }
      (** record [index] (counted across segments, markers excluded)
          failed its checksum or didn't decode *)

exception Error of error

val pp_error : Format.formatter -> error -> unit

(** {1 Reading} *)

(** Replayable records of the journal at [path] — current-generation
    sealed segments in sequence order, then the active file — in append
    order. A torn final record of the active file is dropped; with
    [repair] (default [false]) it is also truncated off so subsequent
    appends start clean. A typed error normally fails the load;
    [keep_going] (default [false]) instead salvages the valid prefix:
    every record before the first corruption is returned and everything
    at and after it is dropped, later segments included (replaying past
    a hole would desynchronize the rebuilt state). A missing file with
    no sealed segments is an empty journal. This is {!load_from} at
    [position = 0] — one segment walk serves both — where nothing is
    skimmed, so every frame is checksummed. *)
val load :
  ?repair:bool -> ?keep_going:bool -> string -> (record list, error) result

(** The generation the journal at [path] is currently on: the active
    file's marker, else the newest sealed segment's, else 0. Within one
    generation the record sequence is append-only — only {!rewrite}
    starts a new one — so a caller that recorded [(generation, position)]
    and finds the generation unchanged knows the journal's first
    [position] records are still exactly the ones it summarized. *)
val current_gen : string -> int

(** What {!load_from} recovers: the records {e after} a snapshot-covered
    prefix, plus the coordinates to finish the reclamation. *)
type tail = {
  tail : record list;  (** records with global index ≥ [position] *)
  total : int;         (** record count of the whole journal *)
  covered : string list;
      (** sealed segments lying entirely inside the skipped prefix —
          safe to delete once the caller has committed to the snapshot *)
}

(** [load_from ~position path] — the journal's records from global index
    [position] on, {e without} parsing the prefix: sealed segments that
    lie entirely inside the first [position] records are skipped after a
    structural skim (frame hops only, no checksums — sound because the
    caller replays a snapshot baseline in their stead, never the records
    themselves) and reported in [covered] for reclamation. The partially
    covered boundary segment and the active file parse as in {!load}
    (torn-tail handling included), and structural damage anywhere that
    must be parsed is the same typed error. Callers must verify
    [total ≥ position] (and the generation) before trusting the tail.
    Every segment is delimited with {!read_frame}. *)
val load_from : ?repair:bool -> position:int -> string -> (tail, error) result

(** {1 Writing} *)

type writer

(** Open [path] for appending, creating it (magic header + generation
    marker) when missing or empty; an existing journal's generation and
    next sequence number are adopted from disk. [fsync] (default
    [false]) upgrades every flush to [Unix.fsync] — durability against
    power loss, not just process death, at a per-append cost.
    [segment_bytes] enables rotation: once the active file's size
    reaches the bound, the {e next} append seals it (must be positive;
    the bound is a low-water mark — a segment always holds the whole
    record that crossed it). The caller is responsible for having
    {!load}ed [~repair:true] first — appending after a torn record
    corrupts the log. *)
val open_writer : ?fsync:bool -> ?segment_bytes:int -> string -> writer

(** Append one record and flush (fsync under [~fsync]), then rotate if
    the segment bound is crossed. The write crosses the
    ["journal.append"] failpoint: [Crash_after_bytes n] emits only the
    first [n] bytes of the encoded record before raising
    {!Deleprop.Failpoint.Injected} — a simulated torn write. *)
val append : writer -> record -> unit

val close_writer : writer -> unit

(** The generation [w] is appending to — what a snapshot written against
    this journal must record ({!current_gen} of a path the writer has
    open agrees with this). *)
val generation : writer -> int

(** Atomically replace the journal at [path] with exactly [records]:
    write a temp file in the same directory carrying the {e next}
    generation, fsync, rename over [path], then unlink the
    now-stale sealed segments (best-effort — the generation bump makes
    them invisible to {!load} regardless). The engine's checkpoint
    compacts a long log into a single {!record.Delta} this way. Crosses
    the ["journal.rewrite"] failpoint: [Crash_after_bytes n] emits only
    the first [n] bytes of the replacement image before raising
    {!Deleprop.Failpoint.Injected} — the rename happens iff the
    allowance covered the whole image (stale segments are left behind,
    as a real crash would), so the journal holds either the complete old
    log or the complete new one, never a blend. *)
val rewrite : string -> record list -> unit

(** Delete the journal at [path]: the active file and every sealed
    segment, any generation. Missing files are fine. *)
val remove : string -> unit

(** {1 Checksums, framing and guarded writes}

    Shared with {!Snapshot}, whose files use the same frame shape and
    the same writers. *)

(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]) of a whole string —
    also used by the resilience tests to forge corrupt records. *)
val crc32 : string -> int32

(** [read_u32_le s pos] — the little-endian u32 at [pos] of [s]. *)
val read_u32_le : string -> int -> int

(** [frame payload] — u32 LE length, u32 LE CRC-32, then [payload]. *)
val frame : string -> string

(** What {!read_frame} finds at an offset. *)
type frame_read =
  | Frame of string * int
      (** a whole frame: its payload and the offset of the next frame *)
  | Bad_checksum of int
      (** a delimitable frame whose payload fails its CRC-32; the offset
          of the next frame *)
  | Torn
      (** no frame can be delimited here: fewer than 8 header bytes, or
          a length running past the end of the data *)

(** [read_frame data pos] — the frame starting at byte [pos] of [data].
    The one frame reader: {!load}'s segment parser, its skim count and
    [Snapshot.load] all walk with it. [verify] (default [true]) checks
    the CRC-32; [~verify:false] only delimits, and never returns
    [Bad_checksum]. *)
val read_frame : ?verify:bool -> string -> int -> frame_read

(** [replace_file site path data] — atomically replace [path] with
    [data]: write [path ^ ".tmp"], flush, fsync, rename. Crosses the
    failpoint [site]: [Crash_after_bytes n] writes only the first [n]
    bytes of the temp file and raises {!Deleprop.Failpoint.Injected}
    [site], renaming iff the allowance covered all of [data] (fsynced
    first); any other armed action is hit before the temp file is
    opened. {!rewrite} and [Snapshot.write] both replace through it. *)
val replace_file : string -> string -> string -> unit

(** [append_file ?fsync site path data] — append [data] to [path]
    (created if missing) and flush, fsyncing under [fsync] (default
    [false]). Not atomic. Crosses the failpoint [site] the way
    {!replace_file} does: [Crash_after_bytes n] appends only the first
    [n] bytes, then raises. [Snapshot.append] writes through it; {!append}
    shares the same guard on its open channel. *)
val append_file : ?fsync:bool -> string -> string -> string -> unit

(** The whole file at [path], read in binary mode. *)
val read_file : string -> string
