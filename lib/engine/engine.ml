module R = Relational
module D = Deleprop

let src = Logs.Src.create "deleprop.engine" ~doc:"Incremental propagation engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Did the shard cache survive the crash? Stamped once, at [create];
   [Degraded] carries the typed reason re-warming fell through — always
   a warning, never a failed recovery. *)
type snapshot_status =
  | Cold
  | Warm of { entries : int; dropped : int }
  | Degraded of Snapshot.warning

let pp_snapshot_status ppf = function
  | Cold -> Format.pp_print_string ppf "cold"
  | Warm { entries; dropped } ->
    Format.fprintf ppf "warm (%d entr%s re-warmed%s)" entries
      (if entries = 1 then "y" else "ies")
      (if dropped = 0 then "" else Printf.sprintf ", %d dropped" dropped)
  | Degraded w -> Format.fprintf ppf "degraded: %a" Snapshot.pp_warning w

let snapshot_status_to_json = function
  | Cold -> D.Report.Obj [ ("state", D.Report.String "cold") ]
  | Warm { entries; dropped } ->
    D.Report.Obj
      [
        ("state", D.Report.String "warm");
        ("entries", D.Report.Int entries);
        ("dropped", D.Report.Int dropped);
      ]
  | Degraded w ->
    D.Report.Obj
      [
        ("state", D.Report.String "degraded");
        ("reason", D.Report.String (Snapshot.warning_label w));
      ]

type stats = {
  rounds : int;
  applies : int;
  tuples_deleted : int;
  tuples_inserted : int;
  patches : int;
  inserts_patched : int;
  rebuilds : int;
  index_retargets : int;
  last_solve_ms : float;
  total_solve_ms : float;
  journal_records : int;
  recovered_records : int;
  components : int;
  shards_solved : int;
  shards_exact : int;
  shards_approx : int;
  shards_cached : int;
  shards_resolved : int;
  shard_cache_hits : int;
  fragment_reuses : int;
  fragment_reuses_exact : int;
  fragment_reuses_forest : int;
  fragment_reuses_approx : int;
  tombstone_ratio : float;
  compactions : int;
  snapshot : snapshot_status;
}

let zero_stats =
  {
    rounds = 0;
    applies = 0;
    tuples_deleted = 0;
    tuples_inserted = 0;
    patches = 0;
    inserts_patched = 0;
    rebuilds = 0;
    index_retargets = 0;
    last_solve_ms = 0.0;
    total_solve_ms = 0.0;
    journal_records = 0;
    recovered_records = 0;
    components = 0;
    shards_solved = 0;
    shards_exact = 0;
    shards_approx = 0;
    shards_cached = 0;
    shards_resolved = 0;
    shard_cache_hits = 0;
    fragment_reuses = 0;
    fragment_reuses_exact = 0;
    fragment_reuses_forest = 0;
    fragment_reuses_approx = 0;
    tombstone_ratio = 0.0;
    compactions = 0;
    snapshot = Cold;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>rounds: %d, applies: %d@ deleted %d / inserted %d source tuple(s)@ index: \
     %d patch(es), %d insert(s) patched, %d rebuild(s), %d retarget(s), %d \
     component(s)@ tombstones: ratio %.3f, %d compaction(s)@ solve: last %.2f ms, \
     total %.2f ms@ planner: %d shard(s) solved, %d exact, %d approximate, %d \
     cached / %d resolved (%d lifetime cache hit(s), %d fragment reuse(s): %d \
     exact / %d forest / %d approx)@ \
     journal: %d record(s) appended, %d recovered@ snapshot: %a@]"
    s.rounds s.applies s.tuples_deleted s.tuples_inserted s.patches s.inserts_patched
    s.rebuilds s.index_retargets s.components s.tombstone_ratio s.compactions
    s.last_solve_ms s.total_solve_ms s.shards_solved s.shards_exact s.shards_approx
    s.shards_cached s.shards_resolved s.shard_cache_hits s.fragment_reuses
    s.fragment_reuses_exact s.fragment_reuses_forest s.fragment_reuses_approx
    s.journal_records s.recovered_records pp_snapshot_status s.snapshot

(* The one JSON encoding every front end shares. The deprecated alias
   spellings [index_hits] / [cache_hits] served their one promised
   release (schema version 2) and are gone as of version 3 —
   [index_retargets] is the only name. *)
module Stats = struct
  let to_json (s : stats) =
    D.Report.Obj
      [
        ("rounds", D.Report.Int s.rounds);
        ("applies", D.Report.Int s.applies);
        ("tuples_deleted", D.Report.Int s.tuples_deleted);
        ("tuples_inserted", D.Report.Int s.tuples_inserted);
        ("patches", D.Report.Int s.patches);
        ("inserts_patched", D.Report.Int s.inserts_patched);
        ("rebuilds", D.Report.Int s.rebuilds);
        ("index_retargets", D.Report.Int s.index_retargets);
        ("last_solve_ms", D.Report.Raw (Printf.sprintf "%.3f" s.last_solve_ms));
        ("total_solve_ms", D.Report.Raw (Printf.sprintf "%.3f" s.total_solve_ms));
        ("journal_records", D.Report.Int s.journal_records);
        ("recovered_records", D.Report.Int s.recovered_records);
        ("components", D.Report.Int s.components);
        ("shards_solved", D.Report.Int s.shards_solved);
        ("shards_exact", D.Report.Int s.shards_exact);
        ("shards_approx", D.Report.Int s.shards_approx);
        ("shards_cached", D.Report.Int s.shards_cached);
        ("shards_resolved", D.Report.Int s.shards_resolved);
        ("shard_cache_hits", D.Report.Int s.shard_cache_hits);
        ("fragment_reuses", D.Report.Int s.fragment_reuses);
        ("fragment_reuses_exact", D.Report.Int s.fragment_reuses_exact);
        ("fragment_reuses_forest", D.Report.Int s.fragment_reuses_forest);
        ("fragment_reuses_approx", D.Report.Int s.fragment_reuses_approx);
        ( "tombstone_ratio",
          D.Report.Raw (Printf.sprintf "%.3f" s.tombstone_ratio) );
        ("compactions", D.Report.Int s.compactions);
        ("snapshot", snapshot_status_to_json s.snapshot);
      ]
end

type plan = {
  requests : D.Delta_request.t list;
  solutions : D.Solution.t list;
  failures : D.Portfolio.failure list;
  degraded : bool;
  decomposed : bool;
  shards : D.Planner.shard_decision list;
  shards_cached : int;
}

(* the live provenance is the arena's own ([arena.prov]) *)
type index = {
  arena : D.Arena.t;
  cindex : D.Component_index.t;
      (* the first-class live component index: the canonical partition
         plus per-component member rosters, solve memos and clean bits
         (the shard cache's invalidation state), maintained with the
         arena on both sides of a delta — deletions re-roster only the
         affected components ([Component_index.delete]), insertions only
         the merged ones ([Component_index.insert]) *)
}

type t = {
  queries : Cq.Query.t list;
  weights : D.Weights.t option;
  exact_threshold : int option;
  algorithms : string list option;
  plan_solver : bool;
  budget_ms : float option;
  base_db : R.Instance.t;
  journal_path : string option;
  snapshot_path : string option;
  snapshot_every : int;
      (* amortized snapshot policy: re-snapshot once this many records
         accumulate past the last one; ≤ 0 = checkpoint-only *)
  fsync : bool;
  segment_bytes : int option;
  pool : D.Par.Pool.t;
  mutable journal : Journal.writer option;
  mutable journal_len : int;
      (* records currently in the journal = the position a snapshot
         written now would record *)
  mutable last_snapshot_len : int;
  mutable index : index;
  mutable stats : stats;
  shard_cache : D.Planner.cache option;
  mutable snap_mirror : (D.Fingerprint.t, D.Planner.cache_entry) Hashtbl.t option;
      (* what the last on-disk snapshot frame holds, binding by binding —
         the diff base for incremental [Snapshot.append] groups. [None]
         until the first full [write_snapshot] of THIS session: a
         recovered image is never delta-chained across sessions, so a
         torn tail can only lose freshness this session produced *)
}

(* the dead-slot ratio above which a commit compacts the live index *)
let max_tombstone_ratio = 0.5

(* the live index always has ΔV = ∅: requests re-target it per round
   via [with_deletions] without disturbing it. Built exactly once, in
   [create] — every mutation afterwards patches it. The session
   database is its provenance's own. *)
let prov t = t.index.arena.D.Arena.prov
let db t = (prov t).D.Provenance.problem.D.Problem.db

(* ---- raw state transitions (no journaling — the public ops and
   journal replay all commit through [apply_delta_raw]) ---- *)

(* gather the live slots of an arena and its index together (labels —
   and so the index's clean bits and the shard cache — survive
   untouched, see [Component_index.compact]) *)
let compact_pair arena cindex =
  (D.Arena.compact arena, D.Component_index.compact cindex ~before:arena)

(* a compaction counted in [compactions]: the ratio trigger, [checkpoint],
   [compact] and the start of a flat [request] *)
let compact_index t =
  let ix = t.index in
  if D.Arena.tombstoned ix.arena then begin
    let arena, cindex = compact_pair ix.arena ix.cindex in
    t.index <- { arena; cindex };
    t.stats <- { t.stats with compactions = t.stats.compactions + 1 }
  end

(* Apply a symmetric update, deletes first then inserts, each side
   patching the live index ([Provenance.delete]/[Arena.delete]/
   [Component_index.delete] and [Provenance.insert]/[Arena.extend]/
   [Component_index.insert]). Returns the subset actually applied:
   deletes of tuples already gone and inserts of tuples already present
   are skipped (a tuple both deleted and re-inserted counts on both
   sides — a journalled no-op, not a conflict). The session state
   commits only after both patches succeed, so a [Key_violation] or
   [Ambiguous_witness] raised mid-insert leaves it untouched.

   Deletes tombstone in place (O(touched) instead of O(‖D‖ + ‖V‖)),
   inserts resurrect dead slots when they can, and the index compacts
   only when the tombstone ratio crosses [max_tombstone_ratio] (or a
   merge-path insert forces it; [checkpoint], [compact] and flat
   [request]s compact too). *)
let apply_delta_raw t (delta : D.Delta.t) =
  let db = db t in
  let dd =
    R.Stuple.Set.filter (fun st -> R.Instance.mem db st) delta.D.Delta.deletes
  in
  let ins =
    R.Stuple.Set.filter
      (fun st -> R.Stuple.Set.mem st dd || not (R.Instance.mem db st))
      delta.D.Delta.inserts
  in
  let ix = t.index in
  let arena, cindex =
    if R.Stuple.Set.is_empty dd then (ix.arena, ix.cindex)
    else begin
      let prov' = D.Provenance.delete ix.arena.D.Arena.prov dd in
      let arena' = D.Arena.delete ix.arena ~dd prov' in
      let cindex' =
        D.Component_index.delete ix.cindex ~before:ix.arena ~dd arena'
      in
      (* split-aware cache reuse: when the deletion shattered a
         memoized component and left a fragment's candidate
         neighborhood untouched, that fragment inherits the parent's
         cached answer by restriction and is marked clean — only the
         touched fragments re-solve next round *)
      Option.iter
        (fun c ->
          D.Planner.seed_fragments c ~before:ix.arena ~before_index:ix.cindex
            ~dd ~after:arena' ~after_index:cindex')
        t.shard_cache;
      (arena', cindex')
    end
  in
  let arena, cindex =
    if R.Stuple.Set.is_empty ins then (arena, cindex)
    else begin
      let prov' =
        R.Stuple.Set.fold
          (fun st p -> D.Provenance.insert p st)
          ins arena.D.Arena.prov
      in
      (* one resurrection attempt; when it fails, a merge-path extend of
         a tombstoned arena would compact inside [Arena.extend],
         desynchronizing the rosters from the physical layout — compact
         both sides first instead (the identity on a compact pair) *)
      let arena, cindex, arena' =
        match D.Arena.resurrect arena ~ins prov' with
        | Some arena' -> (arena, cindex, arena')
        | None ->
          let arena, cindex = compact_pair arena cindex in
          (arena, cindex, D.Arena.extend arena ~ins prov')
      in
      (arena', D.Component_index.insert cindex ~before:arena arena')
    end
  in
  t.index <- { arena; cindex };
  t.stats <-
    {
      t.stats with
      tuples_deleted = t.stats.tuples_deleted + R.Stuple.Set.cardinal dd;
      tuples_inserted = t.stats.tuples_inserted + R.Stuple.Set.cardinal ins;
      patches = t.stats.patches + (if R.Stuple.Set.is_empty dd then 0 else 1);
      inserts_patched = t.stats.inserts_patched + R.Stuple.Set.cardinal ins;
      components = D.Component_index.num_components cindex;
    };
  (* amortized trigger, off the per-round critical path until the dead
     fraction actually matters *)
  if D.Arena.tombstone_ratio t.index.arena > max_tombstone_ratio then
    compact_index t;
  { D.Delta.deletes = dd; inserts = ins }

(* returns the subset actually deleted (tuples already gone are skipped) *)
let commit_raw t dd =
  t.stats <- { t.stats with applies = t.stats.applies + 1 };
  (apply_delta_raw t (D.Delta.of_deletes dd)).D.Delta.deletes

let insert_raw t st =
  ignore (apply_delta_raw t (D.Delta.of_inserts (R.Stuple.Set.singleton st)))

let replay_record t = function
  | Journal.Apply dd | Journal.Delete dd -> ignore (commit_raw t dd)
  | Journal.Insert st -> insert_raw t st
  | Journal.Delta { deletes; inserts } ->
    ignore (apply_delta_raw t (D.Delta.make ~deletes ~inserts ()))

(* The session database as a delta against the base: (tuples gone,
   tuples added). What a checkpoint journals as its one record and what
   the snapshot's fast recovery path applies in place of replaying the
   journal prefix. *)
let baseline t =
  let cur = db t in
  let diff a b =
    R.Instance.fold
      (fun st acc -> if R.Instance.mem b st then acc else R.Stuple.Set.add st acc)
      a R.Stuple.Set.empty
  in
  (diff t.base_db cur, diff cur t.base_db)

(* Where the cache stands now, as a snapshot records it: the journal
   position and the generation it belongs to — the open writer's, or,
   during a checkpoint (writer closed, the snapshot preceding the
   [Journal.rewrite]), the bumped one the rewrite is about to stamp —
   the arena's canonical fingerprint, the partition size, the index's
   dirty components and the cache counters. *)
let coords t c =
  {
    Snapshot.position = t.journal_len;
    generation =
      (match (t.journal, t.journal_path) with
      | Some w, _ -> Journal.generation w
      | None, Some path -> Journal.current_gen path + 1
      | None, None -> 0);
    arena_fp = D.Fingerprint.arena t.index.arena;
    components = D.Component_index.num_components t.index.cindex;
    dirty = D.Component_index.dirty t.index.cindex;
    stats = D.Planner.cache_stats c;
  }

(* Persist the shard cache's plain-data state with its coordinates.
   [Snapshot.write] is atomic (temp + fsync + rename), so a crash
   mid-write leaves the previous snapshot intact — and stale coordinates
   merely degrade the next recovery to a cold cache. *)
let write_snapshot t =
  match (t.snapshot_path, t.shard_cache) with
  | Some spath, Some c ->
    let entries = D.Planner.cache_entries c in
    Snapshot.write spath
      { Snapshot.coords = coords t c; baseline = Some (baseline t); entries };
    t.last_snapshot_len <- t.journal_len;
    (* refresh the delta-append diff base: the on-disk image now holds
       exactly these bindings (physical identity — the LRU only ever
       reorders live entries, so [==] against the mirror detects every
       upsert) *)
    let mirror = Hashtbl.create (List.length entries * 2 + 1) in
    List.iter (fun (fp, e) -> Hashtbl.replace mirror fp e) entries;
    t.snap_mirror <- Some mirror
  | _ -> ()

(* The round's database delta as journalled — the same (deletes,
   inserts) the snapshot fold re-applies to its baseline. *)
let record_delta = function
  | Journal.Apply dd | Journal.Delete dd -> (dd, R.Stuple.Set.empty)
  | Journal.Insert st -> (R.Stuple.Set.empty, R.Stuple.Set.singleton st)
  | Journal.Delta { deletes; inserts } -> (deletes, inserts)

(* Between full images, persist the round as one incremental delta
   group: the refreshed coordinates, the cache bindings that changed
   since the mirror (by physical identity), and the round's database
   delta. The bytes an append writes are O(changed entries), not
   O(cache), so the snapshot stays one clean-prefix fold behind the
   journal even with [snapshot_every] set high; the diff itself still
   walks the whole cache ([cache_entries] and a table over every
   binding) on every commit. Never across sessions: the mirror is
   [None] until this session's first full write. Runs only from
   [journal_append], so the writer is open and [coords] records its
   generation. *)
let append_snapshot_delta t record =
  match (t.snapshot_path, t.shard_cache, t.snap_mirror) with
  | Some spath, Some c, Some mirror -> (
    let entries = D.Planner.cache_entries c in
    let upserts =
      List.filter
        (fun (fp, e) ->
          match Hashtbl.find_opt mirror fp with
          | Some e0 -> not (e0 == e)
          | None -> true)
        entries
    in
    let live = Hashtbl.create (List.length entries * 2 + 1) in
    List.iter (fun (fp, _) -> Hashtbl.replace live fp ()) entries;
    let removed =
      Hashtbl.fold
        (fun fp _ acc -> if Hashtbl.mem live fp then acc else fp :: acc)
        mirror []
    in
    let deletes, inserts = record_delta record in
    match
      Snapshot.append ~fsync:t.fsync spath
        {
          Snapshot.d_coords = coords t c;
          d_removed = removed;
          d_order = List.map fst entries;
          d_deletes = deletes;
          d_inserts = inserts;
          d_upserts = upserts;
        }
    with
    | () ->
      List.iter (fun fp -> Hashtbl.remove mirror fp) removed;
      List.iter (fun (fp, e) -> Hashtbl.replace mirror fp e) upserts
    | exception Sys_error msg ->
      (* an unappendable snapshot only costs freshness — drop the
         mirror so no later append chains past the gap *)
      t.snap_mirror <- None;
      Log.warn (fun m -> m "snapshot append failed (%s); disabled until \
                            the next full write" msg))
  | _ -> ()

let journal_append t record =
  match t.journal with
  | None -> ()
  | Some w ->
    Journal.append w record;
    t.journal_len <- t.journal_len + 1;
    t.stats <- { t.stats with journal_records = t.stats.journal_records + 1 };
    if
      t.snapshot_path <> None && t.snapshot_every > 0
      && t.journal_len - t.last_snapshot_len >= t.snapshot_every
    then write_snapshot t
    else append_snapshot_delta t record

let checkpoint t =
  (* a checkpoint is the durable summary of the session so far — fold
     the tombstones away first so the on-disk baseline corresponds to a
     compact index and recovery replays onto the same physical layout *)
  compact_index t;
  match t.journal_path with
  | None -> ()
  | Some path ->
    (match t.journal with
    | Some w ->
      Journal.close_writer w;
      t.journal <- None
    | None -> ());
    (* a single symmetric record — deletes replay before inserts, so an
       update (same key, new tuple) drops the old row before its
       replacement lands *)
    let gone, added = baseline t in
    let records = [ Journal.Delta { deletes = gone; inserts = added } ] in
    (* snapshot first, at the post-checkpoint position (1 record: the
       baseline delta), then the journal mark. A crash between the two
       leaves a snapshot whose position describes a journal that never
       landed — recovery's end-of-replay fallback still re-warms it,
       because the old journal replays to the same state. *)
    t.journal_len <- List.length records;
    write_snapshot t;
    Journal.rewrite path records;
    t.journal <-
      Some (Journal.open_writer ~fsync:t.fsync ?segment_bytes:t.segment_bytes path);
    Log.info (fun m ->
        m "journal %s: checkpointed to %d record(s)" path (List.length records))

let create ?weights ?exact_threshold ?algorithms ?(plan = false) ?domains
    ?budget_ms ?journal ?(recover = false)
    ?(shard_cache = 512) ?snapshot ?(snapshot_every = 16) ?(fsync = false)
    ?segment_bytes db queries =
  (match (snapshot, journal) with
  | Some _, None ->
    invalid_arg "Engine.create: ~snapshot requires ~journal (a snapshot is \
                 a position in a journal)"
  | _ -> ());
  let problem = D.Problem.make ~db ~queries ~deletions:[] ?weights () in
  let prov = D.Provenance.build problem in
  let arena = D.Arena.build prov in
  let cindex = D.Component_index.build arena in
  let t =
    {
      queries;
      weights;
      exact_threshold;
      algorithms;
      plan_solver = plan;
      budget_ms;
      base_db = db;
      journal_path = journal;
      snapshot_path = snapshot;
      snapshot_every;
      fsync;
      segment_bytes;
      journal = None;
      journal_len = 0;
      last_snapshot_len = 0;
      pool = D.Par.Pool.create ?domains ();
      index = { arena; cindex };
      stats =
        { zero_stats with rebuilds = 1;
          components = D.Component_index.num_components cindex };
      shard_cache =
        (if plan && shard_cache > 0 then
           Some (D.Planner.create_cache ~capacity:shard_cache ())
         else None);
      snap_mirror = None;
    }
  in
  (match journal with
  | None -> ()
  | Some path ->
    if not recover then begin
      Journal.remove path;
      Option.iter Snapshot.remove snapshot
    end;
    (* The snapshot candidate, loaded before replay (cheap; plain data).
       Any load failure is a typed warning and a cold cache — never a
       failed recovery. *)
    let snap =
      match snapshot with
      | Some spath when recover -> (
        match Snapshot.load spath with
        | Ok (s, dropped) -> Some (s, dropped)
        | Error w ->
          t.stats <- { t.stats with snapshot = Degraded w };
          Log.warn (fun m ->
              m "snapshot %s: %a — starting cold" spath Snapshot.pp_warning w);
          None)
      | _ -> None
    in
    (* A snapshot installs when its coordinates — journal position,
       partition size, canonical arena fingerprint — match the replayed
       state at that position. The fingerprint is tombstone/compaction
       invariant, so physical-layout differences between the crashed
       process and this replay don't matter. *)
    let install (s : Snapshot.t) dropped =
      let at = s.Snapshot.coords in
      match t.shard_cache with
      | None -> false
      | Some c ->
        if
          at.Snapshot.components = D.Component_index.num_components t.index.cindex
          && D.Fingerprint.equal at.Snapshot.arena_fp
               (D.Fingerprint.arena t.index.arena)
        then begin
          D.Planner.cache_restore ~stats:at.Snapshot.stats c s.Snapshot.entries;
          t.index <-
            { t.index with
              cindex =
                D.Component_index.restore_dirty t.index.cindex at.Snapshot.dirty };
          t.stats <-
            {
              t.stats with
              snapshot =
                Warm { entries = List.length s.Snapshot.entries; dropped };
            };
          true
        end
        else false
    in
    (* the fresh base state, reinstallable if a fast-path attempt below
       turns out stale: nothing before this point mutates [prov] /
       [arena] / [cindex] (arena patches copy the dead bitsets, index
       transitions and [install] copy the clean bits, and only [request]
       marks bits in place), so [cindex] is still all dirty *)
    let reset_state () =
      t.index <- { arena; cindex };
      (match t.shard_cache with
      | Some c -> D.Planner.cache_clear c
      | None -> ());
      t.stats <-
        {
          zero_stats with
          rebuilds = 1;
          snapshot = t.stats.snapshot;
          components = D.Component_index.num_components cindex;
        }
    in
    (* Fast path — sealed-segment reclamation (ROADMAP item 4): with a
       baseline in the snapshot and the journal still on the snapshot's
       generation, the journal's first [position] records are provably
       the ones the snapshot summarizes (within a generation the
       sequence is append-only; only [rewrite] bumps it). Apply the
       baseline as one delta in their stead, install, replay only the
       tail. The sealed segments the skipped prefix lives in are
       reclaimed by a checkpoint once the writer reopens — never by
       unlinking them in place, which would shift every surviving
       record's global index out from under the snapshot's recorded
       position and poison the *next* recovery. Any mismatch rebuilds
       the base state and falls back to the full replay below. *)
    let reclaim = ref false in
    let fast =
      match snap with
      | Some (({ Snapshot.coords = at; _ } as s), dropped)
        when at.Snapshot.position > 0
             && s.Snapshot.baseline <> None
             && Journal.current_gen path = at.Snapshot.generation -> (
        match
          Journal.load_from ~repair:true ~position:at.Snapshot.position path
        with
        | Error _ -> false
        | Ok { Journal.tail; total; covered } ->
          if total < at.Snapshot.position then false
          else begin
            let gone, added = Option.get s.Snapshot.baseline in
            ignore
              (apply_delta_raw t (D.Delta.make ~deletes:gone ~inserts:added ()));
            if install s dropped then begin
              List.iter (replay_record t) tail;
              t.journal_len <- total;
              t.last_snapshot_len <- total;
              t.stats <- { t.stats with recovered_records = total };
              reclaim := covered <> [];
              Log.info (fun m ->
                  m "journal %s: fast recovery — baseline + %d tail record(s), \
                     %d sealed segment(s) to reclaim"
                    path (List.length tail) (List.length covered));
              true
            end
            else begin
              reset_state ();
              false
            end
          end)
      | _ -> false
    in
    if not fast then
    (match Journal.load ~repair:true path with
    | Error e -> raise (Journal.Error e)
    | Ok records ->
      let installed = ref false in
      (* install mid-replay, at exactly the position the snapshot was
         written; the tail records then carry the restored clean bits
         through [apply_delta_raw] like any live delta *)
      List.iteri
        (fun i record ->
          (match snap with
          | Some (s, dropped)
            when (not !installed) && i = s.Snapshot.coords.Snapshot.position ->
            installed := install s dropped
          | _ -> ());
          replay_record t record)
        records;
      let n = List.length records in
      t.journal_len <- n;
      (match snap with
      | Some (s, dropped) when not !installed ->
        (* position = n: the snapshot sits at the journal tip (the
           common kill-mid-append shape). Any other position is tried
           once more against the fully replayed state — that salvages
           the checkpoint crash window between the snapshot rename and
           the journal mark, where the recorded position describes a
           journal that was never written but the content still matches
           the end of the old one. *)
        installed := install s dropped;
        if !installed then t.last_snapshot_len <- n
        else begin
          t.stats <- { t.stats with snapshot = Degraded Snapshot.Stale };
          Log.warn (fun m ->
              m "snapshot %s: %a — starting cold"
                (Option.get snapshot) Snapshot.pp_warning Snapshot.Stale)
        end
      | Some _ -> t.last_snapshot_len <- n
      | None -> ());
      t.stats <- { t.stats with recovered_records = n };
      if records <> [] then
        Log.info (fun m ->
            m "journal %s: replayed %d record(s)%s" path n
              (match t.stats.snapshot with
              | Warm { entries; _ } ->
                Printf.sprintf ", re-warmed %d cache entr%s" entries
                  (if entries = 1 then "y" else "ies")
              | _ -> "")));
    t.journal <-
      Some (Journal.open_writer ~fsync ?segment_bytes path);
    (* fold the snapshot-covered prefix away for real: the checkpoint's
       generation-bumping rewrite unlinks the sealed segments atomically
       and leaves a journal+snapshot pair that is self-consistent for
       the next recovery *)
    if !reclaim then checkpoint t);
  t

(* the materialized views are the live provenance's own — a
   [Matview.t] over them is just a record *)
let matview t = D.Matview.of_views (db t) t.queries (prov t).D.Provenance.views

let view t name = D.Matview.view (matview t) name

(* the derived fields are snapshots of live state, stamped at read
   time: the planner cache owns the hit and reuse counters, the arena
   the ratio *)
let stats t =
  let s = { t.stats with tombstone_ratio = D.Arena.tombstone_ratio t.index.arena } in
  match t.shard_cache with
  | None -> s
  | Some c ->
    let k = D.Planner.cache_stats c in
    {
      s with
      shard_cache_hits = k.D.Planner.s_hits;
      fragment_reuses = D.Planner.fragment_reuses k;
      fragment_reuses_exact = k.D.Planner.s_fragment_reuses_exact;
      fragment_reuses_forest = k.D.Planner.s_fragment_reuses_forest;
      fragment_reuses_approx = k.D.Planner.s_fragment_reuses_approx;
    }

let compact t = compact_index t

let index t = (prov t, t.index.arena)
let partition t = D.Component_index.partition t.index.cindex
let component_index t = t.index.cindex

(* a round re-targets the live index ([with_deletions]) without
   disturbing it — the one place [index_retargets] counts *)
let request ?budget_ms t requests =
  t.stats <- { t.stats with index_retargets = t.stats.index_retargets + 1 };
  match D.Delta_request.validate ~views:(prov t).D.Provenance.views requests with
  | Error _ as e -> e
  | Ok () ->
    let t0 = Unix.gettimeofday () in
    (* the whole-instance portfolio walks the physical arrays: a flat
       session gathers its tombstones here, once, so the rounds that
       follow over the same state find the live index already compact *)
    if not t.plan_solver then compact_index t;
    let ix = t.index in
    let prov' = D.Provenance.with_deletions ix.arena.D.Arena.prov requests in
    let arena' = D.Arena.with_deletions ix.arena prov' in
    let budget_ms = match budget_ms with Some _ as b -> b | None -> t.budget_ms in
    (* flat sessions take the whole-instance portfolio; the component
       index depends only on witness structure, so the session's
       incrementally maintained one re-targets for free *)
    let report =
      D.Planner.solve ?exact_threshold:t.exact_threshold ?only:t.algorithms
        ?budget_ms ~pool:t.pool ~decompose:t.plan_solver ~index:ix.cindex
        ?cache:t.shard_cache arena'
    in
    (* every shard that just solved (or spliced) is now clean, and each
       decided shard's (fingerprint, ΔV) is memoized on its component:
       what [Planner.seed_fragments] restricts onto surviving fragments
       when a later delete splits it. [request] commits nothing, so the
       index these land on is the session's own. *)
    if report.D.Planner.decomposed then begin
      let by_comp = Hashtbl.create 16 in
      Setcover.Bitset.iter
        (fun vid ->
          let c = D.Component_index.comp_of_vid ix.cindex vid in
          let prev = try Hashtbl.find by_comp c with Not_found -> [] in
          Hashtbl.replace by_comp c (vid :: prev))
        arena'.D.Arena.bad;
      List.iter
        (fun (d : D.Planner.shard_decision) ->
          let c = d.D.Planner.component in
          D.Component_index.mark_clean ix.cindex c;
          Option.iter
            (fun fp ->
              let bad =
                Array.of_list
                  (List.rev (try Hashtbl.find by_comp c with Not_found -> []))
              in
              D.Component_index.record_memo ix.cindex ~component:c ~fp ~bad)
            d.D.Planner.fingerprint)
        report.D.Planner.shards
    end;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let exact_shards =
      List.length
        (List.filter
           (fun (d : D.Planner.shard_decision) -> d.D.Planner.exact)
           report.D.Planner.shards)
    in
    let n_shards = List.length report.D.Planner.shards in
    let n_cached = report.D.Planner.shards_cached in
    t.stats <-
      {
        t.stats with
        rounds = t.stats.rounds + 1;
        last_solve_ms = ms;
        total_solve_ms = t.stats.total_solve_ms +. ms;
        shards_solved = t.stats.shards_solved + n_shards;
        shards_exact = t.stats.shards_exact + exact_shards;
        shards_approx = t.stats.shards_approx + (n_shards - exact_shards);
        shards_cached = t.stats.shards_cached + n_cached;
        shards_resolved = t.stats.shards_resolved + (n_shards - n_cached);
      };
    Log.debug (fun m ->
        m "round %d: %d solution(s), %d failure(s), %d shard(s) in %.2f ms"
          t.stats.rounds
          (List.length report.D.Planner.solutions)
          (List.length report.D.Planner.failures)
          n_shards ms);
    Ok
      {
        requests;
        solutions = report.D.Planner.solutions;
        failures = report.D.Planner.failures;
        degraded = report.D.Planner.degraded;
        decomposed = report.D.Planner.decomposed;
        shards = report.D.Planner.shards;
        shards_cached = report.D.Planner.shards_cached;
      }

let apply ?solution t plan =
  let chosen =
    match solution with
    | Some _ as s -> s
    | None -> ( match plan.solutions with s :: _ -> Some s | [] -> None)
  in
  match chosen with
  | None -> None
  | Some s ->
    let dd = commit_raw t s.D.Solution.deleted in
    journal_append t (Journal.Apply dd);
    Some s

let delete t dd =
  let dd = commit_raw t dd in
  journal_append t (Journal.Delete dd)

let insert t st =
  insert_raw t st;
  journal_append t (Journal.Insert st)

let insert_all t sts = R.Stuple.Set.iter (fun st -> insert t st) sts

let apply_delta t delta =
  let applied = apply_delta_raw t delta in
  if not (D.Delta.is_empty applied) then
    journal_append t
      (Journal.Delta
         { deletes = applied.D.Delta.deletes; inserts = applied.D.Delta.inserts });
  applied

let close t =
  (match t.journal with
  | Some w ->
    Journal.close_writer w;
    t.journal <- None
  | None -> ());
  D.Par.Pool.shutdown t.pool

(* ---- scripted sessions ---- *)

module Script = struct
  type op =
    | Solve of D.Delta_request.t list
    | Propose of D.Delta_request.t list
    | Insert of R.Stuple.t
    | Delete of R.Stuple.t

  type line = {
    lineno : int;
    text : string;
    op : op;
  }

  type round = {
    number : int;
    op : op;
    plan : plan option;
    error : string option;
  }

  let parse_fact s =
    let rel, tuple = R.Serial.fact_of_string s in
    R.Stuple.make rel tuple

  (* group facts by view, preserving first-appearance order on both the
     views and their tuples *)
  let group_requests facts =
    List.fold_left
      (fun acc (view, tuple) ->
        if List.mem_assoc view acc then
          List.map
            (fun (v, ts) -> if String.equal v view then (v, ts @ [ tuple ]) else (v, ts))
            acc
        else acc @ [ (view, [ tuple ]) ])
      [] facts
    |> List.map (fun (view, tuples) -> D.Delta_request.make ~view tuples)

  let parse_line line =
    let keyword, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
    in
    try
      match keyword with
      | "solve" | "propose" ->
        let facts =
          String.split_on_char ';' rest
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map R.Serial.fact_of_string
        in
        if facts = [] then
          Error (Printf.sprintf "%s: expected at least one view fact" keyword)
        else
          let requests = group_requests facts in
          Ok (if keyword = "solve" then Solve requests else Propose requests)
      | "insert" -> Ok (Insert (parse_fact rest))
      | "delete" -> Ok (Delete (parse_fact rest))
      | kw ->
        Error
          (Printf.sprintf "unknown op %S (expected solve|propose|insert|delete)"
             kw)
    with R.Serial.Parse_error (_, msg) -> Error msg

  let parse text =
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | raw :: tl -> (
        let trimmed = String.trim raw in
        if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc tl
        else
          match parse_line trimmed with
          | Ok op -> go (n + 1) ({ lineno = n; text = trimmed; op } :: acc) tl
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg))
    in
    go 1 [] (String.split_on_char '\n' text)

  let parse_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse (really_input_string ic (in_channel_length ic)))

  (* one op; [Ok] carries the plan of a solve round *)
  let execute eng = function
    | Solve requests -> (
      match request eng requests with
      | Error e -> Error (D.Delta_request.error_to_string e)
      | Ok plan ->
        ignore (apply eng plan);
        Ok (Some plan))
    | Propose requests -> (
      (* solve-without-apply: the round's plan is reported but nothing
         commits — repeated proposals over stable components are what
         the shard cache accelerates *)
      match request eng requests with
      | Error e -> Error (D.Delta_request.error_to_string e)
      | Ok plan -> Ok (Some plan))
    | Insert st -> (
      match insert eng st with
      | () -> Ok None
      | exception R.Relation.Key_violation (rel, existing, _) ->
        Error
          (Format.asprintf "inserting %a violates the key of %s (%a)" R.Stuple.pp st
             rel R.Tuple.pp existing))
    | Delete st ->
      delete eng (R.Stuple.Set.singleton st);
      Ok None

  let replay ?(keep_going = false) eng lines =
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | (line : line) :: tl -> (
        match execute eng line.op with
        | Ok plan -> go (n + 1) ({ number = n; op = line.op; plan; error = None } :: acc) tl
        | Error msg ->
          (* the failing line's own text travels with the error — a
             script author debugs the script, not the round numbering *)
          let msg = Printf.sprintf "round %d (%s): %s" n line.text msg in
          if keep_going then
            go (n + 1) ({ number = n; op = line.op; plan = None; error = Some msg } :: acc) tl
          else Error msg)
    in
    go 1 [] lines
end

(* re-exports: [engine] is the library's interface module, so the
   journal and snapshot machinery are reachable from outside as
   [Engine.Journal] / [Engine.Snapshot] *)
module Journal = Journal
module Snapshot = Snapshot
