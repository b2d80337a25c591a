(* Warm recovery: the snapshot codec, the degradation ladder, the
   snapshot failpoints, and the kill-point fuzz property showing a
   crashed-recovered-re-warmed session indistinguishable from one that
   never crashed — bit-identical solutions, shard decisions, partition
   sizes, and (at checkpoint boundaries) shard-cache hit counters. *)

open Util
module R = Relational
module D = Deleprop
module S = Engine.Snapshot

(* elevated in CI's recovery-fuzz step via DELEPROP_REWARM_COUNT *)
let fuzz_count =
  match Sys.getenv_opt "DELEPROP_REWARM_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with Failure _ -> 40)
  | None -> 40

(* the three-component instance from the shard-cache suite: J1/J2/J3
   are independent, so a single-component delta leaves two shards
   clean — exactly what a snapshot is supposed to keep warm *)
let tri_db = Test_shardcache.tri_db
let tri_queries = Test_shardcache.tri_queries
let tri_view = Test_shardcache.tri_view
let request_exn = Test_shardcache.request_exn
let check_decisions_equal = Test_shardcache.check_decisions_equal
let check_solutions_equal = Test_engine.check_solutions_equal

let all_reqs () =
  [
    D.Delta_request.make ~view:"Q4"
      [ tri_view "A" "J1"; tri_view "B" "J2"; tri_view "C" "J3" ];
  ]

let with_paths f =
  let jpath = Filename.temp_file "deleprop_rewarm" ".journal" in
  let spath = jpath ^ ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Engine.Journal.remove jpath;
      S.remove spath;
      try Sys.remove (spath ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f jpath spath)

let fp hex =
  match D.Fingerprint.of_hex hex with
  | Some f -> f
  | None -> Alcotest.fail ("bad fingerprint hex: " ^ hex)

(* ---- the codec, round-tripped on hand-built data ---- *)

(* awkward floats on purpose: an unrepresentable decimal sum, a
   subnormal-adjacent tiny, infinity — the hex-bits encoding must bring
   every one back bit-identical *)
let sample_entries () =
  [
    ( fp "0123456789abcdef",
      {
        D.Planner.e_classification = D.Planner.Exact_small;
        e_winner = "brute";
        e_deleted =
          R.Stuple.Set.of_list
            [ st "T1" [ "A"; "J1" ]; st "T2" [ "J1"; "X"; "W1" ] ];
        e_cost = 0.1 +. 0.2;
        e_certificate = D.Solution.Exact;
        e_forest = false;
        e_threshold = Float.pi;
        e_split = true;
        e_decomposition =
          {
            D.Decomposition.d_vtuples = 4;
            d_parts =
              [
                {
                  D.Decomposition.p_label = "g0";
                  p_deleted = R.Stuple.Set.singleton (st "T1" [ "A"; "J1" ]);
                  p_cost = 0.1 +. 0.2;
                  p_cert = D.Decomposition.Slice_exact;
                };
              ];
            d_structure = D.Decomposition.Witness_groups;
          };
      } );
    ( fp "fedcba9876543210",
      {
        D.Planner.e_classification = D.Planner.Approximate;
        e_winner = "primal-dual";
        e_deleted = R.Stuple.Set.empty;
        e_cost = 1e-300;
        e_certificate =
          D.Solution.Composite { shards = 3; factor = Some (1. /. 3.) };
        e_forest = true;
        e_threshold = infinity;
        e_split = false;
        e_decomposition =
          {
            D.Decomposition.d_vtuples = 9;
            d_parts =
              [
                {
                  D.Decomposition.p_label = "c A J1";
                  p_deleted = R.Stuple.Set.empty;
                  p_cost = 1e-300;
                  p_cert = D.Decomposition.Slice_ratio (2.0 *. Float.sqrt 9.0);
                };
                {
                  D.Decomposition.p_label = "c B J2";
                  p_deleted = R.Stuple.Set.singleton (st "T2" [ "J1"; "X"; "W1" ]);
                  p_cost = 0.0;
                  p_cert = D.Decomposition.Slice_heuristic;
                };
              ];
            d_structure = D.Decomposition.Contributions;
          };
      } );
    ( fp "00000000000000ff",
      {
        D.Planner.e_classification = D.Planner.Exact_forest;
        e_winner = "forest-dp";
        e_deleted = R.Stuple.Set.singleton (st "T1" [ "B"; "J2" ]);
        e_cost = 42.0;
        e_certificate = D.Solution.Dual_bound 41.5;
        e_forest = true;
        e_threshold = Float.sqrt 6.0;
        e_split = false;
        e_decomposition =
          {
            D.Decomposition.d_vtuples = 6;
            d_parts =
              [
                {
                  D.Decomposition.p_label = "t0";
                  p_deleted =
                    R.Stuple.Set.singleton (st "T1" [ "B"; "J2" ]);
                  p_cost = 42.0;
                  p_cert = D.Decomposition.Slice_exact;
                };
              ];
            d_structure =
              D.Decomposition.Forest
                [
                  {
                    D.Decomposition.ft_pivot =
                      R.Stuple.to_string (st "T1" [ "B"; "J2" ]);
                    ft_nodes =
                      [
                        ( R.Stuple.to_string (st "T1" [ "B"; "J2" ]),
                          {
                            D.Decomposition.fn_parent = None;
                            fn_depth = 0;
                            fn_cut = true;
                            fn_value = 42.0;
                            fn_slack = 0.0;
                          } );
                        ( R.Stuple.to_string (st "T2" [ "J1"; "X"; "W1" ]),
                          {
                            D.Decomposition.fn_parent =
                              Some (R.Stuple.to_string (st "T1" [ "B"; "J2" ]));
                            fn_depth = 1;
                            fn_cut = false;
                            fn_value = 0.25;
                            fn_slack = 1.5;
                          } );
                      ];
                  };
                ];
          };
      } );
  ]

let sample_snapshot () =
  {
    S.coords =
      {
        S.position = 7;
        generation = 2;
        arena_fp = fp "00000000deadbeef";
        components = 3;
        dirty = [ 0; 2 ];
        stats =
          {
            D.Planner.s_hits = 11;
            s_misses = 4;
            s_evictions = 1;
            s_last_bucket = Some 5;
            s_fragment_reuses_exact = 1;
            s_fragment_reuses_forest = 1;
            s_fragment_reuses_approx = 1;
          };
      };
    baseline =
      Some
        ( R.Stuple.Set.singleton (st "T2" [ "J1"; "X"; "W1" ]),
          R.Stuple.Set.of_list [ st "T1" [ "A"; "J1" ]; st "T1" [ "B"; "J2" ] ]
        );
    entries = sample_entries ();
  }

let bits = Int64.bits_of_float

let check_entry_equal tag (e : D.Planner.cache_entry)
    (a : D.Planner.cache_entry) =
  Alcotest.(check bool) (tag ^ ": classification") true
    (e.D.Planner.e_classification = a.D.Planner.e_classification);
  Alcotest.(check string) (tag ^ ": winner") e.D.Planner.e_winner
    a.D.Planner.e_winner;
  Alcotest.(check bool) (tag ^ ": deleted set") true
    (R.Stuple.Set.equal e.D.Planner.e_deleted a.D.Planner.e_deleted);
  Alcotest.(check int64) (tag ^ ": cost bits") (bits e.D.Planner.e_cost)
    (bits a.D.Planner.e_cost);
  Alcotest.(check bool) (tag ^ ": certificate") true
    (e.D.Planner.e_certificate = a.D.Planner.e_certificate);
  Alcotest.(check bool) (tag ^ ": forest") e.D.Planner.e_forest
    a.D.Planner.e_forest;
  Alcotest.(check int64) (tag ^ ": threshold bits")
    (bits e.D.Planner.e_threshold)
    (bits a.D.Planner.e_threshold)

let load_snapshot_exn tag spath =
  match S.load spath with
  | Ok r -> r
  | Error w ->
    Alcotest.fail (Format.asprintf "%s: load failed: %a" tag S.pp_warning w)

let test_codec_roundtrip () =
  with_paths (fun _jpath spath ->
      let t = sample_snapshot () in
      S.write spath t;
      let t', dropped = load_snapshot_exn "round-trip" spath in
      Alcotest.(check int) "nothing dropped" 0 dropped;
      let c = t.S.coords and c' = t'.S.coords in
      Alcotest.(check int) "position" c.S.position c'.S.position;
      Alcotest.(check int) "generation" c.S.generation c'.S.generation;
      Alcotest.(check bool) "arena fingerprint" true
        (D.Fingerprint.equal c.S.arena_fp c'.S.arena_fp);
      Alcotest.(check int) "components" c.S.components c'.S.components;
      Alcotest.(check (list int)) "dirty ids" c.S.dirty c'.S.dirty;
      Alcotest.(check bool) "cache counters" true (c.S.stats = c'.S.stats);
      (match (t.S.baseline, t'.S.baseline) with
      | Some (g, a), Some (g', a') ->
        Alcotest.(check bool) "baseline gone" true (R.Stuple.Set.equal g g');
        Alcotest.(check bool) "baseline added" true (R.Stuple.Set.equal a a')
      | _ -> Alcotest.fail "baseline did not round-trip");
      Alcotest.(check int) "entry count" (List.length t.S.entries)
        (List.length t'.S.entries);
      List.iteri
        (fun i ((f, e), (f', e')) ->
          let tag = Printf.sprintf "entry %d" i in
          Alcotest.(check bool) (tag ^ ": fingerprint") true
            (D.Fingerprint.equal f f');
          check_entry_equal tag e e')
        (List.combine t.S.entries t'.S.entries))

(* ---- the degradation ladder, straight on [load] ---- *)

let write_whole path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* forge a future-version snapshot: patch the "version 1" header line
   and re-stamp the frame's CRC so only the version is wrong *)
let set_header_version data v =
  let hlen = Test_resilience.read_u32_le data 8 in
  let payload = Bytes.of_string (String.sub data 16 hlen) in
  Bytes.set payload 10 v (* "H\nversion 1" — the digit sits at offset 10 *);
  let payload = Bytes.to_string payload in
  let crc = Int32.to_int (Engine.Journal.crc32 payload) land 0xFFFFFFFF in
  String.sub data 0 8
  ^ Test_resilience.u32_le hlen
  ^ Test_resilience.u32_le crc
  ^ payload
  ^ String.sub data (16 + hlen) (String.length data - 16 - hlen)

(* byte offset of the baseline payload: magic, header frame, then the
   baseline frame's own 8-byte header (every engine-written snapshot —
   and [sample_snapshot] — carries a baseline) *)
let baseline_offset data = 8 + 8 + Test_resilience.read_u32_le data 8 + 8

(* byte offset of the first entry payload: one more frame hop past the
   baseline *)
let first_entry_offset data =
  let b = 8 + 8 + Test_resilience.read_u32_le data 8 in
  b + 8 + Test_resilience.read_u32_le data b + 8

let expect_corrupt tag spath =
  match S.load spath with
  | Error (S.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail (tag ^ ": expected Corrupt, loaded cleanly")
  | Error w ->
    Alcotest.fail
      (Format.asprintf "%s: expected Corrupt, got %a" tag S.pp_warning w)

let test_load_ladder () =
  with_paths (fun _jpath spath ->
      (match S.load spath with
      | Error S.Missing -> ()
      | _ -> Alcotest.fail "expected Missing");
      write_whole spath "DLPSNAPX definitely not a snapshot";
      expect_corrupt "bad magic" spath;
      S.write spath (sample_snapshot ());
      let intact = Test_resilience.read_whole spath in
      (* torn mid-header *)
      write_whole spath (String.sub intact 0 12);
      expect_corrupt "torn header" spath;
      (* a bit flip inside the header frame drops the whole snapshot *)
      write_whole spath intact;
      Test_resilience.flip_byte spath 20;
      expect_corrupt "header bit flip" spath;
      (* a version this build does not read *)
      write_whole spath (set_header_version intact '9');
      (match S.load spath with
      | Error (S.Version_mismatch 9) -> ()
      | Ok _ -> Alcotest.fail "future version loaded"
      | Error w ->
        Alcotest.fail
          (Format.asprintf "expected Version_mismatch 9, got %a" S.pp_warning w));
      (* a bit flip inside the baseline frame drops only the baseline —
         the entries behind it still re-warm *)
      write_whole spath intact;
      Test_resilience.flip_byte spath (baseline_offset intact);
      let tb, droppedb = load_snapshot_exn "baseline bit flip" spath in
      Alcotest.(check bool) "baseline degrades to None" true
        (tb.S.baseline = None);
      Alcotest.(check int) "baseline damage counted" 1 droppedb;
      Alcotest.(check int) "entries behind it survive" 3
        (List.length tb.S.entries);
      (* a bit flip inside one entry drops exactly that entry *)
      write_whole spath intact;
      Test_resilience.flip_byte spath (first_entry_offset intact);
      let t', dropped = load_snapshot_exn "entry bit flip" spath in
      Alcotest.(check int) "one entry dropped" 1 dropped;
      Alcotest.(check int) "the others survive" 2 (List.length t'.S.entries);
      (* a torn tail drops the final entry, keeps the prefix *)
      write_whole spath (String.sub intact 0 (String.length intact - 5));
      let t'', dropped'' = load_snapshot_exn "torn entry tail" spath in
      Alcotest.(check int) "torn final entry dropped" 1 dropped'';
      Alcotest.(check int) "prefix survives" 2 (List.length t''.S.entries))

(* ---- the snapshot writer's failpoints ---- *)

let test_snapshot_failpoints () =
  with_paths (fun _jpath spath ->
      Fun.protect
        ~finally:(fun () ->
          D.Failpoint.clear "snapshot.write";
          D.Failpoint.clear "snapshot.corrupt";
          D.Failpoint.clear "snapshot.rename")
        (fun () ->
          let old = sample_snapshot () in
          S.write spath old;
          (* dying mid-temp-write never touches the committed file *)
          let nu = { old with S.coords = { old.S.coords with S.position = 99 } } in
          D.Failpoint.set "snapshot.write" (D.Failpoint.Crash_after_bytes 10);
          Alcotest.check_raises "torn snapshot write raises"
            (D.Failpoint.Injected "snapshot.write") (fun () ->
              S.write spath nu);
          D.Failpoint.clear "snapshot.write";
          let t', _ = load_snapshot_exn "after torn write" spath in
          Alcotest.(check int) "previous snapshot survives a torn write"
            old.S.coords.S.position t'.S.coords.S.position;
          (* an allowance covering the whole image: the rename commits
             before the injected kill *)
          D.Failpoint.set "snapshot.write"
            (D.Failpoint.Crash_after_bytes 1_000_000);
          Alcotest.check_raises "kill lands after the commit"
            (D.Failpoint.Injected "snapshot.write") (fun () ->
              S.write spath nu);
          D.Failpoint.clear "snapshot.write";
          let t', _ = load_snapshot_exn "after covered write" spath in
          Alcotest.(check int) "completed image is committed" 99 t'.S.coords.S.position;
          (* dying between the rename and the checkpoint's journal mark:
             the new snapshot is already durable *)
          D.Failpoint.set "snapshot.rename" D.Failpoint.Raise;
          Alcotest.check_raises "rename-window kill"
            (D.Failpoint.Injected "snapshot.rename") (fun () ->
              S.write spath old);
          D.Failpoint.clear "snapshot.rename";
          let t', _ = load_snapshot_exn "after rename-window kill" spath in
          Alcotest.(check int) "snapshot committed before the kill"
            old.S.coords.S.position t'.S.coords.S.position;
          (* silent at-rest damage: a flipped bit in the committed
             header degrades, never crashes *)
          D.Failpoint.set "snapshot.corrupt" (D.Failpoint.Corrupt_byte 20);
          S.write spath old;
          D.Failpoint.clear "snapshot.corrupt";
          expect_corrupt "injected at-rest corruption" spath))

(* ---- engine integration ---- *)

let create_session ?(recover = false) jpath spath =
  Engine.create ~plan:true ~domains:1 ~journal:jpath ~snapshot:spath
    ~snapshot_every:1 ~recover (tri_db ()) (tri_queries ())

(* one warm session: a full round (fills all three cache slots), then a
   single-component insert — the append snapshots the warm cache with
   exactly J2's component dirty *)
let seed_session jpath spath =
  let eng = create_session jpath spath in
  ignore (request_exn "seed round" eng (all_reqs ()));
  Engine.insert eng (st "T1" [ "D"; "J2" ]);
  Engine.close eng

(* the uninterrupted twin of [seed_session] + one more round, journal-free *)
let reference_round () =
  let eng = Engine.create ~plan:true ~domains:1 (tri_db ()) (tri_queries ()) in
  ignore (request_exn "reference seed" eng (all_reqs ()));
  Engine.insert eng (st "T1" [ "D"; "J2" ]);
  let p = request_exn "reference round" eng (all_reqs ()) in
  Engine.close eng;
  p

let recover_and_round tag jpath spath =
  let eng = create_session ~recover:true jpath spath in
  let status = (Engine.stats eng).Engine.snapshot in
  let p = request_exn tag eng (all_reqs ()) in
  let stats = Engine.stats eng in
  Engine.close eng;
  (status, p, stats)

(* a hand-framed version-2 header — the format before per-entry
   decompositions, per-tier counters and delta groups — carrying [c]'s
   coordinates and announcing no baseline and no entries *)
let v2_image (c : S.coords) =
  let k = c.S.stats in
  "DLPSNAP1"
  ^ Engine.Journal.frame
      (String.concat "\n"
         [
           "H";
           "version 2";
           Printf.sprintf "position %d" c.S.position;
           Printf.sprintf "generation %d" c.S.generation;
           "arena " ^ D.Fingerprint.to_hex c.S.arena_fp;
           Printf.sprintf "components %d" c.S.components;
           String.concat " " ("dirty" :: List.map string_of_int c.S.dirty);
           Printf.sprintf "hits %d" k.D.Planner.s_hits;
           Printf.sprintf "misses %d" k.D.Planner.s_misses;
           Printf.sprintf "evictions %d" k.D.Planner.s_evictions;
           "bucket -";
           "splices 0";
           "baseline 0";
           "entries 0";
         ])

(* v3 is the only version read: a v2 image takes the Version_mismatch
   rung like any other unread version — the cache starts cold and the
   answers stay those of the uninterrupted session *)
let test_v2_version_mismatch () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      let t, _ = load_snapshot_exn "seeded" spath in
      write_whole spath (v2_image t.S.coords);
      (match S.load spath with
      | Error (S.Version_mismatch 2) -> ()
      | Ok _ -> Alcotest.fail "a v2 image must not load"
      | Error w ->
        Alcotest.fail
          (Format.asprintf "expected Version_mismatch 2, got %a" S.pp_warning w));
      let refp = reference_round () in
      let status, p, _ = recover_and_round "v2" jpath spath in
      (match status with
      | Engine.Degraded (S.Version_mismatch 2) -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded (Version_mismatch 2), got %a"
             Engine.pp_snapshot_status s));
      Alcotest.(check int) "v2: cold cache, nothing splices" 0
        p.Engine.shards_cached;
      check_solutions_equal "v2 ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions;
      check_decisions_equal "v2 decisions" p.Engine.shards refp.Engine.shards)

let test_snapshot_requires_journal () =
  match
    Engine.create ~plan:true ~domains:1 ~snapshot:"/tmp/never-written.snap"
      (tri_db ()) (tri_queries ())
  with
  | exception Invalid_argument _ -> ()
  | eng ->
    Engine.close eng;
    Alcotest.fail "~snapshot without ~journal must be rejected"

let test_fresh_session_clears_snapshot () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Alcotest.(check bool) "seed left a snapshot" true (Sys.file_exists spath);
      (* a non-recovering session starts from scratch: stale journal and
         snapshot are both discarded *)
      let eng = create_session jpath spath in
      Alcotest.(check bool) "fresh session discards the snapshot" false
        (Sys.file_exists spath);
      (match (Engine.stats eng).Engine.snapshot with
      | Engine.Cold -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Cold, got %a" Engine.pp_snapshot_status s));
      Engine.close eng)

(* the acceptance shape: recovery installs the snapshot, and the first
   post-recovery round splices the two clean shards instead of
   re-solving the world *)
let test_recover_warm () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      let refp = reference_round () in
      let status, p, stats = recover_and_round "first warm round" jpath spath in
      (match status with
      | Engine.Warm { entries; dropped } ->
        Alcotest.(check int) "all three entries re-warmed" 3 entries;
        Alcotest.(check int) "nothing dropped" 0 dropped
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check int) "three shards" 3 (List.length p.Engine.shards);
      Alcotest.(check int) "the two clean shards splice" 2
        p.Engine.shards_cached;
      Alcotest.(check bool) "resolved strictly less than solved" true
        (stats.Engine.shards_resolved < stats.Engine.shards_solved);
      Alcotest.(check bool) "cache hits counted" true
        (stats.Engine.shard_cache_hits > 0);
      check_solutions_equal "warm recovery ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions;
      check_decisions_equal "warm recovery decisions" p.Engine.shards
        refp.Engine.shards)

(* every damage shape: the typed warning lands in stats, the cache goes
   cold, and the answers never change *)
let test_recover_degraded () =
  let refp = reference_round () in
  let check_cold tag p =
    Alcotest.(check int) (tag ^ ": cold cache, nothing splices") 0
      p.Engine.shards_cached;
    check_solutions_equal (tag ^ " ≡ uninterrupted") p.Engine.solutions
      refp.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards
      refp.Engine.shards
  in
  (* missing snapshot *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      S.remove spath;
      let status, p, _ = recover_and_round "missing" jpath spath in
      (match status with
      | Engine.Degraded S.Missing -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Missing, got %a"
             Engine.pp_snapshot_status s));
      check_cold "missing" p);
  (* corrupted header *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Test_resilience.flip_byte spath 20;
      let status, p, _ = recover_and_round "corrupt" jpath spath in
      (match status with
      | Engine.Degraded (S.Corrupt _) -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Corrupt, got %a"
             Engine.pp_snapshot_status s));
      check_cold "corrupt" p);
  (* future version *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      write_whole spath
        (set_header_version (Test_resilience.read_whole spath) '9');
      let status, p, _ = recover_and_round "version" jpath spath in
      (match status with
      | Engine.Degraded (S.Version_mismatch 9) -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded (Version_mismatch 9), got %a"
             Engine.pp_snapshot_status s));
      check_cold "version" p);
  (* stale coordinates: the journal the snapshot describes is gone *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Engine.Journal.remove jpath;
      let status, p, _ = recover_and_round "stale" jpath spath in
      (match status with
      | Engine.Degraded S.Stale -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Stale, got %a"
             Engine.pp_snapshot_status s));
      (* the replayed state is the baseline here, so compare against a
         cold baseline session rather than [refp] *)
      Alcotest.(check int) "stale: cold cache" 0 p.Engine.shards_cached;
      let eng = Engine.create ~plan:true ~domains:1 (tri_db ()) (tri_queries ()) in
      let base = request_exn "baseline" eng (all_reqs ()) in
      Engine.close eng;
      check_solutions_equal "stale ≡ cold baseline" p.Engine.solutions
        base.Engine.solutions);
  (* one damaged entry: partial warmth, identical answers *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Test_resilience.flip_byte spath
        (first_entry_offset (Test_resilience.read_whole spath));
      let status, p, _ = recover_and_round "partial" jpath spath in
      (match status with
      | Engine.Warm { entries = 2; dropped = 1 } -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm {entries = 2; dropped = 1}, got %a"
             Engine.pp_snapshot_status s));
      Alcotest.(check bool) "surviving clean entries still splice" true
        (p.Engine.shards_cached >= 1);
      check_solutions_equal "partial warmth ≡ uninterrupted"
        p.Engine.solutions refp.Engine.solutions;
      check_decisions_equal "partial warmth decisions" p.Engine.shards
        refp.Engine.shards)

(* killed exactly at a checkpoint, the restored cache counters are the
   crashed session's counters — the stats surface reports the same
   lifetime hit count the uninterrupted twin reports *)
let test_checkpoint_boundary_counters () =
  with_paths (fun jpath spath ->
      let twin = Engine.create ~plan:true ~domains:1 (tri_db ()) (tri_queries ()) in
      let eng = create_session jpath spath in
      List.iter
        (fun e ->
          ignore (request_exn "round 1" e (all_reqs ()));
          Engine.insert e (st "T1" [ "D"; "J2" ]);
          ignore (request_exn "round 2" e (all_reqs ())))
        [ twin; eng ];
      Engine.checkpoint eng;
      Engine.close eng (* the kill: nothing after the checkpoint *);
      let eng' = create_session ~recover:true jpath spath in
      (* 4 entries: one per component from round 1, plus round 2's entry
         for J2's post-insert fingerprint (the stale one ages out) *)
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm { entries = 4; dropped = 0 } -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm {entries = 4; dropped = 0}, got %a"
             Engine.pp_snapshot_status s));
      let p' = request_exn "post-recovery round" eng' (all_reqs ()) in
      let p = request_exn "twin round" twin (all_reqs ()) in
      Alcotest.(check int) "both rounds splice everything"
        p.Engine.shards_cached p'.Engine.shards_cached;
      Alcotest.(check int) "lifetime hit counters bit-identical"
        (Engine.stats twin).Engine.shard_cache_hits
        (Engine.stats eng').Engine.shard_cache_hits;
      check_solutions_equal "checkpoint boundary ≡ twin" p'.Engine.solutions
        p.Engine.solutions;
      check_decisions_equal "checkpoint boundary decisions" p'.Engine.shards
        p.Engine.shards;
      Engine.close eng';
      Engine.close twin)

(* snapshot-covered sealed segments are reclaimed at recovery: the fast
   path replays only the tail, deletes the covered segment files, and
   the pruned journal still recovers a second time bit-identically *)
let test_sealed_segment_reclamation () =
  with_paths (fun jpath spath ->
      let seg_count () =
        let dir = Filename.dirname jpath in
        let prefix = Filename.basename jpath ^ ".seg-" in
        Array.fold_left
          (fun n f ->
            if String.length f >= String.length prefix
               && String.sub f 0 (String.length prefix) = prefix
            then n + 1
            else n)
          0 (Sys.readdir dir)
      in
      (* tiny segments force rotation on nearly every append *)
      let mk recover =
        Engine.create ~plan:true ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:1 ~segment_bytes:32 ~recover (tri_db ())
          (tri_queries ())
      in
      let twin =
        Engine.create ~plan:true ~domains:1 (tri_db ()) (tri_queries ())
      in
      let drive e =
        ignore (request_exn "seed round" e (all_reqs ()));
        Engine.insert e (st "T1" [ "D"; "J2" ]);
        Engine.insert e (st "T1" [ "E"; "J3" ]);
        Engine.delete e (R.Stuple.Set.singleton (st "T1" [ "D"; "J2" ]))
      in
      let eng = mk false in
      drive eng;
      drive twin;
      Engine.close eng;
      let before = seg_count () in
      Alcotest.(check bool) "the tiny segments actually rotated" true
        (before >= 2);
      let eng' = mk true in
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check bool)
        (Printf.sprintf "covered segments reclaimed (%d -> %d)" before
           (seg_count ()))
        true
        (seg_count () < before);
      let p' = request_exn "post-reclaim round" eng' (all_reqs ()) in
      let p = request_exn "twin round" twin (all_reqs ()) in
      check_solutions_equal "reclaimed recovery ≡ uninterrupted"
        p'.Engine.solutions p.Engine.solutions;
      check_decisions_equal "reclaimed recovery decisions" p'.Engine.shards
        p.Engine.shards;
      Alcotest.(check bool) "database identical" true
        (R.Instance.equal (Engine.db eng') (Engine.db twin));
      Engine.close eng';
      (* the pruned journal must stand on its own: recover again *)
      let eng'' = mk true in
      let p'' = request_exn "second recovery round" eng'' (all_reqs ()) in
      check_solutions_equal "second recovery ≡ uninterrupted"
        p''.Engine.solutions p.Engine.solutions;
      Alcotest.(check bool) "database still identical" true
        (R.Instance.equal (Engine.db eng'') (Engine.db twin));
      Engine.close eng'';
      Engine.close twin)

(* ---- the kill-point fuzz property ---- *)

type op = Round | Ins of string * string | Del of string * string

(* 10 rounds, 7 single-component deltas — inserts and deletes confined
   to one of J1/J2/J3 so clean components stay cacheable throughout *)
let script =
  [
    Round;
    Ins ("D", "J2");
    Round;
    Ins ("E", "J3");
    Round;
    Del ("D", "J2");
    Round;
    Ins ("F", "J1");
    Round;
    Round;
    Del ("E", "J3");
    Round;
    Ins ("G", "J2");
    Round;
    Del ("F", "J1");
    Round;
    Round;
  ]

let run_op eng tag = function
  | Round -> Some (request_exn tag eng (all_reqs ()))
  | Ins (a, j) ->
    Engine.insert eng (st "T1" [ a; j ]);
    None
  | Del (a, j) ->
    Engine.delete eng (R.Stuple.Set.singleton (st "T1" [ a; j ]));
    None

(* the uninterrupted reference: per-round plans, final database, final
   component count — computed once, shared by every fuzz iteration *)
let reference_run =
  lazy
    (let eng =
       Engine.create ~plan:true ~domains:1 (tri_db ()) (tri_queries ())
     in
     let rounds = List.filter_map (fun o -> run_op eng "reference" o) script in
     let db = Engine.db eng in
     let components = (Engine.stats eng).Engine.components in
     Engine.close eng;
     (rounds, db, components))

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

(* kill the session at step [k] — either cleanly between steps or with
   a torn journal append at step [k] itself — then recover, finish the
   script, and demand the uninterrupted run's results to the bit *)
let check_kill_point (k, torn) =
  with_paths (fun jpath spath ->
      let ref_rounds, ref_db, ref_components = Lazy.force reference_run in
      let eng = create_session jpath spath in
      let pre_rounds = ref 0 in
      List.iteri
        (fun i o ->
          if i < k then
            match run_op eng "pre-crash" o with
            | Some _ -> incr pre_rounds
            | None -> ())
        script;
      (* a torn append: the in-memory state moved, the journal did not —
         recovery must land on the pre-op state and the op re-runs *)
      (if torn then
         match List.nth script k with
         | Round -> ()
         | (Ins _ | Del _) as o ->
           D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 3);
           (try ignore (run_op eng "torn op" o)
            with D.Failpoint.Injected _ -> ());
           D.Failpoint.clear "journal.append");
      Engine.close eng;
      let eng' = create_session ~recover:true jpath spath in
      (* never an error; warm from the first delta append onward *)
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm _ when k >= 2 -> ()
      | Engine.Degraded S.Missing when k < 2 -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "kill at %d: unexpected snapshot status %a" k
             Engine.pp_snapshot_status s));
      let post_rounds =
        List.filteri (fun i _ -> i >= k) script
        |> List.filter_map (fun o -> run_op eng' "post-recovery" o)
      in
      List.iteri
        (fun i (rp, p) ->
          let tag = Printf.sprintf "kill at %d, round %d" k (!pre_rounds + i) in
          check_solutions_equal (tag ^ " ≡ uninterrupted") p.Engine.solutions
            rp.Engine.solutions;
          check_decisions_equal (tag ^ " decisions") p.Engine.shards
            rp.Engine.shards)
        (List.combine (drop !pre_rounds ref_rounds) post_rounds);
      Alcotest.(check bool) "final database identical" true
        (R.Instance.equal (Engine.db eng') ref_db);
      Alcotest.(check int) "final partition size identical" ref_components
        (Engine.stats eng').Engine.components;
      Engine.close eng';
      true)

let prop_kill_point =
  qcheck ~count:fuzz_count "rewarm: kill + recover + re-warm ≡ uninterrupted"
    QCheck2.Gen.(pair (int_range 1 (List.length script - 1)) bool)
    check_kill_point

let suite =
  [
    Alcotest.test_case "snapshot codec round-trips bit-identically" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "snapshot load: the degradation ladder" `Quick
      test_load_ladder;
    Alcotest.test_case "snapshot failpoints: torn, committed, at-rest" `Quick
      test_snapshot_failpoints;
    Alcotest.test_case "engine: ~snapshot requires ~journal" `Quick
      test_snapshot_requires_journal;
    Alcotest.test_case "engine: fresh sessions discard stale snapshots" `Quick
      test_fresh_session_clears_snapshot;
    Alcotest.test_case "engine: recovery re-warms the shard cache" `Quick
      test_recover_warm;
    Alcotest.test_case "engine: every damage shape degrades to cold" `Quick
      test_recover_degraded;
    Alcotest.test_case "v2 snapshots load as Version_mismatch 2" `Quick
      test_v2_version_mismatch;
    Alcotest.test_case "checkpoint boundary: counters bit-identical" `Quick
      test_checkpoint_boundary_counters;
    Alcotest.test_case "recovery reclaims snapshot-covered segments" `Quick
      test_sealed_segment_reclamation;
    prop_kill_point;
  ]
