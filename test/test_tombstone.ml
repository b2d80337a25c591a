(* The tombstone arena regime: generation-stamped lazy deletion must be
   observationally identical to compact-every-commit sessions — same
   solutions, same fingerprints, same partition labels, same recovery —
   with compaction an explicit, amortized event. The differential
   properties here drive a tombstoned session and a twin that compacts
   after every commit in lockstep; the unit tests pin the crash window
   between a committed delta and its compaction, the checkpoint-compacts
   invariant, the compaction events of both session kinds, the
   single-component cache routing and the proactive threshold-bucket
   eviction sweep. *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- Arena.compact: idempotence and scratch equivalence ---- *)

let check_compact_idempotent family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  (* a freshly built arena has no tombstones: compact is the physical
     identity, not a copy *)
  Alcotest.(check bool) "compact of compact arena is physically it" true
    (D.Arena.compact a == a);
  Alcotest.(check bool) "fresh arena not tombstoned" false (D.Arena.tombstoned a);
  let rng = rng (seed + 13) in
  let n = D.Arena.num_stuples a in
  if n > 1 then begin
    let k = 1 + Random.State.int rng 2 in
    let dd = ref R.Stuple.Set.empty in
    for _ = 1 to k do
      dd := R.Stuple.Set.add a.D.Arena.stuples.(Random.State.int rng n) !dd
    done;
    let prov' = D.Provenance.delete prov !dd in
    let a' = D.Arena.delete a ~dd:!dd prov' in
    (* delete tombstones: slots never move *)
    Alcotest.(check bool) "delete shares the physical arrays" true
      (a'.D.Arena.stuples == a.D.Arena.stuples);
    Alcotest.(check bool) "delete tombstones" true (D.Arena.tombstoned a');
    Alcotest.(check bool) "ratio positive" true (D.Arena.tombstone_ratio a' > 0.0);
    Alcotest.(check int) "generation bumped" (a.D.Arena.generation + 1)
      a'.D.Arena.generation;
    let c1 = D.Arena.compact a' in
    Alcotest.(check bool) "compacted form has no tombstones" false
      (D.Arena.tombstoned c1);
    Alcotest.(check bool) "compacted ratio is zero" true
      (Float.equal (D.Arena.tombstone_ratio c1) 0.0);
    (* idempotence: a second compact is the physical identity *)
    Alcotest.(check bool) "compact idempotent" true (D.Arena.compact c1 == c1);
    (* and the compacted form is bit-identical to a scratch build *)
    Test_engine.check_arena_equal
      (Printf.sprintf "seed %d: compact (delete) = scratch" seed)
      c1 (D.Arena.build prov')
  end;
  true

let prop_compact_forest =
  qcheck ~count:50 "arena: compact (delete) = scratch build (forest)" seeds
    (check_compact_idempotent Test_decompose.forest_prov)

let prop_compact_random =
  qcheck ~count:50 "arena: compact (delete) = scratch build (random)" seeds
    (check_compact_idempotent Test_decompose.random_prov)

(* ---- Arena.extend's merge path: scratch equivalence ---- *)

(* A tuple the arena never held has no dead slot to resurrect, so
   [Arena.extend] merges sorted runs — compacting first when the arena
   carries tombstones. The result goes through the same assembly step as
   [build], so it must be bit-identical to a scratch build of the
   extended index, depth memo included. *)
let check_extend_merge family seed =
  let prov = family seed in
  let all = (D.Arena.build prov).D.Arena.stuples in
  let n = Array.length all in
  if n > 1 then begin
    let rng = rng (seed + 29) in
    let i = Random.State.int rng n in
    let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
    let ins = R.Stuple.Set.singleton all.(i) in
    let prov0 = D.Provenance.delete prov ins in
    let a0 = D.Arena.build prov0 in
    let a0, prov0 =
      if Random.State.bool rng then begin
        let gone = R.Stuple.Set.singleton all.(j) in
        let p = D.Provenance.delete prov0 gone in
        (D.Arena.delete a0 ~dd:gone p, p)
      end
      else (a0, prov0)
    in
    let prov1 = D.Provenance.insert prov0 all.(i) in
    Alcotest.(check bool) "no slot to resurrect" true
      (Option.is_none (D.Arena.resurrect a0 ~ins prov1));
    let a1 = D.Arena.extend a0 ~ins prov1 in
    Alcotest.(check bool) "merge path moves ids" false
      (a1.D.Arena.stuples == a0.D.Arena.stuples);
    Alcotest.(check bool) "merged arena not tombstoned" false (D.Arena.tombstoned a1);
    Alcotest.(check int) "merged generation" 0 a1.D.Arena.generation;
    let s = D.Arena.build prov1 in
    Test_engine.check_arena_equal
      (Printf.sprintf "seed %d: extend (merge) = scratch" seed)
      a1 s;
    Alcotest.(check bool) "depth memo = scratch" true
      (a1.D.Arena.depths = s.D.Arena.depths)
  end;
  true

let prop_extend_merge_forest =
  qcheck ~count:50 "arena: extend (merge) = scratch build (forest)" seeds
    (check_extend_merge Test_decompose.forest_prov)

let prop_extend_merge_pivot =
  qcheck ~count:50 "arena: extend (merge) = scratch build (pivot)" seeds
    (check_extend_merge (fun seed -> Test_decompose.pivot_prov seed))

let prop_extend_merge_random =
  qcheck ~count:50 "arena: extend (merge) = scratch build (random)" seeds
    (check_extend_merge Test_decompose.random_prov)

(* ---- lockstep differential: lazy tombstones ≡ compact every commit ---- *)

(* Two default sessions over the same database consume the same mixed
   delete/insert/solve stream: [eng_l] keeps its tombstones, compacting
   explicitly at seeded random steps (so compactions still fire
   mid-stream, between tombstoned stretches), while its twin [eng_e]
   calls [Engine.compact] after every commit (the pre-tombstone
   behaviour). After every commit the live indexes must agree up to
   compaction — bit-identical arenas and partition labels once the lazy
   one compacts, equal content fingerprints *without* compacting — and
   every solve must rank bit-identical solutions. *)
let check_lazy_stream ~plan seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = 6;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  let queries = p.D.Problem.queries in
  let mk () = Engine.create ~plan ~domains:1 p.D.Problem.db queries in
  let eng_l = mk () in
  let eng_e = mk () in
  (* the lazy side's compaction schedule: its own generator, so the
     delta stream is the same whatever it draws *)
  let compact_rng = Util.rng (seed + 7) in
  let after_commit () =
    Engine.compact eng_e;
    if Random.State.int compact_rng 3 = 0 then Engine.compact eng_l
  in
  let deleted_pool = ref [] in
  let check_indexes tag =
    let _, arena_l = Engine.index eng_l in
    let _, arena_e = Engine.index eng_e in
    (* the twin never holds a tombstone past its commit *)
    Alcotest.(check bool) (tag ^ ": eager arena compact") false
      (D.Arena.tombstoned arena_e);
    (* fingerprints are tombstone-invariant: equal without compacting *)
    Alcotest.(check bool) (tag ^ ": fingerprints agree") true
      (D.Fingerprint.equal (D.Fingerprint.arena arena_l)
         (D.Fingerprint.arena arena_e));
    Test_engine.check_arena_equal (tag ^ ": compact lazy = eager")
      (D.Arena.compact arena_l) arena_e;
    Test_engine.check_partition_equal (tag ^ ": partition labels")
      (D.Component_index.partition
         (D.Component_index.compact (Engine.component_index eng_l)
            ~before:arena_l))
      (Engine.partition eng_e);
    List.iter
      (fun (q : Cq.Query.t) ->
        Alcotest.check Util.tuple_set (tag ^ ": view " ^ q.name)
          (Engine.view eng_e q.name) (Engine.view eng_l q.name))
      queries
  in
  check_indexes "initial";
  for step = 1 to 10 do
    let tag = Printf.sprintf "lazy seed %d step %d" seed step in
    let deletes =
      match R.Instance.stuples (Engine.db eng_l) with
      | [] -> R.Stuple.Set.empty
      | sts ->
        List.init
          (1 + Random.State.int rng 2)
          (fun _ -> List.nth sts (Random.State.int rng (List.length sts)))
        |> R.Stuple.Set.of_list
    in
    let inserts =
      match !deleted_pool with
      | [] -> R.Stuple.Set.empty
      | st :: rest ->
        deleted_pool := rest;
        R.Stuple.Set.singleton st
    in
    let delta = D.Delta.make ~deletes ~inserts () in
    let a_l = Engine.apply_delta eng_l delta in
    let a_e = Engine.apply_delta eng_e delta in
    after_commit ();
    Alcotest.check Util.stuple_set (tag ^ ": same deletes applied")
      a_e.D.Delta.deletes a_l.D.Delta.deletes;
    Alcotest.check Util.stuple_set (tag ^ ": same inserts applied")
      a_e.D.Delta.inserts a_l.D.Delta.inserts;
    deleted_pool :=
      R.Stuple.Set.elements (R.Stuple.Set.diff a_l.D.Delta.deletes a_l.D.Delta.inserts)
      @ !deleted_pool;
    check_indexes tag;
    if step mod 3 = 0 then begin
      let prov_l, _ = Engine.index eng_l in
      match Test_engine.random_requests rng prov_l with
      | [] -> ()
      | reqs -> (
        match (Engine.request eng_l reqs, Engine.request eng_e reqs) with
        | Ok p_l, Ok p_e ->
          Test_engine.check_solutions_equal tag p_l.Engine.solutions
            p_e.Engine.solutions;
          let applied = (Engine.apply eng_l p_l, Engine.apply eng_e p_e) in
          after_commit ();
          (match applied with
          | Some s_l, Some s_e ->
            Alcotest.check Util.stuple_set (tag ^ ": same solution applied")
              s_e.D.Solution.deleted s_l.D.Solution.deleted;
            deleted_pool :=
              R.Stuple.Set.elements s_l.D.Solution.deleted @ !deleted_pool
          | None, None -> ()
          | _ -> Alcotest.fail (tag ^ ": one session applied, the other not"));
          check_indexes (tag ^ " after solve")
        | Error e, _ | _, Error e ->
          Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e))
    end
  done;
  check_indexes "final";
  let s_l = Engine.stats eng_l in
  let s_e = Engine.stats eng_e in
  (* the twin never reports tombstones *)
  Alcotest.(check bool) "eager: zero tombstone ratio" true
    (Float.equal s_e.Engine.tombstone_ratio 0.0);
  (* an explicit compact converges the lazy session to the eager form *)
  Engine.compact eng_l;
  let s_l' = Engine.stats eng_l in
  Alcotest.(check bool) "lazy: compactions monotone" true
    (s_l'.Engine.compactions >= s_l.Engine.compactions);
  Alcotest.(check bool) "lazy: ratio zero after compact" true
    (Float.equal s_l'.Engine.tombstone_ratio 0.0);
  Test_engine.check_arena_equal "post-compact index = eager index"
    (snd (Engine.index eng_l))
    (snd (Engine.index eng_e));
  Engine.close eng_l;
  Engine.close eng_e;
  true

let prop_lazy_stream_flat =
  qcheck ~count:10 "engine: lazy tombstones = eager (flat)" seeds
    (check_lazy_stream ~plan:false)

let prop_lazy_stream_planner =
  qcheck ~count:10 "engine: lazy tombstones = eager (planner)" seeds
    (check_lazy_stream ~plan:true)

(* ---- recovery: crash between a committed delta and its compaction ---- *)

let with_temp_journal f =
  let path = Filename.temp_file "deleprop_tomb" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      let tmp = path ^ ".tmp" in
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () -> f path)

let mixed_problem seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = 6;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  p

(* The journal records the delta at commit time; compaction is a pure
   in-memory reorganization that is never journaled. A session killed
   with tombstones outstanding (below the 0.5 dead-slot ratio, so the
   amortized trigger has not fired) must recover to the same logical
   state. *)
let test_recovery_mid_tombstone () =
  with_temp_journal (fun path ->
      let p = mixed_problem 42 in
      let queries = p.D.Problem.queries in
      let mk ~recover =
        Engine.create ~plan:true ~domains:1 ~journal:path ~recover
          p.D.Problem.db queries
      in
      let eng1 = mk ~recover:false in
      let rng = rng 421 in
      for _ = 1 to 4 do
        match R.Instance.stuples (Engine.db eng1) with
        | [] -> ()
        | sts ->
          let st = List.nth sts (Random.State.int rng (List.length sts)) in
          Engine.delete eng1 (R.Stuple.Set.singleton st)
      done;
      let s1 = Engine.stats eng1 in
      Alcotest.(check bool) "crash point: tombstones outstanding" true
        (s1.Engine.tombstone_ratio > 0.0);
      Alcotest.(check bool) "crash point: below the compaction trigger" true
        (s1.Engine.tombstone_ratio < 0.5);
      Alcotest.(check int) "crash point: nothing compacted yet" 0
        s1.Engine.compactions;
      (* "crash": no close, no checkpoint — the journal holds every
         committed delete, the tombstones die with the process *)
      let eng2 = mk ~recover:true in
      Alcotest.(check bool) "recovered database" true
        (R.Instance.equal (Engine.db eng1) (Engine.db eng2));
      let _, a1 = Engine.index eng1 in
      let _, a2 = Engine.index eng2 in
      Test_engine.check_arena_equal "recovered index (up to compaction)"
        (D.Arena.compact a2) (D.Arena.compact a1);
      Alcotest.(check bool) "recovered fingerprint" true
        (D.Fingerprint.equal (D.Fingerprint.arena a2) (D.Fingerprint.arena a1));
      (* and both sessions keep answering identically *)
      let prov1, _ = Engine.index eng1 in
      (match Test_engine.random_requests (Util.rng 17) prov1 with
      | [] -> ()
      | reqs -> (
        match (Engine.request eng1 reqs, Engine.request eng2 reqs) with
        | Ok p1, Ok p2 ->
          Test_engine.check_solutions_equal "recovered ≡ survivor"
            p2.Engine.solutions p1.Engine.solutions
        | Error e, _ | _, Error e ->
          Alcotest.fail (D.Delta_request.error_to_string e)));
      Engine.close eng1;
      Engine.close eng2)

(* checkpoint compacts before writing: the durable baseline always
   corresponds to the compact index *)
let test_checkpoint_compacts () =
  with_temp_journal (fun path ->
      let p = mixed_problem 7 in
      let queries = p.D.Problem.queries in
      let eng =
        Engine.create ~plan:true ~domains:1 ~journal:path p.D.Problem.db
          queries
      in
      (match R.Instance.stuples (Engine.db eng) with
      | st :: _ -> Engine.delete eng (R.Stuple.Set.singleton st)
      | [] -> Alcotest.fail "empty instance");
      Alcotest.(check bool) "tombstoned before checkpoint" true
        ((Engine.stats eng).Engine.tombstone_ratio > 0.0);
      Alcotest.(check bool) "below the compaction trigger" true
        ((Engine.stats eng).Engine.tombstone_ratio < 0.5);
      Engine.checkpoint eng;
      let s = Engine.stats eng in
      Alcotest.(check bool) "checkpoint compacted" true
        (Float.equal s.Engine.tombstone_ratio 0.0);
      Alcotest.(check int) "checkpoint counted one compaction" 1
        s.Engine.compactions;
      (* the checkpointed journal still recovers exactly *)
      let eng2 =
        Engine.create ~plan:true ~domains:1
          ~journal:path ~recover:true p.D.Problem.db queries
      in
      Alcotest.(check bool) "checkpointed journal recovers" true
        (R.Instance.equal (Engine.db eng) (Engine.db eng2));
      Engine.close eng;
      Engine.close eng2)

(* ---- the compaction events ---- *)

(* A plan session deletes one live tuple at a time. Each delete is
   replayed on a copy of the live index first, which predicts whether
   it leaves more than half of the slots dead: exactly the delete that
   does compacts, once, back to a zero ratio, and the compacted
   session answers bit-identically to a scratch session over the same
   database. *)
let test_plan_ratio_trigger () =
  let p = mixed_problem 11 in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~plan:true ~domains:1 p.D.Problem.db queries in
  let rng = rng 111 in
  let rec drive step =
    match R.Instance.stuples (Engine.db eng) with
    | [] -> Alcotest.fail "instance emptied before the ratio crossed 0.5"
    | sts ->
      let tag = Printf.sprintf "step %d" step in
      let dd =
        R.Stuple.Set.singleton
          (List.nth sts (Random.State.int rng (List.length sts)))
      in
      let prov, arena = Engine.index eng in
      let prov' = D.Provenance.delete prov dd in
      let crosses =
        D.Arena.tombstone_ratio (D.Arena.delete arena ~dd prov') > 0.5
      in
      Engine.delete eng dd;
      let s = Engine.stats eng in
      if crosses then begin
        Alcotest.(check int) (tag ^ ": crossing compacts once") 1
          s.Engine.compactions;
        Alcotest.(check bool) (tag ^ ": ratio back to zero") true
          (Float.equal s.Engine.tombstone_ratio 0.0)
      end
      else begin
        Alcotest.(check int) (tag ^ ": below the trigger, no compaction") 0
          s.Engine.compactions;
        Alcotest.(check bool) (tag ^ ": tombstones kept") true
          (s.Engine.tombstone_ratio > 0.0 && s.Engine.tombstone_ratio <= 0.5);
        drive (step + 1)
      end
  in
  drive 1;
  let scratch =
    Engine.create ~plan:true ~domains:1 (Engine.db eng) queries
  in
  Test_engine.check_arena_equal "compacted index = scratch"
    (snd (Engine.index eng)) (snd (Engine.index scratch));
  let prov, _ = Engine.index eng in
  for round = 1 to 3 do
    match Test_engine.random_requests (Util.rng (round + 200)) prov with
    | [] -> ()
    | reqs ->
      let tag = Printf.sprintf "round %d" round in
      Test_engine.check_solutions_equal (tag ^ ": compacted ≡ scratch")
        (Test_shardcache.request_exn tag eng reqs).Engine.solutions
        (Test_shardcache.request_exn tag scratch reqs).Engine.solutions
  done;
  Alcotest.(check int) "requests do not compact a plan session" 1
    (Engine.stats eng).Engine.compactions;
  Engine.close eng;
  Engine.close scratch

(* A flat session keeps its tombstones past a delete; the next request
   gathers them away once, and identical repeats find the index already
   compact — three proposes, one compaction, bit-identical answers. *)
let test_flat_request_compacts_once () =
  let p = mixed_problem 5 in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  (match R.Instance.stuples (Engine.db eng) with
  | st :: _ -> Engine.delete eng (R.Stuple.Set.singleton st)
  | [] -> Alcotest.fail "empty instance");
  let s0 = Engine.stats eng in
  Alcotest.(check bool) "flat commit leaves tombstones" true
    (s0.Engine.tombstone_ratio > 0.0);
  let prov, _ = Engine.index eng in
  let reqs =
    match Test_engine.random_requests (Util.rng 51) prov with
    | [] -> Alcotest.fail "no view tuple left to request"
    | reqs -> reqs
  in
  let p1 = Test_shardcache.request_exn "propose 1" eng reqs in
  let p2 = Test_shardcache.request_exn "propose 2" eng reqs in
  let p3 = Test_shardcache.request_exn "propose 3" eng reqs in
  let s = Engine.stats eng in
  Alcotest.(check int) "three proposes, one compaction"
    (s0.Engine.compactions + 1) s.Engine.compactions;
  Alcotest.(check bool) "index compact after the first propose" true
    (Float.equal s.Engine.tombstone_ratio 0.0);
  Test_engine.check_solutions_equal "propose 2 ≡ propose 1"
    p2.Engine.solutions p1.Engine.solutions;
  Test_engine.check_solutions_equal "propose 3 ≡ propose 1"
    p3.Engine.solutions p1.Engine.solutions;
  let scratch = Engine.create ~domains:1 (Engine.db eng) queries in
  Test_engine.check_solutions_equal "propose ≡ scratch" p1.Engine.solutions
    (Test_shardcache.request_exn "scratch" scratch reqs).Engine.solutions;
  Engine.close eng;
  Engine.close scratch

(* ---- single-component rounds route through the shard cache ---- *)

(* three independent author/journal components (the shard-cache suite's
   instance): a ΔV touching exactly one component used to bypass the
   pipeline (n ≤ 1 solved whole, uncached); it must now classify,
   consult the cache, and splice on repeat *)
let test_single_component_cached () =
  let db = Test_shardcache.tri_db () in
  let queries = Test_shardcache.tri_queries () in
  let eng = Engine.create ~plan:true ~domains:1 db queries in
  let reqs =
    [ D.Delta_request.make ~view:"Q4" [ Test_shardcache.tri_view "A" "J1" ] ]
  in
  let p1 = Test_shardcache.request_exn "single round 1" eng reqs in
  Alcotest.(check bool) "single active component still decomposes" true
    p1.Engine.decomposed;
  Alcotest.(check int) "exactly one shard" 1 (List.length p1.Engine.shards);
  Alcotest.(check int) "cold cache: nothing spliced" 0 p1.Engine.shards_cached;
  let p2 = Test_shardcache.request_exn "single round 2" eng reqs in
  Alcotest.(check int) "identical repeat splices the single shard" 1
    p2.Engine.shards_cached;
  Test_engine.check_solutions_equal "spliced ≡ solved" p2.Engine.solutions
    p1.Engine.solutions;
  let s = Engine.stats eng in
  Alcotest.(check int) "stats: one lifetime shard cache hit" 1
    s.Engine.shard_cache_hits;
  Engine.close eng

(* ---- proactive threshold-bucket eviction ---- *)

(* an approximate-tier entry solved under one parent √‖V‖ bucket is
   swept out the first time the cache solves under another bucket —
   proactively, not lazily at splice time *)
let test_bucket_eviction () =
  let cache = D.Planner.create_cache () in
  let solve a = D.Planner.solve ~exact_threshold:1 ~cache a in
  (* find an instance that stores an approximate-tier entry *)
  let rec find_approx s =
    if s > 500 then Alcotest.fail "no cacheable approximate shard in 500 seeds"
    else begin
      D.Planner.cache_clear cache;
      let a = D.Arena.build (Test_decompose.random_prov s) in
      let r = solve a in
      let ok =
        r.D.Planner.failures = []
        && List.exists
             (fun (d : D.Planner.shard_decision) ->
               d.D.Planner.classification = D.Planner.Approximate
               && not d.D.Planner.degraded)
             r.D.Planner.shards
        && D.Planner.cache_length cache > 0
      in
      if ok then a else find_approx (s + 1)
    end
  in
  let a = find_approx 0 in
  let bucket a = int_of_float (sqrt (float_of_int (D.Arena.live_vtuples a))) in
  let evictions0 = (D.Planner.cache_stats cache).D.Planner.s_evictions in
  (* same parent, same bucket: the sweep does not fire *)
  ignore (solve a);
  Alcotest.(check int) "same bucket, no eviction" evictions0
    (D.Planner.cache_stats cache).D.Planner.s_evictions;
  (* a parent whose √‖V‖ bucket drifted: stale approximate entries
     sweep. The same family at every seed lands in the same bucket, so
     the drifted parent comes from a much smaller one. *)
  let small_prov seed =
    let p =
      Workload.Random_family.generate ~rng:(Util.rng seed)
        {
          Workload.Random_family.default with
          num_dimensions = 2;
          fact_tuples = 2;
          dim_tuples = 2;
          num_queries = 1;
          deletion_fraction = 0.5;
        }
    in
    D.Provenance.build p
  in
  let rec find_drifted s =
    if s > 1500 then Alcotest.fail "no bucket-drifted instance in 500 seeds"
    else
      let b = D.Arena.build (small_prov s) in
      if bucket b <> bucket a && D.Arena.num_vtuples b > 0 then b
      else find_drifted (s + 1)
  in
  let b = find_drifted 1000 in
  ignore (solve b);
  Alcotest.(check bool) "bucket drift evicts the stale approximate entry" true
    ((D.Planner.cache_stats cache).D.Planner.s_evictions > evictions0)

let suite =
  [
    prop_compact_forest;
    prop_compact_random;
    prop_extend_merge_forest;
    prop_extend_merge_pivot;
    prop_extend_merge_random;
    prop_lazy_stream_flat;
    prop_lazy_stream_planner;
    Alcotest.test_case "engine: recovery mid-tombstone" `Quick
      test_recovery_mid_tombstone;
    Alcotest.test_case "engine: checkpoint compacts first" `Quick
      test_checkpoint_compacts;
    Alcotest.test_case "planner: single component hits the shard cache" `Quick
      test_single_component_cached;
    Alcotest.test_case "planner: proactive bucket eviction" `Quick
      test_bucket_eviction;
    Alcotest.test_case "engine: plan session compacts once past 0.5" `Quick
      test_plan_ratio_trigger;
    Alcotest.test_case "engine: flat proposes compact once" `Quick
      test_flat_request_compacts_once;
  ]
