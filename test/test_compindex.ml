(* The first-class live component index: per-component rosters lockstep
   with scratch recomputation across mixed delta streams (splits,
   merges, resurrections, compactions), O(active) enumeration
   bit-identical to the partition sweep, and split-aware fragment
   reuse — a shattered component's untouched fragment inherits its
   parent's cached answer by restriction, bit-identical to a fresh
   solve. *)

open Util
module R = Relational
module D = Deleprop

let seeds = QCheck2.Gen.int_range 0 10_000
let request_exn = Test_shardcache.request_exn
let check_decisions_equal = Test_shardcache.check_decisions_equal
let check_solutions_equal = Test_engine.check_solutions_equal

(* ---- rosters ≡ scratch, labels ≡ scratch ---- *)

let check_index_matches tag cindex (arena : D.Arena.t) =
  let p = D.Component_index.partition cindex in
  let scratch = D.Component_index.build arena in
  let ps = D.Component_index.partition scratch in
  Alcotest.(check int)
    (tag ^ ": num_components")
    ps.D.Component_index.num_components p.D.Component_index.num_components;
  Alcotest.(check bool) (tag ^ ": comp_of_sid ≡ scratch") true
    (p.D.Component_index.comp_of_sid = ps.D.Component_index.comp_of_sid);
  Alcotest.(check bool) (tag ^ ": comp_of_vid ≡ scratch") true
    (p.D.Component_index.comp_of_vid = ps.D.Component_index.comp_of_vid);
  for c = 0 to p.D.Component_index.num_components - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: sids_of %d ≡ scratch" tag c)
      true
      (D.Component_index.sids_of cindex c = D.Component_index.sids_of scratch c);
    Alcotest.(check bool)
      (Printf.sprintf "%s: vids_of %d ≡ scratch" tag c)
      true
      (D.Component_index.vids_of cindex c = D.Component_index.vids_of scratch c)
  done

(* indexed enumeration ≡ the O(‖D‖ + ‖V‖) sweep, proto by proto *)
let check_active_equal tag cindex (arena' : D.Arena.t) =
  let fast = D.Component_index.active cindex arena' in
  let sweep =
    Reference.Arena_reference.active_components
      ~partition:(D.Component_index.partition cindex)
      arena'
  in
  Alcotest.(check int)
    (tag ^ ": active count")
    (Array.length sweep) (Array.length fast);
  Array.iteri
    (fun i (s : D.Arena.proto_shard) ->
      let f = fast.(i) in
      Alcotest.(check int) (tag ^ ": component") s.D.Arena.p_component
        f.D.Arena.p_component;
      Alcotest.(check bool) (tag ^ ": p_sids") true
        (f.D.Arena.p_sids = s.D.Arena.p_sids);
      Alcotest.(check bool) (tag ^ ": p_vids") true
        (f.D.Arena.p_vids = s.D.Arena.p_vids))
    sweep

(* ---- the lockstep stream property ----

   Drive one mixed delete/insert/solve stream through a planner engine
   routed through the live component index, and require at every step:
   partitions and rosters bit-identical to scratch recomputation, active
   proto-shards bit-identical to the partition sweep, and ranked
   solutions and shard decisions bit-identical to a fresh cache-less
   session on the committed database. Deltas resurrect from a deleted
   pool, so tombstone, resurrect, merge and compaction branches all
   fire. *)
let check_lockstep_stream ?(scale = 6) seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = scale;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~plan:true ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  for step = 1 to 10 do
    let tag = Printf.sprintf "compindex seed %d step %d" seed step in
    let deletes =
      match R.Instance.stuples (Engine.db eng) with
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
    let applied = Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) in
    deleted_pool :=
      R.Stuple.Set.elements
        (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
      @ !deleted_pool;
    (* an explicit compaction now and then exercises the roster/memo
       remap outside the threshold trigger *)
    if step mod 4 = 0 then Engine.compact eng;
    let prov, arena = Engine.index eng in
    let cindex = Engine.component_index eng in
    check_index_matches tag cindex arena;
    match Test_engine.random_requests rng prov with
    | [] -> ()
    | reqs ->
      (* the ΔV re-stamp the planner sees: indexed enumeration must be
         bit-identical to the sweep on it *)
      let prov' = D.Provenance.with_deletions prov reqs in
      let arena' = D.Arena.with_deletions arena prov' in
      check_active_equal tag cindex arena';
      let fresh =
        Engine.create ~plan:true ~domains:1 ~shard_cache:0 (Engine.db eng)
          queries
      in
      let p = request_exn tag eng reqs in
      let f = request_exn tag fresh reqs in
      Engine.close fresh;
      check_solutions_equal (tag ^ " solutions") p.Engine.solutions
        f.Engine.solutions;
      check_decisions_equal (tag ^ " decisions") p.Engine.shards
        f.Engine.shards;
      if step mod 3 = 0 then
        Option.iter
          (fun (s : D.Solution.t) ->
            deleted_pool :=
              R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool)
          (Engine.apply eng p)
  done;
  Engine.close eng;
  true

let prop_lockstep =
  qcheck ~count:15 "compindex: indexed ≡ sweep ≡ scratch over mixed streams"
    seeds
    (fun seed -> check_lockstep_stream seed)

(* ---- split-aware fragment reuse ----

   Two disjoint author→journal→topic→conference→city chains, each
   connected only through its T4 row (the committed data/authors_split.*
   files mirror this instance). Deleting a T4 tuple shatters the chain;
   the proposed Q4 answer's fragment is untouched and must splice the
   parent's cached answer — bit-identical to a cache-less solve. *)

let split_db () =
  R.Serial.instance_of_string
    {|rel T1(AuName*, Journal*)
T1(Ann, J1)
T1(Cal, J3)
T1(Bob, J2)
T1(Dan, J4)
rel T2(Journal*, Topic*, Papers)
T2(J1, XML, 30)
T2(J3, KDD, 5)
T2(J2, CUBE, 20)
T2(J4, SQL, 8)
rel T3(Topic*, Conf*)
T3(XML, ICDE)
T3(KDD, ICDE)
T3(CUBE, VLDB)
T3(SQL, VLDB)
rel T4(Conf*, City*)
T4(ICDE, Rome)
T4(VLDB, Oslo)|}

let split_queries () =
  Cq.Parser.queries_of_string
    {|Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)
Q6(Y, Z, C) :- T2(Y, Z, W), T3(Z, C)
Q7(Z, C, L) :- T3(Z, C), T4(C, L)|}

let q4 rows = [ D.Delta_request.make ~view:"Q4" (List.map R.Tuple.strs rows) ]
let del eng rel vs = Engine.delete eng (R.Stuple.Set.singleton (st rel vs))

let frag_reuses eng = (Engine.stats eng).Engine.fragment_reuses

let test_fragment_reuse_bitidentical () =
  let mk cache =
    Engine.create ~plan:true ~domains:1 ~shard_cache:cache (split_db ())
      (split_queries ())
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  let round tag reqs =
    let p = request_exn tag eng reqs in
    let f = request_exn tag fresh reqs in
    check_solutions_equal (tag ^ " ≡ fresh") p.Engine.solutions
      f.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards f.Engine.shards;
    p
  in
  (* warm the memos: one Exact_small answer per conference component *)
  ignore
    (round "warm"
       (q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]));
  Alcotest.(check int) "two components" 2
    (D.Component_index.num_components (Engine.component_index eng));
  (* split the ICDE chain: Ann's fragment inherits the cached answer and
     starts clean; Cal's fragment, which held no memoized ΔV, is dirty *)
  del eng "T4" [ "ICDE"; "Rome" ];
  del fresh "T4" [ "ICDE"; "Rome" ];
  let clean_of rel vs =
    let _, arena = Engine.index eng in
    let cindex = Engine.component_index eng in
    D.Component_index.clean cindex
      (D.Component_index.comp_of_sid cindex (D.Arena.stuple_id arena (st rel vs)))
  in
  Alcotest.(check bool) "seeded fragment clean" true (clean_of "T1" [ "Ann"; "J1" ]);
  Alcotest.(check bool) "unseeded fragment dirty" false (clean_of "T1" [ "Cal"; "J3" ]);
  Alcotest.(check bool) "untouched component keeps its bit" true
    (clean_of "T1" [ "Bob"; "J2" ]);
  let p = round "post-split" (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  Alcotest.(check int) "the seeded fragment splices" 1 p.Engine.shards_cached;
  Alcotest.(check int) "one fragment reuse" 1 (frag_reuses eng);
  (* the VLDB chain the same way; Ann's fragment splices again (the
     seeded entry stays valid), so reuses reach 3 *)
  del eng "T4" [ "VLDB"; "Oslo" ];
  del fresh "T4" [ "VLDB"; "Oslo" ];
  let p =
    round "both split"
      (q4 [ [ "Bob"; "J2"; "CUBE" ]; [ "Ann"; "J1"; "XML" ] ])
  in
  Alcotest.(check int) "both fragments splice" 2 p.Engine.shards_cached;
  Alcotest.(check int) "three fragment reuses" 3 (frag_reuses eng);
  Alcotest.(check int) "fresh engine never reuses" 0 (frag_reuses fresh);
  (* the fragment the split *did* touch stayed dirty: a fresh solve,
     still bit-identical *)
  let p = round "touched fragment" (q4 [ [ "Cal"; "J3"; "KDD" ] ]) in
  Alcotest.(check int) "touched fragment re-solves" 0 p.Engine.shards_cached;
  Engine.close eng;
  Engine.close fresh

(* the negative guard: a deletion that kills a view tuple whose witness
   meets the memoized answer's candidate set must NOT seed — the
   restriction would be unsound, so the fragment re-solves *)
let test_fragment_guard () =
  let mk cache =
    Engine.create ~plan:true ~domains:1 ~shard_cache:cache (split_db ())
      (split_queries ())
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  ignore (request_exn "warm" eng (q4 [ [ "Ann"; "J1"; "XML" ] ]));
  (* T3(XML, ICDE) kills Q6(J1, XML, ICDE), whose witness contains the
     candidate T2(J1, XML, 30) — the candidate neighborhood is touched *)
  del eng "T3" [ "XML"; "ICDE" ];
  del fresh "T3" [ "XML"; "ICDE" ];
  let p = request_exn "guarded" eng (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  let f = request_exn "guarded" fresh (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  Alcotest.(check int) "no unsound splice" 0 p.Engine.shards_cached;
  Alcotest.(check int) "no fragment reuse" 0 (frag_reuses eng);
  check_solutions_equal "guarded ≡ fresh" p.Engine.solutions f.Engine.solutions;
  (* killing the memoized ΔV itself also refuses to seed *)
  ignore (request_exn "rewarm" eng (q4 [ [ "Bob"; "J2"; "CUBE" ] ]));
  Engine.delete eng
    (R.Stuple.Set.singleton
       (R.Stuple.make "T2"
          (R.Tuple.of_list
             [ R.Value.str "J2"; R.Value.str "CUBE"; R.Value.int 20 ])));
  Alcotest.(check int) "dead ΔV never seeds" 0 (frag_reuses eng);
  Engine.close eng;
  Engine.close fresh

(* seeding composes with durability: reuse counters live in the cache
   stats block, so a snapshotted session restores them *)
let test_reuse_counter_durable () =
  let c = D.Planner.create_cache ~capacity:8 () in
  let stats = D.Planner.cache_stats c in
  Alcotest.(check int) "fresh cache: zero reuses" 0
    stats.D.Planner.s_fragment_reuses;
  let c' = D.Planner.create_cache ~capacity:8 () in
  D.Planner.cache_restore
    ~stats:{ stats with D.Planner.s_fragment_reuses = 7 }
    c' [];
  Alcotest.(check int) "restored reuse counter" 7
    (D.Planner.cache_fragment_reuses c')

(* the merge path: an insert that cannot resurrect a dead slot makes
   [Arena.extend] merge sorted runs, and the index rebuilds from scratch.
   After a compaction no slot is dead, so a genuinely new tuple always
   takes it. The rebuilt index must equal [Component_index.build] on
   labels and rosters, carry the clean bit of the component the insert
   did not touch, dirty the one it joined, and drop every memo (ids
   moved). *)
let test_merge_path_insert () =
  let eng = Engine.create ~plan:true ~domains:1 (split_db ()) (split_queries ()) in
  ignore
    (request_exn "warm" eng (q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]));
  (* leave tombstones behind, answer both components again, then gather *)
  del eng "T1" [ "Dan"; "J4" ];
  ignore
    (request_exn "rewarm" eng (q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]));
  Alcotest.(check bool) "tombstoned before compact" true
    (D.Arena.tombstoned (snd (Engine.index eng)));
  Engine.compact eng;
  let _, before = Engine.index eng in
  let cindex = Engine.component_index eng in
  for c = 0 to D.Component_index.num_components cindex - 1 do
    Alcotest.(check bool) (Printf.sprintf "component %d clean before" c) true
      (D.Component_index.clean cindex c)
  done;
  (* a new author on journal J1 joins the ICDE chain only *)
  Engine.insert eng (st "T1" [ "Eve"; "J1" ]);
  let _, arena = Engine.index eng in
  Alcotest.(check bool) "merge path taken" false
    (before.D.Arena.stuples == arena.D.Arena.stuples);
  let cindex = Engine.component_index eng in
  check_index_matches "merge path" cindex arena;
  let clean_of rel vs =
    D.Component_index.clean cindex
      (D.Component_index.comp_of_sid cindex (D.Arena.stuple_id arena (st rel vs)))
  in
  Alcotest.(check bool) "untouched component stays clean" true
    (clean_of "T1" [ "Bob"; "J2" ]);
  Alcotest.(check bool) "joined component dirty" false (clean_of "T1" [ "Ann"; "J1" ]);
  for c = 0 to D.Component_index.num_components cindex - 1 do
    Alcotest.(check bool) (Printf.sprintf "component %d memo dropped" c) true
      (D.Component_index.memo cindex c = None)
  done;
  Engine.close eng

(* ---- the clean-bit contract ----

   After every commit, a component is clean iff its live stuple set
   equals that of a component clean before the commit, or
   [Planner.seed_fragments] just seeded it; after every propose round,
   iff it was clean before or the round answered it. The oracle works on
   stuple sets from a scratch partition, so no id remap enters it. A
   seeded fragment is recognized by its memo: [Component_index.delete]
   drops every fragment's memo and only seeding records one. Commits are
   delete-only or insert-only, so a seeded fragment's memo is still
   there to see; the inserts resurrect in place or (after a compaction
   swept their slots) take the merge path. *)

let live_sets (arena : D.Arena.t) =
  let p = D.Component_index.partition (D.Component_index.build arena) in
  let sets = Array.make p.D.Component_index.num_components R.Stuple.Set.empty in
  Array.iteri
    (fun sid c ->
      if c >= 0 then sets.(c) <- R.Stuple.Set.add arena.D.Arena.stuples.(sid) sets.(c))
    p.D.Component_index.comp_of_sid;
  sets

let clean_sets eng =
  let cindex = Engine.component_index eng in
  let sets = live_sets (snd (Engine.index eng)) in
  List.filter_map
    (fun c -> if D.Component_index.clean cindex c then Some sets.(c) else None)
    (List.init (Array.length sets) Fun.id)

(* Odd seeds run on the two-chain split instance, where deletes shatter
   memoized components and seeding fires often; even seeds on a random
   forest instance. Every third seed closes the brute tier, so forest
   and approximate entries seed too. [every_commit] compacts after each
   commit; otherwise compactions fire at seeded random steps, so the
   bits also carry across tombstoned stretches. *)
let check_clean_bits ~every_commit seed =
  let rng = rng seed in
  let db, queries =
    if seed mod 2 = 1 then (split_db (), split_queries ())
    else
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
      (p.D.Problem.db, p.D.Problem.queries)
  in
  let exact_threshold = if seed mod 3 = 0 then Some 0 else None in
  let eng =
    Engine.create ~plan:true ~domains:1 ?exact_threshold db queries
  in
  (* the compaction schedule draws from its own generator, so both
     variants run the same op stream per seed *)
  let compact_rng = Util.rng (seed + 5) in
  let mem s sets = List.exists (R.Stuple.Set.equal s) sets in
  (* [seeding]: the commit deleted, so fragments may have been seeded *)
  let check tag ~seeding ~before ~clean_before ~answered =
    let _, arena = Engine.index eng in
    let cindex = Engine.component_index eng in
    check_index_matches tag cindex arena;
    Array.iteri
      (fun c s ->
        let carried = mem s clean_before in
        let seeded =
          seeding && (not (mem s before))
          && D.Component_index.memo cindex c <> None
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: component %d clean" tag c)
          (carried || seeded || mem s answered)
          (D.Component_index.clean cindex c))
      (live_sets arena)
  in
  let step_with tag ~seeding f =
    let before = Array.to_list (live_sets (snd (Engine.index eng))) in
    let clean_before = clean_sets eng in
    let answered = f () in
    check tag ~seeding ~before ~clean_before ~answered
  in
  let deleted_pool = ref [] in
  let propose tag =
    let prov, arena = Engine.index eng in
    match Test_engine.random_requests rng prov with
    | [] -> None
    | reqs ->
      let plan = ref None in
      step_with (tag ^ " propose") ~seeding:false (fun () ->
          let p = request_exn tag eng reqs in
          plan := Some p;
          let sets = live_sets arena in
          List.map
            (fun (d : D.Planner.shard_decision) -> sets.(d.D.Planner.component))
            p.Engine.shards);
      !plan
  in
  for step = 1 to 14 do
    let tag =
      Printf.sprintf "clean %s seed %d step %d"
        (if every_commit then "every-commit" else "random")
        seed step
    in
    (* propose twice per step: the repeat round reads the bits the
       first one marked *)
    ignore (propose tag);
    let plan = propose tag in
    (match (Random.State.int rng 4, !deleted_pool) with
    | 0, st :: rest ->
      deleted_pool := rest;
      step_with (tag ^ " insert") ~seeding:false (fun () ->
          Engine.insert eng st;
          [])
    | 1, _ ->
      step_with (tag ^ " apply") ~seeding:true (fun () ->
          Option.iter
            (fun p ->
              Option.iter
                (fun (s : D.Solution.t) ->
                  deleted_pool :=
                    R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool)
                (Engine.apply eng p))
            plan;
          [])
    | _ -> (
      match R.Instance.stuples (Engine.db eng) with
      | [] -> ()
      | sts ->
        let st = List.nth sts (Random.State.int rng (List.length sts)) in
        step_with (tag ^ " delete") ~seeding:true (fun () ->
            Engine.delete eng (R.Stuple.Set.singleton st);
            deleted_pool := st :: !deleted_pool;
            [])));
    if every_commit || Random.State.int compact_rng 3 = 0 then
      step_with (tag ^ " commit compact") ~seeding:false (fun () ->
          Engine.compact eng;
          []);
    if step mod 5 = 0 then
      step_with (tag ^ " compact") ~seeding:false (fun () ->
          Engine.compact eng;
          [])
  done;
  Engine.close eng;
  true

let prop_clean_bits_eager =
  qcheck ~count:15 "compindex: clean bits ≡ stuple-set oracle (compact every commit)"
    seeds (check_clean_bits ~every_commit:true)

let prop_clean_bits_lazy =
  qcheck ~count:15 "compindex: clean bits ≡ stuple-set oracle (random compactions)"
    seeds (check_clean_bits ~every_commit:false)

let suite =
  [
    prop_lockstep;
    prop_clean_bits_eager;
    prop_clean_bits_lazy;
    Alcotest.test_case "split: fragment reuse ≡ fresh solve" `Quick
      test_fragment_reuse_bitidentical;
    Alcotest.test_case "split: candidate-touching deletes never seed" `Quick
      test_fragment_guard;
    Alcotest.test_case "split: reuse counter survives restore" `Quick
      test_reuse_counter_durable;
    Alcotest.test_case "merge-path insert: rebuilt index carries clean bits"
      `Quick test_merge_path_insert;
  ]
