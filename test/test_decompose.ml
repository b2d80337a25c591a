(* Shatter-and-plan: the component labels (scratch and incrementally
   maintained), honest shard arenas, planner differentials against the
   whole-instance portfolio, and the engine's planner sessions. *)

open Util
module R = Relational
module D = Deleprop
module SC = Setcover
module B = Setcover.Bitset

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- instance families ---- *)

let forest_prov seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      { Workload.Forest_family.default with
        num_relations = 4; tuples_per_relation = 6; num_queries = 3;
        deletion_fraction = 0.4 }
  in
  D.Provenance.build p

(* many independent root components by construction *)
let pivot_prov ?(num_roots = 5) ?(tuples_per_relation = 4) seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots; tuples_per_relation;
        num_queries = 2; deletion_fraction = 0.4 }
  in
  D.Provenance.build p

let random_prov seed =
  let rng = rng seed in
  let p =
    Workload.Random_family.generate ~rng
      { Workload.Random_family.default with
        num_dimensions = 3; fact_tuples = 8; dim_tuples = 4; num_queries = 3;
        deletion_fraction = 0.4 }
  in
  D.Provenance.build p

(* ---- component labels ---- *)

let partition_equal (a : D.Component_index.partition)
    (b : D.Component_index.partition) =
  a.D.Component_index.num_components = b.D.Component_index.num_components
  && a.D.Component_index.comp_of_sid = b.D.Component_index.comp_of_sid
  && a.D.Component_index.comp_of_vid = b.D.Component_index.comp_of_vid

(* the scratch labelling *)
let scratch_labels a = D.Component_index.partition (D.Component_index.build a)

let check_partition_invariants (a : D.Arena.t) (p : D.Component_index.partition) =
  (* witness rows are monochromatic and name the view tuple's component *)
  Array.iteri
    (fun vid row ->
      if Array.length row = 0 then
        Alcotest.(check int) "empty witness comp" (-1)
          p.D.Component_index.comp_of_vid.(vid)
      else begin
        let c = p.D.Component_index.comp_of_sid.(row.(0)) in
        Array.iter
          (fun sid ->
            Alcotest.(check int) "witness monochromatic" c
              p.D.Component_index.comp_of_sid.(sid))
          row;
        Alcotest.(check int) "comp_of_vid" c p.D.Component_index.comp_of_vid.(vid)
      end)
    a.D.Arena.witness;
  (* canonical numbering: component ids appear for the first time in
     ascending sid order, densely from 0 *)
  let next = ref 0 in
  Array.iter
    (fun c ->
      if c = !next then incr next
      else Alcotest.(check bool) "canonical labels" true (c >= 0 && c < !next))
    p.D.Component_index.comp_of_sid;
  Alcotest.(check int) "num_components" !next p.D.Component_index.num_components

let check_partition_family family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  check_partition_invariants a (scratch_labels a);
  true

let prop_partition_forest =
  qcheck ~count:50 "arena: partition invariants (forest)" seeds
    (check_partition_family forest_prov)

let prop_partition_random =
  qcheck ~count:50 "arena: partition invariants (random)" seeds
    (check_partition_family random_prov)

(* one or two random live tuples of a (possibly tombstoned) arena; [None]
   once fewer than two remain *)
let random_live_dd rng (a : D.Arena.t) =
  let live =
    Array.of_list
      (List.filter
         (fun sid -> not (B.mem a.D.Arena.dead_s sid))
         (List.init (D.Arena.num_stuples a) Fun.id))
  in
  let n = Array.length live in
  if n <= 1 then None
  else
    Some
      (List.init
         (1 + Random.State.int rng 2)
         (fun _ -> a.D.Arena.stuples.(live.(Random.State.int rng n)))
      |> R.Stuple.Set.of_list)

(* random deletion streams: the labels [Component_index.delete] patches
   must be bit-identical to a scratch [Component_index.build] after every
   commit. Deletes tombstone ([Arena.delete] never moves slots), so the
   stream exercises iterated tombstoning: targets are drawn from the
   live slots, the patched labels compare against a scratch build of
   the tombstoned arena, and the structural invariants are checked on
   the compacted form (where every slot is live again) —
   [Component_index.compact] must carry the patched labels over
   unchanged, while handing the compacted arena itself to
   [Component_index.delete] must raise. *)
let check_partition_stream family seed =
  let rng = rng (seed + 7919) in
  let prov = ref (family seed) in
  let arena = ref (D.Arena.build !prov) in
  let index = ref (D.Component_index.build !arena) in
  for _ = 1 to 6 do
    match random_live_dd rng !arena with
    | None -> ()
    | Some dd ->
      let prov' = D.Provenance.delete !prov dd in
      let arena' = D.Arena.delete !arena ~dd prov' in
      let index' = D.Component_index.delete !index ~before:!arena ~dd arena' in
      Alcotest.(check bool) "patched partition = scratch" true
        (partition_equal (D.Component_index.partition index') (scratch_labels arena'));
      let compacted = D.Arena.compact arena' in
      Alcotest.check_raises "compacted a' rejected"
        (Invalid_argument
           "Component_index.delete: arena not from Arena.delete before")
        (fun () ->
          ignore
            (D.Component_index.delete !index ~before:!arena ~dd compacted));
      let cpart =
        D.Component_index.partition (D.Component_index.compact index' ~before:arena')
      in
      check_partition_invariants compacted cpart;
      Alcotest.(check bool) "compacted partition = scratch of compacted" true
        (partition_equal cpart (scratch_labels compacted));
      prov := prov';
      arena := arena';
      index := index'
  done;
  true

let prop_partition_stream_forest =
  qcheck ~count:25 "component index: delete = scratch (forest)" seeds
    (check_partition_stream forest_prov)

let prop_partition_stream_pivot =
  qcheck ~count:25 "component index: delete = scratch (pivot)" seeds
    (check_partition_stream (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_partition_stream_random =
  qcheck ~count:25 "component index: delete = scratch (random)" seeds
    (check_partition_stream random_prov)

(* ---- shard honesty ---- *)

let check_shatter prov =
  let a = D.Arena.build prov in
  let part = scratch_labels a in
  let shards = Reference.Arena_reference.shatter ~partition:part a in
  let bad_total = ref 0 in
  Array.iter
    (fun (sh : D.Arena.shard) ->
      let sa = sh.D.Arena.arena in
      Alcotest.(check int) "sid count"
        (Array.length sh.D.Arena.global_sids)
        (D.Arena.num_stuples sa);
      Alcotest.(check int) "vid count"
        (Array.length sh.D.Arena.global_vids)
        (D.Arena.num_vtuples sa);
      Alcotest.(check bool) "shard is active" true (not (B.is_empty sa.D.Arena.bad));
      bad_total := !bad_total + B.cardinal sa.D.Arena.bad;
      (* the id maps carry the parent's tuples verbatim *)
      Array.iteri
        (fun k sid ->
          Alcotest.check stuple "stuple map" a.D.Arena.stuples.(sid)
            sa.D.Arena.stuples.(k);
          Alcotest.(check int) "sid in component" sh.D.Arena.component
            part.D.Component_index.comp_of_sid.(sid))
        sh.D.Arena.global_sids;
      Array.iteri
        (fun k vid ->
          Alcotest.check vtuple "vtuple map" a.D.Arena.vtuples.(vid)
            sa.D.Arena.vtuples.(k);
          (* weights replay bit-identically *)
          Alcotest.(check bool) "weight bit-identical" true
            (Float.equal sa.D.Arena.weights.(k) a.D.Arena.weights.(vid));
          (* bad/preserved stamps agree with the parent *)
          Alcotest.(check bool) "bad stamp" (B.mem a.D.Arena.bad vid)
            (B.mem sa.D.Arena.bad k))
        sh.D.Arena.global_vids;
      (* witness rows map through the id tables *)
      Array.iteri
        (fun vk row ->
          let lifted = Array.map (fun sk -> sh.D.Arena.global_sids.(sk)) row in
          Alcotest.(check bool) "witness row maps" true
            (lifted = a.D.Arena.witness.(sh.D.Arena.global_vids.(vk))))
        sa.D.Arena.witness)
    shards;
  Alcotest.(check int) "every bad vtuple in some shard" (B.cardinal a.D.Arena.bad)
    !bad_total

let check_shatter_family family seed =
  check_shatter (family seed);
  true

let prop_shatter_forest =
  qcheck ~count:30 "arena: shards are honest (forest)" seeds
    (check_shatter_family forest_prov)

let prop_shatter_pivot =
  qcheck ~count:30 "arena: shards are honest (pivot)" seeds
    (check_shatter_family (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_shatter_random =
  qcheck ~count:30 "arena: shards are honest (random)" seeds
    (check_shatter_family random_prov)

(* per-shard exact solves recombine to the whole-instance optimum —
   component independence is what makes decomposition sound *)
let check_exact_recombination seed =
  let prov = pivot_prov ~num_roots:3 ~tuples_per_relation:2 seed in
  let a = D.Arena.build prov in
  match D.Brute.solve prov with
  | None -> true
  | Some whole ->
    let shards = Reference.Arena_reference.shatter a in
    let union = ref R.Stuple.Set.empty in
    let solved_all =
      Array.for_all
        (fun (sh : D.Arena.shard) ->
          match D.Brute.solve sh.D.Arena.arena.D.Arena.prov with
          | Some r ->
            union := R.Stuple.Set.union !union r.D.Brute.deletion;
            true
          | None -> false)
        shards
    in
    Alcotest.(check bool) "every shard solvable" true solved_all;
    let o = D.Side_effect.eval prov !union in
    Alcotest.(check bool) "recombined union feasible" true o.D.Side_effect.feasible;
    check_float "recombined cost = whole optimum"
      whole.D.Brute.outcome.D.Side_effect.cost o.D.Side_effect.cost;
    true

let prop_exact_recombination =
  qcheck ~count:30 "arena: exact shards recombine to the optimum" seeds
    check_exact_recombination

(* ---- planner ---- *)

(* the decomposed winner never costs more than the whole-instance
   portfolio winner (every portfolio algorithm either decomposes
   componentwise or is dominated by a shard tier) *)
let check_planner_dominates family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  if B.is_empty a.D.Arena.bad then true
  else
    let r = D.Planner.solve a in
    match (r.D.Planner.solutions, D.Portfolio.solutions a) with
    | s :: _, w :: _ ->
      D.Solution.feasible s
      && D.Solution.cost s <= D.Solution.cost w +. 1e-9
    | [], [] -> true
    | _ -> false

let prop_planner_forest =
  qcheck ~count:25 "planner: cost <= portfolio winner (forest)" seeds
    (check_planner_dominates forest_prov)

let prop_planner_pivot =
  qcheck ~count:25 "planner: cost <= portfolio winner (pivot)" seeds
    (check_planner_dominates (pivot_prov ?num_roots:None ?tuples_per_relation:None))

(* small components: every shard lands in an exact tier, so the planner
   must return the instance optimum with a factor-1 composite *)
let check_planner_exact seed =
  let prov = pivot_prov ~num_roots:3 ~tuples_per_relation:2 seed in
  let a = D.Arena.build prov in
  let shards = Reference.Arena_reference.shatter a in
  if Array.length shards < 2 then true
  else begin
    let r = D.Planner.solve a in
    Alcotest.(check bool) "decomposed" true r.D.Planner.decomposed;
    Alcotest.(check int) "one decision per shard" (Array.length shards)
      (List.length r.D.Planner.shards);
    match (r.D.Planner.solutions, D.Brute.solve prov) with
    | [ s ], Some whole ->
      Alcotest.(check bool) "all shards exact" true
        (List.for_all
           (fun (d : D.Planner.shard_decision) -> d.D.Planner.exact)
           r.D.Planner.shards);
      (match s.D.Solution.certificate with
      | D.Solution.Composite { shards = n; factor = Some f } ->
        Alcotest.(check int) "composite shard count" (Array.length shards) n;
        check_float "factor 1" 1.0 f
      | c ->
        Alcotest.failf "expected a factor-1 composite, got %a"
          D.Solution.pp_certificate c);
      check_float "planner = optimum" whole.D.Brute.outcome.D.Side_effect.cost
        (D.Solution.cost s);
      true
    | _ -> Alcotest.fail "planner or brute found nothing"
  end

let prop_planner_exact =
  qcheck ~count:30 "planner: exact shards give a factor-1 optimum" seeds
    check_planner_exact

let test_planner_no_decompose () =
  let prov = pivot_prov 42 in
  let a = D.Arena.build prov in
  let r = D.Planner.solve ~decompose:false a in
  Alcotest.(check bool) "not decomposed" false r.D.Planner.decomposed;
  let whole = D.Portfolio.solutions a in
  Alcotest.(check (list string)) "same ranking as the portfolio"
    (List.map (fun (s : D.Solution.t) -> s.D.Solution.algorithm) whole)
    (List.map (fun (s : D.Solution.t) -> s.D.Solution.algorithm) r.D.Planner.solutions);
  List.iter2
    (fun (x : D.Solution.t) (y : D.Solution.t) ->
      Alcotest.(check bool) "cost bit-identical" true
        (Float.equal (D.Solution.cost x) (D.Solution.cost y)))
    whole r.D.Planner.solutions

(* ---- the forest tier: one recognizer, one DP pass ---- *)

(* [Dp_tree.applicable] is the DP's structural head alone: it accepts
   exactly the instances [Dp_tree.solve] answers *)
let check_recognizer family seed =
  let prov = family seed in
  let agrees prov =
    Alcotest.(check bool) "applicable = solve is Ok"
      (Result.is_ok (D.Dp_tree.solve (D.Arena.build prov)))
      (D.Dp_tree.applicable prov)
  in
  agrees prov;
  Array.iter
    (fun (sh : D.Arena.shard) -> agrees sh.D.Arena.arena.D.Arena.prov)
    (Reference.Arena_reference.shatter (D.Arena.build prov));
  true

let prop_recognizer_forest =
  qcheck ~count:30 "dp-tree: recognizer = solve is Ok (forest)" seeds
    (check_recognizer forest_prov)

let prop_recognizer_pivot =
  qcheck ~count:30 "dp-tree: recognizer = solve is Ok (pivot)" seeds
    (check_recognizer (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_recognizer_random =
  qcheck ~count:30 "dp-tree: recognizer = solve is Ok (random)" seeds
    (check_recognizer random_prov)

(* the recognizer over some of a tombstoned arena's views, read the way
   fragment seeding reads them *)
let recognized (a : D.Arena.t) vids = Result.is_ok (D.Dp_tree.recognize a vids)

(* Fragment seeding asks "would a fresh solve take the forest tier?" of
   a fragment's roster inside the tombstoned parent, without
   materializing it. After every random delete, the recognizer on each
   fragment's roster must answer what [applicable] answers on the
   materialized fragment — and, over all live views, on the whole
   post-delete instance. *)
let check_recognizer_fragments family seed =
  let rng = rng (seed + 104729) in
  let prov = ref (family seed) in
  let arena = ref (D.Arena.build !prov) in
  let index = ref (D.Component_index.build !arena) in
  for _ = 1 to 4 do
    match random_live_dd rng !arena with
    | None -> ()
    | Some dd ->
      let prov' = D.Provenance.delete !prov dd in
      let arena' = D.Arena.delete !arena ~dd prov' in
      let index' = D.Component_index.delete !index ~before:!arena ~dd arena' in
      let live_vids =
        List.init (D.Arena.num_vtuples arena') Fun.id
        |> List.filter (fun v -> not (B.mem arena'.D.Arena.dead_v v))
        |> Array.of_list
      in
      Alcotest.(check bool) "live views recognized = applicable"
        (D.Dp_tree.applicable prov') (recognized arena' live_vids);
      let nc = D.Component_index.num_components index' in
      for f = 0 to nc - 1 do
        let f_vids = D.Component_index.vids_of index' f in
        if Array.length f_vids > 0 then begin
          let sh =
            D.Arena.materialize arena'
              { D.Arena.p_component = f;
                p_sids = D.Component_index.sids_of index' f; p_vids = f_vids }
          in
          Alcotest.(check bool) "roster recognized = fragment applicable"
            (D.Dp_tree.applicable sh.D.Arena.arena.D.Arena.prov)
            (recognized arena' f_vids)
        end
      done;
      prov := prov';
      arena := arena';
      index := index'
  done;
  true

let prop_recognizer_fragments_forest =
  qcheck ~count:20 "dp-tree: roster recognizer = fragment (forest)" seeds
    (check_recognizer_fragments forest_prov)

let prop_recognizer_fragments_pivot =
  qcheck ~count:20 "dp-tree: roster recognizer = fragment (pivot)" seeds
    (check_recognizer_fragments
       (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_recognizer_fragments_random =
  qcheck ~count:20 "dp-tree: roster recognizer = fragment (random)" seeds
    (check_recognizer_fragments random_prov)

let classification =
  Alcotest.testable D.Planner.pp_classification ( = )

(* The tier ladder, written out: brute iff the candidates fit under the
   threshold, else the forest DP iff it solves the shard, else the
   approximation portfolio with the parent-threshold LowDeg variant.
   Every decision must name that tier, and its winner, deleted set and
   cost must be that tier's portfolio run on the materialized shard. *)
let check_ladder family ~exact_threshold seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  let cache = D.Planner.create_cache () in
  let r = D.Planner.solve ~exact_threshold ~cache a in
  let shards = Reference.Arena_reference.shatter a in
  let entries = D.Planner.cache_entries cache in
  let wide_global = D.Lowdeg.default_wide_threshold a in
  Alcotest.(check int) "one decision per shard" (Array.length shards)
    (List.length r.D.Planner.shards);
  let deleted =
    List.fold_left2
      (fun deleted (d : D.Planner.shard_decision) (sh : D.Arena.shard) ->
        Alcotest.(check int) "component" sh.D.Arena.component d.D.Planner.component;
        let sa = sh.D.Arena.arena in
        let tier, only, extra =
          if Array.length (D.Arena.candidate_ids sa) <= exact_threshold then
            (D.Planner.Exact_small, [ "brute" ], [])
          else if Result.is_ok (D.Dp_tree.solve sa) then
            (D.Planner.Exact_forest, [ "dp-tree" ], [])
          else
            ( D.Planner.Approximate,
              [ "primal-dual"; "lowdeg"; "general"; "greedy" ],
              [ D.Solvers.lowdeg ~wide_threshold:wide_global () ] )
        in
        Alcotest.check classification "tier" tier d.D.Planner.classification;
        match
          (D.Portfolio.solutions_report ~exact_threshold ~only ~extra sa)
            .D.Portfolio.solutions
        with
        | [] -> Alcotest.fail "reference tier found nothing"
        | w :: _ ->
          Alcotest.(check string) "winner" w.D.Solution.algorithm
            d.D.Planner.winner;
          Alcotest.(check bool) "cost bit-identical" true
            (Float.equal (D.Solution.cost w) d.D.Planner.cost);
          (match d.D.Planner.fingerprint with
          | Some fp ->
            Alcotest.check stuple_set "cached deleted set" w.D.Solution.deleted
              (List.assoc fp entries).D.Planner.e_deleted
          | None -> Alcotest.fail "a clean ladder run is always cached");
          R.Stuple.Set.union deleted w.D.Solution.deleted)
      R.Stuple.Set.empty r.D.Planner.shards (Array.to_list shards)
  in
  (match r.D.Planner.solutions with
  | [ s ] -> Alcotest.check stuple_set "composite deleted set" deleted s.D.Solution.deleted
  | _ -> if shards <> [||] then Alcotest.fail "expected one composite");
  Alcotest.(check int) "no failures" 0 (List.length r.D.Planner.failures);
  true

let ladder_props =
  List.concat_map
    (fun exact_threshold ->
      List.map
        (fun (name, family) ->
          qcheck ~count:20
            (Printf.sprintf "planner: ladder = reference (%s, threshold %d)" name
               exact_threshold)
            seeds
            (check_ladder family ~exact_threshold))
        [
          ("forest", forest_prov);
          ("pivot", pivot_prov ?num_roots:None ?tuples_per_relation:None);
          ("random", random_prov);
        ])
    [ 0; 16 ]

(* the first shard of a family instance (searching seeds upward) whose
   arena satisfies [pred] — the shard arena is a one-component instance
   of its own *)
let find_shard family pred =
  let rec go seed =
    if seed > 500 then Alcotest.fail "no shard satisfies the predicate"
    else
      match
        Array.find_opt
          (fun (sh : D.Arena.shard) -> pred sh.D.Arena.arena)
          (Reference.Arena_reference.shatter (D.Arena.build (family seed)))
      with
      | Some sh -> sh.D.Arena.arena
      | None -> go (seed + 1)
  in
  go 0

let dp_crashes (r : D.Planner.report) =
  List.length
    (List.filter
       (fun (f : D.Portfolio.failure) ->
         String.equal f.D.Portfolio.algorithm "dp-tree"
         && match f.D.Portfolio.reason with
            | D.Portfolio.Crashed _ -> true
            | D.Portfolio.Timed_out -> false)
       r.D.Planner.failures)

let with_dp_tree_raising f =
  Fun.protect ~finally:D.Failpoint.reset (fun () ->
      D.Failpoint.set "solver.dp-tree" D.Failpoint.Raise;
      f ())

let only_decision (r : D.Planner.report) =
  match r.D.Planner.shards with
  | [ d ] -> d
  | ds -> Alcotest.failf "expected one shard decision, got %d" (List.length ds)

(* The forest attempt crosses the [solver.dp-tree] failpoint on every
   shard the brute tier did not answer: a crash there drops a forest
   shard to the approximate tier, recorded and uncached; a shard brute
   answered never reaches the attempt. *)
let test_ladder_failpoint () =
  let forest =
    find_shard
      (pivot_prov ?num_roots:None ?tuples_per_relation:None)
      (fun sa ->
        let n = Array.length (D.Arena.candidate_ids sa) in
        D.Dp_tree.applicable sa.D.Arena.prov && n > 0 && n <= 16)
  in
  let plan ~exact_threshold =
    D.Planner.solve ~exact_threshold ~cache:(D.Planner.create_cache ()) forest
  in
  let clean = only_decision (plan ~exact_threshold:0) in
  Alcotest.check classification "unarmed: forest tier" D.Planner.Exact_forest
    clean.D.Planner.classification;
  Alcotest.(check bool) "unarmed: cached" true (clean.D.Planner.fingerprint <> None);
  with_dp_tree_raising (fun () ->
      let r = plan ~exact_threshold:0 in
      let d = only_decision r in
      Alcotest.check classification "crash falls to approximate"
        D.Planner.Approximate d.D.Planner.classification;
      Alcotest.(check int) "one dp-tree crash" 1 (dp_crashes r);
      Alcotest.(check int) "nothing else failed" 1 (List.length r.D.Planner.failures);
      Alcotest.(check bool) "not cached" true (d.D.Planner.fingerprint = None);
      let r = plan ~exact_threshold:16 in
      let d = only_decision r in
      Alcotest.check classification "brute answers" D.Planner.Exact_small
        d.D.Planner.classification;
      Alcotest.(check int) "dp-tree never ran" 0 (List.length r.D.Planner.failures));
  (* off a pivot forest the attempt still crosses the failpoint *)
  let approx =
    find_shard random_prov (fun sa -> not (D.Dp_tree.applicable sa.D.Arena.prov))
  in
  with_dp_tree_raising (fun () ->
      let r =
        D.Planner.solve ~exact_threshold:0 ~cache:(D.Planner.create_cache ()) approx
      in
      Alcotest.check classification "approximate" D.Planner.Approximate
        (only_decision r).D.Planner.classification;
      Alcotest.(check int) "the attempt crashed" 1 (dp_crashes r))

(* ---- engine ---- *)

(* the engine's incrementally maintained partition must match scratch
   after any mix of applies, deletes and (partition-merging) inserts *)
let check_engine_partition seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots = 4;
        tuples_per_relation = 3; num_queries = 2; deletion_fraction = 0.0 }
  in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  let check tag =
    let _, arena = Engine.index eng in
    Alcotest.(check bool) (tag ^ ": partition = scratch") true
      (partition_equal (Engine.partition eng) (scratch_labels arena));
    Alcotest.(check int) (tag ^ ": components stat")
      (Engine.partition eng).D.Component_index.num_components
      (Engine.stats eng).Engine.components
  in
  check "initial";
  for step = 1 to 8 do
    let tag = Printf.sprintf "seed %d step %d" seed step in
    match Random.State.int rng 3 with
    | 0 -> (
      match R.Instance.stuples (Engine.db eng) with
      | [] -> ()
      | sts ->
        let st = List.nth sts (Random.State.int rng (List.length sts)) in
        Engine.delete eng (R.Stuple.Set.singleton st);
        deleted_pool := st :: !deleted_pool;
        check tag)
    | 1 -> (
      match !deleted_pool with
      | [] -> ()
      | st :: rest ->
        deleted_pool := rest;
        if not (R.Instance.mem (Engine.db eng) st) then begin
          Engine.insert eng st;
          check tag
        end)
    | _ -> check tag
  done;
  Engine.close eng;
  true

let prop_engine_partition =
  qcheck ~count:15 "engine: incremental partition = scratch" seeds
    check_engine_partition

(* a planner session tracks a flat session move for move and never pays
   a worse cost on the rounds they both solve *)
let check_engine_plan_session seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots = 4;
        tuples_per_relation = 3; num_queries = 2; deletion_fraction = 0.0 }
  in
  let queries = p.D.Problem.queries in
  let planned = Engine.create ~plan:true ~domains:1 p.D.Problem.db queries in
  let flat = Engine.create ~domains:1 p.D.Problem.db queries in
  let pick_requests () =
    let prov, _ = Engine.index planned in
    let all =
      D.Smap.fold
        (fun view ts acc ->
          R.Tuple.Set.fold (fun t acc -> (view, t) :: acc) ts acc)
        prov.D.Provenance.views []
    in
    match all with
    | [] -> []
    | _ ->
      let view, t = List.nth all (Random.State.int rng (List.length all)) in
      [ D.Delta_request.make ~view [ t ] ]
  in
  for _ = 1 to 4 do
    match pick_requests () with
    | [] -> ()
    | reqs -> (
      match (Engine.request planned reqs, Engine.request flat reqs) with
      | Ok rp, Ok rf -> (
        match (rp.Engine.solutions, rf.Engine.solutions) with
        | sp :: _, sf :: _ ->
          Alcotest.(check bool) "planned cost <= flat cost" true
            (D.Solution.cost sp <= D.Solution.cost sf +. 1e-9);
          (* commit the same deletion on both sessions *)
          ignore (Engine.apply planned rp);
          ignore (Engine.apply ~solution:sp flat rf);
          Alcotest.(check bool) "databases stay identical" true
            (R.Instance.equal (Engine.db planned) (Engine.db flat))
        | [], [] -> ()
        | _ -> Alcotest.fail "one session found no solution")
      | _ -> Alcotest.fail "request failed")
  done;
  let s = Engine.stats planned in
  Alcotest.(check bool) "planner stats consistent" true
    (s.Engine.shards_solved = s.Engine.shards_exact + s.Engine.shards_approx);
  Engine.close planned;
  Engine.close flat;
  true

let prop_engine_plan_session =
  qcheck ~count:10 "engine: planner session = flat session, never worse" seeds
    check_engine_plan_session

let suite =
  [
    prop_partition_forest;
    prop_partition_random;
    prop_partition_stream_forest;
    prop_partition_stream_pivot;
    prop_partition_stream_random;
    prop_shatter_forest;
    prop_shatter_pivot;
    prop_shatter_random;
    prop_exact_recombination;
    prop_planner_forest;
    prop_planner_pivot;
    prop_planner_exact;
    Alcotest.test_case "planner: --no-decompose = portfolio" `Quick
      test_planner_no_decompose;
    prop_recognizer_forest;
    prop_recognizer_pivot;
    prop_recognizer_random;
    prop_recognizer_fragments_forest;
    prop_recognizer_fragments_pivot;
    prop_recognizer_fragments_random;
  ]
  @ ladder_props
  @ [
    Alcotest.test_case "planner: dp-tree failpoint on the forest tier" `Quick
      test_ladder_failpoint;
    prop_engine_partition;
    prop_engine_plan_session;
  ]
