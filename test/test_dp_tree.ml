(* The arena-native DPTreeVSE against the set-based oracle kept under
   test/reference: answers, pivots, optima and recorded trees bit for
   bit, the recognizer on tombstoned rosters, and the budget contract. *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset
module Ref = Reference.Dp_tree_reference

let seeds = Test_decompose.seeds
let forest_prov = Test_decompose.forest_prov
let pivot_prov seed = Test_decompose.pivot_prov seed

(* pivot forests where several queries share a depth, so one endpoint
   collects several views and the per-endpoint sums have an order *)
let pivot_shared_prov seed =
  D.Provenance.build
    (Workload.Pivot_family.generate ~rng:(rng seed)
       { Workload.Pivot_family.depth = 3; num_roots = 5; tuples_per_relation = 4;
         num_queries = 6; deletion_fraction = 0.4 })
let random_prov = Test_decompose.random_prov

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let error_equal (e : D.Dp_tree.error) (e' : Ref.error) =
  match (e, e') with
  | D.Dp_tree.Not_a_forest, Ref.Not_a_forest | D.Dp_tree.No_pivot, Ref.No_pivot -> true
  | _ -> false

let ref_objective = function
  | D.Dp_tree.Standard -> Ref.Standard
  | D.Dp_tree.Balanced -> Ref.Balanced

(* one solve of each, compared field for field *)
let agrees ~objective (a : D.Arena.t) =
  match
    (D.Dp_tree.solve ~objective a, Ref.solve ~objective:(ref_objective objective) a.D.Arena.prov)
  with
  | Ok r, Ok r' ->
    R.Stuple.Set.equal r.D.Dp_tree.deletion r'.Ref.deletion
    && List.equal R.Stuple.equal r.D.Dp_tree.pivots r'.Ref.pivots
    && same_float r.D.Dp_tree.optimum r'.Ref.optimum
    && same_float r.D.Dp_tree.outcome.D.Side_effect.cost r'.Ref.outcome.D.Side_effect.cost
    && List.equal D.Decomposition.equal_tree r.D.Dp_tree.decomp r'.Ref.decomp
  | Error e, Error e' -> error_equal e e'
  | _ -> false

(* the family's instance re-weighted with awkward floats, so that every
   fold order the DP sums in shows in the low bits *)
let reweighted family seed =
  let prov = family seed in
  let p = prov.D.Provenance.problem in
  let rng = rng (seed + 31337) in
  let awkward = [| 0.1; 0.7; 1e-3; 2.5; 1e16; 1.0; 0.3 |] in
  let weights =
    D.Weights.of_list
      (D.Vtuple.Set.fold
         (fun vt acc -> (vt, awkward.(Random.State.int rng (Array.length awkward))) :: acc)
         (D.Provenance.all_vtuples prov) [])
  in
  D.Provenance.build
    (D.Problem.make ~db:p.D.Problem.db ~queries:p.D.Problem.queries
       ~deletions:
         (List.map
            (fun (q, ts) -> (q, R.Tuple.Set.elements ts))
            (D.Smap.bindings p.D.Problem.deletions))
       ~weights ())

let check_family family objective seed =
  let a = D.Arena.build (reweighted family seed) in
  agrees ~objective a
  && Array.for_all
       (fun (sh : D.Arena.shard) -> agrees ~objective sh.D.Arena.arena)
       (Reference.Arena_reference.shatter a)

let equivalence_props =
  List.concat_map
    (fun (fname, family) ->
      List.map
        (fun (oname, objective) ->
          qcheck ~count:40
            (Printf.sprintf "dp-tree: arena ≡ reference (%s × %s)" fname oname)
            seeds (check_family family objective))
        [ ("Standard", D.Dp_tree.Standard); ("Balanced", D.Dp_tree.Balanced) ])
    [ ("forest", forest_prov); ("pivot", pivot_shared_prov); ("random", random_prov) ]

(* Self-joins that reuse a tuple out of turn give witness paths with a
   repeated member. The pivot is then not always a path end: for
   [R; S; R; U] the witness is the path S - R - U. A member of degree
   three makes the witness no path at all. *)
let self_join_problem body =
  D.Problem_file.of_string
    (String.concat "\n"
       [
         "rel R(A*, B)"; "R(1, 2)"; "R(4, 3)";
         "rel S(B*, C)"; "S(2, 5)"; "S(3, 6)";
         "rel U(B*, D)"; "U(2, 7)"; "U(3, 8)";
         "rel W(B*, E)"; "W(2, 9)"; "W(3, 9)";
         "query Q(X, Y, Z, V) :- " ^ body;
         "delete Q(1, 2, 5, 7)";
         "";
       ])

let test_repeated_members () =
  List.iter
    (fun (body, expect_ok) ->
      let a = D.Arena.build (D.Provenance.build (self_join_problem body)) in
      List.iter
        (fun objective ->
          Alcotest.(check bool) (body ^ ": arena = reference") true (agrees ~objective a))
        [ D.Dp_tree.Standard; D.Dp_tree.Balanced ];
      Alcotest.(check bool) (body ^ ": solved") expect_ok
        (Result.is_ok (D.Dp_tree.solve a)))
    [
      ("R(X, Y), S(Y, Z), R(X, Y), U(Y, V)", true);
      ("R(X, Y), S(Y, Z), U(Y, V), S(Y, Z)", true);
      ("R(X, Y), S(Y, Z), R(X, Y), U(Y, V), R(X, Y), W(Y, T)", false);
    ]

(* the recognizer on rosters of a tombstoned arena, against the
   reference recognizer reading the same live views through the
   provenance *)
let ref_recognize (a : D.Arena.t) vids =
  let prov = a.D.Arena.prov in
  let vt v = a.D.Arena.vtuples.(v) in
  Ref.recognize
    ~path:(fun v -> D.Vtuple.Map.find (vt v) prov.D.Provenance.witness_path)
    ~witness:(fun v -> D.Provenance.witness_of prov (vt v))
    (Array.to_list vids)

let same_verdict a vids =
  match (D.Dp_tree.recognize a vids, ref_recognize a vids) with
  | Ok (), Ok () -> true
  | Error e, Error e' -> error_equal e e'
  | _ -> false

(* a random delete stream over the family's instance: [check] sees
   every tombstoned arena with its component index *)
let each_tombstoned family seed check =
  let rng = rng (seed + 7919) in
  let prov = ref (family seed) in
  let arena = ref (D.Arena.build !prov) in
  let index = ref (D.Component_index.build !arena) in
  let ok = ref true in
  for _ = 1 to 4 do
    match Test_decompose.random_live_dd rng !arena with
    | None -> ()
    | Some dd ->
      let prov' = D.Provenance.delete !prov dd in
      let arena' = D.Arena.delete !arena ~dd prov' in
      let index' = D.Component_index.delete !index ~before:!arena ~dd arena' in
      ok := !ok && check arena' index';
      prov := prov';
      arena := arena';
      index := index'
  done;
  !ok

let check_roster (a : D.Arena.t) index =
  let live =
    List.init (D.Arena.num_vtuples a) Fun.id
    |> List.filter (fun v -> not (B.mem a.D.Arena.dead_v v))
    |> Array.of_list
  in
  let nc = D.Component_index.num_components index in
  let roster f = D.Component_index.vids_of index f in
  same_verdict a live
  && List.for_all (fun f -> same_verdict a (roster f)) (List.init nc Fun.id)
  (* and a roster spanning two fragments *)
  && (nc < 2
     ||
     let both = Array.append (roster 0) (roster 1) in
     Array.sort Int.compare both;
     same_verdict a both)

let families = QCheck2.Gen.oneofl [ forest_prov; pivot_prov; random_prov ]

let prop_roster =
  qcheck ~count:40 "dp-tree: roster recognizer ≡ reference"
    QCheck2.Gen.(pair families seeds)
    (fun (family, seed) -> each_tombstoned family seed check_roster)

(* the DP reads only live slots of a tombstoned arena *)
let prop_tombstoned =
  qcheck ~count:40 "dp-tree: arena ≡ reference on tombstoned arenas"
    QCheck2.Gen.(pair families seeds)
    (fun (family, seed) ->
      each_tombstoned family seed (fun a _ ->
          agrees ~objective:D.Dp_tree.Standard a && agrees ~objective:D.Dp_tree.Balanced a))

(* The tick contract: one tick per view endpoint and per DP node, none
   in the structural head. An already-expired budget therefore unwinds
   both implementations on every pivot forest with a view, and neither
   on an instance the head rejects. *)
let test_budget_contract () =
  let expired () = Some (D.Budget.of_ms 0.) in
  let run f =
    match f () with
    | Ok _ -> `Ok
    | Error _ -> `Error
    | exception D.Budget.Expired -> `Expired
  in
  List.iter
    (fun family ->
      for seed = 0 to 9 do
        let prov = family seed in
        let a = D.Arena.build prov in
        let arena = run (fun () -> D.Dp_tree.solve ?budget:(expired ()) a) in
        let reference = run (fun () -> Ref.solve ?budget:(expired ()) prov) in
        Alcotest.(check bool) "same verdict" true (arena = reference);
        if D.Dp_tree.applicable prov && D.Arena.live_vtuples a > 0 then
          Alcotest.(check bool) "expired" true (arena = `Expired)
      done)
    [ forest_prov; pivot_prov; random_prov ];
  (* the planner's forest tier under an expired shard budget: the
     dp-tree attempt times out, is recorded, and the shard falls to the
     approximate tier *)
  let forest =
    Test_decompose.find_shard pivot_prov (fun sa ->
        D.Dp_tree.applicable sa.D.Arena.prov && Array.length (D.Arena.candidate_ids sa) > 0)
  in
  let r =
    D.Planner.solve ~exact_threshold:0 ~budget_ms:0. ~cache:(D.Planner.create_cache ()) forest
  in
  let d = Test_decompose.only_decision r in
  Alcotest.check Test_decompose.classification "falls to approximate" D.Planner.Approximate
    d.D.Planner.classification;
  (* exactly what the set-based DP recorded: every budgeted attempt
     timed out, the forest attempt first *)
  Alcotest.(check (list (pair string bool))) "recorded failures"
    [ ("dp-tree", true); ("primal-dual", true); ("lowdeg", true); ("general", true);
      ("lowdeg-global", true) ]
    (List.map
       (fun (f : D.Portfolio.failure) ->
         (f.D.Portfolio.algorithm, f.D.Portfolio.reason = D.Portfolio.Timed_out))
       r.D.Planner.failures)

(* Recorded trees are compared bit for bit, and a restriction that
   changes nothing shares every node with its source. *)
let test_tree_sharing () =
  let a = D.Arena.build (pivot_shared_prov 3) in
  match D.Dp_tree.solve a with
  | Error _ -> Alcotest.fail "pivot instance rejected"
  | Ok r ->
    List.iter
      (fun (t : D.Decomposition.forest_tree) ->
        let flipped =
          match t.D.Decomposition.ft_nodes with
          | (k, n) :: rest ->
            { t with
              D.Decomposition.ft_nodes =
                (k, { n with D.Decomposition.fn_slack = -.n.D.Decomposition.fn_slack }) :: rest }
          | [] -> t
        in
        Alcotest.(check bool) "a sign flip is a difference" false
          (D.Decomposition.equal_tree t flipped);
        match D.Decomposition.restrict_forest t ~surviving:(fun _ -> true) ~lost_end:[] with
        | Error reason -> Alcotest.fail reason
        | Ok t' ->
          Alcotest.(check bool) "identity restriction equal" true (D.Decomposition.equal_tree t t');
          Alcotest.(check bool) "every node shared" true
            (List.for_all2 ( == ) t.D.Decomposition.ft_nodes t'.D.Decomposition.ft_nodes))
      r.D.Dp_tree.decomp

let suite =
  equivalence_props
  @ [
      Alcotest.test_case "dp-tree: repeated path members" `Quick test_repeated_members;
      prop_roster;
      prop_tombstoned;
      Alcotest.test_case "dp-tree: budget contract" `Quick test_budget_contract;
      Alcotest.test_case "decomposition: bit-exact trees, shared nodes" `Quick test_tree_sharing;
    ]
