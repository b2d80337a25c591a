module R = Relational
module D = Deleprop

type op =
  | Propose of D.Delta_request.t list
  | Solve of D.Delta_request.t list
  | Delete of R.Stuple.Set.t
  | Delta of D.Delta.t
  | Reinsert_solved
  | Checkpoint
  | Restart

type kind = Propose_k | Solve_k | Delta_k | Checkpoint_k | Recover_k

let kind = function
  | Propose _ -> Propose_k
  | Solve _ -> Solve_k
  | Delete _ | Delta _ | Reinsert_solved -> Delta_k
  | Checkpoint -> Checkpoint_k
  | Restart -> Recover_k

let kind_name = function
  | Propose_k -> "propose"
  | Solve_k -> "solve"
  | Delta_k -> "delta"
  | Checkpoint_k -> "checkpoint"
  | Recover_k -> "recover"

type t = {
  name : string;
  params : (string * string) list;
  db : R.Instance.t;
  queries : Cq.Query.t list;
  exact_threshold : int option;
  durable : bool;
  first : D.Delta_request.t list;
  quality_ops : int;
  next : unit -> op;
}

(* ops are produced a cycle at a time and handed out one by one *)
let stream cycle =
  let pending = Queue.create () in
  fun () ->
    if Queue.is_empty pending then List.iter (fun op -> Queue.add op pending) (cycle ());
    Queue.pop pending

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* one request per view, tuples in draw order *)
let requests (picks : (string * R.Tuple.t) list) =
  let views = List.sort_uniq String.compare (List.map fst picks) in
  List.map
    (fun v ->
      D.Delta_request.make ~view:v
        (List.filter_map (fun (v', t) -> if v' = v then Some t else None) picks))
    views

let view_array db q = Array.of_list (R.Tuple.Set.elements (Cq.Eval.evaluate db q))

(* hub_split: one hub-rooted tree H → M(aᵢ) → three L leaves, solved with
   the brute tier closed so the single component is Exact_forest. Each
   cycle deletes the M tuple of every branch in a small seeded pool, in a
   fresh seeded order (each delete orphans that branch's leaves: the
   component splits), then re-inserts the whole pool in one delta (the
   pieces merge back). Every edit is followed by the same standing-ΔV
   proposals. Fixed cycle shape: deltas are 6 splits to 1 merge, and
   proposals are spliced except the first after each merge, so no op
   type's median or tail sits on a mode boundary. The pool bounds the
   states the session visits to its 2^6 subsets — the working set fits
   the shard cache. *)
let hub_split ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let branches = 80 and pool_size = 6 and proposals = 4 in
  let b = Buffer.create 8192 in
  Buffer.add_string b "rel H(K*)\nH(k1)\nrel M(K*, A*)\n";
  for i = 1 to branches do
    Buffer.add_string b (Printf.sprintf "M(k1, a%d)\n" i)
  done;
  Buffer.add_string b "rel L(A*, B*)\n";
  for i = 1 to branches do
    for j = 1 to 3 do
      Buffer.add_string b (Printf.sprintf "L(a%d, b%d_%d)\n" i i j)
    done
  done;
  let db = R.Serial.instance_of_string (Buffer.contents b) in
  let queries =
    Cq.Parser.queries_of_string
      "QM(K, A) :- H(K), M(K, A)\nQL(K, A, B) :- H(K), M(K, A), L(A, B)"
  in
  (* branch 1 carries the standing ΔV and never leaves *)
  let standing = [ D.Delta_request.make ~view:"QM" [ R.Tuple.strs [ "k1"; "a1" ] ] ] in
  let candidates = Array.init (branches - 1) (fun i -> i + 2) in
  shuffle rng candidates;
  let pool = Array.sub candidates 0 pool_size in
  let m i = R.Stuple.make "M" (R.Tuple.strs [ "k1"; Printf.sprintf "a%d" i ]) in
  let props = List.init proposals (fun _ -> Propose standing) in
  let cycle () =
    let order = Array.copy pool in
    shuffle rng order;
    let splits =
      List.concat_map
        (fun i -> Delete (R.Stuple.Set.singleton (m i)) :: props)
        (Array.to_list order)
    in
    let merge =
      Delta (D.Delta.of_inserts (R.Stuple.Set.of_list (List.map m (Array.to_list pool))))
    in
    splits @ (merge :: props)
  in
  {
    name = "hub_split";
    params =
      [ ("branches", string_of_int branches); ("leaves_per_branch", "3");
        ("split_pool", string_of_int pool_size);
        ("proposals_per_edit", string_of_int proposals);
        ("exact_threshold", "0") ];
    db; queries; exact_threshold = Some 0; durable = false; first = standing;
    quality_ops = 10 * (pool_size + 1) * (proposals + 1);
    next = stream cycle;
  }

(* pivot_zipf: a depth-3 Pivot_family forest with ~1000 roots, one small
   component per root. Proposals ask a component's standing one-tuple ΔV
   (a seeded pick among its view tuples), the component drawn from
   Zipf(s = 1.1) over the components (the seed shuffles which component
   holds which rank). A quarter of the ops delete and re-insert one
   non-root tuple of a uniformly drawn component in a single delta: the
   writes land anywhere while the reads follow popularity. An edit dirties
   its component and leaves the database as it was, so every generated ΔV
   stays a current answer. The distinct (component, ΔV) keys exceed the
   512-entry shard cache while the hot head fits; about four proposals in
   five splice, so the median sits in the spliced mode and the tail in
   the re-solved one. *)
let pivot_zipf ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let roots = 1000 and per_relation = 6000 and edit_share = 0.25 and zipf_s = 1.1 in
  let problem =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots = roots;
        tuples_per_relation = per_relation; num_queries = 1;
        deletion_fraction = 0.0 }
  in
  let db = problem.D.Problem.db in
  (* fixed full ancestor paths, so every seed sees the same query shape *)
  let queries =
    Cq.Parser.queries_of_string
      "Q1(K1, A1, K0, A0) :- R1(K1, A1, K0), R0(K0, A0)\n\
       Q2(K2, A2, K1, A1, K0, A0) :- R2(K2, A2, K1), R1(K1, A1, K0), R0(K0, A0)"
  in
  let int_at t i =
    match R.Tuple.get t i with
    | R.Value.Int n -> n
    | R.Value.Str _ -> invalid_arg "pivot_zipf: Pivot_family keys are ints"
  in
  (* root of every R1 key, then component members and views per root *)
  let r1_root = Hashtbl.create per_relation in
  R.Instance.fold
    (fun st () ->
      if st.R.Stuple.rel = "R1" then
        Hashtbl.replace r1_root (int_at st.R.Stuple.tuple 0) (int_at st.R.Stuple.tuple 2))
    db ();
  let members = Array.make roots [] and views = Array.make roots [] in
  R.Instance.fold
    (fun st () ->
      let t = st.R.Stuple.tuple in
      match st.R.Stuple.rel with
      | "R1" -> let r = int_at t 2 in members.(r) <- st :: members.(r)
      | "R2" ->
        let r = Hashtbl.find r1_root (int_at t 2) in
        members.(r) <- st :: members.(r)
      | _ -> ())
    db ();
  List.iter
    (fun (q : Cq.Query.t) ->
      let root_pos = Cq.Query.arity q - 2 in
      Array.iter
        (fun t ->
          let r = int_at t root_pos in
          views.(r) <- (q.Cq.Query.name, t) :: views.(r))
        (view_array db q))
    queries;
  let comps =
    Array.of_list
      (List.filter (fun r -> views.(r) <> []) (List.init roots Fun.id))
  in
  shuffle rng comps;
  let members = Array.map (fun r -> Array.of_list (List.rev members.(r))) comps in
  let views = Array.map (fun r -> Array.of_list (List.rev views.(r))) comps in
  let zipf = Workload.Zipf.make ~n:(Array.length comps) ~s:zipf_s in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* each component's standing what-if: one of its view tuples *)
  let standing = Array.map (fun v -> requests [ pick v ]) views in
  let cycle () =
    if Random.State.float rng 1.0 < edit_share then
      let st = R.Stuple.Set.singleton (pick (pick members)) in
      [ Delta (D.Delta.make ~deletes:st ~inserts:st ()) ]
    else [ Propose standing.(Workload.Zipf.sample zipf rng) ]
  in
  {
    name = "pivot_zipf";
    params =
      [ ("depth", "3"); ("roots", string_of_int roots);
        ("tuples_per_relation", string_of_int per_relation);
        ("zipf_s", string_of_float zipf_s); ("edit_share", string_of_float edit_share);
        ("active_components", string_of_int (Array.length comps)) ];
    db; queries; exact_threshold = None; durable = false;
    first = standing.(0);
    quality_ops = 2000;
    next = stream cycle;
  }

(* star_durable: a skewed Random_family star (4 dimensions, Zipf(1)
   fact→dimension references) whose shared hot dimension tuples knit one
   giant non-forest component. The brute tier is closed (a 3-tuple ΔV
   has at most 9 candidates, under the default threshold of 16) and the
   forest tier does not apply, so every shard solves on the approximate
   portfolio. A cycle touches one fact (delete and re-insert in a single
   delta: the component turns dirty, the database stays as it was),
   commits a solve of a 3-tuple ΔV — the first request after a commit,
   so it always re-solves — re-inserts what the solve deleted (back to
   the base database), then proposes ΔVs from a seeded pool: the first
   proposal after the re-insert re-solves, the rest splice once their
   keys are cached. Every request runs against the base database, so
   the keys touched are the two pools — the working set fits the shard
   cache. Checkpoints and restarts fall on cycle boundaries; the first
   restart comes after the first checkpoint, so a snapshot is always on
   disk to re-warm from. *)
let star_durable ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let facts = 250 and dim_tuples = 30 and solve_pool = 32 and propose_pool = 24 in
  let proposals = 6 and checkpoint_every = 3 and restart_every = 7 and delta_size = 3 in
  let problem =
    Workload.Random_family.generate ~rng
      { Workload.Random_family.num_dimensions = 4; fact_tuples = facts;
        dim_tuples; num_queries = 1; dims_per_query = 2; project_free = false;
        deletion_fraction = 0.0; skew = 1.0 }
  in
  let db = problem.D.Problem.db in
  (* a fixed cycle of dimension pairs: overlapping pairs make the dual
     hypergraph non-forest, and every seed sees the same query shape *)
  let pair i j =
    let f =
      List.init 4 (fun d ->
          if d = i || d = j then Printf.sprintf "K%d" d else Printf.sprintf "W%d" d)
    in
    Printf.sprintf
      "Q%d%d(KF, K%d, A%d, K%d, A%d) :- F(KF, %s), D%d(K%d, A%d, B%d), D%d(K%d, A%d, B%d)"
      i j i i j j (String.concat ", " f) i i i i j j j j
  in
  let queries =
    Cq.Parser.queries_of_string
      (String.concat "\n" [ pair 0 1; pair 1 2; pair 2 3; pair 0 3 ])
  in
  let views =
    Array.of_list (List.map (fun (q : Cq.Query.t) -> (q.Cq.Query.name, view_array db q)) queries)
  in
  let delta_v () =
    let rec draw acc =
      if List.length acc = delta_size then acc
      else
        let v, ts = views.(Random.State.int rng (Array.length views)) in
        let p = (v, ts.(Random.State.int rng (Array.length ts))) in
        draw (if List.mem p acc then acc else p :: acc)
    in
    requests (List.rev (draw []))
  in
  let solves = Array.init solve_pool (fun _ -> delta_v ()) in
  let pool = Array.init propose_pool (fun _ -> delta_v ()) in
  let fact_tuples =
    Array.of_list
      (R.Instance.fold (fun st acc -> if st.R.Stuple.rel = "F" then st :: acc else acc) db [])
  in
  let draw a = a.(Random.State.int rng (Array.length a)) in
  let cycles = ref 0 in
  let cycle () =
    incr cycles;
    let touch = R.Stuple.Set.singleton (draw fact_tuples) in
    Delta (D.Delta.make ~deletes:touch ~inserts:touch ())
    :: Solve (draw solves) :: Reinsert_solved
    :: List.init proposals (fun _ -> Propose (draw pool))
    @ (if !cycles mod checkpoint_every = 0 then [ Checkpoint ] else [])
    @ if !cycles mod restart_every = 0 then [ Restart ] else []
  in
  {
    name = "star_durable";
    params =
      [ ("dimensions", "4"); ("facts", string_of_int facts);
        ("dim_tuples", string_of_int dim_tuples); ("skew", "1.0");
        ("delta_v_tuples", string_of_int delta_size);
        ("solve_pool", string_of_int solve_pool);
        ("propose_pool", string_of_int propose_pool);
        ("proposals_per_cycle", string_of_int proposals);
        ("checkpoint_every_cycles", string_of_int checkpoint_every);
        ("restart_every_cycles", string_of_int restart_every); ("exact_threshold", "0") ];
    db; queries; exact_threshold = Some 0;
    durable = true;
    first = pool.(0);
    quality_ops = 200;
    next = stream cycle;
  }

let names = [ "hub_split"; "pivot_zipf"; "star_durable" ]

let make name ~seed =
  match name with
  | "hub_split" -> hub_split ~seed
  | "pivot_zipf" -> pivot_zipf ~seed
  | "star_durable" -> star_durable ~seed
  | _ -> invalid_arg ("Opstream.make: unknown workload " ^ name)

let take w n = List.init n (fun _ -> w.next ())

let stuples s = String.concat " " (List.map R.Stuple.to_string (R.Stuple.Set.elements s))

let op_to_string = function
  | Propose rs -> Format.asprintf "propose %a" (Format.pp_print_list D.Delta_request.pp) rs
  | Solve rs -> Format.asprintf "solve %a" (Format.pp_print_list D.Delta_request.pp) rs
  | Delete s -> "delete " ^ stuples s
  | Delta d ->
    Printf.sprintf "delta -[%s] +[%s]" (stuples d.D.Delta.deletes) (stuples d.D.Delta.inserts)
  | Reinsert_solved -> "reinsert-solved"
  | Checkpoint -> "checkpoint"
  | Restart -> "restart"
