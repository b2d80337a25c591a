(* deleprop: command-line front end.

   Subcommands:
     classify  -d db.txt -q queries.dl          query classes, forest checks
     views     -d db.txt -q queries.dl          materialize and print views
     solve     -d db.txt -q queries.dl -x 'Q(a, b)' [-x ...] [--algo A] [--balanced]
               propagate the deletions, print the plan and its side-effect

   File formats: see lib/relational/serial.mli (databases) and
   lib/cq/parser.mli (queries). *)

module R = Relational
module D = Deleprop

let ( let* ) = Result.bind

let load_db path =
  try Ok (R.Serial.instance_of_file path) with
  | R.Serial.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error m -> Error m

(* query files may mix datalog lines and SQL lines; a line starting with
   SELECT (any case) is SQL and needs the schema; SQL queries are named
   Q1, Q2, ... by position *)
let load_queries ?schema path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    let lines =
      String.split_on_char '\n' text
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    let parse i line =
      let lower = String.lowercase_ascii line in
      if String.length lower >= 7 && String.sub lower 0 7 = "select " then
        match schema with
        | None -> Error (Printf.sprintf "%s: SQL query needs a database schema" path)
        | Some schema -> (
          match Cq.Sql.query_of_string ~schema ~name:(Printf.sprintf "Q%d" (i + 1)) line with
          | Ok q -> Ok q
          | Error e -> Error (Format.asprintf "%s: %a" path Cq.Sql.pp_error e))
      else
        try Ok (Cq.Parser.query_of_string line)
        with Cq.Parser.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
    in
    List.mapi parse lines
    |> List.fold_left
         (fun acc q ->
           match (acc, q) with
           | Ok acc, Ok q -> Ok (q :: acc)
           | (Error _ as e), _ | _, (Error _ as e) ->
             (match e with Error m -> Error m | Ok _ -> assert false))
         (Ok [])
    |> Result.map List.rev
  with Sys_error m -> Error m

let parse_deletion spec =
  try Ok (R.Serial.fact_of_string spec)
  with R.Serial.Parse_error (_, msg) -> Error (Printf.sprintf "bad deletion %S: %s" spec msg)

(* ---- classify ---- *)

let classify db_path q_path with_stats =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let schema = R.Instance.schema db in
  List.iter
    (fun (q : Cq.Query.t) ->
      Cq.Query.check schema q;
      Format.printf "%a@.  arity %d; %a@." Cq.Query.pp q (Cq.Query.arity q)
        Cq.Classify.pp_profile
        (Cq.Classify.profile schema q))
    queries;
  let dual = Hypergraph.Dual.of_queries queries in
  Format.printf "dual hypergraph: %d relations, %d queries; forest case: %b@."
    (Hypergraph.Hgraph.num_vertices dual)
    (Hypergraph.Hgraph.num_edges dual)
    (Hypergraph.Dual.is_forest_case queries);
  if with_stats then begin
    match D.Problem.make ~db ~queries ~deletions:[] ~allow_non_key_preserving:true () with
    | p -> (
      match D.Provenance.build p with
      | prov -> Format.printf "%a@." D.Stats.pp (D.Stats.compute prov)
      | exception D.Provenance.Ambiguous_witness _ ->
        Format.printf "stats: skipped (non-key-preserving query set)@.")
    | exception Invalid_argument m -> Format.printf "stats: skipped (%s)@." m
  end;
  Ok ()

(* ---- views ---- *)

let views db_path q_path =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  List.iter
    (fun (q : Cq.Query.t) ->
      let view = Cq.Eval.evaluate db q in
      Format.printf "@[<v 2>%s (%d tuples):@ %a@]@." q.name (R.Tuple.Set.cardinal view)
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut R.Tuple.pp)
        (R.Tuple.Set.elements view))
    queries;
  Ok ()

(* ---- solve ---- *)

type algo = Auto | Brute | Primal_dual | Lowdeg | Dp | General | Single

let algo_of_string = function
  | "auto" -> Ok Auto
  | "brute" -> Ok Brute
  | "primal-dual" -> Ok Primal_dual
  | "lowdeg" -> Ok Lowdeg
  | "dp" -> Ok Dp
  | "general" -> Ok General
  | "single" -> Ok Single
  | s -> Error (s ^ ": expected auto|brute|primal-dual|lowdeg|dp|general|single")

(* machine-readable solve output: one versioned object via the shared
   encoder ([Report.versioned] stamps schema_version) *)
let outcome_report name (o : D.Side_effect.outcome) =
  D.Report.versioned
    [
      ("algorithm", D.Report.String name);
      ( "deleted",
        D.Report.List
          (List.map
             (fun t -> D.Report.String (Format.asprintf "%a" R.Stuple.pp t))
             (R.Stuple.Set.elements o.D.Side_effect.deleted)) );
      ("cost", D.Report.Float o.D.Side_effect.cost);
      ( "side_effect",
        D.Report.List
          (List.map
             (fun vt -> D.Report.String (Format.asprintf "%a" D.Vtuple.pp vt))
             (D.Vtuple.Set.elements o.D.Side_effect.side_effect)) );
    ]

let print_report r = print_string (D.Report.to_string r); print_newline ()

let report name (o : D.Side_effect.outcome) =
  Format.printf "algorithm: %s@." name;
  Format.printf "plan: delete %d source tuple(s)@." (R.Stuple.Set.cardinal o.D.Side_effect.deleted);
  R.Stuple.Set.iter (fun t -> Format.printf "  - %a@." R.Stuple.pp t) o.D.Side_effect.deleted;
  Format.printf "%a@." D.Side_effect.pp o;
  if not (D.Vtuple.Set.is_empty o.D.Side_effect.side_effect) then begin
    Format.printf "side-effect view tuples:@.";
    D.Vtuple.Set.iter
      (fun vt -> Format.printf "  - %a@." D.Vtuple.pp vt)
      o.D.Side_effect.side_effect
  end

(* The whole-instance solver [algo] names: the label the report prints
   and the outcome, or the reason it has none (an inapplicable, or
   unsolvable instance — a plain error, not an exception). [Auto] is
   exact when the pivot DP applies, else primal-dual on forests, else
   the general reduction. Shared by [solve] and [run]. *)
let dispatch algo queries prov =
  match algo with
  | Auto -> (
    match D.Dp_tree.solve (D.Arena.build prov) with
    | Ok r -> Ok ("dp (pivot forest, exact)", r.D.Dp_tree.outcome)
    | Error _ ->
      if Hypergraph.Dual.is_forest_case queries then
        Ok ("primal-dual (forest, l-approx)", (D.Primal_dual.solve prov).D.Primal_dual.outcome)
      else (
        match D.General_approx.solve prov with
        | Some r -> Ok ("general (Claim 1 approx)", r.D.General_approx.outcome)
        | None -> Error "unsolvable instance"))
  | Brute -> (
    match D.Brute.solve prov with
    | Some r -> Ok ("brute (exact)", r.D.Brute.outcome)
    | None -> Error "infeasible")
  | Primal_dual -> Ok ("primal-dual", (D.Primal_dual.solve prov).D.Primal_dual.outcome)
  | Lowdeg -> Ok ("lowdeg", (D.Lowdeg.solve prov).D.Lowdeg.outcome)
  | Dp -> (
    match D.Dp_tree.solve (D.Arena.build prov) with
    | Ok r -> Ok ("dp", r.D.Dp_tree.outcome)
    | Error e -> Error (Format.asprintf "dp inapplicable: %a" D.Dp_tree.pp_error e))
  | General -> (
    match D.General_approx.solve prov with
    | Some r -> Ok ("general", r.D.General_approx.outcome)
    | None -> Error "unsolvable")
  | Single -> (
    match D.Single_query.solve prov with
    | Ok r -> Ok ("single-query", r.D.Single_query.outcome)
    | Error e ->
      Error (Format.asprintf "single inapplicable: %a" D.Single_query.pp_error e))

let solve db_path q_path deletion_specs algo balanced explain_flag plan_flag
    no_decompose json =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let* algo = algo_of_string algo in
  let* deletions =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* d = parse_deletion spec in
        Ok (d :: acc))
      (Ok []) deletion_specs
  in
  let deletions = List.map (fun (q, t) -> (q, [ t ])) deletions in
  let* problem =
    try Ok (D.Problem.make ~db ~queries ~deletions ())
    with Invalid_argument m -> Error m
  in
  let* prov =
    try Ok (D.Provenance.build problem)
    with D.Provenance.Ambiguous_witness vt ->
      Error
        (Format.asprintf
           "view tuple %a has several witnesses — the query set is not key preserving"
           D.Vtuple.pp vt)
  in
  if plan_flag then begin
    let arena = D.Arena.build prov in
    let r = D.Planner.solve ~decompose:(not no_decompose) arena in
    if json then begin
      match r.D.Planner.solutions with
      | [] -> Error "no feasible solution"
      | _ ->
        print_report
          (D.Report.versioned
             [
               ("decomposed", D.Report.Bool r.D.Planner.decomposed);
               ( "solutions",
                 D.Report.List (List.map D.Report.solution r.D.Planner.solutions)
               );
               ( "failures",
                 D.Report.List (List.map D.Report.failure r.D.Planner.failures) );
               ( "shards",
                 D.Report.List
                   (List.map D.Report.shard_decision r.D.Planner.shards) );
               ("degraded", D.Report.Bool r.D.Planner.degraded);
             ]);
        Ok ()
    end
    else begin
    if r.D.Planner.decomposed then begin
      Format.printf "planner: %d independent shard(s)@."
        (List.length r.D.Planner.shards);
      List.iter
        (fun d -> Format.printf "  %a@." D.Planner.pp_shard_decision d)
        r.D.Planner.shards
    end
    else
      Format.printf "planner: single active component, whole-instance portfolio@.";
    List.iter
      (fun f -> Format.printf "  solver %a@." D.Portfolio.pp_failure f)
      r.D.Planner.failures;
    match r.D.Planner.solutions with
    | [] -> Error "no feasible solution"
    | s :: _ ->
      Format.printf "certificate: %a@." D.Solution.pp_certificate
        s.D.Solution.certificate;
      report s.D.Solution.algorithm s.D.Solution.outcome;
      if explain_flag then
        Format.printf "%a@." D.Explain.pp (D.Explain.explain prov s.D.Solution.deleted);
      Ok ()
    end
  end
  else if balanced then begin
    let r =
      match algo with
      | Brute -> D.Balanced.solve_exact prov
      | Dp -> (
        match D.Balanced.solve_dp prov with
        | Ok r -> r
        | Error e ->
          Format.printf "note: %a; falling back to the general approximation@."
            D.Dp_tree.pp_error e;
          D.Balanced.solve_general prov)
      | _ -> D.Balanced.solve_general prov
    in
    if json then print_report (outcome_report "balanced" r.D.Balanced.outcome)
    else begin
      report "balanced" r.D.Balanced.outcome;
      if explain_flag then
        Format.printf "%a@." D.Explain.pp (D.Explain.explain prov r.D.Balanced.deletion)
    end;
    Ok ()
  end
  else begin
    let* name, outcome = dispatch algo queries prov in
    if json then print_report (outcome_report name outcome)
    else begin
      report name outcome;
      if explain_flag then
        Format.printf "%a@." D.Explain.pp
          (D.Explain.explain prov outcome.D.Side_effect.deleted)
    end;
    Ok ()
  end

(* ---- source side-effect ---- *)

let source db_path q_path deletion_specs exact =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let* deletions =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* d = parse_deletion spec in
        Ok (d :: acc))
      (Ok []) deletion_specs
  in
  let deletions = List.map (fun (q, t) -> (q, [ t ])) deletions in
  let* problem =
    try Ok (D.Problem.make ~db ~queries ~deletions ()) with Invalid_argument m -> Error m
  in
  let prov = D.Provenance.build problem in
  let result =
    if exact then D.Source_side_effect.solve_exact prov
    else D.Source_side_effect.solve_greedy prov
  in
  match result with
  | None -> Error "infeasible"
  | Some r ->
    Format.printf "objective: fewest deleted source tuples (%s)@."
      (if exact then "exact" else "greedy");
    Format.printf "source cost: %g@." r.D.Source_side_effect.source_cost;
    R.Stuple.Set.iter
      (fun t -> Format.printf "  - %a@." R.Stuple.pp t)
      r.D.Source_side_effect.deletion;
    Format.printf "view damage of this plan: %g@."
      r.D.Source_side_effect.outcome.D.Side_effect.cost;
    Ok ()

(* ---- run: whole-instance problem files ---- *)

let run_problem path algo balanced explain_flag =
  let* problem =
    try Ok (D.Problem_file.of_file path) with
    | D.Problem_file.Parse_error (line, m) -> Error (Printf.sprintf "%s:%d: %s" path line m)
    | Sys_error m -> Error m
  in
  let* algo = algo_of_string algo in
  let* prov =
    try Ok (D.Provenance.build problem)
    with D.Provenance.Ambiguous_witness vt ->
      Error
        (Format.asprintf
           "view tuple %a has several witnesses — the query set is not key preserving"
           D.Vtuple.pp vt)
  in
  let queries = problem.D.Problem.queries in
  if balanced then begin
    let r =
      match algo with
      | Brute -> D.Balanced.solve_exact prov
      | _ -> D.Balanced.solve_general prov
    in
    report "balanced" r.D.Balanced.outcome;
    if explain_flag then
      Format.printf "%a@." D.Explain.pp (D.Explain.explain prov r.D.Balanced.deletion);
    Ok ()
  end
  else begin
    let* name, outcome = dispatch algo queries prov in
    report name outcome;
    if explain_flag then
      Format.printf "%a@." D.Explain.pp (D.Explain.explain prov outcome.D.Side_effect.deleted);
    Ok ()
  end

(* ---- insert: missing-answer propagation ---- *)

let insert db_path q_path target_spec objective =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let* qname, target = parse_deletion target_spec in
  let* problem =
    try Ok (D.Problem.make ~db ~queries ~deletions:[] ())
    with Invalid_argument m -> Error m
  in
  let* objective =
    match objective with
    | "fewest-insertions" -> Ok D.Insertion.Fewest_insertions
    | "fewest-new-views" -> Ok D.Insertion.Fewest_new_views
    | s -> Error (s ^ ": expected fewest-insertions|fewest-new-views")
  in
  match D.Insertion.solve ~objective problem ~query:qname ~target with
  | Error e -> Error (Format.asprintf "%a" D.Insertion.pp_error e)
  | Ok r ->
    Format.printf "insert %d source tuple(s):@."
      (R.Stuple.Set.cardinal r.D.Insertion.insertions);
    R.Stuple.Set.iter (fun t -> Format.printf "  + %a@." R.Stuple.pp t) r.D.Insertion.insertions;
    Format.printf "collateral new view tuples (weighted %g):@." r.D.Insertion.side_effect;
    D.Vtuple.Set.iter
      (fun vt -> Format.printf "  ~ %a@." D.Vtuple.pp vt)
      r.D.Insertion.new_views;
    Ok ()

(* ---- diagnose: certain/possible deletions across optimal plans ---- *)

let diagnose db_path q_path deletion_specs =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let* deletions =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* d = parse_deletion spec in
        Ok (d :: acc))
      (Ok []) deletion_specs
  in
  let deletions = List.map (fun (q, t) -> (q, [ t ])) deletions in
  let* problem =
    try Ok (D.Problem.make ~db ~queries ~deletions ~allow_non_key_preserving:true ())
    with Invalid_argument m -> Error m
  in
  let result =
    match D.Provenance.build problem with
    | prov -> D.Diagnosis.diagnose prov
    | exception D.Provenance.Ambiguous_witness _ ->
      D.Diagnosis.diagnose_ground_truth problem
  in
  match result with
  | Some d ->
    Format.printf "%a@." D.Diagnosis.pp d;
    Ok ()
  | None -> Error "infeasible"

(* ---- batch: replay a scripted session on the incremental engine ---- *)

let pp_request ppf (r : D.Delta_request.t) = D.Delta_request.pp ppf r

let request_strings (reqs : D.Delta_request.t list) =
  List.concat_map
    (fun (r : D.Delta_request.t) ->
      List.map
        (fun t -> Format.asprintf "%s%a" r.D.Delta_request.view R.Tuple.pp t)
        r.D.Delta_request.tuples)
    reqs

(* One round of the batch session as a [Report.t] — the per-round shape
   is unchanged from the hand-rolled encoder it replaces; the engine's
   stats object comes from [Engine.Stats.to_json]. *)
let batch_round_report (r : Engine.Script.round) =
  let solve_like ~op ~applies reqs =
    let p = r.Engine.Script.plan in
    let solutions = match p with Some p -> p.Engine.solutions | None -> [] in
    let failures = match p with Some p -> p.Engine.failures | None -> [] in
    [
      ("op", D.Report.String op);
      ( "requests",
        D.Report.List
          (List.map (fun s -> D.Report.String s) (request_strings reqs)) );
      ("solutions", D.Report.List (List.map D.Report.solution solutions));
      ("failures", D.Report.List (List.map D.Report.failure failures));
      ( "degraded",
        D.Report.Bool (match p with Some p -> p.Engine.degraded | None -> false)
      );
      ( "decomposed",
        D.Report.Bool
          (match p with Some p -> p.Engine.decomposed | None -> false) );
      ( "shards",
        D.Report.Int
          (match p with Some p -> List.length p.Engine.shards | None -> 0) );
      ( "shards_cached",
        D.Report.Int (match p with Some p -> p.Engine.shards_cached | None -> 0)
      );
      ( "applied",
        match (applies, solutions) with
        | true, s :: _ -> D.Report.String s.D.Solution.algorithm
        | _ -> D.Report.Null );
    ]
  in
  let fact st = D.Report.String (Format.asprintf "%a" R.Stuple.pp st) in
  let fields =
    match r.Engine.Script.op with
    | Engine.Script.Solve reqs -> solve_like ~op:"solve" ~applies:true reqs
    | Engine.Script.Propose reqs -> solve_like ~op:"propose" ~applies:false reqs
    | Engine.Script.Insert st -> [ ("op", D.Report.String "insert"); ("fact", fact st) ]
    | Engine.Script.Delete st -> [ ("op", D.Report.String "delete"); ("fact", fact st) ]
  in
  let err =
    match r.Engine.Script.error with
    | Some e -> [ ("error", D.Report.String e) ]
    | None -> []
  in
  D.Report.Obj ((("round", D.Report.Int r.Engine.Script.number) :: fields) @ err)

let batch_report_round (r : Engine.Script.round) =
  let solve_like ~verb ~applies reqs =
    Format.printf "round %d: %s %a@." r.Engine.Script.number verb
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_request)
      reqs;
    (match r.Engine.Script.plan with
    | Some p ->
      List.iter
        (fun f -> Format.printf "  solver %a@." D.Portfolio.pp_failure f)
        p.Engine.failures;
      if p.Engine.decomposed then
        List.iter
          (fun d -> Format.printf "  shard %a@." D.Planner.pp_shard_decision d)
          p.Engine.shards;
      if p.Engine.degraded then Format.printf "  degraded to unbudgeted greedy@."
    | None -> ());
    let solutions =
      match r.Engine.Script.plan with Some p -> p.Engine.solutions | None -> []
    in
    match solutions with
    | [] -> if r.Engine.Script.error = None then Format.printf "  no feasible solution@."
    | best :: rest ->
      Format.printf "  %s %a@." (if applies then "applied" else "proposed")
        D.Solution.pp best;
      List.iter
        (fun (s : D.Solution.t) ->
          Format.printf "  also: %s cost %g (%a, %.2f ms)@." s.D.Solution.algorithm
            (D.Solution.cost s) D.Solution.pp_certificate s.D.Solution.certificate
            s.D.Solution.elapsed_ms)
        rest
  in
  (match r.Engine.Script.op with
  | Engine.Script.Solve reqs -> solve_like ~verb:"solve" ~applies:true reqs
  | Engine.Script.Propose reqs -> solve_like ~verb:"propose" ~applies:false reqs
  | Engine.Script.Insert st ->
    Format.printf "round %d: insert %a@." r.Engine.Script.number R.Stuple.pp st
  | Engine.Script.Delete st ->
    Format.printf "round %d: delete %a@." r.Engine.Script.number R.Stuple.pp st);
  match r.Engine.Script.error with
  | Some e -> Format.printf "  failed: %s@." e
  | None -> ()

let batch db_path q_path rounds_path algos exact_threshold plan domains budget_ms
    journal recover keep_going shard_cache snapshot snapshot_every fsync
    segment_bytes json =
  let* db = load_db db_path in
  let* queries = load_queries ~schema:(R.Instance.schema db) q_path in
  let* ops = Engine.Script.parse_file rounds_path in
  let algorithms = match algos with [] -> None | l -> Some l in
  let* eng =
    try
      Ok
        (Engine.create ?algorithms ?exact_threshold ~plan ?domains ?budget_ms
           ?journal ~recover ?shard_cache ?snapshot ?snapshot_every ~fsync
           ?segment_bytes db queries)
    with
    | Invalid_argument m -> Error m
    | Engine.Journal.Error e -> Error (Format.asprintf "%a" Engine.Journal.pp_error e)
  in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let* rounds = Engine.Script.replay ~keep_going eng ops in
      if json then
        print_report
          (D.Report.versioned
             [
               ("rounds", D.Report.List (List.map batch_round_report rounds));
               ("stats", Engine.Stats.to_json (Engine.stats eng));
             ])
      else begin
        List.iter batch_report_round rounds;
        Format.printf "session stats:@.%a@." Engine.pp_stats (Engine.stats eng)
      end;
      Ok ())

(* ---- cmdliner wiring ---- *)

open Cmdliner

let db_arg =
  Arg.(required & opt (some file) None & info [ "d"; "db" ] ~docv:"DB" ~doc:"Database file.")

let q_arg =
  Arg.(required & opt (some file) None & info [ "q"; "queries" ] ~docv:"QUERIES" ~doc:"Query file.")

let handle = function Ok () -> `Ok () | Error m -> `Error (false, m)

let classify_cmd =
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print instance statistics.") in
  Cmd.v (Cmd.info "classify" ~doc:"Classify queries and the dual hypergraph")
    Term.(ret (const (fun d q s -> handle (classify d q s)) $ db_arg $ q_arg $ stats))

let views_cmd =
  Cmd.v (Cmd.info "views" ~doc:"Materialize and print the views")
    Term.(ret (const (fun d q -> handle (views d q)) $ db_arg $ q_arg))

let solve_cmd =
  let deletions =
    Arg.(value & opt_all string [] & info [ "x"; "delete" ] ~docv:"FACT"
           ~doc:"View tuple to delete, e.g. 'Q3(John, XML)'. Repeatable.")
  in
  let algo =
    Arg.(value & opt string "auto" & info [ "a"; "algo" ] ~docv:"ALGO"
           ~doc:"auto | brute | primal-dual | lowdeg | dp | general | single")
  in
  let balanced =
    Arg.(value & flag & info [ "b"; "balanced" ] ~doc:"Optimize the balanced objective.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print a per-tuple propagation report.")
  in
  let plan =
    Arg.(value & flag & info [ "plan" ]
           ~doc:"Shatter-and-plan: decompose into independent components, solve each \
                 with the cheapest adequate tier (exact where small or forest-shaped) \
                 and recombine; prints the per-shard decisions.")
  in
  let no_decompose =
    Arg.(value & flag & info [ "no-decompose" ]
           ~doc:"With --plan: skip the decomposition and run the whole-instance \
                 portfolio (for comparing the two paths).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the result as one JSON object (schema_version-stamped; \
                 suppresses the human-readable report and --explain).")
  in
  Cmd.v (Cmd.info "solve" ~doc:"Propagate view deletions to the source database")
    Term.(
      ret
        (const (fun d q x a b e p nd j -> handle (solve d q x a b e p nd j))
        $ db_arg $ q_arg $ deletions $ algo $ balanced $ explain $ plan
        $ no_decompose $ json))

let insert_cmd =
  let target =
    Arg.(required & opt (some string) None & info [ "t"; "target" ] ~docv:"FACT"
           ~doc:"Missing view tuple, e.g. 'Q4(Alice, TKDE, XML)'.")
  in
  let objective =
    Arg.(value & opt string "fewest-new-views" & info [ "objective" ] ~docv:"OBJ"
           ~doc:"fewest-insertions | fewest-new-views")
  in
  Cmd.v
    (Cmd.info "insert" ~doc:"Propagate a missing view answer back as source insertions")
    Term.(ret (const (fun d q t o -> handle (insert d q t o)) $ db_arg $ q_arg $ target $ objective))

let diagnose_cmd =
  let deletions =
    Arg.(value & opt_all string [] & info [ "x"; "delete" ] ~docv:"FACT"
           ~doc:"View tuple to delete. Repeatable.")
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Enumerate all optimal propagation plans; report certain/possible deletions")
    Term.(ret (const (fun d q x -> handle (diagnose d q x)) $ db_arg $ q_arg $ deletions))

let run_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROBLEM"
           ~doc:"Problem file (db + queries + deletions + weights).")
  in
  let algo =
    Arg.(value & opt string "auto" & info [ "a"; "algo" ] ~docv:"ALGO"
           ~doc:"auto | brute | primal-dual | lowdeg | dp | general | single")
  in
  let balanced =
    Arg.(value & flag & info [ "b"; "balanced" ] ~doc:"Optimize the balanced objective.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print a per-tuple propagation report.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Solve a whole-instance problem file")
    Term.(
      ret
        (const (fun p a b e -> handle (run_problem p a b e))
        $ path $ algo $ balanced $ explain))

let source_cmd =
  let deletions =
    Arg.(value & opt_all string [] & info [ "x"; "delete" ] ~docv:"FACT"
           ~doc:"View tuple to delete. Repeatable.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact branch-and-bound instead of greedy.")
  in
  Cmd.v
    (Cmd.info "source"
       ~doc:"Propagate with the source side-effect objective (fewest deleted tuples)")
    Term.(ret (const (fun d q x e -> handle (source d q x e)) $ db_arg $ q_arg $ deletions $ exact))

let batch_cmd =
  let rounds =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ROUNDS"
           ~doc:"Round script: 'solve FACT[; FACT...]' | 'propose FACT[; FACT...]' \
                 | 'insert FACT' | 'delete FACT', one per line ('propose' solves \
                 without committing).")
  in
  let algos =
    Arg.(value & opt_all string [] & info [ "a"; "algo" ] ~docv:"ALGO"
           ~doc:"Restrict the portfolio to this algorithm (repeatable): brute | primal-dual | lowdeg | dp-tree | general | greedy.")
  in
  let exact_threshold =
    Arg.(value & opt (some int) None & info [ "exact-threshold" ] ~docv:"N"
           ~doc:"Run brute force when at most N candidate tuples (default 16).")
  in
  let plan =
    Arg.(value & flag & info [ "plan" ]
           ~doc:"Route rounds through the shatter-and-plan solver: independent \
                 components solve separately (exact where cheap) and recombine.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Size of the session's domain pool (default: all cores; 1 = sequential).")
  in
  let budget_ms =
    Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS"
           ~doc:"Per-round wall-clock budget: solvers that outlive it are recorded as \
                 timed out and the round degrades gracefully.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Journal committed operations to PATH (crash-recoverable log).")
  in
  let recover =
    Arg.(value & flag & info [ "recover" ]
           ~doc:"Replay an existing journal on top of the database before running the \
                 script (requires --journal).")
  in
  let keep_going =
    Arg.(value & flag & info [ "keep-going" ]
           ~doc:"Record a failing round's error and continue instead of stopping the \
                 session.")
  in
  let shard_cache =
    Arg.(value & opt (some int) None & info [ "shard-cache" ] ~docv:"N"
           ~doc:"With --plan: bound the shard solution cache to N memoized \
                 component answers (default 512; 0 disables). Untouched \
                 components splice their cached answer instead of re-solving; \
                 the JSON stats report shards_cached / shards_resolved and \
                 the cache's lifetime shard_cache_hits.")
  in
  let snapshot =
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"PATH"
           ~doc:"With --journal and --plan: persist the shard solution cache \
                 to PATH (atomic, CRC-checked snapshots) so --recover starts \
                 warm — the first post-recovery round splices untouched \
                 components instead of re-solving them. A missing, torn or \
                 corrupt snapshot degrades to a cold cache (reported in the \
                 stats' snapshot object), never a failed recovery.")
  in
  let snapshot_every =
    Arg.(value & opt (some int) None & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Re-snapshot once N journal records accumulate past the last \
                 snapshot (default 16; 0 = only at checkpoints).")
  in
  let fsync =
    Arg.(value & flag & info [ "fsync" ]
           ~doc:"Fsync the journal after every append (durability against \
                 power loss, not just process death, at a per-append cost).")
  in
  let segment_bytes =
    Arg.(value & opt (some int) None & info [ "segment-bytes" ] ~docv:"N"
           ~doc:"Rotate the journal into sealed segments of about N bytes \
                 (bounds the size of any single file a crash can tear).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the session as one JSON object (schema_version-stamped).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Replay a scripted deletion session on the incremental engine")
    Term.(
      ret
        (const (fun d q r a e p dm b jr rc k sc sn se fs sb j ->
             handle (batch d q r a e p dm b jr rc k sc sn se fs sb j))
        $ db_arg $ q_arg $ rounds $ algos $ exact_threshold $ plan $ domains
        $ budget_ms $ journal $ recover $ keep_going
        $ shard_cache $ snapshot $ snapshot_every $ fsync $ segment_bytes
        $ json))

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let () =
  (* global -v flag: peel it off before cmdliner parsing *)
  let verbose = Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv in
  setup_logs verbose;
  let args =
    Array.to_list Sys.argv
    |> List.filter (fun a -> a <> "-v" && a <> "--verbose")
    |> Array.of_list
  in
  let info =
    Cmd.info "deleprop" ~version:"1.0.0"
      ~doc:"Deletion propagation for multiple key-preserving conjunctive queries             (-v anywhere enables solver traces)"
  in
  exit
    (Cmd.eval ~argv:args
       (Cmd.group info
          [ classify_cmd; views_cmd; solve_cmd; source_cmd; insert_cmd; diagnose_cmd;
            run_cmd; batch_cmd ]))
