(* The session benchmark: one closed-loop client (one process, zero think
   time, ~domains:1) drives an Engine session through a seeded op stream
   (Opstream) for a fixed time, checks every answer, and prints every
   end-to-end metric; the last stdout line is one JSON object.

     session.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR

   --trace 1 is the separate per-layer run: the benchmark times its own
   calls into each layer's public functions, replaying them on every
   round's exact inputs, and never instruments the library. See
   perfbench/README.md for the workloads and metrics. *)

module R = Relational
module D = Deleprop
module O = Opstream
module Journal = Engine.Journal
module Snapshot = Engine.Snapshot

(* ---- clock: monotonic, never wall time ---- *)

let now () = Monotonic_clock.now ()
let ms t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, t0, now ())

(* ---- arguments ---- *)

let usage msg =
  prerr_endline ("session.exe: " ^ msg);
  prerr_endline
    "usage: session.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; out : string }

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> usage ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage ("missing --" ^ k) in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage ("bad --" ^ k) in
  let workload = get "workload" in
  if not (List.mem workload O.names) then usage ("unknown workload " ^ workload);
  let seconds = int "seconds" in
  if seconds < 1 then usage "--seconds must be positive";
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage "--trace is 0 or 1" in
  { workload; seed = int "seed"; seconds = float_of_int seconds; trace; out = get "out" }

(* ---- statistics ---- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* the highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, with its percentile rank *)
let tail_of l =
  let a = sorted l in
  let n = Array.length a in
  if n < 11 then None
  else Some (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The host the benchmark was tuned on switches between a fast and a
   slow state every few seconds, so a percentile over a whole run jumps
   between the two states' values as their shares of the run cross 1/2,
   and a single eleventh-largest sample moves with every preemption. So
   a percentile is taken over each of up to ten consecutive stretches of
   the run's samples (in op order), at least [min_n] samples each, and
   the stretch values are averaged: the result moves smoothly with the
   time spent in each state. [stat] gives a stretch's value and
   percentile; returns their means and the stretch count. *)
let stretched ~min_n stat l =
  let a = Array.of_list (List.rev l) in
  let n = Array.length a in
  let k = max 1 (min 10 (n / min_n)) in
  let parts =
    List.filter_map
      (fun j ->
        let lo = j * n / k and hi = (j + 1) * n / k in
        stat (Array.to_list (Array.sub a lo (hi - lo))))
      (List.init k Fun.id)
  in
  if List.length parts < k then None
  else
    let mean f = List.fold_left (fun acc x -> acc +. f x) 0.0 parts /. float_of_int k in
    Some (mean fst, mean snd, k)

(* p50 per stretch of at least 50 samples *)
let p50 l = stretched ~min_n:50 (fun l -> if l = [] then None else Some (median l, 50.0)) l

(* tail per stretch of at least 250 samples, so it stays at or above p96 *)
let tail l = stretched ~min_n:250 tail_of l

(* ---- tracing: spans in memory, written out at the end ---- *)

type span = {
  id : int;
  name : string;
  t0 : int64;
  t1 : int64;
  parent : int;  (* 0: none *)
  round : int;
  op : string;
}

type tracer = {
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  mutable next_id : int;
  totals : (string, float ref) Hashtbl.t;  (* layer name -> total ms *)
  counts : (string, int ref) Hashtbl.t;  (* layer name -> spans *)
  mutable cur : (string * float) list;  (* this round's spans *)
  mutable rounds : (string * float * (string * float) list) list;
      (* per round: op type, engine-call ms, layer spans *)
  mutable round : int;
  mutable round_id : int;
  mutable round_op : string;
}

let max_spans = 100_000

let new_tracer () =
  { spans = []; kept = 0; dropped = 0; next_id = 1; totals = Hashtbl.create 64;
    counts = Hashtbl.create 64; cur = []; rounds = []; round = 0; round_id = 0;
    round_op = "" }

let add_total tr name v =
  (match Hashtbl.find_opt tr.totals name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tr.totals name (ref v));
  match Hashtbl.find_opt tr.counts name with
  | Some r -> incr r
  | None -> Hashtbl.replace tr.counts name (ref 1)

let total tr name = match Hashtbl.find_opt tr.totals name with Some r -> !r | None -> 0.0
let count tr name = match Hashtbl.find_opt tr.counts name with Some r -> !r | None -> 0

let record tr ?id ?(parent = -1) name t0 t1 =
  let id =
    match id with
    | Some id -> id
    | None ->
      tr.next_id <- tr.next_id + 1;
      tr.next_id - 1
  in
  add_total tr name (ms t0 t1);
  tr.cur <- (name, ms t0 t1) :: tr.cur;
  if tr.kept < max_spans then begin
    tr.kept <- tr.kept + 1;
    tr.spans <-
      { id; name; t0; t1; parent = (if parent < 0 then tr.round_id else parent);
        round = tr.round; op = tr.round_op }
      :: tr.spans
  end
  else tr.dropped <- tr.dropped + 1;
  id

(* a replayed layer call: timed, recorded as a child of the round *)
let layer tr name f =
  let r, t0, t1 = timed f in
  ignore (record tr name t0 t1);
  (r, ms t0 t1)

(* ---- the session ---- *)

type file_track = {
  path : string;
  mutable ino : int;
  mutable size : int;
  mutable written : int;
}

let observe ft =
  match Unix.stat ft.path with
  | st ->
    if st.Unix.st_ino <> ft.ino then ft.written <- ft.written + st.Unix.st_size
    else if st.Unix.st_size > ft.size then ft.written <- ft.written + st.Unix.st_size - ft.size;
    ft.ino <- st.Unix.st_ino;
    ft.size <- st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    ft.ino <- -1;
    ft.size <- 0

let track path =
  let ft = { path; ino = -1; size = 0; written = 0 } in
  observe ft;
  ft.written <- 0;
  ft

type s = {
  w : O.t;
  work : string;
  mutable eng : Engine.t;
  mutable model : R.Instance.t;  (* the database the op stream implies *)
  mutable last_solved : R.Stuple.Set.t;
  mutable pending_reinsert : bool;
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;
  lat : float list ref array;  (* per kind, ms *)
  mutable busy_ms : float;
  mutable last_ms : float;  (* the last op's engine time *)
  modes : (string, float list ref) Hashtbl.t;  (* "kind.mode" -> latencies *)
  mutable quality : float;
  mutable quality_fp : D.Fingerprint.t option;
  mutable quality_engine_ms : float;
  keys : (D.Fingerprint.t, unit) Hashtbl.t;
  mutable ref_at : int list;  (* op indices whose next round is checked from scratch *)
  mutable ref_pending : bool;
  mutable ref_checks : int;
  mutable restarts_warm : int;
  files : (file_track * file_track) option;
  mutable committed_bytes : int;
  (* traced run only *)
  tr : tracer option;
  bench_journal : Journal.writer option;
  mutable requests : int;
  mutable commits : int;
  mutable request_residual : float;
  mutable delta_residual : float;
  mutable split_ms : float list;
  mutable shards : int;
  mutable shards_cached : int;
  resolved : int array;  (* by classification *)
  mutable tombstone_sum : float;
}

let kind_ix = function
  | O.Propose_k -> 0 | O.Solve_k -> 1 | O.Delta_k -> 2 | O.Checkpoint_k -> 3 | O.Recover_k -> 4

let samples s k = !(s.lat.(kind_ix k))

let fail s msg =
  s.failed <- s.failed + 1;
  if List.length s.failures < 5 then s.failures <- msg :: s.failures

let count_mode s name t =
  match Hashtbl.find_opt s.modes name with
  | Some r -> r := t :: !r
  | None -> Hashtbl.replace s.modes name (ref [ t ])

let paths work = (Filename.concat work "session.journal", Filename.concat work "session.snapshot")

(* durable sessions flush every append without fsync (the benchmark's
   own journal writer too) and snapshot at the engine's default cadence *)
let fsync = false
let snapshot_every = 16

let create_engine ?(recover = false) (w : O.t) work =
  if w.O.durable then
    let journal, snapshot = paths work in
    Engine.create ~plan:true ~domains:1 ?exact_threshold:w.O.exact_threshold ~journal ~snapshot
      ~snapshot_every ~fsync ~recover w.O.db w.O.queries
  else Engine.create ~plan:true ~domains:1 ?exact_threshold:w.O.exact_threshold w.O.db w.O.queries

let stuple_bytes set =
  R.Stuple.Set.fold (fun st n -> n + String.length (R.Stuple.to_string st) + 1) set 0

(* an answer is correct when it is the plan's cheapest, feasible, and its
   cost matches Side_effect.eval on the live index re-targeted at the
   round's ΔV *)
let check_answer s reqs (plan : Engine.plan) =
  match plan.Engine.solutions with
  | [] -> Error "no feasible answer"
  | best :: _ ->
    if plan.Engine.degraded then Error "degraded round"
    else if plan.Engine.failures <> [] then Error "solver failure"
    else
      let prov = D.Provenance.with_deletions (fst (Engine.index s.eng)) reqs in
      let o = D.Side_effect.eval prov best.D.Solution.deleted in
      if not o.D.Side_effect.feasible then Error "infeasible answer"
      else if Float.abs (o.D.Side_effect.cost -. D.Solution.cost best) > 1e-9 then
        Error "answer cost differs from Side_effect.eval"
      else Ok best

(* the same round solved from scratch: a fresh session over the current
   database, with no shard cache *)
let reference_check s reqs (best : D.Solution.t) =
  s.ref_checks <- s.ref_checks + 1;
  let fresh =
    Engine.create ~plan:true ~domains:1 ?exact_threshold:s.w.O.exact_threshold
      ~shard_cache:0 (Engine.db s.eng) s.w.O.queries
  in
  let r = Engine.request fresh reqs in
  Engine.close fresh;
  match r with
  | Ok { Engine.solutions = b :: _; _ }
    when Float.abs (D.Solution.cost b -. D.Solution.cost best) <= 1e-9
         && R.Stuple.Set.equal b.D.Solution.deleted best.D.Solution.deleted -> ()
  | _ -> fail s "session answer differs from a from-scratch cache-less solve"

let check_stats s =
  let st = Engine.stats s.eng in
  if st.Engine.rebuilds <> 1 then fail s (Printf.sprintf "stats.rebuilds = %d" st.Engine.rebuilds)

(* ---- replays (traced run) ---- *)

let solver name =
  match D.Solver.find name with
  | Some m -> m
  | None -> failwith ("no solver " ^ name)

(* the round's request-side layers, replayed on its exact inputs: the
   live index (a request commits nothing, so it is the one the engine
   re-targeted) and the shards the planner did not splice *)
let replay_request s tr reqs (plan : Engine.plan) =
  let prov, arena = Engine.index s.eng in
  let cix = Engine.component_index s.eng in
  let prov', a =
    layer tr "provenance.with_deletions_us" (fun () -> D.Provenance.with_deletions prov reqs)
  in
  let arena', b =
    layer tr "arena.with_deletions_us" (fun () -> D.Arena.with_deletions arena prov')
  in
  let protos, c =
    layer tr "component_index.active_us" (fun () -> D.Component_index.active cix arena')
  in
  let (), d =
    layer tr "fingerprint.shard_us" (fun () ->
        Array.iter (fun ps -> ignore (D.Fingerprint.shard arena' ps)) protos)
  in
  let wide = D.Lowdeg.default_wide_threshold arena' in
  let shard_ms =
    List.fold_left
      (fun acc (dec : D.Planner.shard_decision) ->
        if dec.D.Planner.cached then acc
        else
          match
            Array.find_opt (fun ps -> ps.D.Arena.p_component = dec.D.Planner.component) protos
          with
          | None -> acc
          | Some ps ->
            let sh, m = layer tr "arena.materialize_ms" (fun () -> D.Arena.materialize arena' ps) in
            let sa = sh.D.Arena.arena in
            let (), k =
              layer tr "planner.classify_ms" (fun () ->
                  ignore (D.Arena.candidate_ids sa);
                  ignore (D.Dp_tree.applicable sa.D.Arena.prov))
            in
            let run name m = snd (layer tr name (fun () -> ignore (D.Solver.run m sa))) in
            let solve =
              match dec.D.Planner.classification with
              | D.Planner.Exact_small -> run "solver.brute_ms" (solver "brute")
              | D.Planner.Exact_forest -> run "solver.dp_tree_ms" (solver "dp-tree")
              | D.Planner.Approximate ->
                let t =
                  run "solver.primal_dual_ms" (solver "primal-dual")
                  +. run "solver.lowdeg_ms" (solver "lowdeg")
                  +. run "solver.lowdeg_ms" (D.Solvers.lowdeg ~wide_threshold:wide ())
                  +. run "solver.general_ms" (solver "general")
                  +. run "solver.greedy_ms" (solver "greedy")
                in
                add_total tr "solver.approx_ms" t;
                tr.cur <- ("solver.approx_ms", t) :: tr.cur;
                t
            in
            acc +. m +. k +. solve)
      0.0 plan.Engine.shards
  in
  a +. b +. c +. d +. shard_ms

(* the commit-path layers, replayed on the pre-commit state in the
   engine's order: deletes patch, then inserts patch, compacting where
   the engine would *)
let replay_commit s tr (delta : D.Delta.t) =
  let prov, arena = Engine.index s.eng in
  let cix = Engine.component_index s.eng in
  let db = Engine.db s.eng in
  let dd = R.Stuple.Set.filter (R.Instance.mem db) delta.D.Delta.deletes in
  let ins =
    R.Stuple.Set.filter
      (fun st -> R.Stuple.Set.mem st dd || not (R.Instance.mem db st))
      delta.D.Delta.inserts
  in
  (* off the engine's path (it adopts the patched index's views instead,
     see matview.of_views_us): what a Matview-maintained refresh of the
     same delta costs, reported but not subtracted *)
  ignore
    (layer tr "matview.apply_delta_us" (fun () ->
         D.Matview.apply_delta (Engine.matview s.eng) (D.Delta.make ~deletes:dd ~inserts:ins ())));
  let compact arena cix =
    let (a, c), t =
      layer tr "arena.compact_ms" (fun () ->
          (D.Arena.compact arena, D.Component_index.compact cix ~before:arena))
    in
    (a, c, t)
  in
  let prov, arena, cix, t_del =
    if R.Stuple.Set.is_empty dd then (prov, arena, cix, 0.0)
    else
      let prov', a = layer tr "provenance.delete_us" (fun () -> D.Provenance.delete prov dd) in
      let arena', b = layer tr "arena.delete_us" (fun () -> D.Arena.delete arena ~dd prov') in
      let cix', c =
        layer tr "component_index.delete_us" (fun () ->
            D.Component_index.delete cix ~before:arena ~dd arena')
      in
      (prov', arena', cix', a +. b +. c)
  in
  let prov, arena, cix, t_ins =
    if R.Stuple.Set.is_empty ins then (prov, arena, cix, 0.0)
    else
      let prov', a =
        layer tr "provenance.insert_us" (fun () ->
            R.Stuple.Set.fold (fun st p -> D.Provenance.insert p st) ins prov)
      in
      let arena, cix, k =
        if D.Arena.tombstoned arena && not (D.Arena.can_extend_in_place arena ~ins prov') then
          compact arena cix
        else (arena, cix, 0.0)
      in
      let arena', b = layer tr "arena.extend_us" (fun () -> D.Arena.extend arena ~ins prov') in
      let cix', c =
        layer tr "component_index.insert_us" (fun () ->
            D.Component_index.insert cix ~before:arena arena')
      in
      (prov', arena', cix', a +. k +. b +. c)
  in
  let _, t_mv =
    layer tr "matview.of_views_us" (fun () ->
        D.Matview.of_views prov.D.Provenance.problem.D.Problem.db
          (D.Matview.queries (Engine.matview s.eng)) prov.D.Provenance.views)
  in
  (* the engine's amortized trigger (the planner session default) *)
  let t_cmp =
    if D.Arena.tombstone_ratio arena > 0.5 then (fun (_, _, t) -> t) (compact arena cix)
    else 0.0
  in
  t_mv +. t_del +. t_ins +. t_cmp

let journal_replay s tr record =
  match s.bench_journal with
  | None -> ()
  | Some w ->
    ignore (layer tr "journal.append_us" (fun () -> Journal.append w record))

(* ---- executing ops ---- *)

let request s reqs =
  let r, t0, t1 = timed (fun () -> Engine.request s.eng reqs) in
  (match s.tr with Some tr -> ignore (record tr "engine.request_ms" t0 t1) | None -> ());
  (r, ms t0 t1)

(* a request round: timed, checked, and (traced) replayed *)
let round s reqs =
  match request s reqs with
  | Error e, t -> fail s ("request rejected: " ^ D.Delta_request.error_to_string e); (None, t)
  | Ok plan, t ->
    let n = List.length plan.Engine.shards and c = plan.Engine.shards_cached in
    List.iter
      (fun (d : D.Planner.shard_decision) ->
        match d.D.Planner.fingerprint with Some fp -> Hashtbl.replace s.keys fp () | None -> ())
      plan.Engine.shards;
    (match s.tr with
    | Some tr ->
      let replayed = replay_request s tr reqs plan in
      s.requests <- s.requests + 1;
      s.request_residual <- s.request_residual +. (t -. replayed);
      s.shards <- s.shards + n;
      s.shards_cached <- s.shards_cached + c;
      List.iter
        (fun (d : D.Planner.shard_decision) ->
          if not d.D.Planner.cached then
            let i =
              match d.D.Planner.classification with
              | D.Planner.Exact_small -> 0
              | D.Planner.Exact_forest -> 1
              | D.Planner.Approximate -> 2
            in
            s.resolved.(i) <- s.resolved.(i) + 1)
        plan.Engine.shards
    | None -> ());
    (match check_answer s reqs plan with
    | Error msg -> fail s msg; (None, t)
    | Ok best ->
      if s.ref_pending then begin
        s.ref_pending <- false;
        reference_check s reqs best
      end;
      (Some (plan, best, if c = n then "spliced" else "resolved"), t))

(* a committing engine call, traced as [span]: commit replays first
   (pre-commit state) *)
let commit ?(span = "engine.delta_ms") s delta call =
  let replayed = match s.tr with Some tr -> replay_commit s tr delta | None -> 0.0 in
  let before = (Engine.stats s.eng).Engine.components in
  let r, t0, t1 = timed call in
  let t = ms t0 t1 in
  let after = (Engine.stats s.eng).Engine.components in
  (match s.tr with
  | Some tr ->
    s.commits <- s.commits + 1;
    s.delta_residual <- s.delta_residual +. (t -. replayed);
    ignore (record tr span t0 t1);
    if after > before then s.split_ms <- t :: s.split_ms
  | None -> ());
  (r, t, if after > before then "split" else if after < before then "merge" else "same")

let add_lat s k t =
  let r = s.lat.(kind_ix k) in
  r := t :: !r;
  s.last_ms <- t;
  s.busy_ms <- s.busy_ms +. t

let apply_model s (d : D.Delta.t) =
  s.model <-
    R.Stuple.Set.fold (fun st db -> R.Instance.add_stuple db st) d.D.Delta.inserts
      (R.Instance.delete s.model d.D.Delta.deletes)

let exec_delta s delta record_of =
  let applied, t, mode = commit s delta (fun () -> Engine.apply_delta s.eng delta) in
  apply_model s applied;
  s.committed_bytes <-
    s.committed_bytes + stuple_bytes applied.D.Delta.deletes + stuple_bytes applied.D.Delta.inserts;
  (match s.tr with Some tr -> journal_replay s tr (record_of applied) | None -> ());
  add_lat s O.Delta_k t;
  count_mode s ("delta." ^ mode) t

let quality_counts s = s.ops <= s.w.O.quality_ops

let exec s op =
  (match s.tr with
  | Some tr ->
    tr.round <- tr.round + 1;
    tr.round_op <- O.kind_name (O.kind op);
    tr.round_id <- tr.next_id;
    tr.next_id <- tr.next_id + 1;
    tr.cur <- []
  | None -> ());
  let t_round = now () in
  s.ops <- s.ops + 1;
  (match op with
  | O.Propose reqs ->
    let r, t = round s reqs in
    add_lat s O.Propose_k t;
    (match r with
    | Some (_, best, mode) ->
      count_mode s ("propose." ^ mode) t;
      if quality_counts s then s.quality <- s.quality +. D.Solution.cost best
    | None -> ())
  | O.Solve reqs -> (
    let r, t = round s reqs in
    match r with
    | None -> add_lat s O.Solve_k t
    | Some (plan, best, _) ->
      if quality_counts s then s.quality <- s.quality +. D.Solution.cost best;
      let dd = best.D.Solution.deleted in
      let applied, t', _ =
        commit ~span:"engine.apply_ms" s (D.Delta.of_deletes dd) (fun () ->
            Engine.apply s.eng plan)
      in
      (match applied with
      | Some _ ->
        s.last_solved <- dd;
        s.pending_reinsert <- true;
        apply_model s (D.Delta.of_deletes dd);
        s.committed_bytes <- s.committed_bytes + stuple_bytes dd;
        (match s.tr with Some tr -> journal_replay s tr (Journal.Apply dd) | None -> ())
      | None -> fail s "apply committed nothing");
      add_lat s O.Solve_k (t +. t'))
  | O.Delete dd ->
    let (), t, mode = commit s (D.Delta.of_deletes dd) (fun () -> Engine.delete s.eng dd) in
    apply_model s (D.Delta.of_deletes dd);
    s.committed_bytes <- s.committed_bytes + stuple_bytes dd;
    (match s.tr with Some tr -> journal_replay s tr (Journal.Delete dd) | None -> ());
    add_lat s O.Delta_k t;
    count_mode s ("delta." ^ mode) t
  | O.Delta d ->
    exec_delta s d (fun (a : D.Delta.t) ->
        Journal.Delta { deletes = a.D.Delta.deletes; inserts = a.D.Delta.inserts })
  | O.Reinsert_solved ->
    s.pending_reinsert <- false;
    exec_delta s (D.Delta.of_inserts s.last_solved) (fun (a : D.Delta.t) ->
        Journal.Delta { deletes = a.D.Delta.deletes; inserts = a.D.Delta.inserts })
  | O.Checkpoint ->
    let (), t0, t1 = timed (fun () -> Engine.checkpoint s.eng) in
    (match s.tr with Some tr -> ignore (record tr "engine.checkpoint_ms" t0 t1) | None -> ());
    add_lat s O.Checkpoint_k (ms t0 t1)
  | O.Restart ->
    Engine.close s.eng;
    (match s.tr with
    | Some tr ->
      let jpath, spath = paths s.work in
      ignore (layer tr "journal.load_ms" (fun () -> ignore (Journal.load jpath)));
      ignore (layer tr "snapshot.load_ms" (fun () -> ignore (Snapshot.load spath)))
    | None -> ());
    let t0 = now () in
    let eng = create_engine ~recover:true s.w s.work in
    let t_create = now () in
    s.eng <- eng;
    (match s.tr with Some tr -> ignore (record tr "engine.recover_ms" t0 t_create) | None -> ());
    let r, t = request s s.w.O.first in
    add_lat s O.Recover_k (ms t0 t_create +. t);
    (match (Engine.stats s.eng).Engine.snapshot with
    | Engine.Warm _ -> s.restarts_warm <- s.restarts_warm + 1
    | st -> fail s (Format.asprintf "restart came back %a, not warm" Engine.pp_snapshot_status st));
    if not (R.Instance.equal (Engine.db s.eng) s.model) then
      fail s "recovered database differs from the committed one";
    (match r with
    | Ok plan -> (match check_answer s s.w.O.first plan with Ok _ -> () | Error m -> fail s m)
    | Error e -> fail s (D.Delta_request.error_to_string e)));
  (match s.files with
  | Some (j, sn) ->
    let before = (sn.ino, sn.size) in
    observe j;
    observe sn;
    (* the engine's amortized snapshot writes form their own latency mode *)
    if (sn.ino, sn.size) <> before then
      count_mode s (O.kind_name (O.kind op) ^ ".with_snapshot_write") s.last_ms
  | None -> ());
  (match s.tr with
  | Some tr ->
    let engine_ms =
      List.fold_left
        (fun acc (name, t) -> if String.starts_with ~prefix:"engine." name then acc +. t else acc)
        0.0 tr.cur
    in
    tr.rounds <- (tr.round_op, engine_ms, tr.cur) :: tr.rounds;
    ignore (record tr ~id:tr.round_id ~parent:0 ("round." ^ tr.round_op) t_round (now ()));
    s.tombstone_sum <- s.tombstone_sum +. (Engine.stats s.eng).Engine.tombstone_ratio
  | None -> ());
  if List.mem s.ops s.ref_at then s.ref_pending <- true;
  if s.ops = s.w.O.quality_ops then begin
    s.quality_fp <- Some (D.Fingerprint.arena (snd (Engine.index s.eng)));
    s.quality_engine_ms <- s.busy_ms
  end;
  check_stats s

(* ---- set-up, the measured phase, and the report ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Set-up is sampled in [setup_groups] groups of [setup_per_group], half
   before the measured phase and half after it, and setup_s is the mean
   of the group medians: like the stretched percentiles, it then moves
   smoothly with the host's fast and slow states instead of jumping
   between them. (A collection inside the measured phase would disturb
   the session's own GC pacing, so no set-up runs there.) *)
let setup_groups = 4
let setup_per_group = 4

let setup_group ?tr (w : O.t) dir =
  let runs =
    List.init setup_per_group (fun _ ->
        Gc.full_major ();
        let e, t0, t1 = timed (fun () -> create_engine w dir) in
        let r, _, t2 = timed (fun () -> Engine.request e w.O.first) in
        (match tr with
        | Some tr -> ignore (record tr ~parent:0 "engine.create_ms" t0 t1)
        | None -> ());
        Engine.close e;
        (ms t0 t2, match r with Ok { Engine.solutions = _ :: _; _ } -> 0 | _ -> 1))
  in
  Gc.full_major ();
  (median (List.map fst runs) /. 1000.0, List.fold_left (fun n (_, f) -> n + f) 0 runs)

(* the session's own engine, past its cold first round *)
let start (w : O.t) work =
  let e = create_engine w work in
  ignore (Engine.request e w.O.first);
  Gc.full_major ();
  e

let new_session ?tr ~seed (w : O.t) work eng =
  let jpath, spath = paths work in
  let rng = Random.State.make [| seed; 99 |] in
  {
    w; work; eng; model = w.O.db; last_solved = R.Stuple.Set.empty; pending_reinsert = false;
    ops = 0; failed = 0; failures = []; lat = Array.init 5 (fun _ -> ref []); busy_ms = 0.0;
    last_ms = 0.0;
    modes = Hashtbl.create 8; quality = 0.0; quality_fp = None; quality_engine_ms = 0.0;
    keys = Hashtbl.create 64;
    ref_at = List.init 3 (fun _ -> 1 + Random.State.int rng w.O.quality_ops);
    ref_pending = false; ref_checks = 0; restarts_warm = 0;
    files = (if w.O.durable then Some (track jpath, track spath) else None);
    committed_bytes = 0; tr;
    bench_journal =
      (if Option.is_some tr && w.O.durable then
         Some (Journal.open_writer ~fsync (Filename.concat work "bench.journal"))
       else None);
    requests = 0; commits = 0; request_residual = 0.0;
    delta_residual = 0.0; split_ms = []; shards = 0; shards_cached = 0;
    resolved = [| 0; 0; 0 |]; tombstone_sum = 0.0;
  }

(* Run ops for [seconds] and until the quality prefix is done, never
   stopping between a solve and its re-insert. *)
let run_phase s seconds =
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  while Int64.compare (now ()) deadline < 0 || s.ops < s.w.O.quality_ops || s.pending_reinsert do
    exec s (s.w.O.next ())
  done

let final_checks s =
  if not (R.Instance.equal (Engine.db s.eng) s.model) then
    fail s "final database differs from the one the op stream implies";
  (match Engine.request s.eng s.w.O.first with
  | Ok plan -> (
    match check_answer s s.w.O.first plan with
    | Ok best -> reference_check s s.w.O.first best
    | Error m -> fail s m)
  | Error e -> fail s (D.Delta_request.error_to_string e));
  check_stats s

let close_session s =
  Engine.close s.eng;
  Option.iter Journal.close_writer s.bench_journal

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let num v = Printf.sprintf "%.17g" v

let print_metric name unit = function
  | Some (v, detail) ->
    Printf.printf "metric %-22s %14.6f %-6s %s\n" name v unit detail
  | None -> Printf.printf "metric %-22s %14s %-6s\n" name "n/a" unit

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let header (args : args) (w : O.t) eng =
  let arena = snd (Engine.index eng) in
  let st = Engine.stats eng in
  Printf.printf "# perfbench session: workload=%s seed=%d seconds=%.0f trace=%d\n" w.O.name args.seed
    args.seconds (if args.trace then 1 else 0);
  Printf.printf
    "# client: closed loop, 1 process, zero think time, domains=1; clock: bechamel monotonic_clock\n";
  Printf.printf "# params: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) w.O.params));
  Printf.printf "# instance: source_tuples=%d view_tuples=%d components=%d shard_cache_capacity=512\n"
    (D.Arena.live_stuples arena) (D.Arena.live_vtuples arena) st.Engine.components;
  Printf.printf "# durability: %s\n"
    (if not w.O.durable then "none (no journal, no snapshot)"
     else
       Printf.sprintf
         "journal + snapshot, fsync %s, snapshot_every %d; every append flushed to the OS, \
          engine and benchmark writer alike"
         (if fsync then "on" else "off") snapshot_every)

let keys_line s =
  let n = Hashtbl.length s.keys in
  Printf.printf "# shard keys: %d distinct touched vs cache capacity 512 (%s)\n" n
    (if n > 512 then "larger than the cache" else "fits the cache")

(* each op type's latency modes: counts and medians, so every run shows
   whether a median or tail could sit on a mode boundary *)
let mode_line s =
  let l = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) s.modes [] in
  Printf.printf "# modes: %s\n"
    (String.concat " "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d(p50 %.3f ms)" k (List.length v) (median v))
          (List.sort compare l)))

let lat_metrics s =
  let p50 k =
    let l = samples s k in
    match p50 l with
    | None -> None
    | Some (v, _, k') ->
      Some (v, Printf.sprintf "(p50, n=%d, averaged over %d stretch(es))" (List.length l) k')
  in
  (* the share of samples above the p50–tail midpoint: well above the
     share beyond the tail, the tail sits inside a slow mode rather than
     on its edge *)
  let tl k =
    let l = samples s k in
    match tail l with
    | None -> None
    | Some (v, p, k') ->
      let mid = (median l +. v) /. 2.0 in
      let slow = List.length (List.filter (fun x -> x >= mid) l) in
      Some
        ( v,
          Printf.sprintf
            "(p%.2f, n=%d, averaged over %d stretch(es); %.1f%% of samples above the p50-tail \
             midpoint)"
            p (List.length l) k' (100.0 *. float_of_int slow /. float_of_int (List.length l)) )
  in
  (p50, tl)

(* the measured ops, the set-up rounds and the final check's round *)
let attempted s = s.ops + (setup_groups * setup_per_group) + 1

let end_to_end s ~setup_s ~peak =
  let p50, tl = lat_metrics s in
  let attempted = attempted s in
  let write_amp =
    match s.files with
    | Some (j, sn) when s.committed_bytes > 0 ->
      Some
        ( float_of_int (j.written + sn.written) /. float_of_int s.committed_bytes,
          Printf.sprintf "(journal %d B + snapshot %d B over %d B of committed deltas)" j.written
            sn.written s.committed_bytes )
    | _ -> None
  in
  [
      ("propose_p50_ms", "ms", p50 O.Propose_k);
      ("propose_tail_ms", "ms", tl O.Propose_k);
      ("solve_p50_ms", "ms", p50 O.Solve_k);
      ("solve_tail_ms", "ms", tl O.Solve_k);
      ("delta_p50_ms", "ms", p50 O.Delta_k);
      ("delta_tail_ms", "ms", tl O.Delta_k);
      ("checkpoint_p50_ms", "ms", p50 O.Checkpoint_k);
      ("recover_p50_ms", "ms", p50 O.Recover_k);
      ( "ops_per_s", "1/s",
        Some
          ( float_of_int s.ops /. (s.busy_ms /. 1000.0),
            Printf.sprintf "(%d ops / %.3f s of engine calls)" s.ops (s.busy_ms /. 1000.0) ) );
      ( "setup_s", "s",
        Some
          ( setup_s,
            Printf.sprintf "(create + cold first round: mean of %d group medians of %d)"
              setup_groups setup_per_group ) );
      ("write_amp", "ratio", write_amp);
      ("peak_heap_mb", "MiB", Some (peak, "(GC top heap at the end of the measured phase)"));
      ( "side_effect_total", "cost",
        Some (s.quality, Printf.sprintf "(first %d ops)" s.w.O.quality_ops) );
      ( "error_rate", "ratio",
        Some
          ( float_of_int s.failed /. float_of_int attempted,
            Printf.sprintf "(%d of %d)" s.failed attempted ) );
  ]

(* the metrics BENCHMARK.json gates: those every workload produces and
   that are never 0. side_effect_total is deterministic per seed but
   varies several-fold across pivot_zipf seeds (the Zipf-hot components
   dominate the sum), so it is printed and not gated. *)
let gated = [ "propose_p50_ms"; "propose_tail_ms"; "delta_p50_ms"; "delta_tail_ms"; "ops_per_s";
              "setup_s"; "peak_heap_mb" ]

let finish s ~attempted metrics =
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) (List.rev s.failures);
  result_line ~correct:(s.failed = 0) ~attempted ~failed:s.failed metrics

(* half the set-up groups now; the returned function runs the other
   half and gives setup_s and the failed set-up rounds *)
let setup_sampler ?tr w work =
  let dir = Filename.concat work "setup" in
  Unix.mkdir dir 0o755;
  let half () = List.init (setup_groups / 2) (fun _ -> setup_group ?tr w dir) in
  let before = half () in
  fun () ->
    let groups = before @ half () in
    ( List.fold_left (fun acc (m, _) -> acc +. m) 0.0 groups /. float_of_int setup_groups,
      List.fold_left (fun acc (_, f) -> acc + f) 0 groups )

let untraced (args : args) (w : O.t) work =
  let setup_after = setup_sampler w work in
  let eng = start w work in
  header args w eng;
  let s = new_session ~seed:args.seed w work eng in
  run_phase s args.seconds;
  let peak = heap_mb () in
  final_checks s;
  close_session s;
  let setup_s, setup_failed = setup_after () in
  for _ = 1 to setup_failed do fail s "a set-up round found no answer" done;
  keys_line s;
  mode_line s;
  Printf.printf "# checks: %d reference solves, %d/%d restarts warm, rebuilds=1 checked per op\n"
    s.ref_checks s.restarts_warm (List.length (samples s O.Recover_k));
  let all = end_to_end s ~setup_s ~peak in
  List.iter (fun (n, u, v) -> print_metric n u v) all;
  let missing = List.filter (fun (n, _, v) -> List.mem n gated && v = None) all in
  if missing <> [] then begin
    List.iter (fun (n, _, _) -> prerr_endline ("perfbench: no samples for " ^ n)) missing;
    exit 1
  end;
  finish s ~attempted:(attempted s)
    (List.filter_map
       (fun (n, u, v) -> if List.mem n gated then Option.map (fun (x, _) -> (n, u, x)) v else None)
       all)

(* ---- traced run ---- *)

let layer_names_request =
  [ "provenance.with_deletions_us"; "arena.with_deletions_us"; "component_index.active_us";
    "fingerprint.shard_us"; "arena.materialize_ms"; "planner.classify_ms"; "solver.brute_ms";
    "solver.dp_tree_ms"; "solver.approx_ms"; "solver.primal_dual_ms"; "solver.lowdeg_ms";
    "solver.general_ms"; "solver.greedy_ms" ]

let layer_names_commit =
  [ "matview.of_views_us"; "matview.apply_delta_us"; "provenance.delete_us";
    "provenance.insert_us"; "arena.delete_us"; "arena.extend_us"; "component_index.delete_us";
    "component_index.insert_us"; "arena.compact_ms" ]

(* replayed for reference, not part of the engine's commit *)
let off_path = "matview.apply_delta_us"

let scale name = if String.ends_with ~suffix:"_us" name then 1000.0 else 1.0
let unit_of name = if String.ends_with ~suffix:"_us" name then "us" else "ms"

let write_spans (args : args) tr =
  let path = Filename.concat args.out (Printf.sprintf "spans-%s-%d.jsonl" args.workload args.seed) in
  let oc = open_out path in
  let base =
    List.fold_left (fun m sp -> if Int64.compare sp.t0 m < 0 then sp.t0 else m) Int64.max_int tr.spans
  in
  let us t = Int64.to_float (Int64.sub t base) /. 1000.0 in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d, \
         \"round\": %d, \"op\": \"%s\", \"workload\": \"%s\"}\n"
        sp.id sp.name (us sp.t0) (us sp.t1) sp.parent sp.round sp.op args.workload)
    (List.rev tr.spans);
  close_out oc;
  path

(* each layer's total and share of the engine call it sits under, over
   all rounds and over the tail rounds of each op type *)
let report s tr =
  let engine_req = total tr "engine.request_ms" in
  let engine_commit = total tr "engine.delta_ms" +. total tr "engine.apply_ms" in
  Printf.printf "# layer report: replayed layer time vs the engine call it sits under\n";
  Printf.printf "#   shares are subtraction, not interval coverage: replays run beside the\n";
  Printf.printf "#   engine call on the same inputs, and the residual is call minus replays\n";
  let line base name =
    let t = total tr name in
    if t > 0.0 then
      Printf.printf "#   %-30s total %10.3f ms  share %6.2f%%%s\n" name t
        (if base > 0.0 then 100.0 *. t /. base else 0.0)
        (if name = off_path then "  (off the engine's path)" else "")
  in
  Printf.printf "#  request side (engine.request total %.3f ms over %d calls)\n" engine_req
    (count tr "engine.request_ms");
  List.iter (line engine_req) layer_names_request;
  Printf.printf "#   %-30s total %10.3f ms\n" "engine.request_residual" s.request_residual;
  Printf.printf "#  commit side (engine.delta + engine.apply total %.3f ms over %d calls)\n"
    engine_commit s.commits;
  List.iter (line engine_commit) (layer_names_commit @ [ "journal.append_us" ]);
  Printf.printf "#   %-30s total %10.3f ms\n" "engine.delta_residual" s.delta_residual;
  List.iter
    (fun kind ->
      let rounds = List.filter (fun (k, _, _) -> k = kind) tr.rounds in
      match tail_of (List.map (fun (_, e, _) -> e) rounds) with
      | None -> ()
      | Some (cut, p) ->
        let tails = List.filter (fun (_, e, _) -> e >= cut) rounds in
        let sum = Hashtbl.create 16 in
        let eng = ref 0.0 in
        List.iter
          (fun (_, e, spans) ->
            eng := !eng +. e;
            List.iter
              (fun (name, t) ->
                if not (String.starts_with ~prefix:"engine." name || name = off_path) then
                  Hashtbl.replace sum name (t +. Option.value ~default:0.0 (Hashtbl.find_opt sum name)))
              spans)
          tails;
        Printf.printf "#  %s tail rounds (engine call >= p%.2f = %.3f ms, %d rounds):\n" kind p cut
          (List.length tails);
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) sum []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
        |> List.iter (fun (name, t) ->
               if t > 0.0 then
                 Printf.printf "#   %-30s %10.3f ms  %6.2f%% of the tail engine calls\n" name t
                   (100.0 *. t /. !eng)))
    [ "propose"; "solve"; "delta" ]

let traced (args : args) (w : O.t) work =
  (* untraced reference over the quality prefix: the answers and the
     engine-call latencies the traced session must reproduce *)
  let eng = start w work in
  header args w eng;
  let base = new_session ~seed:args.seed w work eng in
  run_phase base 0.0;
  close_session base;
  (* the traced session, on the same op stream from the start *)
  let w = O.make args.workload ~seed:args.seed in
  let tr = new_tracer () in
  let setup_after = setup_sampler ~tr w work in
  let eng = start w work in
  let s = new_session ~tr ~seed:args.seed w work eng in
  let st0 = Engine.stats eng in
  let gc0 = Gc.quick_stat () in
  run_phase s args.seconds;
  let gc1 = Gc.quick_stat () in
  (* replays must not perturb the session *)
  if s.quality <> base.quality then fail s "traced run changed side_effect_total";
  if s.quality_fp <> base.quality_fp then fail s "traced run changed the database fingerprint";
  let st1 = Engine.stats s.eng in
  final_checks s;
  close_session s;
  for _ = 1 to snd (setup_after ()) do fail s "a set-up round found no answer" done;
  let spans_path = write_spans args tr in
  keys_line s;
  mode_line s;
  Printf.printf "# traced: side_effect_total %.6g and Fingerprint.arena %s at op %d; %s\n"
    s.quality
    (match s.quality_fp with Some fp -> D.Fingerprint.to_hex fp | None -> "-")
    w.O.quality_ops
    (if s.quality = base.quality && s.quality_fp = base.quality_fp then
       "both match the untraced pass"
     else "the untraced pass differs");
  Printf.printf "# spans: %d written to %s (%d beyond the cap not kept)\n" tr.kept spans_path tr.dropped;
  report s tr;
  let per n v = if n = 0 then 0.0 else v /. float_of_int n in
  let mean name = per (count tr name) (total tr name) in
  let ops = s.ops in
  let overhead = 100.0 *. ((s.quality_engine_ms /. base.quality_engine_ms) -. 1.0) in
  let written f = match s.files with Some (j, sn) -> float_of_int (f (j, sn)).written | None -> 0.0 in
  let metrics =
    [
      ("engine.create_ms", "ms", mean "engine.create_ms");
      ("engine.request_ms", "ms", mean "engine.request_ms");
      ("engine.apply_ms", "ms", mean "engine.apply_ms");
      ("engine.delta_ms", "ms", mean "engine.delta_ms");
      ( "engine.split_delete_ms", "ms",
        per (List.length s.split_ms) (List.fold_left ( +. ) 0.0 s.split_ms) );
      ("engine.checkpoint_ms", "ms", mean "engine.checkpoint_ms");
      ("engine.recover_ms", "ms", mean "engine.recover_ms");
      ("engine.request_residual_ms", "ms", per s.requests s.request_residual);
      ("engine.delta_residual_ms", "ms", per s.commits s.delta_residual);
    ]
    @ List.map
        (fun name -> (name, unit_of name, scale name *. per s.requests (total tr name)))
        layer_names_request
    @ List.map
        (fun name -> (name, unit_of name, scale name *. per s.commits (total tr name)))
        layer_names_commit
    @ [
        ("journal.append_us", "us", 1000.0 *. mean "journal.append_us");
        ("journal.bytes_per_op", "bytes", per ops (written fst));
        ("snapshot.bytes_per_op", "bytes", per ops (written snd));
        ("journal.load_ms", "ms", mean "journal.load_ms");
        ("snapshot.load_ms", "ms", mean "snapshot.load_ms");
        ("planner.shards_per_round", "count", per s.requests (float_of_int s.shards));
        ( "planner.resolved_per_round", "count",
          per s.requests (float_of_int (s.shards - s.shards_cached)) );
        ("planner.cache_hit_ratio", "ratio", per s.shards (float_of_int s.shards_cached));
        ("planner.resolved_exact_small", "count", float_of_int s.resolved.(0));
        ("planner.resolved_exact_forest", "count", float_of_int s.resolved.(1));
        ("planner.resolved_approximate", "count", float_of_int s.resolved.(2));
        ( "planner.fragment_reuses_forest", "count",
          float_of_int (st1.Engine.fragment_reuses_forest - st0.Engine.fragment_reuses_forest) );
        ("planner.distinct_shard_keys", "count", float_of_int (Hashtbl.length s.keys));
        ("engine.compactions", "count", float_of_int (st1.Engine.compactions - st0.Engine.compactions));
        ("arena.tombstone_ratio", "ratio", per ops s.tombstone_sum);
        ("gc.minor_words_per_op", "words", per ops (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        ("gc.major_words_per_op", "words", per ops (gc1.Gc.major_words -. gc0.Gc.major_words));
        ( "gc.major_collections", "count",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("gc.top_heap_words", "words", float_of_int gc1.Gc.top_heap_words);
        ("tracing.overhead_pct", "%", overhead);
      ]
  in
  Printf.printf
    "# tracing overhead: engine calls over the first %d ops took %.3f ms traced vs %.3f ms \
     untraced (%+.2f%%)\n"
    w.O.quality_ops s.quality_engine_ms base.quality_engine_ms overhead;
  List.iter (fun (n, u, v) -> Printf.printf "layer %-32s %14.6f %s\n" n v u) metrics;
  finish s ~attempted:(attempted s + base.ops + 1) metrics

let () =
  let args = parse_args () in
  let w = O.make args.workload ~seed:args.seed in
  let work =
    Filename.concat args.out
      (Printf.sprintf "work-%s-%d-%d" args.workload args.seed (Unix.getpid ()))
  in
  Unix.mkdir work 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf work)
    (fun () -> if args.trace then traced args w work else untraced args w work)
