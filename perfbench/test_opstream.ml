(* The op-stream generator's own tests: determinism per seed, variety
   across seeds, and op mixes whose medians sit firmly inside one latency
   mode. Checkpoint and Restart need a journal and are skipped here; the
   benchmark itself exercises them. *)

module R = Relational
module D = Deleprop
module O = Opstream

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let stream w n = List.map O.op_to_string (O.take w n)

(* run [n] ops on a fresh session: the summed cost of the answers, and
   the latency mode of every op after the first [warm] (the shard cache
   starts empty) *)
let run ?(warm = 0) (w : O.t) n =
  let eng =
    Engine.create ~plan:true ~domains:1 ?exact_threshold:w.O.exact_threshold w.O.db w.O.queries
  in
  let modes = Hashtbl.create 8 in
  let i = ref 0 in
  let mode m =
    if !i >= warm then
      Hashtbl.replace modes m (1 + Option.value ~default:0 (Hashtbl.find_opt modes m))
  in
  let total = ref 0.0 and last = ref R.Stuple.Set.empty in
  let request reqs =
    match Engine.request eng reqs with
    | Ok ({ Engine.solutions = best :: _; _ } as plan) ->
      total := !total +. D.Solution.cost best;
      plan
    | _ -> failwith "request found no answer"
  in
  let commit f =
    let before = (Engine.stats eng).Engine.components in
    f ();
    let after = (Engine.stats eng).Engine.components in
    mode
      (if after > before then "delta.split"
       else if after < before then "delta.merge"
       else "delta.same")
  in
  List.iter
    (fun op ->
      incr i;
      match op with
      | O.Propose reqs ->
        let plan = request reqs in
        mode
          (if plan.Engine.shards_cached = List.length plan.Engine.shards then "propose.spliced"
           else "propose.resolved")
      | O.Solve reqs ->
        let plan = request reqs in
        last := (List.hd plan.Engine.solutions).D.Solution.deleted;
        ignore (Engine.apply eng plan);
        mode "solve"
      | O.Delete dd -> commit (fun () -> Engine.delete eng dd)
      | O.Delta d -> commit (fun () -> ignore (Engine.apply_delta eng d))
      | O.Reinsert_solved ->
        commit (fun () -> ignore (Engine.apply_delta eng (D.Delta.of_inserts !last)))
      | O.Checkpoint | O.Restart -> ())
    (O.take w n);
  Engine.close eng;
  (!total, modes)

let share modes kind =
  let counts =
    Hashtbl.fold
      (fun m c acc -> if String.starts_with ~prefix:(kind ^ ".") m then c :: acc else acc)
      modes []
  in
  let n = List.fold_left ( + ) 0 counts in
  if n = 0 then 1.0 else float_of_int (List.fold_left max 0 counts) /. float_of_int n

let () =
  List.iter
    (fun (name, n) ->
      let a = O.make name ~seed:1 and b = O.make name ~seed:1 and c = O.make name ~seed:2 in
      check (name ^ ": same seed, same op stream") (stream a 300 = stream b 300);
      check (name ^ ": different seeds, different streams") (stream a 300 <> stream c 300);
      let ta, _ = run (O.make name ~seed:1) 120 in
      let tb, _ = run (O.make name ~seed:1) 120 in
      check (name ^ ": same seed, same side_effect_total") (ta = tb && ta > 0.0);
      let _, modes = run ~warm:(n / 3) (O.make name ~seed:3) n in
      (* a majority of at least 0.7 keeps every median inside one mode *)
      List.iter
        (fun kind ->
          let m = share modes kind in
          check (Printf.sprintf "%s: %s majority mode %.2f >= 0.7" name kind m) (m >= 0.7))
        [ "propose"; "delta" ])
    [ ("hub_split", 700); ("pivot_zipf", 1200); ("star_durable", 300) ];
  if !failures > 0 then exit 1
