(* The set-based DPTreeVSE over Tuple_graph maps and string-keyed
   hashtables, moved verbatim from lib/core/dp_tree.ml: the arena-native
   DP must match it result for result, bit for bit. *)

open Deleprop

module R = Relational
module Tg = Tuple_graph

let src = Logs.Src.create "deleprop.dp_tree" ~doc:"DPTreeVSE (Algorithm 4)"

module Log = (val Logs.src_log src : Logs.LOG)

type objective = Standard | Balanced

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : R.Stuple.t list;
  optimum : float;
  decomp : Decomposition.forest_tree list;
      (** one recorded tree per non-empty graph component, in [pivots]
          order: node parent/depth/cut/value/slack — what
          {!Decomposition.restrict_forest} replays after a split *)
}

type error =
  | Not_a_forest
  | No_pivot

let pp_error ppf = function
  | Not_a_forest -> Format.fprintf ppf "data dual graph is not a forest"
  | No_pivot -> Format.fprintf ppf "a component has no pivot tuple"

(* The structural head of Algorithm 4, shared by [solve] and every
   "would the forest tier take this?" question: build the tuple graph
   from the views' witness paths, root each graph component once (a
   failed rooting is a cycle), bucket the views by component, and find a
   pivot for every component that carries a view. Witnesses are read
   only once the graph is known to be a forest. Components come out in
   reverse discovery order and each bucket keeps the views' order — the
   order the DP folds its float sums in. *)
let shape ~path ~witness views =
  let graph = Tg.of_witness_paths (List.map path views) in
  let exception Fail of error in
  try
    let comp_of, n =
      List.fold_left
        (fun (comp_of, n) u ->
          if R.Stuple.Map.mem u comp_of then (comp_of, n)
          else
            match Tg.Rooted.at graph u with
            | None -> raise (Fail Not_a_forest)
            | Some r ->
              ( List.fold_left
                  (fun m u -> R.Stuple.Map.add u n m)
                  comp_of (Tg.Rooted.by_increasing_depth r),
                n + 1 ))
        (R.Stuple.Map.empty, 0) (Tg.vertices graph)
    in
    let buckets = Array.make n [] in
    List.iter
      (fun v ->
        match R.Stuple.Map.find_opt (R.Stuple.Set.choose (witness v)) comp_of with
        | Some c -> buckets.(c) <- v :: buckets.(c)
        | None -> ())
      views;
    let comps =
      Array.fold_left
        (fun acc bucket ->
          match List.rev bucket with
          | [] -> acc
          | vs -> (
            match Tg.find_pivot graph (List.map witness vs) with
            | None -> raise (Fail No_pivot)
            | Some pivot -> (pivot, vs) :: acc))
        [] buckets
    in
    Ok (graph, comps)
  with Fail e -> Error e

let recognize ~path ~witness views = Result.map ignore (shape ~path ~witness views)

(* every view tuple with its witness path, in descending order *)
let shape_of (prov : Provenance.t) =
  shape ~path:snd
    ~witness:(fun (vt, _) -> Provenance.witness_of prov vt)
    (Vtuple.Map.fold (fun vt path acc -> (vt, path) :: acc)
       prov.Provenance.witness_path [])

let solve ?(objective = Standard) ?budget (prov : Provenance.t) =
  match shape_of prov with
  | Error e -> Error e
  | Ok (graph, comps) ->
    let weights = prov.Provenance.problem.Problem.weights in
    let deletion, pivots, optimum, trees =
      List.fold_left
        (fun (deletion, pivots, optimum, trees) (pivot, views) ->
          Log.debug (fun m ->
              m "component pivot %a, %d view tuples" R.Stuple.pp pivot
                (List.length views));
          let rooted =
            match Tg.Rooted.at graph pivot with
            | Some r -> r
            | None -> assert false (* [shape] rooted every component *)
          in
          (* endpoint of each view tuple = deepest witness tuple *)
          let key st = R.Stuple.to_string st in
          let w_pres_end : (string, float) Hashtbl.t = Hashtbl.create 64 in
          let w_bad_end : (string, float) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun (vt, _) ->
              Budget.tick_o budget;
              let w = Provenance.witness_of prov vt in
              let endpoint =
                R.Stuple.Set.fold
                  (fun v best ->
                    match best with
                    | None -> Some v
                    | Some b ->
                      if Tg.Rooted.depth rooted v > Tg.Rooted.depth rooted b then Some v
                      else best)
                  w None
                |> Option.get
              in
              let tbl =
                if Vtuple.Set.mem vt prov.Provenance.bad then w_bad_end else w_pres_end
              in
              let k = key endpoint in
              Hashtbl.replace tbl k
                (Weights.get weights vt
                +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
            views;
          let pres_end st = Option.value ~default:0.0 (Hashtbl.find_opt w_pres_end (key st)) in
          let bad_end st = Option.value ~default:0.0 (Hashtbl.find_opt w_bad_end (key st)) in
          let has_bad_end st = Hashtbl.mem w_bad_end (key st) in
          (* bottom-up DP *)
          let subtree_pres : (string, float) Hashtbl.t = Hashtbl.create 64 in
          let value : (string, float) Hashtbl.t = Hashtbl.create 64 in
          let cut : (string, bool) Hashtbl.t = Hashtbl.create 64 in
          let slack : (string, float) Hashtbl.t = Hashtbl.create 64 in
          let order = Tg.Rooted.by_increasing_depth rooted in
          let order_rev = List.rev order in
          List.iter
            (fun st ->
              Budget.tick_o budget;
              let children = Tg.Rooted.children rooted st in
              let sp =
                pres_end st
                +. List.fold_left
                     (fun acc c -> acc +. Hashtbl.find subtree_pres (key c))
                     0.0 children
              in
              Hashtbl.replace subtree_pres (key st) sp;
              let children_value =
                List.fold_left
                  (fun acc c -> acc +. Hashtbl.find value (key c))
                  0.0 children
              in
              let cut_cost = sp in
              let nocut_cost =
                match objective with
                | Standard ->
                  if has_bad_end st then infinity else children_value
                | Balanced -> bad_end st +. children_value
              in
              if cut_cost < nocut_cost then begin
                Hashtbl.replace value (key st) cut_cost;
                Hashtbl.replace cut (key st) true
              end
              else begin
                Hashtbl.replace value (key st) nocut_cost;
                Hashtbl.replace cut (key st) false;
                (* how much preserved weight the subtree can lose
                   before cutting becomes strictly cheaper *)
                Hashtbl.replace slack (key st) (cut_cost -. nocut_cost)
              end)
            order_rev;
          (* reconstruct: descend while not cut *)
          let deletion = ref deletion in
          let rec walk st =
            if Hashtbl.find cut (key st) then
              deletion := R.Stuple.Set.add st !deletion
            else List.iter walk (Tg.Rooted.children rooted st)
          in
          walk pivot;
          (* record the rooted tree: parent/depth plus the DP's
             per-node decision state, keyed by tuple content *)
          let parent_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun st ->
              List.iter
                (fun c -> Hashtbl.replace parent_of (key c) (key st))
                (Tg.Rooted.children rooted st))
            order;
          let nodes =
            List.map
              (fun st ->
                let k = key st in
                ( k,
                  {
                    Decomposition.fn_parent = Hashtbl.find_opt parent_of k;
                    fn_depth = Tg.Rooted.depth rooted st;
                    fn_cut = Hashtbl.find cut k;
                    fn_value = Hashtbl.find value k;
                    fn_slack =
                      Option.value ~default:0.0 (Hashtbl.find_opt slack k);
                  } ))
              order
          in
          let tree =
            { Decomposition.ft_pivot = key pivot; ft_nodes = nodes }
          in
          ( !deletion,
            pivot :: pivots,
            optimum +. Hashtbl.find value (key pivot),
            tree :: trees ))
        (R.Stuple.Set.empty, [], 0.0, []) comps
    in
    let outcome = Side_effect.eval prov deletion in
    Ok { deletion; outcome; pivots = List.rev pivots; optimum; decomp = List.rev trees }

let applicable prov = Result.is_ok (shape_of prov)
