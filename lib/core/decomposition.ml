module R = Relational

(* A decomposable solution: the answer's structure, recorded at solve
   time, keyed by tuple *content* (fact strings / stuple sets) rather
   than arena ids — so a decomposition survives compaction, component
   renumbering and re-materialization without any remapping. *)

type cert_slice =
  | Slice_exact
  | Slice_ratio of float
  | Slice_heuristic

type part = {
  p_label : string;
  p_deleted : R.Stuple.Set.t;
  p_cost : float;
  p_cert : cert_slice;
}

type forest_node = {
  fn_parent : string option;
  fn_depth : int;
  fn_cut : bool;
  fn_value : float;
  fn_slack : float;
}

type forest_tree = {
  ft_pivot : string;
  ft_nodes : (string * forest_node) list;
}

type structure =
  | Witness_groups
  | Forest of forest_tree list
  | Contributions

type t = {
  d_vtuples : int;
  d_parts : part list;
  d_structure : structure;
}

let structure_name = function
  | Witness_groups -> "witness-groups"
  | Forest _ -> "forest"
  | Contributions -> "contributions"

let pp_cert_slice ppf = function
  | Slice_exact -> Format.fprintf ppf "exact"
  | Slice_ratio r -> Format.fprintf ppf "ratio %g" r
  | Slice_heuristic -> Format.fprintf ppf "heuristic"

let pp ppf d =
  Format.fprintf ppf "@[<v>%s over ‖V‖=%d, %d part(s)%a@]" (structure_name d.d_structure)
    d.d_vtuples (List.length d.d_parts)
    (fun ppf parts ->
      List.iter
        (fun p ->
          Format.fprintf ppf "@ - %s: cost %g, %d deleted, %a" p.p_label p.p_cost
            (R.Stuple.Set.cardinal p.p_deleted)
            pp_cert_slice p.p_cert)
        parts)
    d.d_parts

(* ---- generic constructors ---- *)

let key st = R.Stuple.to_string st

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_cert a b =
  match (a, b) with
  | Slice_exact, Slice_exact | Slice_heuristic, Slice_heuristic -> true
  | Slice_ratio x, Slice_ratio y -> same_float x y
  | _ -> false

let same_node (k, n) (k', n') =
  String.equal k k'
  && Option.equal String.equal n.fn_parent n'.fn_parent
  && n.fn_depth = n'.fn_depth
  && Bool.equal n.fn_cut n'.fn_cut
  && same_float n.fn_value n'.fn_value
  && same_float n.fn_slack n'.fn_slack

let equal_tree t t' =
  String.equal t.ft_pivot t'.ft_pivot && List.equal same_node t.ft_nodes t'.ft_nodes

let equal d d' =
  d == d'
  || d.d_vtuples = d'.d_vtuples
     && List.equal
          (fun p p' ->
            String.equal p.p_label p'.p_label
            && R.Stuple.Set.equal p.p_deleted p'.p_deleted
            && same_float p.p_cost p'.p_cost
            && same_cert p.p_cert p'.p_cert)
          d.d_parts d'.d_parts
     &&
     match (d.d_structure, d'.d_structure) with
     | Witness_groups, Witness_groups | Contributions, Contributions -> true
     | Forest ts, Forest ts' -> List.equal equal_tree ts ts'
     | _ -> false

(* Per-candidate contribution parts for the approximate tier: every
   killed preserved view tuple's weight is charged to the
   content-minimal deleted member of its witness, so the part costs are
   disjoint slices summing to the outcome cost. *)
let contributions (prov : Provenance.t) ~deleted ~cert =
  let weights = prov.Provenance.problem.Problem.weights in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 16 in
  Vtuple.Set.iter
    (fun vt ->
      let w = Provenance.witness_of prov vt in
      let hit = R.Stuple.Set.inter w deleted in
      if not (R.Stuple.Set.is_empty hit) then begin
        let owner = key (R.Stuple.Set.min_elt hit) in
        Hashtbl.replace acc owner
          (Weights.get weights vt +. Option.value ~default:0.0 (Hashtbl.find_opt acc owner))
      end)
    prov.Provenance.preserved;
  R.Stuple.Set.fold
    (fun st parts ->
      let k = key st in
      {
        p_label = k;
        p_deleted = R.Stuple.Set.singleton st;
        p_cost = Option.value ~default:0.0 (Hashtbl.find_opt acc k);
        p_cert = cert;
      }
      :: parts)
    deleted []
  |> List.rev

(* ---- forest restriction ---- *)

(* [restrict_forest tree ~surviving ~lost_end] — project a recorded
   forest-DP decomposition onto the fragment of surviving nodes.

   [surviving] tests a node key; [lost_end] charges the weight of every
   preserved view tuple lost with the split to its recorded endpoint
   (the deepest witness member under the recorded depths). The
   projection is sound — the restricted tree is what a fresh DP on the
   fragment computes, with the same cut frontier — iff:
   - the pivot survives (the caller separately checks it is still the
     content-minimal common witness member, so [find_pivot] re-picks it);
   - every lost node was uncut with value 0 (a lost region with a cut,
     or any positive value, would have contributed to surviving
     decisions);
   - no surviving uncut node flips to cut once the lost preserved
     weight leaves its subtree: with [lostAcc st] the lost endpoint
     weight inside [st]'s subtree and [delta st] the part of it the
     recorded frontier already deletes, the node stays uncut iff
     [lostAcc - delta <= slack] (slack = cut_cost - nocut_cost at
     solve time). Cut nodes can never flip: their inequality tightens
     in the keeping direction.
   The comparisons are float-exact when view weights are integers (sums
   and differences of integers are exact in double precision); with
   general floats they are conservative up to rounding of the recorded
   sums. Returns the restricted tree, with per-node values and slacks
   discounted by the lost weight so chained splits restrict again. *)
let restrict_forest (tree : forest_tree) ~surviving ~lost_end =
  let nodes : (string, forest_node) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (k, n) -> Hashtbl.replace nodes k n) tree.ft_nodes;
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  if not (surviving tree.ft_pivot) then fail "pivot %s lost" tree.ft_pivot
  else begin
    let bad_lost =
      List.find_opt
        (fun (k, n) -> (not (surviving k)) && (n.fn_cut || n.fn_value <> 0.0))
        tree.ft_nodes
    in
    let orphan =
      List.find_opt
        (fun (k, n) ->
          surviving k
          && match n.fn_parent with Some p -> not (surviving p) | None -> false)
        tree.ft_nodes
    in
    match (bad_lost, orphan) with
    | Some (k, _), _ -> fail "lost node %s carried value" k
    | _, Some (k, _) -> fail "surviving node %s lost its parent" k
    | None, None -> (
      (* accumulate lost endpoint weight bottom-up *)
      let acc : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
      let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v) in
      let unknown =
        List.find_opt (fun (k, _) -> not (Hashtbl.mem nodes k)) lost_end
      in
      match unknown with
      | Some (k, _) -> fail "lost endpoint %s not a tree node" k
      | None ->
        List.iter (fun (k, w) -> add acc k w) lost_end;
        (* deepest first: ft_nodes is recorded in increasing depth *)
        let deepest_first = List.rev tree.ft_nodes in
        List.iter
          (fun (k, n) ->
            match n.fn_parent with
            | Some p -> add acc p (get acc k)
            | None -> ())
          deepest_first;
        (* delta: the lost weight the recorded cut frontier deletes *)
        let delta : (string, float) Hashtbl.t = Hashtbl.create 64 in
        let child_sum : (string, float) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (k, n) ->
            let d = if n.fn_cut then get acc k else get child_sum k in
            Hashtbl.replace delta k d;
            match n.fn_parent with
            | Some p -> add child_sum p d
            | None -> ())
          deepest_first;
        let flip =
          List.find_opt
            (fun (k, n) ->
              surviving k && (not n.fn_cut)
              && get acc k -. get delta k > n.fn_slack)
            tree.ft_nodes
        in
        (match flip with
        | Some (k, _) -> fail "surviving node %s would flip to cut" k
        | None ->
          (* a node the discount leaves bit-identical is shared with
             the source tree, so chained cache entries cost one list
             cell per unchanged node *)
          let nodes' =
            List.filter_map
              (fun ((k, n) as node) ->
                if not (surviving k) then None
                else
                  let d = get delta k in
                  let value = n.fn_value -. d in
                  let slack =
                    if n.fn_cut then n.fn_slack else n.fn_slack -. (get acc k -. d)
                  in
                  if same_float value n.fn_value && same_float slack n.fn_slack then Some node
                  else Some (k, { n with fn_value = value; fn_slack = slack }))
              tree.ft_nodes
          in
          Ok { tree with ft_nodes = nodes' }))
    end
