module R = Relational
module Bitset = Setcover.Bitset

let src = Logs.Src.create "deleprop.dp_tree" ~doc:"DPTreeVSE (Algorithm 4)"

module Log = (val Logs.src_log src : Logs.LOG)

type objective = Standard | Balanced

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : R.Stuple.t list;
  optimum : float;
  decomp : Decomposition.forest_tree list;
  tree_of_sid : int array;
}

type error =
  | Not_a_forest
  | No_pivot

let pp_error ppf = function
  | Not_a_forest -> Format.fprintf ppf "data dual graph is not a forest"
  | No_pivot -> Format.fprintf ppf "a component has no pivot tuple"

exception Fail of error

let is_zero v = Int64.equal (Int64.bits_of_float v) 0L

(* [path] as sids: each member is located in [v]'s witness row, which
   holds the path's distinct members (at most the body arity) *)
let sid_path (a : Arena.t) v path =
  let row = a.Arena.witness.(v) in
  let sid st =
    let rec find i =
      let s = row.(i) in
      if a.Arena.stuples.(s) == st || R.Stuple.equal a.Arena.stuples.(s) st then s
      else find (i + 1)
    in
    find 0
  in
  Array.of_list (List.map sid path)

(* every live view with its sid path, ascending: the live vids and the
   live provenance's [witness_path] bindings run in the same order *)
let all_paths (a : Arena.t) =
  let n = Arena.live_vtuples a in
  let vids = Array.make n 0 and paths = Array.make n [||] in
  let v = ref 0 and i = ref 0 in
  Vtuple.Map.iter
    (fun _ path ->
      while Bitset.mem a.Arena.dead_v !v do incr v done;
      vids.(!i) <- !v;
      paths.(!i) <- sid_path a !v path;
      incr i;
      incr v)
    a.Arena.prov.Provenance.witness_path;
  (vids, paths)

(* the given views' sid paths, tombstoned vids skipped *)
let roster_paths (a : Arena.t) vids =
  let live = List.filter (fun v -> not (Bitset.mem a.Arena.dead_v v)) (Array.to_list vids) in
  let path v =
    sid_path a v (Vtuple.Map.find a.Arena.vtuples.(v) a.Arena.prov.Provenance.witness_path)
  in
  (Array.of_list live, Array.of_list (List.map path live))

(* The structural head of Algorithm 4 over views [vids] with sid paths
   [paths]. Vertices are the path members, renumbered densely in
   ascending sid order ("locals"); the edges are the distinct
   consecutive pairs, sorted. *)
type shape = {
  verts : int array;             (* local -> sid, ascending *)
  edges : int array;             (* distinct edges [x * n + y], x < y, ascending *)
  lwit : int array array;        (* view -> witness members as locals, ascending *)
  comps : (int * int list) list;
      (* per graph component, in reverse discovery (ascending smallest
         sid) order: the pivot and the component's views in descending
         vid order — the fold orders bit-identity with the set-based
         oracle requires *)
}

(* The pivot test, per witness. On a forest the witness members induce
   the tree spanned by the distinct edges of its own path, so the
   witness is the root path to its deepest member exactly when that
   tree is a path graph (no member of degree > 2) and the root is one
   of its ends (degree ≤ 1). [ends] returns those ends, ascending, or
   [] when the witness is no path graph. *)
let ends lpath lw =
  let m = Array.length lw in
  let deg = Array.make m 0 in
  let idx x =
    let rec go i = if lw.(i) = x then i else go (i + 1) in
    go 0
  in
  let k = Array.length lpath in
  for j = 0 to k - 2 do
    let x = lpath.(j) and y = lpath.(j + 1) in
    let seen = ref false in
    for j' = 0 to j - 1 do
      let x' = lpath.(j') and y' = lpath.(j' + 1) in
      if (x = x' && y = y') || (x = y' && y = x') then seen := true
    done;
    if not !seen then begin
      deg.(idx x) <- deg.(idx x) + 1;
      deg.(idx y) <- deg.(idx y) + 1
    end
  done;
  if Array.exists (fun d -> d > 2) deg then []
  else List.filter (fun x -> deg.(idx x) <= 1) (Array.to_list lw)

let shape (a : Arena.t) vids paths =
  let verts =
    Array.fold_left (fun acc v -> Array.fold_right List.cons a.Arena.witness.(v) acc) [] vids
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let n = Array.length verts in
  let local sid =
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if verts.(mid) <= sid then lo := mid else hi := mid
    done;
    !lo
  in
  let lpaths = Array.map (Array.map local) paths in
  let lwit = Array.map (fun v -> Array.map local a.Arena.witness.(v)) vids in
  let edges =
    let acc = ref [] in
    Array.iter
      (fun lp ->
        for j = 0 to Array.length lp - 2 do
          let x = lp.(j) and y = lp.(j + 1) in
          if x = y then raise (Fail Not_a_forest);
          acc := (min x y * n) + max x y :: !acc
        done)
      lpaths;
    Array.of_list (List.sort_uniq Int.compare !acc)
  in
  (* union-find over the distinct edges: an edge inside one set closes
     a cycle. The smaller root always wins, so a component's root is its
     smallest vertex and ascending roots are the discovery order. *)
  let uf = Array.init n Fun.id in
  let rec find x =
    let p = uf.(x) in
    if p = x then x
    else
      let r = find p in
      uf.(x) <- r;
      r
  in
  Array.iter
    (fun e ->
      let rx = find (e / n) and ry = find (e mod n) in
      if rx = ry then raise (Fail Not_a_forest);
      if rx < ry then uf.(ry) <- rx else uf.(rx) <- ry)
    edges;
  let buckets = Array.make n [] in
  for i = 0 to Array.length vids - 1 do
    let r = find lwit.(i).(0) in
    buckets.(r) <- i :: buckets.(r)
  done;
  let pivot views =
    let common =
      List.fold_left
        (fun cands i ->
          let e = ends lpaths.(i) lwit.(i) in
          List.filter (fun c -> List.mem c e) cands)
        (match views with i :: _ -> ends lpaths.(i) lwit.(i) | [] -> [])
        views
    in
    match common with c :: _ -> c | [] -> raise (Fail No_pivot)
  in
  (* every vertex lies on some view's path: each root has a bucket *)
  let comps =
    Array.fold_left
      (fun acc views -> if views = [] then acc else (pivot views, views) :: acc)
      [] buckets
  in
  { verts; edges; lwit; comps }

let recognize_paths a (vids, paths) =
  match shape a vids paths with
  | _ -> Ok ()
  | exception Fail e -> Error e

let recognize a vids = recognize_paths a (roster_paths a vids)

let solve ?(objective = Standard) ?budget (a : Arena.t) =
  let vids, paths = all_paths a in
  match shape a vids paths with
  | exception Fail e -> Error e
  | { verts; edges; lwit; comps } ->
    let n = Array.length verts in
    (* adjacency lists, ascending: prepending in descending edge order
       leaves each vertex's smaller neighbours before its larger ones *)
    let adj = Array.make n [] in
    for j = Array.length edges - 1 downto 0 do
      let x = edges.(j) / n and y = edges.(j) mod n in
      adj.(x) <- y :: adj.(x);
      adj.(y) <- x :: adj.(y)
    done;
    let depth = Array.make n 0 and parent = Array.make n (-1) in
    let children = Array.make n [] in
    let order = Array.make n 0 in
    let pres_end = Array.make n 0.0 and bad_end = Array.make n 0.0 in
    let has_bad_end = Array.make n false in
    let subtree_pres = Array.make n 0.0 and value = Array.make n 0.0 in
    let cut = Array.make n false and slack = Array.make n 0.0 in
    let key = Array.make n "" and parent_key = Array.make n None in
    let tree_of_sid = Array.make (Arena.num_stuples a) (-1) in
    let stuple x = a.Arena.stuples.(verts.(x)) in
    let deleted = ref [] in
    let _, pivots, optimum, trees =
      List.fold_left
        (fun (t, pivots, optimum, trees) (pivot, views) ->
          Log.debug (fun m ->
              m "component pivot %a, %d view tuples" R.Stuple.pp (stuple pivot)
                (List.length views));
          (* root once, BFS from the pivot: neighbours ascending, each
             node's children prepended (so descending) *)
          order.(0) <- pivot;
          depth.(pivot) <- 0;
          let head = ref 0 and tail = ref 1 in
          while !head < !tail do
            let x = order.(!head) in
            incr head;
            List.iter
              (fun y ->
                if y <> parent.(x) then begin
                  depth.(y) <- depth.(x) + 1;
                  parent.(y) <- x;
                  children.(x) <- y :: children.(x);
                  order.(!tail) <- y;
                  incr tail
                end)
              adj.(x)
          done;
          let size = !tail in
          (* endpoint of each view tuple = deepest witness tuple, ties to
             the smallest sid *)
          List.iter
            (fun i ->
              Budget.tick_o budget;
              let lw = lwit.(i) in
              let e = Array.fold_left (fun b x -> if depth.(x) > depth.(b) then x else b) lw.(0) lw in
              let v = vids.(i) in
              let w = a.Arena.weights.(v) in
              if Bitset.mem a.Arena.bad v then begin
                bad_end.(e) <- w +. bad_end.(e);
                has_bad_end.(e) <- true
              end
              else pres_end.(e) <- w +. pres_end.(e))
            views;
          (* bottom-up DP *)
          for j = size - 1 downto 0 do
            Budget.tick_o budget;
            let x = order.(j) in
            let sp =
              pres_end.(x)
              +. List.fold_left (fun acc c -> acc +. subtree_pres.(c)) 0.0 children.(x)
            in
            subtree_pres.(x) <- sp;
            let children_value =
              List.fold_left (fun acc c -> acc +. value.(c)) 0.0 children.(x)
            in
            let cut_cost = sp in
            let nocut_cost =
              match objective with
              | Standard -> if has_bad_end.(x) then infinity else children_value
              | Balanced -> bad_end.(x) +. children_value
            in
            if cut_cost < nocut_cost then begin
              value.(x) <- cut_cost;
              cut.(x) <- true
            end
            else begin
              value.(x) <- nocut_cost;
              (* how much preserved weight the subtree can lose before
                 cutting becomes strictly cheaper *)
              slack.(x) <- cut_cost -. nocut_cost
            end
          done;
          (* reconstruct: descend while not cut *)
          let rec walk x =
            if cut.(x) then deleted := verts.(x) :: !deleted
            else List.iter walk children.(x)
          in
          walk pivot;
          (* record the rooted tree in BFS order, one content key per
             node. Siblings share their parent's key option and zeros
             share the literal: the cache holds these records for as
             long as the entry lives. *)
          for j = 0 to size - 1 do
            let x = order.(j) in
            key.(x) <- Decomposition.key (stuple x);
            if children.(x) <> [] then parent_key.(x) <- Some key.(x);
            tree_of_sid.(verts.(x)) <- t
          done;
          let nodes =
            List.init size (fun j ->
                let x = order.(j) in
                ( key.(x),
                  {
                    Decomposition.fn_parent =
                      (if parent.(x) < 0 then None else parent_key.(parent.(x)));
                    fn_depth = depth.(x);
                    fn_cut = cut.(x);
                    fn_value = (let v = value.(x) in if is_zero v then 0.0 else v);
                    fn_slack = (let v = slack.(x) in if is_zero v then 0.0 else v);
                  } ))
          in
          let tree = { Decomposition.ft_pivot = key.(pivot); ft_nodes = nodes } in
          (t + 1, stuple pivot :: pivots, optimum +. value.(pivot), tree :: trees))
        (0, [], 0.0, []) comps
    in
    let deletion = Arena.to_stuple_set a !deleted in
    let outcome = Side_effect.eval a.Arena.prov deletion in
    Ok
      {
        deletion;
        outcome;
        pivots = List.rev pivots;
        optimum;
        decomp = List.rev trees;
        tree_of_sid;
      }

let applicable prov =
  let a = Arena.build prov in
  Result.is_ok (recognize_paths a (all_paths a))
